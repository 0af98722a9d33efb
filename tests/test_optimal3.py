import itertools

import pytest

from mindswap import machine
from mindswap.moves import MachineMove, plan_product
from mindswap.machine import solve_m_machine
from mindswap.optimal3 import lower_bound, solve_three_machine_optimal
from mindswap.perm import Permutation, insider, outsider, parse_cycles

from conftest import duplicate_supports, permutation_from_images

X = outsider(1)


def ins(*indices):
    return tuple(insider(i) for i in indices)


def move(*elements):
    return MachineMove(elements)


def moves_for(tau):
    """The optimal plan's moves for the single cycle tau."""
    return solve_three_machine_optimal(Permutation.from_cycle(tau)).moves


class TestInsiderOccurrences:
    def test_odd_cycle_plan(self):
        moves = moves_for(ins(1, 2, 3))
        assert sum(not s.is_outsider for mv in moves for s in mv) == 4


class TestOddCycleMoves:
    def test_three_cycle(self):
        moves = moves_for(ins(1, 2, 3))
        assert moves == (move(insider(1), insider(3), X), move(insider(1), X, insider(2)))
        assert plan_product(moves) == parse_cycles("(1 3 2)")

    def test_five_cycle_count_and_product(self):
        tau = ins(1, 2, 3, 4, 5)
        moves = moves_for(tau)
        assert len(moves) == 3
        assert plan_product(moves) == Permutation.from_cycle(tau).inverse()

    def test_product_cancels_cycle(self):
        tau = ins(1, 2, 3, 4, 5, 6, 7)
        moves = moves_for(tau)
        assert plan_product(moves) * Permutation.from_cycle(tau) == Permutation.identity()

    def test_even_length_rejected(self):
        with pytest.raises(ValueError, match="^odd permutation is not a product of 3-cycles$"):
            moves_for(ins(1, 2, 3, 4))


class TestEvenPairMoves:
    def test_pair_of_transpositions(self):
        moves = solve_three_machine_optimal(parse_cycles("(1 2)(3 4)")).moves
        assert moves == (
            move(insider(1), insider(3), X),
            move(insider(3), X, insider(4)),
            move(insider(1), X, insider(2)),
        )
        assert plan_product(moves) == parse_cycles("(1 2)(3 4)")

    def test_four_and_two(self):
        moves = solve_three_machine_optimal(parse_cycles("(1 2 3 4)(5 6)")).moves
        assert len(moves) == 4
        assert plan_product(moves) == parse_cycles("(1 2 3 4)(5 6)").inverse()

    def test_product_cancels_pair(self):
        target = parse_cycles("(1 2 3 4)(5 6 7 8 9 10)")
        moves = solve_three_machine_optimal(target).moves
        assert plan_product(moves) * target == Permutation.identity()

    def test_overlap_rejected(self):
        # the hub x1 may not be part of the target
        with pytest.raises(ValueError, match="^target must move insiders only$"):
            solve_three_machine_optimal(parse_cycles("(a1 a2)(a3 x1)"))


class TestSolve:
    def test_three_cycle_two_moves(self):
        plan = solve_three_machine_optimal(parse_cycles("(1 2 3)"))
        assert plan.steps == plan.lower_bound == 2

    def test_transposition_pair_three_moves(self):
        plan = solve_three_machine_optimal(parse_cycles("(1 2)(3 4)"))
        assert plan.steps == 3

    def test_mixed_target(self):
        sigma = parse_cycles("(1 2 3)(4 5 6 7)(8 9)")
        plan = solve_three_machine_optimal(sigma)
        assert (len(sigma.support()), len(sigma.cycles)) == (9, 3)
        assert plan.steps == plan.lower_bound == 6
        assert plan_product(plan.moves) == sigma.inverse()
        assert not duplicate_supports(plan.moves)
        assert all(X in m for m in plan.moves)

    def test_odd_parity_rejected(self):
        with pytest.raises(ValueError):
            solve_three_machine_optimal(parse_cycles("(1 2)"))

    def test_fixed_points_do_not_inflate(self):
        sigma = parse_cycles("(2 5 9)")
        plan = solve_three_machine_optimal(sigma)
        assert plan.target == "(a2 a5 a9)"
        assert plan.steps == plan.lower_bound == 2


class TestLowerBound:
    def test_examples(self):
        assert lower_bound(parse_cycles("(1 2 3)")) == 2
        assert lower_bound(parse_cycles("(1 2)(3 4)")) == 3
        assert lower_bound(Permutation.identity()) == 0

    def test_odd_parity_rejected(self):
        with pytest.raises(ValueError):
            lower_bound(parse_cycles("(1 2)"))

    def test_is_the_machine_bound(self):
        assert lower_bound is machine.lower_bound


def even_permutations(n):
    for images in itertools.permutations(range(1, n + 1)):
        p = permutation_from_images(list(images))
        if p.parity() == 0:
            yield p


class TestBoundIsMetExactly:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_exhaustive_small(self, n):
        for sigma in even_permutations(n):
            plan = solve_three_machine_optimal(sigma)
            expected = lower_bound(sigma)
            assert plan.steps == expected
            moved, cycles = len(sigma.support()), len(sigma.cycles)
            assert sum(not s.is_outsider for mv in plan.moves for s in mv) == moved + cycles
            assert (moved + cycles) % 2 == 0
            assert plan_product(plan.moves) == sigma.inverse()
            assert not duplicate_supports(plan.moves)


class TestIsGeneralMAtThree:
    def test_every_even_target_on_six_insiders(self):
        for sigma in even_permutations(6):
            plan, general = solve_three_machine_optimal(sigma), solve_m_machine(sigma, 3)
            assert (plan.target, plan.outsiders, plan.moves) == (
                general.target, general.outsiders, general.moves
            )
            assert plan.solver == "optimal3"
            assert plan.lower_bound == plan.steps == lower_bound(sigma)

    def test_odd_target_refused_alike(self):
        sigma = parse_cycles("(1 2)(3 4 5)")
        errors = []
        for solve in (solve_three_machine_optimal, lambda s: solve_m_machine(s, 3)):
            with pytest.raises(ValueError) as caught:
                solve(sigma)
            errors.append((type(caught.value), str(caught.value)))
        assert errors == [(ValueError, "odd permutation is not a product of 3-cycles")] * 2
