import itertools

import pytest

from mindswap.moves import MachineMove, plan_product
from mindswap.optimal3 import (
    even_pair_moves,
    lower_bound,
    odd_cycle_moves,
    solve_three_machine_optimal,
)
from mindswap.perm import Permutation, insider, outsider, parse_cycles

from conftest import duplicate_supports, permutation_from_images

X = outsider(1)


def ins(*indices):
    return tuple(insider(i) for i in indices)


def move(*elements):
    return MachineMove(elements)


class TestInsiderOccurrences:
    def test_odd_cycle_plan(self):
        moves = odd_cycle_moves(ins(1, 2, 3), X)
        assert sum(not s.is_outsider for mv in moves for s in mv) == 4


class TestOddCycleMoves:
    def test_three_cycle(self):
        moves = odd_cycle_moves(ins(1, 2, 3), X)
        assert moves == [move(insider(2), insider(1), X), move(insider(3), insider(2), X)]
        assert plan_product(moves) == parse_cycles("(1 3 2)")

    def test_five_cycle_count_and_product(self):
        tau = ins(1, 2, 3, 4, 5)
        moves = odd_cycle_moves(tau, X)
        assert len(moves) == 3
        assert plan_product(moves) == Permutation.from_cycle(tau).inverse()

    def test_product_cancels_cycle(self):
        tau = ins(1, 2, 3, 4, 5, 6, 7)
        moves = odd_cycle_moves(tau, X)
        assert plan_product(moves) * Permutation.from_cycle(tau) == Permutation.identity()

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            odd_cycle_moves(ins(1, 2, 3, 4), X)


class TestEvenPairMoves:
    def test_pair_of_transpositions(self):
        moves = even_pair_moves(ins(1, 2), ins(3, 4), X)
        assert moves == [
            move(insider(4), insider(2), X),
            move(insider(1), insider(2), X),
            move(insider(3), insider(4), X),
        ]
        assert plan_product(moves) == parse_cycles("(1 2)(3 4)")

    def test_four_and_two(self):
        moves = even_pair_moves(ins(1, 2, 3, 4), ins(5, 6), X)
        assert len(moves) == 4
        assert plan_product(moves) == parse_cycles("(1 2 3 4)(5 6)").inverse()

    def test_product_cancels_pair(self):
        target = parse_cycles("(1 2 3 4)(5 6 7 8 9 10)")
        moves = even_pair_moves(ins(1, 2, 3, 4), ins(5, 6, 7, 8, 9, 10), X)
        assert plan_product(moves) * target == Permutation.identity()

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            even_pair_moves(ins(1, 2), ins(2, 3), X)


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
