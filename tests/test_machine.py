import random

import pytest

from mindswap import machine
from mindswap.machine import (
    in_machine_group,
    invert_even_pair_odd_m,
    invert_odd_cycle,
    invert_transposition_even_m,
    outsider_budget,
    solve_m_machine,
)
from mindswap.moves import MachineMove, plan_product
from mindswap.perm import Permutation, insider, outsider, parse_cycles

from conftest import duplicate_supports, generator_identity_check, random_cycle, random_permutation


def pool(*indices):
    return tuple(outsider(i) for i in indices)


def ins(*indices):
    return tuple(insider(i) for i in indices)


class TestMembership:
    def test_transposition_not_reachable_on_odd_machine(self):
        assert not in_machine_group(parse_cycles("(1 2)"), 3)

    def test_transposition_reachable_on_even_machine(self):
        assert in_machine_group(parse_cycles("(1 2)"), 4)

    def test_even_permutation_reachable_on_odd_machine(self):
        assert in_machine_group(parse_cycles("(1 2 3)"), 5)

    def test_budget_formula(self):
        assert outsider_budget(3) == 1
        assert outsider_budget(4) == 3
        assert outsider_budget(5) == 3
        assert outsider_budget(6) == 6


class TestInvertThreeCycle:
    def test_m3_exact_moves(self):
        moves = invert_odd_cycle(ins(1, 2, 3), pool(1), 3)
        assert moves == [
            MachineMove((insider(3), insider(2), outsider(1))),
            MachineMove((insider(1), insider(3), outsider(1))),
        ]
        assert plan_product(moves) == parse_cycles("(1 3 2)")

    def test_m5_exact_moves(self):
        moves = invert_odd_cycle(ins(1, 2, 3), pool(1, 2, 3), 5)
        assert moves == [
            MachineMove((insider(3), insider(2), outsider(3), outsider(2), outsider(1))),
            MachineMove((insider(1), insider(3), outsider(1), outsider(2), outsider(3))),
        ]

    def test_m4_product(self):
        moves = invert_odd_cycle(ins(1, 2, 3), pool(1, 2), 4)
        assert plan_product(moves) == parse_cycles("(1 3 2)")

    def test_pool_size_mismatch(self):
        with pytest.raises(ValueError):
            invert_odd_cycle(ins(1, 2, 3), pool(1, 2), 5)

    def test_pool_overlap(self):
        with pytest.raises(ValueError):
            invert_odd_cycle((insider(1), insider(2), outsider(1)), pool(1), 3)


class TestInvertOddCycle:
    def test_three_cycle_two_moves(self):
        assert len(invert_odd_cycle(ins(1, 2, 3), pool(1), 3)) == 2

    def test_five_cycle_m3(self):
        tau = ins(1, 2, 3, 4, 5)
        moves = invert_odd_cycle(tau, pool(1), 3)
        assert len(moves) == 4
        assert plan_product(moves) == parse_cycles("(1 5 4 3 2)")
        assert not duplicate_supports(moves)

    def test_seven_cycle_m5(self):
        tau = ins(1, 2, 3, 4, 5, 6, 7)
        moves = invert_odd_cycle(tau, pool(1, 2, 3), 5)
        assert len(moves) == 6
        assert not duplicate_supports(moves)
        assert plan_product(moves) == Permutation.from_cycle(tau).inverse()

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            invert_odd_cycle(ins(1, 2, 3, 4), pool(1), 3)

    def test_one_cycle_is_the_empty_plan(self):
        assert invert_odd_cycle((insider(1),), pool(1), 3) == []


class TestInvertEvenPairOddM:
    def test_two_transpositions_m3(self):
        moves = invert_even_pair_odd_m(ins(1, 2), ins(3, 4), pool(1), 3)
        assert len(moves) == 4
        assert plan_product(moves) == parse_cycles("(1 2)(3 4)")
        assert not duplicate_supports(moves)

    def test_four_and_two_m3(self):
        moves = invert_even_pair_odd_m(ins(1, 2, 3, 4), ins(5, 6), pool(1), 3)
        assert len(moves) == 6
        assert plan_product(moves) == parse_cycles("(1 2 3 4)(5 6)").inverse()
        assert not duplicate_supports(moves)

    def test_two_transpositions_m5(self):
        moves = invert_even_pair_odd_m(ins(1, 2), ins(3, 4), pool(1, 2, 3), 5)
        assert len(moves) == 4
        assert all(len(m) == 5 for m in moves)
        assert plan_product(moves) == parse_cycles("(1 2)(3 4)")
        assert not duplicate_supports(moves)

    def test_rejects_odd_cycle(self):
        with pytest.raises(ValueError):
            invert_even_pair_odd_m(ins(1, 2, 3), ins(4, 5), pool(1), 3)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            invert_even_pair_odd_m(ins(1, 2), ins(2, 3), pool(1), 3)


class TestInvertTranspositionEvenM:
    def test_m4_exact_moves(self):
        a1, a2 = insider(1), insider(2)
        w, y, z = pool(1), pool(2), pool(3)
        moves = invert_transposition_even_m((a1, a2), w, y, z, 4)
        assert moves == [
            MachineMove((w[0], a1, y[0], a2)),
            MachineMove((a1, w[0], a2, z[0])),
            MachineMove((a1, z[0], y[0], a2)),
        ]
        assert plan_product(moves) == parse_cycles("(1 2)")
        assert not duplicate_supports(moves)

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_composes_to_transposition(self, m):
        h = m // 2 - 1
        w = pool(*range(1, h + 1))
        y = pool(*range(h + 1, 2 * h + 1))
        z = pool(*range(2 * h + 1, 3 * h + 1))
        moves = invert_transposition_even_m(ins(1, 2), w, y, z, m)
        assert all(len(mv) == m for mv in moves)
        assert plan_product(moves) == parse_cycles("(1 2)")
        assert not duplicate_supports(moves)

    def test_wrong_pool_sizes(self):
        with pytest.raises(ValueError):
            invert_transposition_even_m(ins(1, 2), pool(1, 2), pool(3), pool(4), 4)


class TestGeneratorIdentity:
    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_holds(self, m):
        assert generator_identity_check(m)

    def test_rejects_odd_m(self):
        with pytest.raises(ValueError):
            generator_identity_check(5)


class TestSolveMMachine:
    def test_worked_even_m_example(self):
        sigma = parse_cycles("(a1 a2 a3)(a4 a5 a6 a7)")
        plan = solve_m_machine(sigma, 4)
        assert plan.outsiders == pool(1, 2, 3)
        assert len(plan.moves) == 7
        assert all(len(m) == 4 for m in plan.moves)
        assert plan_product(plan.moves) == sigma.inverse()
        assert not duplicate_supports(plan.moves)

    def test_identity_is_empty(self):
        for m in (3, 4, 5, 6):
            assert solve_m_machine(Permutation.identity(), m).moves == ()

    def test_two_transpositions_m5(self):
        sigma = parse_cycles("(1 2)(3 4)")
        plan = solve_m_machine(sigma, 5)
        assert all(len(m) == 5 for m in plan.moves)
        assert plan_product(plan.moves) == sigma.inverse()

    def test_rejects_odd_sigma_on_odd_machine(self):
        with pytest.raises(ValueError):
            solve_m_machine(parse_cycles("(1 2)"), 3)

    def test_rejects_outsider_support(self):
        with pytest.raises(ValueError):
            solve_m_machine(Permutation.from_cycle((insider(1), outsider(1))), 4)

    def test_oversized_machine_refused_before_its_pool(self, monkeypatch):
        def refuse(i):
            raise AssertionError("pool built for a machine above the cap")

        monkeypatch.setattr(machine, "outsider", refuse)
        with pytest.raises(ValueError, match="machine size 1000000000 is above the cap of 100000"):
            solve_m_machine(parse_cycles("(1 2)"), 10**9)

    def test_machine_cap_is_inclusive(self):
        cap = machine.MACHINE_CAP
        assert outsider_budget(cap) == 3 * (cap // 2 - 1)
        with pytest.raises(ValueError, match="above the cap"):
            outsider_budget(cap + 1)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_random_targets(self, m):
        rng = random.Random(100 + m)
        d = outsider_budget(m)
        for _ in range(40):
            n = rng.randint(0, 8)
            sigma = random_permutation(rng, n)
            while not in_machine_group(sigma, m):
                sigma = random_permutation(rng, n)
            plan = solve_m_machine(sigma, m)
            assert len(plan.outsiders) == d
            assert plan_product(plan.moves) == sigma.inverse()
            assert all(len(mv) == m for mv in plan.moves)
            assert not duplicate_supports(plan.moves)
            used = {s for mv in plan.moves for s in mv if s.is_outsider}
            assert used <= set(plan.outsiders)
            assert all(any(s.is_outsider for s in mv) for mv in plan.moves)


class TestConjugationClosure:
    def test_conjugate_of_cycle_is_cycle(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(2, 6)
            tau = Permutation.from_cycle(random_cycle(rng, m, 8))
            sigma = random_permutation(rng, 8)
            conjugate = sigma * tau * sigma.inverse()
            assert len(conjugate.cycles) == 1
            assert len(conjugate.cycles[0]) == m
