import random

import pytest

from mindswap.keeler import solve_two_machine
from mindswap.machine import solve_m_machine
from mindswap.perm import Permutation, insider, outsider, parse_cycles, plan_product

from conftest import cycle_gadget, duplicate_supports, move, random_cycle, random_permutation

X, Y = outsider(1), outsider(2)



class TestSweepMoves:
    """The first k - 1 entries of the gadget sweep x over a2..ak."""

    def sweep(self, tau):
        return cycle_gadget(tau, X, Y)[: len(tau) - 1]

    def test_transposition(self):
        assert self.sweep((insider(1), insider(2))) == [move(X, insider(2))]

    def test_three_cycle(self):
        tau = (insider(1), insider(2), insider(3))
        assert self.sweep(tau) == [move(X, insider(2)), move(X, insider(3))]

    def test_four_cycle(self):
        tau = tuple(insider(i) for i in range(1, 5))
        assert self.sweep(tau) == [
            move(X, insider(2)),
            move(X, insider(3)),
            move(X, insider(4)),
        ]


class TestCycleGadget:
    def test_transposition_matches_base_tail(self):
        tau = (insider(1), insider(2))
        assert cycle_gadget(tau, X, Y) == [
            move(X, insider(2)),
            move(Y, insider(1)),
            move(Y, insider(2)),
            move(X, insider(1)),
        ]

    def test_written_product_with_cycle_is_the_swap(self):
        tau = (insider(1), insider(2), insider(3))
        gadget = cycle_gadget(tau, X, Y)
        product = plan_product(reversed(gadget)) * plan_product([tau])
        assert product == plan_product([(X, Y)])

    def test_entry_count(self):
        tau = tuple(insider(i) for i in range(1, 6))
        assert len(cycle_gadget(tau, X, Y)) == len(tau) + 2

    def test_swap_identity_on_random_cycles(self):
        rng = random.Random(7)
        swap = plan_product([(X, Y)])
        for _ in range(100):
            k = rng.randint(2, 10)
            tau = random_cycle(rng, k, 12)
            gadget = cycle_gadget(tau, X, Y)
            assert plan_product(reversed(gadget)) * plan_product([tau]) == swap


class TestSolveTwoMachine:
    def test_base_case_exact_moves(self):
        plan = solve_two_machine(parse_cycles("(1 2)"))
        assert plan.outsiders == (X, Y)
        assert list(plan.moves) == [
            move(insider(1), X),
            move(insider(2), Y),
            move(insider(1), Y),
            move(insider(2), X),
            move(X, Y),
        ]

    def test_identity_gives_empty_plan(self):
        assert solve_two_machine(Permutation.identity()).moves == ()

    def test_two_cycle_target(self):
        sigma = parse_cycles("(1 2)(3 4 5)")
        plan = solve_two_machine(sigma)
        assert len(plan.moves) == (2 + 2) + (3 + 2)
        assert plan_product(plan.moves) == sigma.inverse()
        assert not duplicate_supports(plan.moves)

    def test_single_cycle_counts(self):
        for k in range(2, 13):
            sigma = plan_product([[insider(i) for i in range(1, k + 1)]])
            plan = solve_two_machine(sigma)
            assert len(plan.moves) == k + 3
            assert plan_product(plan.moves) == sigma.inverse()

    def test_rejects_outsider_support(self):
        with pytest.raises(ValueError):
            solve_two_machine(plan_product([(insider(1), outsider(3))]))

    def test_random_targets(self):
        rng = random.Random(11)
        for _ in range(500):
            sigma = random_permutation(rng, rng.randint(0, 10))
            plan = solve_two_machine(sigma)
            assert plan_product(plan.moves) == sigma.inverse()
            assert not duplicate_supports(plan.moves)
            assert all(any(s.is_outsider for s in m) for m in plan.moves)
            cycles = sigma.cycles
            expected = sum(len(c) + 2 for c in cycles) + (len(cycles) % 2)
            assert len(plan.moves) == expected


class TestSweepIsTheReversedGadget:
    """solve_m_machine(sigma, 2) lists, cycle by cycle, the paper's written-order
    gadget reversed, then (x1 x2) exactly when sigma has an odd cycle count."""

    def test_blocks_on_a_seeded_corpus(self):
        rng = random.Random(42)
        for _ in range(300):
            sigma = random_permutation(rng, rng.randint(0, 14))
            moves = list(solve_m_machine(sigma, 2).moves)
            cycles = sigma.cycles
            for cycle in cycles:
                block, moves = moves[: len(cycle) + 2], moves[len(cycle) + 2 :]
                assert block == list(reversed(cycle_gadget(cycle, X, Y)))
            assert moves == [move(X, Y)] * (len(cycles) % 2)
