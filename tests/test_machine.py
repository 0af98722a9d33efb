import dataclasses
import itertools
import random

import pytest

from mindswap import keeler, machine, optimal3
from mindswap.machine import lower_bound, solve_m_machine
from mindswap.oracle import MachineSizeError, RuleSet, search_min_plan, verify_plan
from mindswap.perm import Permutation, insider, outsider, parse_cycles, plan_product

from conftest import (
    duplicate_supports,
    generator_identity_check,
    move,
    permutation_from_images,
    random_cycle,
    random_permutation,
)



def reachable(sigma, m):
    return m % 2 == 0 or sigma.parity() == 0


def pool_cap(m):
    """The largest pool a plan seats: m - 2 for odd m, 3(m/2 - 1) for even m."""
    return m - 2 if m % 2 else 3 * (m // 2 - 1)


def of_type(lengths):
    """A target whose inverse has cycles of these lengths, in this order."""
    images, start = {}, 1
    for k in lengths:
        block = [insider(i) for i in range(start, start + k)]
        images.update(zip(block, block[1:] + block[:1]))
        start += k
    return Permutation(images)


def check(sigma, m):
    """The plan verifies clean in exactly lower_bound(sigma, m) moves, and its
    pool is x1 and the outsiders it seats, at most pool_cap(m) of them."""
    plan = solve_m_machine(sigma, m)
    assert verify_plan(sigma, list(plan.moves), RuleSet(m, plan.outsiders)).clean
    assert plan.steps == lower_bound(sigma, m)
    seated = {s for mv in plan.moves for s in mv if s.is_outsider}
    assert seated <= set(plan.outsiders) == seated | {outsider(1)}
    assert plan.outsiders == tuple(outsider(i) for i in range(1, len(plan.outsiders) + 1))
    assert len(plan.outsiders) <= pool_cap(m)
    return plan


class TestMembership:
    def test_transposition_not_reachable_on_odd_machine(self):
        with pytest.raises(ValueError, match="^odd permutation is not a product of 3-cycles$"):
            lower_bound(parse_cycles("(1 2)"), 3)

    def test_transposition_reachable_on_even_machine(self):
        assert lower_bound(parse_cycles("(1 2)"), 4) == 3

    def test_even_permutation_reachable_on_odd_machine(self):
        assert lower_bound(parse_cycles("(1 2 3)"), 5) == 2

    def test_budget_formula(self):
        # (1 2 3) on odd machines and (1 2) on even ones seat the widest pools
        widest = {m: "(1 2 3)" if m % 2 else "(1 2)" for m in range(3, 9)}
        sizes = {m: len(check(parse_cycles(t), m).outsiders) for m, t in widest.items()}
        assert sizes == {m: pool_cap(m) for m in widest} == {3: 1, 4: 3, 5: 3, 6: 6, 7: 5, 8: 9}


class TestLowerBound:
    @pytest.mark.parametrize(
        "target, m, bound",
        [
            ("", 4, 0),
            ("(1 2 3)", 3, 2),
            ("(1 2)(3 4)", 3, 3),
            ("(1 2 3 4 5 6)", 4, 3),
            ("(1 2 3 4 5 6)(7 8)", 4, 4),
            ("(1 2 3 4 5 6 7)", 5, 2),
            ("(1 2)(3 4)(5 6)", 4, 3),
            ("(1 2)", 2, 5),
            ("(1 2)(3 4)", 2, 8),
        ],
    )
    def test_examples(self, target, m, bound):
        assert lower_bound(parse_cycles(target), m) == bound

    def test_default_machine_is_three(self):
        assert lower_bound(parse_cycles("(1 2 3)(4 5 6 7 8)")) == 5

    @pytest.mark.parametrize("target, fewest", [("(1 2)", 5), ("(1 2)(3 4)", 8)])
    def test_meets_the_fewest_swaps_at_m_two(self, target, fewest):
        # at m = 2, B is n + r + 2, and these targets need exactly that many swaps
        sigma, rules = parse_cycles(target), RuleSet(m=2, outsiders=(outsider(1), outsider(2)))
        assert lower_bound(sigma, 2) == fewest
        assert search_min_plan(sigma, rules, fewest - 1) is None
        assert len(search_min_plan(sigma, rules, fewest)) == fewest

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_machine_below_two_refused(self, m):
        with pytest.raises(ValueError, match=f"^machine size must be at least 2, got {m}$"):
            lower_bound(parse_cycles("(1 2 3)"), m)


class TestOneMachineSizeRule:
    """RuleSet, lower_bound and solve_m_machine refuse the same machine sizes
    with the same MachineSizeError, which the CLI tells from an unsolvable
    target."""

    @pytest.mark.parametrize(
        "m, message",
        [
            (1, "machine size must be at least 2, got 1"),
            (-3, "machine size must be at least 2, got -3"),
            (3.0, "machine size must be an integer, got 3.0"),
            ("3", "machine size must be an integer, got '3'"),
            (True, "machine size must be an integer, got True"),
        ],
    )
    def test_every_site_gives_the_same_refusal(self, m, message):
        sigma = parse_cycles("(1 2 3)")
        sites = [
            lambda: RuleSet(m, (outsider(1),)),
            lambda: lower_bound(sigma, m),
            lambda: solve_m_machine(sigma, m),
        ]
        for site in sites:
            with pytest.raises(MachineSizeError) as err:
                site()
            assert str(err.value) == message


class TestInvertThreeCycle:
    def test_m3_exact_moves(self):
        plan = solve_m_machine(parse_cycles("(1 2 3)"), 3)
        a1, a2, a3, x1 = insider(1), insider(2), insider(3), outsider(1)
        assert plan.moves == (move(a1, a3, x1), move(a1, x1, a2))
        assert plan_product(plan.moves) == parse_cycles("(1 3 2)")

    def test_m5_exact_moves(self):
        plan = solve_m_machine(parse_cycles("(1 2 3)"), 5)
        a1, a2, a3 = insider(1), insider(2), insider(3)
        x1, x2, x3 = outsider(1), outsider(2), outsider(3)
        assert plan.moves == (move(a1, a3, x2, x3, x1), move(a1, x1, x3, x2, a2))

    def test_m4_product(self):
        plan = check(parse_cycles("(1 2 3)"), 4)
        assert plan_product(plan.moves) == parse_cycles("(1 3 2)")

    def test_pool_size_mismatch(self):
        # the pool is x1 and the outsiders the moves seat, nothing more
        assert solve_m_machine(parse_cycles("(1 2 3 4 5 6 7)"), 5).outsiders == (outsider(1),)
        assert solve_m_machine(Permutation.identity(), 7).outsiders == (outsider(1),)

    def test_pool_overlap(self):
        with pytest.raises(ValueError, match="^target must move insiders only$"):
            solve_m_machine(plan_product([(insider(1), insider(2), outsider(1))]), 3)


class TestInvertOddCycle:
    def test_three_cycle_two_moves(self):
        assert check(parse_cycles("(1 2 3)"), 3).steps == 2

    def test_five_cycle_m3(self):
        plan = check(parse_cycles("(1 2 3 4 5)"), 3)
        assert plan.steps == 3
        assert plan_product(plan.moves) == parse_cycles("(1 5 4 3 2)")
        assert not duplicate_supports(plan.moves)

    def test_seven_cycle_m5(self):
        tau = tuple(insider(i) for i in range(1, 8))
        plan = check(plan_product([tau]), 5)
        assert plan.steps == 2
        assert plan_product(plan.moves) == plan_product([tau]).inverse()

    def test_even_length_rejected(self):
        # a single even-length cycle is odd: no odd machine reaches it
        for m in (3, 5, 7):
            message = f"^odd permutation is not a product of {m}-cycles$"
            with pytest.raises(ValueError, match=message):
                solve_m_machine(parse_cycles("(1 2 3 4)"), m)

    def test_one_cycle_is_the_empty_plan(self):
        assert solve_m_machine(parse_cycles("(1)"), 3).moves == ()


class TestInvertTranspositionEvenM:
    def test_m4_exact_moves(self):
        plan = check(parse_cycles("(1 2)"), 4)
        a1, a2 = insider(1), insider(2)
        x1, x2, x3 = outsider(1), outsider(2), outsider(3)
        assert plan.moves == (move(a1, a2, x2, x1), move(a2, x3, x1, x2), move(a1, x1, x3, a2))
        assert plan_product(plan.moves) == parse_cycles("(1 2)")
        assert not duplicate_supports(plan.moves)

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_composes_to_transposition(self, m):
        plan = check(parse_cycles("(1 2)"), m)
        assert plan.steps == 3
        assert all(len(mv) == m for mv in plan.moves)
        assert plan_product(plan.moves) == parse_cycles("(1 2)")

    def test_wrong_pool_sizes(self):
        # (1 2) seats all 3(m/2 - 1) outsiders of the even-machine pool
        for m in (4, 6, 8, 10):
            assert len(check(parse_cycles("(1 2)"), m).outsiders) == 3 * (m // 2 - 1)


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
        plan = check(sigma, 4)
        assert plan.outsiders == (outsider(1),)
        assert plan.steps == 3
        assert plan_product(plan.moves) == sigma.inverse()

    def test_identity_is_empty(self):
        for m in (3, 4, 5, 6):
            plan = solve_m_machine(Permutation.identity(), m)
            assert (plan.moves, plan.outsiders) == ((), (outsider(1),))

    def test_two_transpositions_m3(self):
        plan = check(parse_cycles("(1 2)(3 4)"), 3)
        assert plan.steps == 3
        assert plan_product(plan.moves) == parse_cycles("(1 2)(3 4)")

    def test_four_and_two_m3(self):
        assert check(parse_cycles("(1 2 3 4)(5 6)"), 3).steps == 4

    def test_two_transpositions_m5(self):
        plan = check(parse_cycles("(1 2)(3 4)"), 5)
        assert all(len(m) == 5 for m in plan.moves)

    def test_two_transpositions_pair_m5(self):
        plan = check(parse_cycles("(1 2)(3 4)"), 5)
        assert plan.steps == 2
        assert not duplicate_supports(plan.moves)

    def test_two_transpositions_pair_on_an_even_machine(self):
        assert check(parse_cycles("(1 2)(3 4)"), 4).steps == 2

    def test_rejects_odd_sigma_on_odd_machine(self):
        with pytest.raises(ValueError):
            solve_m_machine(parse_cycles("(1 2)"), 3)

    def test_machine_two_is_keelers_sweep(self):
        rng = random.Random(2)
        for _ in range(100):
            sigma = random_permutation(rng, rng.randint(0, 10))
            plan = solve_m_machine(sigma, 2)
            assert plan == keeler.solve_two_machine(sigma)
            assert (plan.solver, plan.lower_bound) == ("keeler2", None)
            assert verify_plan(sigma, list(plan.moves), RuleSet(2, plan.outsiders)).clean

    @pytest.mark.parametrize("m", [1, 0, -1])
    def test_machine_below_two_refused(self, m):
        with pytest.raises(ValueError, match=f"^machine size must be at least 2, got {m}$"):
            solve_m_machine(parse_cycles("(1 2 3)"), m)

    def test_optimal3_differs_only_in_its_label(self):
        rng = random.Random(3)
        for _ in range(100):
            sigma = random_permutation(rng, rng.randint(0, 10))
            if reachable(sigma, 3):
                plan = optimal3.solve_three_machine_optimal(sigma)
                assert plan.solver == "optimal3"
                assert plan == dataclasses.replace(solve_m_machine(sigma, 3), solver="optimal3")

    def test_rejects_outsider_support(self):
        with pytest.raises(ValueError):
            solve_m_machine(plan_product([(insider(1), outsider(1))]), 4)

    def test_oversized_machine_refused_before_its_pool(self, monkeypatch):
        def refuse(i):
            raise AssertionError("pool built for a machine above the cap")

        monkeypatch.setattr(machine, "outsider", refuse)
        with pytest.raises(ValueError, match="machine size 1000000000 is above the cap of 100000"):
            solve_m_machine(parse_cycles("(1 2)"), 10**9)

    def test_machine_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(machine, "MACHINE_CAP", 8)
        assert check(parse_cycles("(1 2)"), 8).steps == 3
        with pytest.raises(ValueError, match="^machine size 9 is above the cap of 8$"):
            solve_m_machine(parse_cycles("(1 2 3)"), 9)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_random_targets(self, m):
        rng = random.Random(100 + m)
        for _ in range(40):
            n = rng.randint(0, 8)
            sigma = random_permutation(rng, n)
            while not reachable(sigma, m):
                sigma = random_permutation(rng, n)
            plan = check(sigma, m)
            assert all(any(s.is_outsider for s in mv) for mv in plan.moves)
            if m in (4, 5):
                # the bench's pool
                assert set(plan.outsiders) <= {outsider(1), outsider(2), outsider(3)}


def ordered_types(total, cycles=None):
    """Every sequence of cycle lengths, each at least 2, moving at most total
    insiders in at most cycles cycles (no limit when None)."""
    yield ()
    if cycles != 0:
        for k in range(2, total + 1):
            for rest in ordered_types(total - k, None if cycles is None else cycles - 1):
                yield (k,) + rest


class TestOnePath:
    """One hub-word construction serves every machine size."""

    @pytest.mark.parametrize("m", range(3, 9))
    def test_every_target_on_at_most_six_insiders(self, m):
        for images in itertools.permutations(range(1, 7)):
            sigma = permutation_from_images(list(images))
            if reachable(sigma, m):
                check(sigma, m)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_random_targets_up_to_sixty_insiders(self, m):
        rng = random.Random(2200 + m)
        for _ in range(60):
            sigma = random_permutation(rng, rng.randint(7, 60))
            if reachable(sigma, m):
                check(sigma, m)

    @pytest.mark.parametrize("m", range(3, 13))
    def test_every_ordered_cycle_type_on_at_most_twelve_insiders(self, m):
        for lengths in ordered_types(12):
            sigma = of_type(lengths)
            if reachable(sigma, m):
                check(sigma, m)

    @pytest.mark.parametrize("m", range(3, 17))
    def test_three_moves_with_little_slack(self, m):
        # T = 3 and n - r < m - 1, in every cycle order of up to four cycles:
        # no center cut fits, so these take the two three-move cuttings
        checked = 0
        for lengths in ordered_types(2 * m, 4):
            n, r = sum(lengths), len(lengths)
            sigma = of_type(lengths)
            if n - r < m - 1 and reachable(sigma, m) and lower_bound(sigma, m) == 3:
                check(sigma, m)
                checked += 1
        assert checked or m % 2

    def test_six_transpositions_on_a_nine_machine(self):
        # the odd-machine three-move cutting
        sigma = parse_cycles("(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)")
        assert check(sigma, 9).steps == 3

    @pytest.mark.parametrize("m", [4, 5])
    def test_long_cycle_meets_the_bound(self, m):
        sigma = plan_product([[insider(i) for i in range(1, 10002)]])
        plan = check(sigma, m)
        assert plan.steps == {4: 3334, 5: 2501}[m]


class TestConjugationClosure:
    def test_conjugate_of_cycle_is_cycle(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(2, 6)
            tau = plan_product([random_cycle(rng, m, 8)])
            sigma = random_permutation(rng, 8)
            conjugate = sigma * tau * sigma.inverse()
            assert len(conjugate.cycles) == 1
            assert len(conjugate.cycles[0]) == m
