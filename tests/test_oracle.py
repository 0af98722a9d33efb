import itertools
import sys
import time
from operator import itemgetter, ne

import pytest
from hypothesis import example, given, settings, strategies as st

from mindswap import oracle
from mindswap.keeler import solve_two_machine
from mindswap.machine import lower_bound, solve_m_machine
from mindswap.optimal3 import solve_three_machine_optimal
from mindswap.oracle import (
    OracleBudgetError,
    RuleSet,
    search_min_plan,
    verify_plan,
)
from mindswap.perm import (
    Element,
    Permutation,
    insider,
    insiders_only,
    outsider,
    parse_cycles,
    plan_product,
)

from conftest import expected_report, move, move_text, permutation_from_images


def pool(d):
    return tuple(outsider(i) for i in range(1, d + 1))



def cycle_types(n, largest):
    """Every cycle type of n insiders, parts of at most largest, longest first."""
    if not n:
        yield ()
    for k in range(min(n, largest), 1, -1):
        if n - k != 1:
            yield from ((k, *rest) for rest in cycle_types(n - k, k))


def consecutive_target(lengths):
    """The target whose cycles have these lengths, over a1, a2, ... in order."""
    starts = itertools.accumulate(lengths, initial=1)
    cycles = (" ".join(map(str, range(a, a + k))) for a, k in zip(starts, lengths))
    return parse_cycles("".join(f"({cycle})" for cycle in cycles))


class TestRuleSet:
    def test_requires_outsiders_when_rule_active(self):
        with pytest.raises(ValueError):
            RuleSet(m=3, outsiders=())

    def test_small_machine_rejected(self):
        with pytest.raises(ValueError):
            RuleSet(m=1, outsiders=pool(1))

    @pytest.mark.parametrize("m", ["2", 2.0, True], ids=["text", "float", "bool"])
    def test_machine_size_that_is_not_an_int_rejected(self, m):
        with pytest.raises(ValueError) as err:
            RuleSet(m=m, outsiders=pool(1))
        assert str(err.value) == f"machine size must be an integer, got {m!r}"

    @pytest.mark.parametrize("index", [1, 5])
    def test_insider_in_pool_rejected(self, index):
        # an insider of the target made the search loop forever; any other
        # insider let it return a plan that verify_plan rejects
        with pytest.raises(ValueError, match=f"pool entry a{index} is not an outsider"):
            RuleSet(m=3, outsiders=(insider(index),))
        with pytest.raises(ValueError, match=f"pool entry a{index} is not an outsider"):
            RuleSet(m=3, outsiders=(outsider(1), insider(index)), require_outsider_per_move=False)

    @pytest.mark.parametrize(
        "entry", ["x1", ("x", 1), ["x", 1]], ids=["label", "plain-tuple", "unhashable"]
    )
    def test_pool_entry_that_is_not_an_element_rejected(self, entry):
        # a label, a plain tuple or a list has no is_outsider; it is refused as any
        # non-outsider is, before the repeat check hashes it
        with pytest.raises(ValueError) as err:
            RuleSet(m=2, outsiders=(entry,))
        assert str(err.value) == f"pool entry {entry} is not an outsider"


class TestVerifyPlan:
    def test_keeler_base_plan_is_clean(self):
        target = parse_cycles("(1 2)")
        plan = solve_two_machine(target)
        report = verify_plan(target, list(plan.moves), RuleSet(m=2, outsiders=pool(2)))
        assert report.clean
        assert report.step_count == 5

    def test_duplicate_support_flagged_at_second_index(self):
        plan = [move(insider(1), insider(2), outsider(1))] * 2
        report = verify_plan(parse_cycles("(1 2 3)"), plan, RuleSet(m=3, outsiders=pool(1)))
        assert (1, "duplicate-support") in report.rule_violations

    def test_optimal3_plan_is_clean(self):
        target = parse_cycles("(1 2 3)")
        moves = list(solve_three_machine_optimal(target).moves)
        report = verify_plan(target, moves, RuleSet(m=3, outsiders=pool(1)))
        assert report.clean
        assert report.step_count == 2

    def test_missing_outsider_flagged(self):
        plan = [move(insider(1), insider(2), insider(3))]
        report = verify_plan(Permutation.identity(), plan, RuleSet(m=3, outsiders=pool(1)))
        assert (0, "missing-outsider") in report.rule_violations

    def test_unknown_outsider_flagged(self):
        plan = [move(insider(1), insider(2), outsider(9))]
        report = verify_plan(Permutation.identity(), plan, RuleSet(m=3, outsiders=pool(1)))
        assert (0, "unknown-outsider") in report.rule_violations

    def test_seat_count_flagged(self):
        plan = [move(insider(1), outsider(1))]
        report = verify_plan(Permutation.identity(), plan, RuleSet(m=3, outsiders=pool(1)))
        assert (0, "seat-count") in report.rule_violations

    def test_wrong_product_reported(self):
        plan = [move(insider(1), insider(2), outsider(1))]
        report = verify_plan(parse_cycles("(1 2 3)"), plan, RuleSet(m=3, outsiders=pool(1)))
        assert not report.product_ok
        assert not report.clean

    def test_repeated_seat_flagged(self):
        # a plain tuple may seat one person twice; such a plan is never clean
        target = parse_cycles("(1 2 3)")
        plan = [*solve_three_machine_optimal(target).moves, (insider(5), outsider(1), insider(5))]
        report = verify_plan(target, plan, RuleSet(m=3, outsiders=pool(1)))
        assert report.rule_violations == [(2, "repeated-seat")]
        assert not report.product_ok
        assert report.step_count == 3
        assert not report.clean

    def test_short_moves_are_reported_not_raised(self):
        plan = [(), (insider(1),), (insider(2), insider(2))]
        report = verify_plan(Permutation.identity(), plan, RuleSet(m=2, outsiders=pool(1)))
        assert report.rule_violations == [
            (0, "seat-count"),
            (0, "missing-outsider"),
            (1, "seat-count"),
            (1, "missing-outsider"),
            (2, "repeated-seat"),
            (2, "missing-outsider"),
        ]
        assert not report.product_ok

    def test_plan_product_refuses_a_repeated_seat(self):
        with pytest.raises(ValueError, match=r"^repeated seat in move \(a1 a2 a1\)$"):
            plan_product([(insider(1), insider(2), insider(1))])


class TestSearchMinPlan:
    def test_three_cycle_needs_two_moves(self):
        plan = search_min_plan(parse_cycles("(1 2 3)"), RuleSet(m=3, outsiders=pool(1)), 4)
        assert plan is not None and len(plan) == 2

    def test_identity_needs_zero_moves(self):
        plan = search_min_plan(Permutation.identity(), RuleSet(m=3, outsiders=pool(1)), 4)
        assert plan == []

    def test_keeler_base_case_needs_five(self):
        plan = search_min_plan(parse_cycles("(1 2)"), RuleSet(m=2, outsiders=pool(2)), 6)
        assert plan is not None and len(plan) == 5

    def test_transposition_pair_needs_three(self):
        plan = search_min_plan(parse_cycles("(1 2)(3 4)"), RuleSet(m=3, outsiders=pool(1)), 5)
        assert plan is not None and len(plan) == 3

    def test_unreachable_returns_none(self):
        assert search_min_plan(parse_cycles("(1 2)"), RuleSet(m=3, outsiders=pool(1)), 3) is None

    def test_odd_target_on_odd_machine_stops_without_searching(self):
        target = parse_cycles("(1 2)(3 4)(5 6)")
        rules = RuleSet(m=3, outsiders=pool(1))
        assert search_min_plan(target, rules, 6, node_budget=1) is None

    def test_found_plans_verify_clean(self):
        for text, m, d in [("(1 2 3)", 3, 1), ("(1 2)(3 4)", 3, 2), ("(1 2)", 2, 2)]:
            target = parse_cycles(text)
            rules = RuleSet(m=m, outsiders=pool(d))
            plan = search_min_plan(target, rules, 6)
            assert plan is not None
            assert verify_plan(target, plan, rules).clean

    def test_monotone_in_max_steps(self):
        target = parse_cycles("(1 2 3)")
        rules = RuleSet(m=3, outsiders=pool(1))
        a = search_min_plan(target, rules, 2)
        b = search_min_plan(target, rules, 6)
        assert a == b

    def test_deterministic(self):
        target = parse_cycles("(1 2)(3 4)")
        rules = RuleSet(m=3, outsiders=pool(2))
        assert search_min_plan(target, rules, 4) == search_min_plan(target, rules, 4)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(OracleBudgetError):
            search_min_plan(
                parse_cycles("(1 2 3 4 5)"),
                RuleSet(m=3, outsiders=pool(2)),
                4,
                node_budget=10,
            )

    def test_negative_node_budget_rejected(self):
        with pytest.raises(ValueError, match="node_budget must be nonnegative"):
            search_min_plan(
                parse_cycles("(1 2)"), RuleSet(m=2, outsiders=pool(2)), 2, node_budget=-4
            )

    def test_bounds_prune_within_node_budget(self):
        # counted per move tried, as the search once counted, it took 37,922
        # nodes here with the displacement bound alone, 5,792 with the
        # Cayley and parity bounds and 2,867 with the seat count; counted
        # per position entered, it takes 1,395 with the component count,
        # which covers both, and 81 with the coverage bound
        plan = search_min_plan(
            parse_cycles("(1 2)(3 4)"), RuleSet(m=2, outsiders=pool(2)), 8, node_budget=10_000
        )
        assert plan is not None and len(plan) == 8

    def test_oversized_ground_set_rejected(self):
        big = plan_product([[insider(i) for i in range(1, 16)]])
        with pytest.raises(ValueError):
            search_min_plan(big, RuleSet(m=3, outsiders=pool(2)), 2)

    def test_certifies_every_claimed_bound(self):
        # every m >= 3 document claims lower_bound(sigma, m); with the
        # solver's own pool the search finds a plan of that length and
        # refutes one move fewer, on every cycle type of 2-7 insiders
        rows = 0
        for lengths in (t for n in range(2, 8) for t in cycle_types(n, n)):
            target = consecutive_target(lengths)
            for m in range(3, 7):
                if m % 2 and target.parity():
                    continue
                built, bound = solve_m_machine(target, m), lower_bound(target, m)
                assert built.steps == built.lower_bound == bound
                rules = RuleSet(m=m, outsiders=built.outsiders)
                found = search_min_plan(target, rules, bound)
                assert found is not None and len(found) == bound
                assert search_min_plan(target, rules, bound - 1) is None
                rows += 1
        assert rows == 42

    def test_meets_n_plus_r_plus_two_at_m_two(self):
        # at m = 2 with two outsiders the search finds a clean plan of
        # lower_bound(sigma, 2) = n + r + 2 swaps and refutes one fewer, on
        # every cycle type of 2-14 insiders: the ground set's cap
        rules = RuleSet(m=2, outsiders=pool(2))
        rows = 0
        for lengths in (t for n in range(2, oracle.GROUND_CAP - 1) for t in cycle_types(n, n)):
            target = consecutive_target(lengths)
            bound = lower_bound(target, 2)
            assert bound == sum(lengths) + len(lengths) + 2
            found = search_min_plan(target, rules, bound)
            assert found is not None and len(found) == bound
            assert verify_plan(target, found, rules).clean
            assert search_min_plan(target, rules, bound - 1) is None
            rows += 1
        assert rows == 134

    def test_empty_catalog_stops_after_limit_zero(self):
        # four ground elements seat no 5-machine move, so no limit above 0
        # can succeed; trying each of 10**9 limits in turn would take minutes
        start = time.perf_counter()
        target, rules = parse_cycles("(1 2 3)"), RuleSet(m=5, outsiders=pool(1))
        assert search_min_plan(target, rules, 10**9, node_budget=0) is None
        assert time.perf_counter() - start < 1.0

    def test_empty_catalog_computes_no_factorial(self, monkeypatch):
        # four ground elements seat no 5-machine move, so there is no
        # ordering to count; (m - 1)! of a huge m would take seconds
        def refuse(k):
            raise AssertionError("factorial computed for an empty catalog")

        monkeypatch.setattr(oracle.math, "factorial", refuse)
        target, rules = parse_cycles("(1 2 3)"), RuleSet(m=5, outsiders=pool(1))
        assert search_min_plan(target, rules, 8) is None

    def test_oversized_catalog_rejected_before_building(self):
        # 9 supports times 8! orderings: 362,880 moves, far above the cap
        nine = plan_product([[insider(i) for i in range(1, 10)]])
        with pytest.raises(ValueError, match="catalog of 362880 moves is too large"):
            search_min_plan(nine, RuleSet(m=9, outsiders=pool(1)), 1, node_budget=5)

    @pytest.mark.parametrize(
        "n, first_outsider, m, outsider_rule",
        [(5, 4, 2, True), (6, 3, 3, True), (8, 5, 5, True), (6, 6, 4, False), (7, 5, 7, True)],
    )
    def test_catalog_cap_counts_every_move(self, monkeypatch, n, first_outsider, m, outsider_rule):
        supports, last_move, *_ = oracle._move_catalog(n, first_outsider, m, outsider_rule)
        size = sum(len(orderings) for *_, orderings in supports)
        assert len(last_move) == size
        monkeypatch.setattr(oracle, "CATALOG_CAP", size - 1)
        oracle._catalogs.clear()  # the cached catalog would hide the cap
        with pytest.raises(ValueError, match=f"catalog of {size} moves"):
            oracle._move_catalog(n, first_outsider, m, outsider_rule)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(0, 8),
        m=st.integers(2, 5),
        outsider_rule=st.booleans(),
    )
    def test_moved_points_off_the_seats_stay_moved(self, data, n, m, outsider_rule):
        # R∘g⁻¹ agrees with R off g's seats, which the off term of the
        # displacement bound in search_min_plan relies on
        r = tuple(data.draw(st.permutations(range(n))))
        first_outsider = data.draw(st.integers(0, n))
        moved = sum(1 << i for i, j in enumerate(r) if i != j)
        supports, *_ = oracle._move_catalog(n, first_outsider, m, outsider_rule)
        for _, mask, orderings in supports:
            for act, _, _ in orderings:
                displacement = sum(map(ne, act(r), range(n)))
                assert displacement >= (moved & ~mask).bit_count()

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(0, 8),
        m=st.integers(2, 5),
        outsider_rule=st.booleans(),
    )
    def test_shared_arrows_give_each_childs_displacement(self, data, n, m, outsider_rule):
        # |supp(R∘g⁻¹)| = |supp R ∖ S| + m - |arrows(g) ∩ arrows(R)|
        r = tuple(data.draw(st.permutations(range(n))))
        first_outsider = data.draw(st.integers(0, n))
        moved = sum(1 << i for i, j in enumerate(r) if i != j)
        supports, _, arrow_rows, *_ = oracle._move_catalog(n, first_outsider, m, outsider_rule)
        arrows_r = sum(map(tuple.__getitem__, arrow_rows, r))
        assert arrows_r == sum(1 << (y * n + z) for y, z in enumerate(r) if y != z)
        for _, mask, orderings in supports:
            off = (moved & ~mask).bit_count()
            displacements = [sum(map(ne, act(r), range(n))) for act, _, _ in orderings]
            shared = [(arrows & arrows_r).bit_count() for _, arrows, _ in orderings]
            assert displacements == [off + m - k for k in shared]

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(2, 5),
        outsiders=st.integers(1, 3),
        d=st.integers(0, 5),
        distinct=st.booleans(),
    )
    def test_a_product_of_d_moves_passes_the_component_count(
        self, data, m, outsiders, d, distinct
    ):
        # d moves, each seating a pool outsider, give a product r with
        # H(r) <= (m - 1)·d; the m = 2 term holds for distinct supports only,
        # and repeated ones are checked without it
        insiders = data.draw(st.integers(max(0, m - outsiders), 6))
        n = insiders + outsiders
        supports = [c for c in itertools.combinations(range(n), m) if c[-1] >= insiders]
        if distinct:
            d = min(d, len(supports))
        drawn = data.draw(
            st.lists(st.sampled_from(supports), min_size=d, max_size=d, unique=distinct)
        )
        r = list(range(n))
        for support in drawn:
            seats = data.draw(st.permutations(support))
            step = dict(zip(seats, seats[1:] + seats[:1]))
            r = [step.get(i, i) for i in r]
        assert oracle._component_count(tuple(r), insiders, distinct and m == 2) <= (m - 1) * d

    @settings(max_examples=200, deadline=None)
    @given(images=st.permutations(range(1, 8)), outsiders=st.integers(0, 3), stars=st.booleans())
    def test_root_component_count_is_the_lower_bounds_count(self, images, outsiders, stars):
        # for a target of insiders alone H is n + r, the count
        # machine.lower_bound divides by m - 1, and n + r + 2 at m = 2, where
        # lower_bound returns it; with the outsider rule off it is n - r
        target = permutation_from_images(list(images))
        ground = sorted(target.support()) + list(pool(outsiders))
        goal = target.inverse()
        start = tuple(ground.index(goal(e)) for e in ground)
        n, r = sum(map(len, target.cycles)), len(target.cycles)
        want = n + r + 2 if stars and n else n + r
        assert oracle._component_count(start, len(ground) - outsiders, stars) == want
        assert not stars or lower_bound(target, 2) == want
        assert oracle._component_count(start, 0, stars) == n - r

    def test_search_leaves_the_cached_catalog_as_it_was(self):
        oracle._catalogs.clear()
        target, rules = parse_cycles("(1 2)(3 4)(5 6 7)"), RuleSet(m=3, outsiders=pool(1))
        cold = search_min_plan(target, rules, 5)
        catalog = oracle._move_catalog(8, 7, 3, True)
        last_move = dict(catalog[1])  # the one mutable part; the rest are tuples
        for max_steps in (4, 5):
            assert search_min_plan(target, rules, max_steps) == (None if max_steps == 4 else cold)
        assert list(oracle._catalogs.values()) == [catalog]
        assert oracle._move_catalog(8, 7, 3, True) is catalog
        assert catalog[1] == last_move

    @pytest.mark.parametrize(
        "n, first_outsider, m, outsider_rule",
        [(6, 4, 2, True), (8, 7, 3, True), (7, 4, 4, True), (6, 6, 3, False), (5, 3, 2, False)],
    )
    def test_holders_recount_the_supports(self, n, first_outsider, m, outsider_rule):
        # holders[p] is the bitset of the support ids that seat p, and fewest
        # the least number of supports that seat one point
        supports, _, _, holders, fewest, _ = oracle._move_catalog(
            n, first_outsider, m, outsider_rule
        )
        seats = {sid: orderings[0][2] for sid, _, orderings in supports}
        recount = tuple(sum(1 << sid for sid in seats if p in seats[sid]) for p in range(n))
        assert holders == recount
        assert fewest == min(len([sid for sid in seats if p in seats[sid]]) for p in range(n))

    def test_search_leaves_the_holders_as_they_were(self):
        oracle._catalogs.clear()
        target, rules = parse_cycles("(1 2)(3 4)"), RuleSet(m=2, outsiders=pool(2))
        catalog = oracle._move_catalog(6, 4, 2, True)
        supports, _, _, holders, fewest, _ = catalog
        recount = tuple(
            sum(1 << sid for sid, mask, _ in supports if mask >> p & 1) for p in range(6)
        )
        assert (holders, fewest) == (recount, 2)  # an insider sits with x1 or with x2
        for max_steps in (7, 8, 8):  # the coverage bound cuts children at 8
            search_min_plan(target, rules, max_steps)
        assert oracle._move_catalog(6, 4, 2, True) is catalog
        assert catalog[3] is holders and holders == recount and catalog[4] == fewest

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(2, 5),
        outsiders=st.integers(0, 3),
        outsider_rule=st.booleans(),
    )
    def test_a_product_of_distinct_moves_moves_only_their_seats(
        self, data, m, outsiders, outsider_rule
    ):
        # a move fixes every point off its seats, so a product of distinct
        # legal moves fixes every point that none of them seats: the premise
        # of the coverage bound, under which a point no unspent support
        # seats stays where it is
        if outsider_rule:
            outsiders = max(outsiders, 1)
        insiders = data.draw(st.integers(max(0, m - outsiders), 7))
        n = insiders + outsiders
        supports = [
            c for c in itertools.combinations(range(n), m) if not outsider_rule or c[-1] >= insiders
        ]
        drawn = data.draw(st.lists(st.sampled_from(supports), max_size=6, unique=True))
        r = list(range(n))
        for support in drawn:
            seats = data.draw(st.permutations(support))
            step = dict(zip(seats, seats[1:] + seats[:1]))
            r = [step.get(i, i) for i in r]
        seated = {p for support in drawn for p in support}
        assert {p for p in range(n) if r[p] != p} <= seated


class TestCatalogCache:
    """The cached catalogs hold at most CATALOG_CAP moves together."""

    # the bench's oracle_certify corpus: (cycle type, m, d)
    CERTIFY = [
        ((2, 2, 3), 3, 1), ((3, 3), 3, 1), ((7,), 3, 1), ((2, 2), 2, 2), ((4,), 2, 2),
        ((5,), 2, 2), ((3,), 4, 3), ((3,), 5, 3),
    ]

    @staticmethod
    def shaped(shape):
        labels = iter(range(1, sum(shape) + 1))
        return parse_cycles(
            "".join("(" + " ".join(str(next(labels)) for _ in range(k)) + ")" for k in shape)
        )

    def test_every_certify_catalog_stays_cached(self):
        oracle._catalogs.clear()
        catalogs = []
        for shape, m, d in self.CERTIFY:
            search_min_plan(self.shaped(shape), RuleSet(m=m, outsiders=pool(d)), 0)
            catalogs.append(oracle._move_catalog(sum(shape) + d, sum(shape), m, True))
        assert len(oracle._catalogs) == 6
        for (shape, m, d), catalog in zip(self.CERTIFY, catalogs):
            search_min_plan(self.shaped(shape), RuleSet(m=m, outsiders=pool(d)), 0)
            assert oracle._move_catalog(sum(shape) + d, sum(shape), m, True) is catalog
        assert len(oracle._catalogs) == 6

    def test_two_catalogs_over_the_cap_are_never_held_together(self, monkeypatch):
        # 180 and 210 moves under a cap of 300: the first goes before the
        # second is built, and comes back only when the second goes
        oracle._catalogs.clear()
        monkeypatch.setattr(oracle, "CATALOG_CAP", 300)
        first = oracle._move_catalog(7, 5, 4, True)
        assert len(first[1]) == 180
        references = sys.getrefcount(first[1])  # from first, and the call's own
        building = []

        def spy(*items):
            # neither the cache nor a local of _move_catalog holds first
            building.append((list(oracle._catalogs), sys.getrefcount(first[1])))
            return itemgetter(*items)

        monkeypatch.setattr(oracle, "itemgetter", spy)
        second = oracle._move_catalog(7, 5, 4, False)
        assert len(second[1]) == 210
        assert building and all(state == ([], references) for state in building)
        assert list(oracle._catalogs.values()) == [second]
        assert oracle._move_catalog(7, 5, 4, True) is not first
        assert list(oracle._catalogs) == [(7, 4, 5)]

    def test_a_catalog_that_does_not_fit_empties_the_cache(self, monkeypatch):
        oracle._catalogs.clear()
        # 4 + 38 + 180 moves do not fit under a cap of 200, though 4 + 180 would
        monkeypatch.setattr(oracle, "CATALOG_CAP", 200)
        small, medium = oracle._move_catalog(5, 4, 2, True), oracle._move_catalog(6, 3, 3, True)
        assert (len(small[1]), len(medium[1])) == (4, 38)
        assert oracle._move_catalog(5, 4, 2, True) is small  # a hit returns the cached one
        large = oracle._move_catalog(7, 5, 4, True)
        assert len(large[1]) == 180
        assert list(oracle._catalogs) == [(7, 4, 5)]
        assert oracle._move_catalog(7, 5, 4, True) is large

    def test_rule_off_shares_one_catalog_across_pool_sizes(self):
        # with the outsider rule off the first outsider does not matter, so
        # three insiders and two outsiders, and four and one, share a catalog
        oracle._catalogs.clear()
        for text, d in [("(1 2 3)", 2), ("(1 2)(3 4)", 1)]:
            rules = RuleSet(m=3, outsiders=pool(d), require_outsider_per_move=False)
            assert search_min_plan(parse_cycles(text), rules, 4) is not None
        assert list(oracle._catalogs) == [(5, 3, None)]


class TestBudgetEdges:
    """Each search succeeds with exactly N nodes and, when N > 0, raises
    with N - 1.  N = 0 means the root's bounds refuted every limit.  A
    found plan's N is the catalog size times the positions reached,
    leaves included.

    m4-pair pins that the component count leaves the last move to its
    lookup: bounding the children with one move left as well, the same
    plan would take 1,680 nodes.  m2-refuted is a refutation the component
    count makes at the root: at m = 2 it is n + r + 2 = 8 for (1 2)(3 4),
    where the seat count allowed 6 swaps and the search took 1,017 nodes.
    keeler-pair and m2-cycle pin the coverage bound: without it they take
    1,395 and 360 nodes, since at m = 2 an insider's two supports, with
    x1 and with x2, are soon both spent.  m4-one-position pins that a
    refutation counts what a loop over the catalog counted: its one
    position counts 34 supports of 6 orderings each.

    The last four rows pin the last two moves, closed in place: their
    counts are those of the search that entered each leaf as its own
    position.  Each finds a 2-move plan at m >= 5 with one lookup: every
    leaf the root reaches before its plan lies below a support that seats
    every point the target moves, so would seat that support again, and
    is counted in one sum per support.  m7-five-outsiders counts 3,603
    positions of 5,760 moves: the root at limits 1 and 2, 3,600 leaves in
    five sums, and the leaf looked up.
    """

    @pytest.mark.parametrize(
        "text, rules, max_steps, nodes, plan",
        [
            (
                "(1 2)(3 4)", RuleSet(m=2, outsiders=pool(2)), 8, 81,
                ["(a1 x1)", "(a2 x1)", "(a3 x1)", "(a4 x2)", "(a3 x2)", "(a1 x2)", "(a4 x1)",
                 "(x1 x2)"],
            ),
            ("(1 2)(3 4)(5 6)(7 8)", RuleSet(m=3, outsiders=pool(1)), 5, 0, None),
            (
                "(1 2 3)", RuleSet(m=3, outsiders=(), require_outsider_per_move=False), 4, 2,
                ["(a1 a3 a2)"],
            ),
            (
                "(1 2 3 4 5 6)(7 8)", RuleSet(m=4, outsiders=pool(1)), 4, 3_696,
                ["(a1 a2 a3 x1)", "(a2 a6 a5 x1)", "(a3 a7 x1 a4)", "(a1 x1 a8 a7)"],
            ),
            (
                "(1 2 3)(4 5 6)", RuleSet(m=5, outsiders=pool(1)), 3, 720,
                ["(a1 a3 a2 a4 x1)", "(a1 x1 a6 a5 a4)"],
            ),
            (
                "(1 2 3 4)(5 6)",
                RuleSet(m=4, outsiders=pool(2), require_distinct_supports=False), 3, 0, None,
            ),
            (
                "(1 2 3)", RuleSet(m=4, outsiders=pool(2)), 2, 420,
                ["(a1 x1 x2 a2)", "(a2 x2 x1 a3)"],
            ),
            ("(1 2)(3 4)(5 6 7)", RuleSet(m=3, outsiders=pool(1)), 4, 0, None),
            (
                "(1 2)(3 4)(5 6 7)", RuleSet(m=3, outsiders=pool(1)), 5, 210,
                ["(a1 a2 x1)", "(a1 a3 x1)", "(a3 x1 a4)", "(a5 x1 a6)", "(a6 x1 a7)"],
            ),
            ("(1 2)(3 4)", RuleSet(m=2, outsiders=pool(2)), 7, 0, None),
            (
                "(1 2 3 4)", RuleSet(m=2, outsiders=pool(2)), 7, 90,
                ["(a1 x1)", "(a2 x2)", "(a1 x2)", "(a4 x1)", "(a3 x1)", "(a2 x1)", "(x1 x2)"],
            ),
            ("(1 2 3 4)", RuleSet(m=4, outsiders=pool(3)), 2, 204, None),
            (
                "(1 2 3)", RuleSet(m=5, outsiders=pool(3)), 3, 10_800,
                ["(a1 x1 x2 x3 a2)", "(a2 x3 x2 x1 a3)"],
            ),
            (
                "(1 2 3 4 5)", RuleSet(m=6, outsiders=pool(2)), 3, 203_280,
                ["(a1 a2 a4 a3 x1 x2)", "(a1 x2 x1 a2 a5 a4)"],
            ),
            (
                "(1 2)(3 4)", RuleSet(m=6, outsiders=pool(3)), 3, 304_080,
                ["(a1 a2 a3 x1 x2 x3)", "(a1 x3 x2 x1 a4 a3)"],
            ),
            (
                "(1 2 3)", RuleSet(m=7, outsiders=pool(5)), 2, 20_753_280,
                ["(a1 x1 x2 x3 x4 x5 a2)", "(a2 x5 x4 x3 x2 x1 a3)"],
            ),
        ],
        ids=[
            "keeler-pair", "refutation", "limit-1", "m4-pair", "m5-pair", "m4-repeats",
            "m4-two-outsiders", "m3-mixed-refuted", "m3-mixed", "m2-refuted", "m2-cycle",
            "m4-one-position", "m5-three-outsiders", "m6-five-cycle", "m6-pair",
            "m7-five-outsiders",
        ],
    )
    def test_exact_budget(self, text, rules, max_steps, nodes, plan):
        target = parse_cycles(text)
        found = search_min_plan(target, rules, max_steps, node_budget=nodes)
        assert (found if found is None else [move_text(move) for move in found]) == plan
        if nodes:
            with pytest.raises(OracleBudgetError):
                search_min_plan(target, rules, max_steps, node_budget=nodes - 1)


def reference_move_catalog(
    n: int, first_outsider: int, rules: RuleSet
) -> list[tuple[int, int, itemgetter, tuple[int, ...]]]:
    supports = [
        combo
        for combo in itertools.combinations(range(n), rules.m)
        if not rules.require_outsider_per_move or combo[-1] >= first_outsider
    ]
    catalog = []
    for sid, combo in enumerate(supports):
        mask = sum(1 << i for i in combo)
        lead, rest = combo[0], combo[1:]
        for ordering in itertools.permutations(rest):
            seats = (lead,) + ordering
            preimage = list(range(n))
            for a, b in zip(seats, seats[1:] + seats[:1]):
                preimage[b] = a
            catalog.append((sid, mask, itemgetter(*preimage), seats))
    return catalog


def reference_cayley_distance(r: tuple[int, ...]) -> int:
    seen = [False] * len(r)
    distance = 0
    for i, j in enumerate(r):
        if seen[i]:
            continue
        while j != i:
            seen[j] = True
            distance += 1
            j = r[j]
    return distance


def reference_component_count(r: tuple[int, ...], first_outsider: int, rules: RuleSet) -> int:
    """H(r): the Cayley distance with the outsider rule off.  Under it, each
    k-cycle of r adds k - 1 when it holds an outsider and k + 1 when not,
    and at m = 2 under the distinct rule as well, 2 more when some cycle
    holds no outsider and none holds two or more."""
    if not rules.require_outsider_per_move:
        return reference_cayley_distance(r)
    cycles, seen = [], set()
    for i in range(len(r)):
        if i not in seen and r[i] != i:
            cycle = [i]
            while r[cycle[-1]] != i:
                cycle.append(r[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    held = [sum(a >= first_outsider for a in cycle) for cycle in cycles]
    count = sum(len(cycle) + (1 if k == 0 else -1) for cycle, k in zip(cycles, held))
    if rules.m == 2 and rules.require_distinct_supports and 0 in held and max(held) < 2:
        count += 2
    return count


def reference_strands_a_point(
    r: tuple[int, ...], catalog: list[tuple[int, int, itemgetter, tuple[int, ...]]], spent: int
) -> bool:
    """Whether r moves a point that no unspent support seats."""
    seated = set()
    for sid, _, _, seats in catalog:
        if not spent >> sid & 1:
            seated.update(seats)
    return any(r[p] != p and p not in seated for p in range(len(r)))


def reference_search_min_plan(
    target: Permutation,
    rules: RuleSet,
    max_steps: int,
    node_budget: int = 10**8,
    counted: list[int] | None = None,
) -> list[tuple[Element, ...]] | None:
    """The reference search.  When given, counted[0] gets its node count,
    also when the budget runs out; a target ruled out by parity counts no
    node and leaves it as it was."""
    insiders_only(target)
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    if node_budget < 0:
        raise ValueError("node_budget must be nonnegative")
    insiders = sorted(target.support())
    ground = insiders + sorted(rules.outsiders)
    n = len(ground)
    if n > 16:
        raise ValueError(f"ground set of {n} elements is too large to search")
    m, parity = rules.m, target.parity()
    if m % 2 and parity:
        return None  # odd-length cycles multiply to even permutations only
    catalog = reference_move_catalog(n, len(insiders), rules)
    distinct = rules.require_distinct_supports
    identity = tuple(range(n))
    nodes = 0

    def dfs(
        r: tuple[int, ...],
        depth_left: int,
        spent: int,
        prev_sid: int,
        prev_mask: int,
        path: list[tuple[int, ...]],
    ) -> bool:
        nonlocal nodes
        if depth_left == 0:
            return r == identity
        if sum(map(ne, r, identity)) > m * depth_left:
            return False  # displacement bound
        if depth_left == 1 and reference_cayley_distance(r) > m - 1:
            return False  # Cayley bound
        if (
            depth_left >= 2
            and reference_component_count(r, len(insiders), rules) > (m - 1) * depth_left
        ):
            return False  # component count
        if depth_left >= 2 and distinct and reference_strands_a_point(r, catalog, spent):
            return False  # coverage: no remaining move can move the stranded point
        nodes += len(catalog)  # a position that passed its bounds counts the whole catalog
        if nodes > node_budget:
            raise OracleBudgetError(f"node budget of {node_budget} exceeded")
        for sid, mask, act, seats in catalog:
            if distinct and spent >> sid & 1:
                continue
            if not mask & prev_mask and sid < prev_sid:
                continue
            path.append(seats)
            if dfs(act(r), depth_left - 1, spent | 1 << sid, sid, mask, path):
                return True
            path.pop()
        return False

    goal = target.inverse()
    start = tuple(ground.index(goal(e)) for e in ground)  # R before any move
    longest = max_steps
    if distinct:  # a plan seats each support at most once
        longest = min(max_steps, len({sid for sid, *_ in catalog}))
    try:
        for limit in range(longest + 1):
            if m % 2 == 0 and limit % 2 != parity:
                continue  # the parity bound fails at the root, so at every node
            path: list[tuple[int, ...]] = []
            if dfs(start, limit, 0, -1, 0, path):
                return [move(*(ground[i] for i in seats)) for seats in path]
        return None
    finally:
        if counted is not None:
            counted[0] = nodes


def transposition_product(swaps: list[list[int]]) -> Permutation:
    """The product of transpositions of insiders; it moves at most 5 of them."""
    return plan_product((insider(a), insider(b)) for a, b in swaps)


def search_outcome(search, target, rules, max_steps, node_budget):
    try:
        return search(target, rules, max_steps, node_budget)
    except OracleBudgetError:
        return "budget exceeded"


class TestSearchDifferential:
    """search_min_plan against the search that entered every child before
    bounding it and tried the last move by a loop over the catalog.

    The same plan, or a budget error from both, under every budget pins
    the node count as well as the plans.  A random budget seldom falls
    between two differing counts, so the search is also run at exactly
    the reference's count, where it must finish, and at one below it,
    where it must run out.  The pinned examples are m = 2 searches long
    enough for the coverage bound to cut, so every run reaches it.  Each
    position entered counts the catalog's 9 moves at once, so with 4
    nodes (1 2)(3 4) runs out on entering the root, and both searches
    must raise there.  (1 2 3) at m = 4 with three outsiders takes 1,800
    nodes, 20 positions of 90 moves, to find a 2-move plan: its root's
    first support, a1 a2 a3 x1, seats every point the target moves, so
    its 6 leaves are counted in one sum, and 300 nodes run out inside it.
    """

    @settings(max_examples=300, deadline=None)
    @example([[1, 2], [3, 4]], 2, 2, True, True, 8, 4)
    @example([[1, 2], [3, 4]], 2, 2, True, True, 8, 80)
    @example([[1, 2], [3, 4]], 2, 2, True, True, 8, 3000)
    @example([[1, 2], [2, 3], [3, 4]], 2, 2, True, True, 7, 89)
    @example([[1, 2], [2, 3], [3, 4]], 2, 2, True, True, 7, 3000)
    @example([[1, 2], [2, 3]], 4, 3, True, True, 2, 300)
    @example([[1, 2], [2, 3]], 4, 3, True, True, 2, 1800)
    @given(
        swaps=st.lists(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True), max_size=6),
        m=st.integers(2, 5),
        d=st.integers(0, 3),
        outsider_rule=st.booleans(),
        distinct_rule=st.booleans(),
        max_steps=st.integers(0, 6),
        node_budget=st.integers(0, 3000),
    )
    def test_same_plan_or_same_budget_error(
        self, swaps, m, d, outsider_rule, distinct_rule, max_steps, node_budget
    ):
        if outsider_rule and d == 0:
            d = 1
        target = transposition_product(swaps)
        rules = RuleSet(m, pool(d), outsider_rule, distinct_rule)
        assert search_outcome(
            search_min_plan, target, rules, max_steps, node_budget
        ) == search_outcome(reference_search_min_plan, target, rules, max_steps, node_budget)

    @settings(max_examples=300, deadline=None)
    @example([[1, 2], [3, 4]], 2, 2, True, True, 8)
    @example([[1, 2], [2, 3], [3, 4]], 2, 2, True, True, 7)
    @example([[1, 2]], 2, 3, True, True, 6)
    @example([[1, 2], [2, 3]], 4, 3, True, True, 2)
    @given(
        swaps=st.lists(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True), max_size=6),
        m=st.integers(2, 5),
        d=st.integers(0, 3),
        outsider_rule=st.booleans(),
        distinct_rule=st.booleans(),
        max_steps=st.integers(0, 6),
    )
    def test_same_result_at_the_references_exact_need(
        self, swaps, m, d, outsider_rule, distinct_rule, max_steps
    ):
        if outsider_rule and d == 0:
            d = 1
        target = transposition_product(swaps)
        rules = RuleSet(m, pool(d), outsider_rule, distinct_rule)
        counted = [0]
        want = reference_search_min_plan(target, rules, max_steps, counted=counted)
        need = counted[0]
        insiders = len(target.support())
        size = len(reference_move_catalog(insiders + len(rules.outsiders), insiders, rules))
        assert need == 0 or need % size == 0  # a whole catalog per position entered
        assert search_min_plan(target, rules, max_steps, need) == want
        if need:
            with pytest.raises(OracleBudgetError):
                search_min_plan(target, rules, max_steps, need - 1)


# the bench's four solvers: name -> (machine size, solve)
PLAN_SOLVERS = {
    "keeler2": (2, solve_two_machine),
    "optimal3": (3, solve_three_machine_optimal),
    "general_m4": (4, lambda target: solve_m_machine(target, 4)),
    "general_m5": (5, lambda target: solve_m_machine(target, 5)),
}
MUTATIONS = ("drop", "repeat", "swap", "stranger", "insider", "tuple")


@st.composite
def mutated_plans(draw):
    """(target, plan, machine size, pool): a solver's plan with up to three
    mutations, which may leave plain-tuple moves of any size in it."""
    m, solve = PLAN_SOLVERS[draw(st.sampled_from(sorted(PLAN_SOLVERS)))]
    n = draw(st.integers(0, 7))
    target = permutation_from_images(list(draw(st.permutations(range(1, n + 1)))))
    if m % 2 and target.parity():
        target = target * plan_product([(insider(1), insider(2))])
    doc = solve(target)
    plan = list(doc.moves)
    strangers = [outsider(len(doc.outsiders) + 1), outsider(len(doc.outsiders) + 2)]
    insiders = [insider(i) for i in range(1, n + 2)]
    seats = insiders + list(doc.outsiders) + strangers
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if kind == "tuple":
            size = draw(st.integers(0, m + 1))
            seated = draw(st.lists(st.sampled_from(seats), min_size=size, max_size=size))
            plan.insert(draw(st.integers(0, len(plan))), tuple(seated))
            continue
        if not plan:
            continue
        i = draw(st.integers(0, len(plan) - 1))
        if kind == "drop":
            del plan[i]
        elif kind == "repeat":
            plan.insert(draw(st.integers(0, len(plan))), plan[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(plan) - 1))
            plan[i], plan[j] = plan[j], plan[i]
        else:
            # a stranger in any seat, or an insider in an outsider's seat
            spots = [k for k, e in enumerate(plan[i]) if kind == "stranger" or e.is_outsider]
            if spots:
                seated = list(plan[i])
                seated[draw(st.sampled_from(spots))] = draw(
                    st.sampled_from(strangers if kind == "stranger" else insiders)
                )
                plan[i] = tuple(seated)
    return target, plan, m, doc.outsiders


class TestVerifyDifferential:
    """verify_plan against the verifier that read each move once per rule and
    built the product and the target's inverse as permutations, through
    conftest.expected_report.
    """

    @pytest.mark.parametrize(
        "outsider_rule, distinct_rule", [(True, True), (False, True), (True, False), (False, False)]
    )
    @settings(max_examples=150, deadline=None)
    @given(case=mutated_plans())
    def test_same_report(self, outsider_rule, distinct_rule, case):
        target, plan, m, outsiders = case
        rules = RuleSet(m, outsiders, outsider_rule, distinct_rule)
        got = verify_plan(target, plan, rules)
        assert (got.product_ok, got.rule_violations, got.step_count) == expected_report(
            target, plan, rules
        )

    def test_mutations_reach_every_verdict(self):
        # the strategy is not vacuous: clean plans, wrong products and each
        # violation kind all occur among its draws
        seen = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(case=mutated_plans())
        def collect(case):
            target, plan, m, outsiders = case
            report = verify_plan(target, plan, RuleSet(m, outsiders))
            if report.clean:
                seen.add("clean")
            if not report.product_ok:
                seen.add("wrong product")
            seen.update(kind for _, kind in report.rule_violations)

        collect()
        assert {
            "clean",
            "wrong product",
            "seat-count",
            "repeated-seat",
            "missing-outsider",
            "unknown-outsider",
            "duplicate-support",
        } <= seen
