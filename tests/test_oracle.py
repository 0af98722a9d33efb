import itertools
from operator import itemgetter, ne

import pytest
from hypothesis import given, settings, strategies as st

from mindswap import oracle
from mindswap.keeler import solve_two_machine
from mindswap.moves import MachineMove, plan_product
from mindswap.optimal3 import odd_cycle_moves, solve_three_machine_optimal
from mindswap.oracle import (
    OracleBudgetError,
    RuleSet,
    search_min_plan,
    verify_plan,
)
from mindswap.perm import Permutation, insider, insiders_only, outsider, parse_cycles


def pool(d):
    return tuple(outsider(i) for i in range(1, d + 1))


def move(*elements):
    return MachineMove(elements)


class TestRuleSet:
    def test_requires_outsiders_when_rule_active(self):
        with pytest.raises(ValueError):
            RuleSet(m=3, outsiders=())

    def test_small_machine_rejected(self):
        with pytest.raises(ValueError):
            RuleSet(m=1, outsiders=pool(1))

    @pytest.mark.parametrize("index", [1, 5])
    def test_insider_in_pool_rejected(self, index):
        # an insider of the target made the search loop forever; any other
        # insider let it return a plan that verify_plan rejects
        with pytest.raises(ValueError, match=f"pool entry a{index} is not an outsider"):
            RuleSet(m=3, outsiders=(insider(index),))
        with pytest.raises(ValueError, match=f"pool entry a{index} is not an outsider"):
            RuleSet(m=3, outsiders=(outsider(1), insider(index)), require_outsider_per_move=False)


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
        moves = odd_cycle_moves(target.cycles[0], outsider(1))
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
        # with the displacement bound alone the search tries 37,922 nodes
        # here; the Cayley and parity bounds bring that to 5,792
        plan = search_min_plan(
            parse_cycles("(1 2)(3 4)"), RuleSet(m=2, outsiders=pool(2)), 8, node_budget=10_000
        )
        assert plan is not None and len(plan) == 8

    def test_oversized_ground_set_rejected(self):
        big = Permutation.from_cycle([insider(i) for i in range(1, 16)])
        with pytest.raises(ValueError):
            search_min_plan(big, RuleSet(m=3, outsiders=pool(2)), 2)

    def test_agrees_with_optimal3_construction(self):
        for text in ["(1 2 3)", "(1 2)(3 4)", "(1 2 3 4 5)"]:
            target = parse_cycles(text)
            built = solve_three_machine_optimal(target)
            found = search_min_plan(target, RuleSet(m=3, outsiders=pool(1)), 5)
            assert found is not None and len(found) == built.steps

    def test_oversized_catalog_rejected_before_building(self):
        # 9 supports times 8! orderings: 362,880 moves, far above the cap
        nine = Permutation.from_cycle([insider(i) for i in range(1, 10)])
        with pytest.raises(ValueError, match="catalog of 362880 moves is too large"):
            search_min_plan(nine, RuleSet(m=9, outsiders=pool(1)), 1, node_budget=5)

    @pytest.mark.parametrize(
        "n, first_outsider, m, outsider_rule",
        [(5, 4, 2, True), (6, 3, 3, True), (8, 5, 5, True), (6, 6, 4, False), (7, 5, 7, True)],
    )
    def test_catalog_cap_counts_every_move(self, monkeypatch, n, first_outsider, m, outsider_rule):
        rules = RuleSet(m=m, outsiders=pool(1), require_outsider_per_move=outsider_rule)
        catalog, last_move = oracle._move_catalog(n, first_outsider, rules)
        assert len(last_move) == len(catalog)
        monkeypatch.setattr(oracle, "CATALOG_CAP", len(catalog) - 1)
        with pytest.raises(ValueError, match=f"catalog of {len(catalog)} moves"):
            oracle._move_catalog(n, first_outsider, rules)


class TestBudgetEdges:
    """Each search succeeds with exactly N nodes and raises with N - 1."""

    @pytest.mark.parametrize(
        "text, rules, max_steps, nodes, plan",
        [
            (
                "(1 2)(3 4)", RuleSet(m=2, outsiders=pool(2)), 8, 5_792,
                ["(a1 x1)", "(a2 x1)", "(a3 x1)", "(a4 x2)", "(a3 x2)", "(a1 x2)", "(a4 x1)",
                 "(x1 x2)"],
            ),
            ("(1 2)(3 4)(5 6)(7 8)", RuleSet(m=3, outsiders=pool(1)), 5, 377_384, None),
            (
                "(1 2 3)", RuleSet(m=3, outsiders=(), require_outsider_per_move=False), 4, 2,
                ["(a1 a3 a2)"],
            ),
        ],
        ids=["keeler-pair", "refutation", "limit-1"],
    )
    def test_exact_budget(self, text, rules, max_steps, nodes, plan):
        target = parse_cycles(text)
        found = search_min_plan(target, rules, max_steps, node_budget=nodes)
        assert (found if found is None else [str(move) for move in found]) == plan
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


def reference_search_min_plan(
    target: Permutation,
    rules: RuleSet,
    max_steps: int,
    node_budget: int = 10**8,
) -> list[MachineMove] | None:
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
        if reference_cayley_distance(r) > (m - 1) * depth_left:
            return False  # Cayley bound
        for sid, mask, act, seats in catalog:
            nodes += 1
            if nodes > node_budget:
                raise OracleBudgetError(f"node budget of {node_budget} exceeded")
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
    for limit in range(max_steps + 1):
        if m % 2 == 0 and limit % 2 != parity:
            continue  # the parity bound fails at the root, so at every node
        path: list[tuple[int, ...]] = []
        if dfs(start, limit, 0, -1, 0, path):
            return [MachineMove(tuple(ground[i] for i in seats)) for seats in path]
    return None


def transposition_product(swaps: list[list[int]]) -> Permutation:
    """The product of transpositions of insiders; it moves at most 5 of them."""
    return plan_product(MachineMove((insider(a), insider(b))) for a, b in swaps)


def search_outcome(search, target, rules, max_steps, node_budget):
    try:
        return search(target, rules, max_steps, node_budget)
    except OracleBudgetError:
        return "budget exceeded"


class TestSearchDifferential:
    """search_min_plan against the search that entered every child before
    bounding it and tried the last move by a loop over the catalog.

    The same plan, or a budget error from both, under every budget pins
    the node count as well as the plans.
    """

    @settings(max_examples=300, deadline=None)
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
