import pytest

from mindswap.keeler import solve_two_machine
from mindswap.moves import MachineMove, plan_product
from mindswap.optimal3 import odd_cycle_moves, solve_three_machine_optimal
from mindswap.oracle import (
    OracleBudgetError,
    RuleSet,
    search_min_plan,
    verify_plan,
)
from mindswap.perm import Permutation, insider, outsider, parse_cycles


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
