"""Brute-force certification of plans: rule checking and shortest-plan search.

verify_plan re-checks any plan against the machine rules and the target,
reporting every violation instead of raising.  search_min_plan runs an
exhaustive iterative-deepening DFS over all legal moves on a small ground
set, so it certifies minimality independently of every closed-form solver
in the package.

The search prunes only in ways that cannot hide a shortest plan: a
displacement bound (one m-cycle changes at most m final images) and a
commuting normal form (two consecutive moves with disjoint seat sets are
explored in one canonical order only, since swapping them changes
nothing).  A shared visited-state table would be unsound here: under the
distinct-seat-set rule the same intermediate permutation can be reached
with different sets of spent supports, and only some of those admit a
completion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .moves import MachineMove, plan_product
from .perm import Element, Permutation, insiders_only


class OracleBudgetError(RuntimeError):
    """Raised when the search exceeds its node budget; never a wrong answer."""


@dataclass(frozen=True)
class RuleSet:
    """Machine rules a plan must follow."""

    m: int
    outsiders: tuple[Element, ...]
    require_outsider_per_move: bool = True
    require_distinct_supports: bool = True

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("machine size must be at least 2")
        if self.require_outsider_per_move and not self.outsiders:
            raise ValueError("outsider rule requires a nonempty outsider pool")
        if len(set(self.outsiders)) != len(self.outsiders):
            raise ValueError("repeated outsider in pool")


@dataclass
class VerificationReport:
    product_ok: bool
    rule_violations: list[tuple[int, str]]
    step_count: int

    @property
    def clean(self) -> bool:
        return self.product_ok and not self.rule_violations


def verify_plan(
    target: Permutation, plan: list[MachineMove], rules: RuleSet
) -> VerificationReport:
    """Check seat counts, outsider usage, support distinctness and product.

    All problems are reported with their move index; nothing raises.  The
    product check compares the chronological right-to-left plan product
    against the inverse of the target.
    """
    violations: list[tuple[int, str]] = []
    pool = set(rules.outsiders)
    for i, move in enumerate(plan):
        if move.size != rules.m:
            violations.append((i, "seat-count"))
        if rules.require_outsider_per_move and not move.has_outsider():
            violations.append((i, "missing-outsider"))
        elif any(s.is_outsider and s not in pool for s in move.seats):
            violations.append((i, "unknown-outsider"))
    if rules.require_distinct_supports:
        seen: set[frozenset[Element]] = set()
        for i, move in enumerate(plan):
            if move.support in seen:
                violations.append((i, "duplicate-support"))
            seen.add(move.support)
    product_ok = plan_product(plan) == target.inverse()
    return VerificationReport(product_ok, violations, len(plan))


def _move_catalog(ground: list[Element], rules: RuleSet) -> list[MachineMove]:
    """All legal moves on the ground set, in canonical deterministic order."""
    catalog = []
    for combo in itertools.combinations(ground, rules.m):
        if rules.require_outsider_per_move and not any(e.is_outsider for e in combo):
            continue
        lead, rest = combo[0], combo[1:]
        for ordering in itertools.permutations(rest):
            catalog.append(MachineMove((lead,) + ordering))
    return catalog


def search_min_plan(
    target: Permutation,
    rules: RuleSet,
    max_steps: int,
    node_budget: int = 10**8,
) -> list[MachineMove] | None:
    """Exhaustive shortest plan inverting the target, or None within max_steps.

    The ground set is support(target) plus the rule outsiders.  Iterative
    deepening guarantees that a returned plan is minimal and that smaller
    lengths were fully refuted.  Deterministic for fixed inputs.  An odd
    target on an odd machine is unreachable at any length and returns None
    without searching.
    """
    insiders_only(target)
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    ground = sorted(target.support()) + sorted(rules.outsiders)
    if len(ground) > 16:
        raise ValueError(f"ground set of {len(ground)} elements is too large to search")
    if rules.m % 2 and target.parity():
        return None  # odd-length cycles multiply to even permutations only
    catalog = _move_catalog(ground, rules)
    goal = target.inverse()
    nodes = 0

    def displacement(state: Permutation) -> int:
        return sum(1 for e in ground if state.apply(e) != goal.apply(e))

    def dfs(
        state: Permutation,
        depth_left: int,
        used: set[frozenset[Element]],
        prev_support: frozenset[Element] | None,
        path: list[MachineMove],
    ) -> bool:
        nonlocal nodes
        if depth_left == 0:
            return state == goal
        if displacement(state) > rules.m * depth_left:
            return False
        for move in catalog:
            nodes += 1
            if nodes > node_budget:
                raise OracleBudgetError(f"node budget of {node_budget} exceeded")
            sup = move.support
            if rules.require_distinct_supports and sup in used:
                continue
            if (
                prev_support is not None
                and prev_support.isdisjoint(sup)
                and sorted(sup) < sorted(prev_support)
            ):
                continue
            used.add(sup)
            path.append(move)
            if dfs(move.perm() * state, depth_left - 1, used, sup, path):
                return True
            path.pop()
            used.discard(sup)
        return False

    identity = Permutation.identity()
    for limit in range(max_steps + 1):
        path: list[MachineMove] = []
        if dfs(identity, limit, set(), None, path):
            return path
    return None
