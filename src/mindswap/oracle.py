"""Brute-force certification of plans: rule checking and shortest-plan search.

verify_plan re-checks any plan against the machine rules and the target,
reporting every violation instead of raising.  search_min_plan runs an
exhaustive iterative-deepening DFS over all legal moves on a small ground
set, so it certifies minimality independently of every closed-form solver
in the package.

Data layout.  The ground set, the target's support in sorted order and
then the sorted outsiders, is numbered 0..N-1, so index order is element
order.  The search state is the residual R = goal∘state⁻¹, held as the
tuple of its image indices: the state is the product of the moves so far,
the goal is the target's inverse, and a plan is complete when R is the
identity tuple.  A move g turns R into R∘g⁻¹.  The catalog is the list of
legal supports, each held as its support id, its seat bitmask and its
(m - 1)! orderings; each ordering g is precomputed once as an itemgetter
over g's preimage tuple, next to its seats.  A dict maps each move's own
image tuple to its index k in the flat catalog (the supports' orderings
in turn), its support id, its bitmask and its seats.  Support ids rank
the legal supports in itertools.combinations order, which is sorted-tuple
order.  Spent supports are an int bitset over those ids, and R's moved
points an int bitmask over the ground indices.  MachineMove objects are
built only for the plan that is returned.

Nodes.  The search counts one node per catalog move it tries, at every
position that passed the bounds below; a pruned position and a skipped
limit cost none.  The node budget caps that count, so the tighter the
bounds, the further a search gets on the same budget.  A support that a
position skips whole (see Search order) counts its own orderings at
once, and the budget is checked after adding them.  That
count is exact: trying the orderings in turn adds the same nodes, rejects
each one by the same test and descends into none, so nothing but the
count happens between them, and the search raises OracleBudgetError
under exactly the budgets it would while trying each ordering.

Pruning.  Each rule cuts only subtrees that hold no plan, so the DFS meets
the same first plan, in the same catalog order, as a search without it.
With d moves left:

- Displacement: |supp(R)| <= m·d.  R∘g⁻¹ differs from R only on the m
  seats of g, so one move fixes at most m of the points R moves.
- Displacement by support: a support S whose seats miss more than m·d of
  R's moved points yields no child that passes, where d counts the moves
  left after it.  For x outside S, g⁻¹(x) = x for every ordering g of S,
  so (R∘g⁻¹)(x) = R(x): each point of supp(R) ∖ S stays moved, and
  |supp(R∘g⁻¹)| >= |supp(R) ∖ S|.  As bitmasks that is
  (moved & ~mask).bit_count() > m·d, one test for all (m - 1)! orderings.
- Cayley: N - cycles(R) <= (m - 1)·d.  N - cycles(R) is the least number
  of transpositions whose product is R.  An m-cycle is a product of
  m - 1 transpositions, and each transposition changes the cycle count by
  exactly one, so one move lowers N - cycles by at most m - 1, and the
  identity has N - cycles = 0.  At d = 1 displacement implies it: k <= m
  moved points in c >= 1 cycles give k - c <= m - 1.  At d = 2 it does
  too: k <= 2m moved points give k - c <= 2m - 2 unless R is a single
  2m-cycle, which is odd, while every residual at d = 2 is even (for odd
  m every move is even and an odd target is refuted before the search;
  for even m by the parity bound).  So it is applied from d = 3 on.
- Parity, for even m: d ≡ parity(R) (mod 2).  An m-cycle is odd for even
  m, so every move flips the parity of R and the identity is even.  Since
  a move also lowers d by one, the condition holds at every node of a
  limit exactly when it holds at the root, so limits of the wrong parity
  are skipped whole.  For odd m every move is even: an odd target is
  refuted before any search.
- Commuting normal form: two consecutive moves with disjoint seat sets are
  explored only with the lower support id first, since swapping them
  changes neither the product nor the spent supports.

Search order.  A position computes R's moved-point bitmask once, then
skips whole each support that is spent, breaks the normal form against
the previous move, or fails displacement by support.  Each ordering of a
support it keeps is bounded as a child R∘g⁻¹, by displacement and
Cayley, before descending, so the position enters only children that
pass them; the root is bounded once per limit.  With one move left,
R∘g⁻¹ is the identity exactly when g = R, and each m-cycle appears once
in the catalog, so the last move is found by one dict lookup on R's
image tuple, then checked for a spent support and the normal form.  That
position still counts k + 1 nodes when catalog move k completes the
plan, and the whole catalog when none does, which is what trying each
move in turn counted; the budget is checked after adding them, so a
search raises OracleBudgetError under exactly the budgets it would while
trying each move.  With no legal move at all (a ground set smaller than
m) only the empty plan exists, so the search stops after limit 0.

Inputs.  The rule pool must hold outsiders only (RuleSet raises
ValueError otherwise, and PlanDocument checks its pool through RuleSet),
and a search refuses with ValueError a ground set of more than GROUND_CAP
elements or a catalog of more than CATALOG_CAP moves, sized from its
legal supports before any move is built.

No transposition table.  A table keyed on R alone would be unsound here:
under the distinct-seat-set rule the same residual can be reached with
different sets of spent supports, and only some of those admit a
completion.  A table keyed on (R, spent supports) is sound on its own, but
the commuting normal form makes the subtree below a node depend on the
previous support as well, so its interaction needs its own proof.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter, ne

from .moves import MachineMove
from .perm import OUTSIDER, Element, Permutation, insiders_only

CATALOG_CAP = 100_000
"""Most catalog moves a search builds.  86,400 moves (m = 7 on 10 elements)
take about 0.5 s and 48 MB to build with CPython 3.11 on a Xeon vCPU."""


GROUND_CAP = 16
"""Most elements a search takes: the target's support plus the pool."""


def _refuse_ground(n: int) -> None:
    """ValueError when a ground set of n elements is too large to search."""
    if n > GROUND_CAP:
        raise ValueError(f"ground set of {n} elements is too large to search")


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
            raise ValueError(f"machine size must be at least 2, got {self.m}")
        if self.require_outsider_per_move and not self.outsiders:
            raise ValueError("outsider rule requires a nonempty outsider pool")
        if len(set(self.outsiders)) != len(self.outsiders):
            raise ValueError("repeated outsider in pool")
        for e in self.outsiders:
            if not e.is_outsider:
                raise ValueError(f"pool entry {e} is not an outsider")


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
    """Check seat counts, repeated seats, outsider usage, support
    distinctness and product.

    All problems are reported with their move index; nothing raises.  Each
    move's own kinds come in move order: seat-count, repeated-seat, then
    missing-outsider or unknown-outsider.  The duplicate-support entries
    follow.  A move that seats one element twice has no product, so a
    plan holding one never has product_ok.  The product check compares
    the chronological right-to-left plan product against the inverse of
    the target.

    Each move is read once, into one frozenset that both the outsider rule
    and the distinct-support rule use, and into the product's fold.

    - Outsiders sort last.  Element order is (kind, index), and INSIDER
      sorts before OUTSIDER, so a move seats an outsider exactly when its
      greatest seat is one.  Likewise it seats an outsider outside the
      pool exactly when the greatest of its seats outside the pool is an
      outsider.
    - The fold keeps the inverse of the product P, as a preimage map (see
      perm._compose_cycles).  P = σ⁻¹ exactly when P⁻¹ = σ, so with fixed
      points dropped that map is compared with the target's image map,
      and no permutation is built for either side.
    """
    violations: list[tuple[int, str]] = []
    duplicates: list[tuple[int, str]] = []
    pool = frozenset(rules.outsiders)
    m, outsider_rule = rules.m, rules.require_outsider_per_move
    distinct = rules.require_distinct_supports
    seen: set[frozenset[Element]] = set()
    preimage: dict[Element, Element] = {}
    repeated = False
    for i, move in enumerate(plan):
        support = frozenset(move)
        if len(move) != m:
            violations.append((i, "seat-count"))
        if len(support) != len(move):
            violations.append((i, "repeated-seat"))
            repeated = True
        if not move or max(move)[0] != OUTSIDER:
            if outsider_rule:
                violations.append((i, "missing-outsider"))
        else:
            unknown = support - pool
            if unknown and max(unknown)[0] == OUTSIDER:
                violations.append((i, "unknown-outsider"))
        if distinct:
            if support in seen:
                duplicates.append((i, "duplicate-support"))
            seen.add(support)
        if not repeated:  # the fold of perm._compose_cycles, one move at a time
            sources = [preimage.get(y, y) for y in move]
            preimage.update(zip(move[1:] + move[:1], sources))
    violations += duplicates
    product_ok = not repeated and {y: x for y, x in preimage.items() if x != y} == target._map
    return VerificationReport(product_ok, violations, len(plan))


def _move_catalog(
    n: int, first_outsider: int, rules: RuleSet
) -> tuple[
    list[tuple[int, int, tuple[tuple[itemgetter, tuple[int, ...]], ...]]],
    dict[tuple[int, ...], tuple[int, int, int, tuple[int, ...]]],
]:
    """All legal moves on ground indices 0..n-1, grouped by support.

    Each support is (support id, seat bitmask, orderings), and each
    ordering is (action on the residual, seats).  Supports come in
    itertools.combinations order, and a support holds an outsider when its
    greatest index does.  Each support lists its (m - 1)! orderings with
    the least seat leading, so every legal m-cycle appears once; the
    returned dict maps each move's own image tuple to (k, support id, seat
    bitmask, seats), where k is its insertion position: the move's index in
    the flat catalog of the supports' orderings in turn.  Raises ValueError,
    before building any move, for more than CATALOG_CAP moves.
    """
    m = rules.m
    combos = [
        combo
        for combo in itertools.combinations(range(n), m)
        if not rules.require_outsider_per_move or combo[-1] >= first_outsider
    ]
    size = len(combos) * math.factorial(m - 1) if combos else 0
    if size > CATALOG_CAP:
        raise ValueError(f"catalog of {size} moves is too large to search")
    supports = []
    last_move = {}
    for sid, combo in enumerate(combos):
        mask = sum(1 << i for i in combo)
        lead, rest = combo[0], combo[1:]
        orderings = []
        for ordering in itertools.permutations(rest):
            seats = (lead,) + ordering
            image, preimage = list(range(n)), list(range(n))
            for a, b in zip(seats, seats[1:] + seats[:1]):
                image[a], preimage[b] = b, a
            last_move[tuple(image)] = (len(last_move), sid, mask, seats)
            orderings.append((itemgetter(*preimage), seats))
        supports.append((sid, mask, tuple(orderings)))
    return supports, last_move


def _cayley_distance(r: tuple[int, ...]) -> int:
    """N - cycles(r): the fewest transpositions whose product is r."""
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
    if node_budget < 0:
        raise ValueError("node_budget must be nonnegative")
    insiders = sorted(target.support())
    ground = insiders + sorted(rules.outsiders)
    n = len(ground)
    _refuse_ground(n)
    m, parity = rules.m, target.parity()
    if m % 2 and parity:
        return None  # odd-length cycles multiply to even permutations only
    supports, last_move = _move_catalog(n, len(insiders), rules)
    size = len(last_move)  # each m-cycle once
    distinct = rules.require_distinct_supports
    identity = tuple(range(n))
    bits = [1 << i for i in range(n)]
    nodes = 0

    def dfs(
        r: tuple[int, ...],
        depth_left: int,
        spent: int,
        prev_sid: int,
        prev_mask: int,
        path: list[tuple[int, ...]],
    ) -> bool:
        """Complete r, which passed the bounds for depth_left >= 1, onto path."""
        nonlocal nodes
        if depth_left == 1:  # R∘g⁻¹ is the identity exactly when g = R
            hit = last_move.get(r)
            if hit is not None:
                k, sid, mask, seats = hit
                if (distinct and spent >> sid & 1) or (not mask & prev_mask and sid < prev_sid):
                    hit = None
            nodes += size if hit is None else k + 1
            if nodes > node_budget:
                raise OracleBudgetError(f"node budget of {node_budget} exceeded")
            if hit is None:
                return False
            path.append(seats)
            return True
        d = depth_left - 1
        reach, distance = m * d, (m - 1) * d
        moved = sum(itertools.compress(bits, map(ne, r, identity)))  # R's moved points
        for sid, mask, orderings in supports:
            if (
                (distinct and spent >> sid & 1)
                or (not mask & prev_mask and sid < prev_sid)
                or (moved & ~mask).bit_count() > reach  # displacement, every ordering
            ):
                nodes += len(orderings)  # each ordering counts, as when tried in turn
                if nodes > node_budget:
                    raise OracleBudgetError(f"node budget of {node_budget} exceeded")
                continue
            for act, seats in orderings:
                nodes += 1
                if nodes > node_budget:
                    raise OracleBudgetError(f"node budget of {node_budget} exceeded")
                child = act(r)
                if sum(map(ne, child, identity)) > reach:
                    continue  # displacement bound
                if d > 2 and _cayley_distance(child) > distance:
                    continue  # Cayley bound; with d <= 2 left it never cuts
                path.append(seats)
                if dfs(child, d, spent | 1 << sid, sid, mask, path):
                    return True
                path.pop()
        return False

    goal = target.inverse()
    start = tuple(ground.index(goal(e)) for e in ground)  # R before any move
    displaced, distance = sum(map(ne, start, identity)), _cayley_distance(start)
    for limit in range(max_steps + 1 if supports else 1):  # no move: only limit 0
        if m % 2 == 0 and limit % 2 != parity:
            continue  # the parity bound fails at the root, so at every node
        if displaced > m * limit or distance > (m - 1) * limit:
            continue  # displacement and Cayley bounds at the root
        path: list[tuple[int, ...]] = []
        if limit == 0 or dfs(start, limit, 0, -1, 0, path):
            return [MachineMove(ground[i] for i in seats) for seats in path]
    return None
