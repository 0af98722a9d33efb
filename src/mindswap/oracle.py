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
identity tuple.  A move g turns R into R∘g⁻¹.  The catalog is the tuple
of legal supports, each held as its support id, its seat bitmask, its
inner arrow mask and its (m - 1)! orderings; each ordering g is
precomputed once as an itemgetter over g's preimage tuple, next to its
arrow mask and its seats.  An arrow y → z is bit y·N + z of an int over
N² bits: an ordering's mask holds its m arrows y → g(y), and a support's
inner mask every arrow a → b between two distinct seats.  A table of the
single-arrow bits, 0 where y = z, turns R into its own arrow mask with one
sum per position.  A dict maps each move's own image tuple to its index k
in the flat catalog (the supports' orderings in turn), its support id,
its bitmask and its seats.  Support ids rank the legal supports in
itertools.combinations order, which is sorted-tuple order.  Spent
supports are an int bitset over those ids, and R's moved points an int
bitmask over the ground indices.  The catalog depends on nothing but N,
m, the outsider rule and, under that rule, the first outsider's index, so
it is built once per such key and cached; searches share it and never
change it.  The cache holds at most CATALOG_CAP moves in all, and is
emptied before a catalog that would not fit beside it is built.
MachineMove objects are built only for the plan that is returned.

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
- Displacement from arrows: a child's displacement is read off R's
  arrows, arrows(f) = {y → f(y) : f(y) ≠ y}, without building the child.
  Let g be an ordering of the support S and off = |supp(R) ∖ S|.  Then
  |supp(R∘g⁻¹)| = off + m - |arrows(g) ∩ arrows(R)|.  For x outside S,
  g⁻¹(x) = x, so (R∘g⁻¹)(x) = R(x) and x is moved exactly when R moves
  it: that gives off.  A seat s is fixed exactly when R(y) = g(y) for
  y = g⁻¹(s); there is one such y per seat, and g moves it, so R moves it
  too and y → g(y) is an arrow of both maps.  With d moves left after g,
  the child passes displacement exactly when g shares at least
  need = off + m - m·d of R's arrows: one AND and one popcount.
- Displacement by support: every arrow of an ordering of S joins two of
  its seats, so no ordering shares more of R's arrows than the support's
  inner mask holds, and a support with |arrows(R) ∩ inner(S)| < need
  yields no child that passes: one test for all (m - 1)! orderings.  R
  has at most one arrow out of each seat, so that count is at most m, and
  the test covers off > m·d, which makes need exceed m.
- Cayley: N - cycles(R) <= (m - 1)·d.  N - cycles(R) is the least number
  of transpositions whose product is R.  An m-cycle is a product of
  m - 1 transpositions, and each transposition changes the cycle count by
  exactly one, so one move lowers N - cycles by at most m - 1, and the
  identity has N - cycles = 0.  At d = 1 displacement implies it: k <= m
  moved points in c >= 1 cycles give k - c <= m - 1.  At d = 2 it does
  too: k <= 2m moved points give k - c <= 2m - 2 unless R is a single
  2m-cycle, which is odd, while every residual at d = 2 is even (for odd
  m every move is even and an odd target is refuted before the search;
  for even m by the parity bound).  So it never cuts below d = 3.
- Seats, under the outsider rule: n_R + r_R <= (m - 1)·d, where n_R is
  the number of insiders R moves and r_R the number of cycles of R that
  hold only insiders.  The remaining moves multiply to R, each seats an
  outsider and so at most m - 1 insiders, and an insider no remaining
  move seats is fixed by R.  So every insider R moves sits at least once,
  and each all-insider cycle C of R has an insider that sits twice, by
  machine.lower_bound's argument, which looks at C alone: if each c in C
  sat once, in move t(c), then the person at c would reach R(c) in C
  either at t(c) or through a later move seating R(c), so t would never
  fall along C, would be constant, and that one move would map C onto
  itself, so it would be the cycle C and seat no outsider.  R's other
  cycles may hold outsiders; they only add seats.  The remaining moves
  thus seat at least n_R + r_R insiders.  At the root this is
  lower_bound's count.
  It is stronger than Cayley on an all-insider cycle (k + 1 seats
  against k - 1 transpositions for k points), equal on a cycle with one
  outsider, and weaker on a cycle with two or more.  It is applied with
  two or more moves left: with one, the last move's lookup (see Search
  order) already fails on every residual it would cut, since a catalog
  move seats an outsider and so counts at most m - 1.
- Parity, for even m: d ≡ parity(R) (mod 2).  An m-cycle is odd for even
  m, so every move flips the parity of R and the identity is even.  Since
  a move also lowers d by one, the condition holds at every node of a
  limit exactly when it holds at the root, so limits of the wrong parity
  are skipped whole.  For odd m every move is even: an odd target is
  refuted before any search.
- Commuting normal form: two consecutive moves with disjoint seat sets are
  explored only with the lower support id first, since swapping them
  changes neither the product nor the spent supports.
- Longest plan: under the distinct-seat-set rule a plan seats each legal
  support at most once, so no plan has more moves than there are legal
  supports, and no limit above that count is tried.  With no legal move
  at all (a ground set smaller than m) only the empty plan exists, so
  under either rule the search stops after limit 0.

Search order.  A position computes R's moved-point bitmask and arrow
mask once, then skips whole each support that is spent, breaks the normal
form against the previous move, or fails displacement by support.  Each
ordering of a support it keeps is tested for displacement on its arrow
mask; only an ordering that passes builds its child R∘g⁻¹.  With two
or more moves left after g, one walk over the child's cycles gives its
Cayley distance and its seat count, and the child is entered only when
it passes both, so the position builds only children that pass
displacement and enters only those that pass every bound; the root is
bounded once per limit.  With one move left, R∘g⁻¹ is the identity
exactly when g = R, and each m-cycle appears once in the catalog, so the
last move is found by one dict lookup on R's image tuple, then checked
for a spent support and the normal form.  That
position still counts k + 1 nodes when catalog move k completes the
plan, and the whole catalog when none does, which is what trying each
move in turn counted; the budget is checked after adding them, so a
search raises OracleBudgetError under exactly the budgets it would while
trying each move.

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
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter, ne

from .moves import MachineMove
from .perm import OUTSIDER, Element, Permutation, _compose_cycles, insiders_only

CATALOG_CAP = 100_000
"""Most catalog moves a search builds, and most the catalog cache holds in
all.  86,400 moves (m = 7 on 10 elements) take about 0.6 s and 56 MB to
build with CPython 3.11 on a Xeon vCPU."""


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
    target: Permutation, plan: Sequence[tuple[Element, ...]], rules: RuleSet
) -> VerificationReport:
    """Check seat counts, repeated seats, outsider usage, support
    distinctness and product.

    All problems are reported with their move index; nothing raises.  A
    move may be any seat tuple, as ``plandoc.loads`` reads it, so this is
    where a document's wrong seat count or repeated seat is reported.
    Each move's own kinds come in move order: seat-count, repeated-seat,
    then missing-outsider or unknown-outsider.  The duplicate-support
    entries follow.  A move that seats one element twice has no product,
    so a plan holding one never has product_ok.  The product check
    compares the chronological right-to-left plan product against the
    inverse of the target.

    Each move is read once by the rules, into one frozenset that both the
    outsider rule and the distinct-support rule use.  Outsiders sort last:
    element order is (kind, index), and INSIDER sorts before OUTSIDER, so
    a move seats an outsider exactly when its greatest seat is one.
    Likewise it seats an outsider outside the pool exactly when the
    greatest of its seats outside the pool is an outsider.  The product is
    perm._compose_cycles's fold of the moves.
    """
    violations: list[tuple[int, str]] = []
    duplicates: list[tuple[int, str]] = []
    pool = frozenset(rules.outsiders)
    m, outsider_rule = rules.m, rules.require_outsider_per_move
    distinct = rules.require_distinct_supports
    seen: set[frozenset[Element]] = set()
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
    violations += duplicates
    product_ok = not repeated and _compose_cycles(plan) == target.inverse()
    return VerificationReport(product_ok, violations, len(plan))


Catalog = tuple[
    tuple[tuple[int, int, int, tuple[tuple[itemgetter, int, tuple[int, ...]], ...]], ...],
    dict[tuple[int, ...], tuple[int, int, int, tuple[int, ...]]],
    tuple[tuple[int, ...], ...],
]

_catalogs: dict[tuple[int, int, int | None], Catalog] = {}
"""_move_catalog's cache."""


def _move_catalog(n: int, first_outsider: int, m: int, outsider_rule: bool) -> Catalog:
    """All legal moves on ground indices 0..n-1, grouped by support.

    Each support is (support id, seat bitmask, inner arrow mask,
    orderings), and each ordering is (action on the residual, arrow mask,
    seats).  Arrow y → z is bit y·n + z; a support's inner mask holds every
    arrow a → b with a ≠ b between its seats, and an ordering's arrow mask
    its own m arrows y → g(y).  Supports come in itertools.combinations
    order, and under the outsider rule a support holds an outsider when
    its greatest index is first_outsider or above.  Each support lists its
    (m - 1)! orderings with the least seat leading, so every legal m-cycle
    appears once; the returned dict maps each move's own image tuple to
    (k, support id, seat bitmask, seats), where k is its insertion
    position: the move's index in the flat catalog of the supports'
    orderings in turn.  The last value holds arrow y → z's bit at
    [y][z], and 0 for y = z, so a residual's arrow mask is one sum over
    it.  Raises ValueError, before building any move, for more than
    CATALOG_CAP moves.

    The result is cached and shared by every search on the same key, so
    no caller may change it.  The key is (n, m, first_outsider), with
    first_outsider left out when the outsider rule is off, since the
    catalog does not depend on it there.  The cached catalogs hold at most
    CATALOG_CAP moves together: before a new one is built, the cache is
    emptied if the new one would not fit beside it, so two catalogs that
    do not fit together are never held at once.  A catalog with no move
    is not cached, since it costs nothing to build.
    """
    key = (n, m, first_outsider if outsider_rule else None)
    catalog = _catalogs.get(key)
    if catalog is not None:
        return catalog
    combos = [
        combo
        for combo in itertools.combinations(range(n), m)
        if not outsider_rule or combo[-1] >= first_outsider
    ]
    size = len(combos) * math.factorial(m - 1) if combos else 0
    if size > CATALOG_CAP:
        raise ValueError(f"catalog of {size} moves is too large to search")
    if sum(len(moves) for _, moves, _ in _catalogs.values()) + size > CATALOG_CAP:
        _catalogs.clear()
    arrow_rows = tuple(
        tuple(0 if y == z else 1 << (y * n + z) for z in range(n)) for y in range(n)
    )
    supports = []
    last_move = {}
    for sid, combo in enumerate(combos):
        mask = sum(1 << i for i in combo)
        inner = sum(arrow_rows[a][b] for a in combo for b in combo)
        lead, rest = combo[0], combo[1:]
        orderings = []
        for ordering in itertools.permutations(rest):
            seats = (lead,) + ordering
            image, preimage = list(range(n)), list(range(n))
            for a, b in zip(seats, seats[1:] + seats[:1]):
                image[a], preimage[b] = b, a
            last_move[tuple(image)] = (len(last_move), sid, mask, seats)
            arrows = sum(arrow_rows[a][image[a]] for a in seats)
            orderings.append((itemgetter(*preimage), arrows, seats))
        supports.append((sid, mask, inner, tuple(orderings)))
    catalog = tuple(supports), last_move, arrow_rows
    if size:
        _catalogs[key] = catalog
    return catalog


def _cycle_counts(r: tuple[int, ...], first_outsider: int) -> tuple[int, int]:
    """One walk over r's cycles: (N - cycles(r), n_R + r_R).

    The first is the fewest transpositions whose product is r (Cayley); the
    second is the number of indices below first_outsider that r moves, plus
    the number of r's cycles made of such indices alone (Seats).
    """
    seen = [False] * len(r)
    distance = seats = 0
    for i, j in enumerate(r):
        if seen[i] or j == i:
            continue
        length, outsiders = 1, i >= first_outsider
        while j != i:
            seen[j] = True
            length += 1
            outsiders += j >= first_outsider
            j = r[j]
        distance += length - 1
        seats += length - outsiders + (not outsiders)
    return distance, seats


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
    supports, last_move, arrow_rows = _move_catalog(
        n, len(insiders), m, rules.require_outsider_per_move
    )
    size = len(last_move)  # each m-cycle once
    distinct = rules.require_distinct_supports
    identity = tuple(range(n))
    bits = [1 << i for i in range(n)]
    # with the outsider rule off every index counts as an outsider, so the
    # seat count, which holds under that rule only, is 0 and never cuts
    first = len(insiders) if rules.require_outsider_per_move else 0
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
        reach, span = m * d, (m - 1) * d
        moved = sum(itertools.compress(bits, map(ne, r, identity)))  # R's moved points
        arrows_r = sum(map(tuple.__getitem__, arrow_rows, r))  # R's arrows y → R(y)
        for sid, mask, inner, orderings in supports:
            if (
                (distinct and spent >> sid & 1)
                or (not mask & prev_mask and sid < prev_sid)
                # a child passes displacement exactly when it shares `need` of R's arrows
                or (arrows_r & inner).bit_count()
                < (need := (moved & ~mask).bit_count() + m - reach)
            ):
                nodes += len(orderings)  # each ordering counts, as when tried in turn
                if nodes > node_budget:
                    raise OracleBudgetError(f"node budget of {node_budget} exceeded")
                continue
            for act, arrows, seats in orderings:
                nodes += 1
                if nodes > node_budget:
                    raise OracleBudgetError(f"node budget of {node_budget} exceeded")
                if (arrows & arrows_r).bit_count() < need:
                    continue  # displacement bound, read off the shared arrows
                child = act(r)
                if d > 1:  # Cayley and seat-count bounds; at d = 1 the lookup decides
                    cayley, seated = _cycle_counts(child, first)
                    if cayley > span or seated > span:
                        continue
                path.append(seats)
                if dfs(child, d, spent | 1 << sid, sid, mask, path):
                    return True
                path.pop()
        return False

    goal = target.inverse()
    start = tuple(ground.index(goal(e)) for e in ground)  # R before any move
    displaced = sum(map(ne, start, identity))
    cayley, seated = _cycle_counts(start, first)
    # a plan seats each support at most once under the distinct rule, and
    # with no legal move only the empty plan exists
    longest = min(max_steps, len(supports)) if distinct or not supports else max_steps
    for limit in range(longest + 1):
        if m % 2 == 0 and limit % 2 != parity:
            continue  # the parity bound fails at the root, so at every node
        if displaced > m * limit or cayley > (m - 1) * limit:
            continue  # displacement and Cayley bounds at the root
        if limit > 1 and seated > (m - 1) * limit:
            continue  # the seat count, with two or more moves left
        path: list[tuple[int, ...]] = []
        if limit == 0 or dfs(start, limit, 0, -1, 0, path):
            return [MachineMove(ground[i] for i in seats) for seats in path]
    return None
