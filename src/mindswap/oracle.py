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
of legal supports, each held as its support id, its seat bitmask and its
(m - 1)! orderings; each ordering g is precomputed once as an itemgetter
over g's preimage tuple, next to its arrow mask and its seats.  An arrow
y → z is bit y·N + z of an int over N² bits, and an ordering's mask holds
its m arrows y → g(y).  A table of the single-arrow bits, 0 where y = z,
turns R into its own arrow mask with one sum per position.  A dict maps
each move's own image tuple to its support id, its bitmask and its
seats.  Support ids rank the legal supports in itertools.combinations
order, which is sorted-tuple order.  Spent supports are an int bitset
over those ids, and R's moved points an int bitmask over the ground
indices.  A table holds, per point p, holders[p]: the bitset of the ids
of the supports that seat p, beside fewest, the least number of supports
that seat any one point.  The catalog depends on nothing but N, m, the
outsider rule and, under that rule, the first outsider's index, so it is
built once per such key and cached; searches share it and never change
it.  The cache holds at most CATALOG_CAP moves in all, and is emptied
before a catalog that would not fit beside it is built.  Elements are
looked up only for the plan that is returned: each move's seats map
through the ground set to a plain tuple, least seat first, since an
ordering leads with its least index.

Nodes.  A node is one catalog move, and each position the search enters
counts the whole catalog on entry, where the budget is checked; nothing
inside a position counts.  A position is entered only when it passed
the bounds below, so a pruned position and a skipped limit cost none,
and the tighter the bounds, the further a search gets on the same
budget.  A loop that counted each catalog move as it tried or skipped
it counts the same at every position that fails, and only the positions
on a found plan's path count more here.  The positions entered do not
depend on the budget until it raises, so a search finishes exactly when
its budget is at least the catalog size times the positions it enters.

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
  need = off + m - m·d of R's arrows: one AND and one popcount.  An
  ordering has m arrows, so off > m·d, which makes need exceed m, fails
  every ordering.  No such test covers a support as a whole: at m = 2 or 3
  a support has one or two orderings, so a test against every arrow
  between its seats would spare one or two of these tests where it cut
  and cost one more AND and popcount at every support it kept.
- Components: H(R) <= (m - 1)·d.  One walk over R's cycles gives H: a
  k-cycle adds k - 1 when it holds an outsider and k + 1 when it holds
  insiders alone, and at m = 2, under both the outsider rule and the
  distinct-support rule, H gains 2 more when some cycle holds insiders
  alone and none holds two or more outsiders.  Write each remaining move
  as m - 1 transpositions of its seats, whose product is R, and join two
  points when one of them swaps the two.  A component of V points on
  which R has c cycles, fixed points counted, takes at least V + c - 2 of
  them (Hurwitz; I. P. Goulden and D. M. Jackson, Proc. AMS 125, 1997), so
  (m - 1)·d >= V + c - 2·comp over the touched points.  Let h(C) be the
  k - 1 or k + 1 above for every cycle C, fixed points too; then a
  component with a cycles that hold an outsider has V + c - 2 =
  sum h + 2a - 2.  Under the outsider rule every move seats an outsider,
  so a >= 1 in every component, and (m - 1)·d >= sum h >= H: H leaves out
  only fixed points, whose h is 0 or 2, and an untouched point is fixed.
  At m = 2 with distinct supports, a component with one outsider x holds
  distinct swaps (x a_i) alone, whose product in any order is one cycle
  through x.  So a cycle of insiders alone lies in a component with two
  outsiders; if no cycle holds two, they lie in two cycles, a >= 2, and
  that component adds 2.  With the outsider rule off every index counts
  as an outsider, and H is N - cycles(R), the Cayley distance, which one
  transposition changes by one.  At the root R moves insiders alone, so
  H = n + r for n moved insiders in r cycles, and n + r + 2 at m = 2:
  machine.lower_bound's count.  H is applied with two or more moves left.
  With one, displacement already gives the Cayley bound (k <= m moved
  points in c >= 1 cycles give k - c <= m - 1), and the last move's
  lookup (see Search order) fails on any residual H cuts.
- Coverage, under the distinct-seat-set rule: every point R moves is a
  seat of some unspent support.  The remaining moves g_1, ..., g_d
  complete the plan when R = g_d ∘ ... ∘ g_1, each of them seats its own
  unspent support, and a move fixes every point off its seats; so if no
  unspent support seats p, every remaining move fixes p, and so must R.
  The bound is applied with two or more moves left, as H is; with one,
  the last move's lookup already fails on a spent support.  Only the
  seats of the support a move spends can be left with no unspent
  holder.  A position is entered only when every point it moves is
  covered: the root has spent nothing, and when any legal support exists
  every point is a seat of one.  Spending S takes only S's id out of the
  holders, so a point off S keeps its holder, and R∘g⁻¹ moves it exactly
  when R does (see Displacement from arrows).  So a child is cut exactly
  when it moves a seat of S that S alone of the unspent supports seats.
  A position finds those points once, as the points with one unspent
  holder; none has one before fewest - 1 supports are spent, so until
  then it skips the count.
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
mask once, then skips whole each support that is spent or breaks the
normal form against the previous move.  For a support it keeps, it
computes need once, and each ordering is tested for displacement on its
arrow mask; only an ordering that passes builds its child R∘g⁻¹.  With
two or more moves left after g, the child is cut when its moved points
meet the support's stranded seats, those that no other unspent support
seats (the Coverage bound); otherwise one walk over the child's cycles
gives its one count H, and the child is entered only when it passes, so
the position builds only children that pass displacement and enters
only those that pass every bound; the root is bounded once per limit.  With
one move left, R∘g⁻¹ is the identity exactly when g = R, and each
m-cycle appears once in the catalog, so the last move is found by one
dict lookup on R's image tuple, then checked for a spent support and the
normal form.

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
    """Machine rules a plan must follow.  ValueError refuses a machine size that
    is not an int of at least 2, and a pool that is empty under the outsider
    rule, repeats a person or holds anything but outsiders."""

    m: int
    outsiders: tuple[Element, ...]
    require_outsider_per_move: bool = True
    require_distinct_supports: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise ValueError(f"machine size must be an integer, got {self.m!r}")
        if self.m < 2:
            raise ValueError(f"machine size must be at least 2, got {self.m}")
        if self.require_outsider_per_move and not self.outsiders:
            raise ValueError("outsider rule requires a nonempty outsider pool")
        elements = [e for e in self.outsiders if isinstance(e, Element)]  # others may not hash
        if len(set(elements)) != len(elements):
            raise ValueError("repeated outsider in pool")
        for e in self.outsiders:
            if not isinstance(e, Element) or not e.is_outsider:
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
    tuple[tuple[int, int, tuple[tuple[itemgetter, int, tuple[int, ...]], ...]], ...],
    dict[tuple[int, ...], tuple[int, int, tuple[int, ...]]],
    tuple[tuple[int, ...], ...],
    tuple[int, ...],
    int,
]

_catalogs: dict[tuple[int, int, int | None], Catalog] = {}
"""_move_catalog's cache."""


def _move_catalog(n: int, first_outsider: int, m: int, outsider_rule: bool) -> Catalog:
    """All legal moves on ground indices 0..n-1, grouped by support.

    Each support is (support id, seat bitmask, orderings), and each
    ordering is (action on the residual, arrow mask, seats).  Arrow y → z
    is bit y·n + z, and an ordering's arrow mask holds its own m arrows
    y → g(y).  Supports come in itertools.combinations order, and under
    the outsider rule a support holds an outsider when its greatest index
    is first_outsider or above.  Each support lists its (m - 1)! orderings
    with the least seat leading, so every legal m-cycle appears once; the
    returned dict maps each move's own image tuple to (support id, seat
    bitmask, seats).  The last value holds arrow y → z's bit at [y][z],
    and 0 for y = z, so a residual's arrow mask is one sum over it.  Then
    come holders, where holders[p] is the bitset of the ids of the
    supports that seat p, and fewest, the least popcount among them.
    Raises ValueError, before building any move, for more than
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
    if sum(len(moves) for _, moves, *_ in _catalogs.values()) + size > CATALOG_CAP:
        _catalogs.clear()
    arrow_rows = tuple(
        tuple(0 if y == z else 1 << (y * n + z) for z in range(n)) for y in range(n)
    )
    supports = []
    last_move = {}
    holders = [0] * n
    for sid, combo in enumerate(combos):
        mask = sum(1 << i for i in combo)
        for i in combo:
            holders[i] |= 1 << sid
        lead, rest = combo[0], combo[1:]
        orderings = []
        for ordering in itertools.permutations(rest):
            seats = (lead,) + ordering
            image, preimage = list(range(n)), list(range(n))
            for a, b in zip(seats, seats[1:] + seats[:1]):
                image[a], preimage[b] = b, a
            last_move[tuple(image)] = sid, mask, seats
            arrows = sum(arrow_rows[a][image[a]] for a in seats)
            orderings.append((itemgetter(*preimage), arrows, seats))
        supports.append((sid, mask, tuple(orderings)))
    fewest = min(map(int.bit_count, holders), default=0)
    catalog = tuple(supports), last_move, arrow_rows, tuple(holders), fewest
    if size:
        _catalogs[key] = catalog
    return catalog


def _component_count(r: tuple[int, ...], first_outsider: int, stars: bool) -> int:
    """H(r) of the Components bound, in one walk over r's cycles.

    A k-cycle adds k - 1 when it holds an index at or above first_outsider,
    an outsider, and k + 1 when it does not.  With stars set (m = 2 under
    both rules), H gains 2 when some cycle holds no outsider and none holds
    two or more.
    """
    seen = [False] * len(r)
    count, lone, shared = 0, False, False
    for i, j in enumerate(r):
        if seen[i] or j == i:
            continue
        length, outsiders = 1, i >= first_outsider
        while j != i:
            seen[j] = True
            length += 1
            outsiders += j >= first_outsider
            j = r[j]
        if outsiders:
            count += length - 1
            shared |= outsiders > 1
        else:
            count += length + 1
            lone = True
    return count + 2 if stars and lone and not shared else count


def search_min_plan(
    target: Permutation,
    rules: RuleSet,
    max_steps: int,
    node_budget: int = 10**8,
) -> list[tuple[Element, ...]] | None:
    """Exhaustive shortest plan inverting the target, or None within max_steps.

    The ground set is support(target) plus the rule outsiders.  Iterative
    deepening guarantees that a returned plan is minimal and that smaller
    lengths were fully refuted.  Deterministic for fixed inputs.  Each move
    is a plain seat tuple, least seat first.  An odd target on an odd
    machine is unreachable at any length and returns None without
    searching.  node_budget caps the nodes: the catalog's move count for
    each position entered.  OracleBudgetError is raised past it.
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
    supports, last_move, arrow_rows, holders, fewest = _move_catalog(
        n, len(insiders), m, rules.require_outsider_per_move
    )
    size = len(last_move)  # each m-cycle once
    distinct = rules.require_distinct_supports
    identity = tuple(range(n))
    bits = [1 << i for i in range(n)]
    # with the outsider rule off every index counts as an outsider, so H is
    # the Cayley distance
    first = len(insiders) if rules.require_outsider_per_move else 0
    stars = m == 2 and distinct and rules.require_outsider_per_move
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
        nodes += size  # the whole catalog, once per position entered
        if nodes > node_budget:
            raise OracleBudgetError(f"node budget of {node_budget} exceeded")
        if depth_left == 1:  # R∘g⁻¹ is the identity exactly when g = R
            hit = last_move.get(r)
            if hit is None:
                return False
            sid, mask, seats = hit
            if (distinct and spent >> sid & 1) or (not mask & prev_mask and sid < prev_sid):
                return False
            path.append(seats)
            return True
        d = depth_left - 1
        reach, span = m * d, (m - 1) * d
        moved = sum(itertools.compress(bits, map(ne, r, identity)))  # R's moved points
        arrows_r = sum(map(tuple.__getitem__, arrow_rows, r))  # R's arrows y → R(y)
        loose = 0  # points one unspent support alone seats; none while too few are spent
        if distinct and d > 1 and spent.bit_count() >= fewest - 1:
            for p, held in enumerate(holders):
                if (held & ~spent).bit_count() == 1:
                    loose |= bits[p]
        for sid, mask, orderings in supports:
            if (distinct and spent >> sid & 1) or (not mask & prev_mask and sid < prev_sid):
                continue
            # a child passes displacement exactly when it shares `need` of R's arrows
            need = (moved & ~mask).bit_count() + m - reach
            stranded = mask & loose  # seats that spending this support strands
            for act, arrows, seats in orderings:
                if (arrows & arrows_r).bit_count() < need:
                    continue  # displacement bound, read off the shared arrows
                child = act(r)
                if d > 1 and (
                    stranded and stranded & sum(itertools.compress(bits, map(ne, child, identity)))
                    or _component_count(child, first, stars) > span
                ):
                    continue  # coverage, then components; at d = 1 the lookup decides
                path.append(seats)
                if dfs(child, d, spent | 1 << sid, sid, mask, path):
                    return True
                path.pop()
        return False

    goal = target.inverse()
    start = tuple(ground.index(goal(e)) for e in ground)  # R before any move
    displaced = sum(map(ne, start, identity))
    components = _component_count(start, first, stars)
    # a plan seats each support at most once under the distinct rule, and
    # with no legal move only the empty plan exists
    longest = min(max_steps, len(supports)) if distinct or not supports else max_steps
    for limit in range(longest + 1):
        if m % 2 == 0 and limit % 2 != parity:
            continue  # the parity bound fails at the root, so at every node
        if displaced > m * limit or (limit > 1 and components > (m - 1) * limit):
            continue  # displacement, and H with two or more moves left, at the root
        path: list[tuple[int, ...]] = []
        if limit == 0 or dfs(start, limit, 0, -1, 0, path):
            return [tuple(map(ground.__getitem__, seats)) for seats in path]
    return None
