"""Symbolic algebra for the countably infinite machine.

The machine seats one infinite stream of people, the insiders a1, a2,
..., and named points (the one helper z).  Its points are the package's
own values: stream point i *is* insider i, the
:class:`~mindswap.perm.Element` ``insider(i)``, and a named point is its
label string.  A :class:`TailMap` is a partial injection described by a
finite exception table plus at most one eventual shift rule: every
stream index at or above a threshold moves by a fixed delta of -1, 0 or
+1.  Canonical form keeps the threshold minimal, so two writings of the
same map compare equal syntactically.

Composition uses ride-with-parking semantics: a mind carried to a body the
next swap does not seat simply stays there, so ``compose(f, g)`` is
defined on dom(g) union dom(f) and applies the identity extension of each
factor in turn.  This is the composition under which the constructive
inversions below actually reproduce their targets; the identity element
for it is the empty map.  Non-injective ride-throughs (two minds landing
in one body) raise.

Machine-use bookkeeping: the *participant set* of a swap is dom union img,
everybody seated, including a body that only receives a mind and a mind
whose body is left behind.  The no-repeat rule is enforced on participant
sets, which reconciles the seating picture (a mindless body still occupies
its seat) with the exception tables.  A swap is *forgetful* when every
participant's mind moves but some body is left mindless (img is a proper
subset of the participants), *retentive* when every participating body
receives a mind (img equals the participants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Iterable, Mapping, Sequence

from .perm import INSIDER, Element, Permutation, _element, insider, insiders_only

STREAM = INSIDER
FORGETFUL = "forgetful"
RETENTIVE = "retentive"
NEITHER = "neither"


class IncompatibleTailsError(ValueError):
    """Composition would need a tail shift outside {-1, 0, +1}."""


CarrierPoint = Element | str
HELPER = "z"

INDEX_CAP = 10**5
"""Largest stream index the finitary constructions take.  Their work and the
rendered swaps grow with the largest index, not with the target; at the cap a
two-point target renders in about two seconds and five megabytes."""


def _on_stream(p: object) -> bool:
    return isinstance(p, Element) and p.kind == STREAM


def _point_key(p: CarrierPoint) -> tuple:
    """Stream points by index, then named points by label."""
    if isinstance(p, str):
        return (1, p)
    return (0, p.index)


@dataclass(frozen=True)
class TailRule:
    """a<n> -> a<n + delta> for all n >= threshold."""

    threshold: int
    delta: int

    def __post_init__(self) -> None:
        for name, value in (("threshold", self.threshold), ("delta", self.delta)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"tail {name} must be an integer, got {value!r}")
        if self.delta not in (-1, 0, 1):
            raise ValueError("tail delta must be -1, 0 or +1")
        floor = 2 if self.delta == -1 else 1
        if self.threshold < floor:
            raise ValueError(f"threshold must be at least {floor} for delta {self.delta}")


@dataclass(frozen=True)
class PointSet:
    """A slice of the stream plus named points.

    When ``cofinite`` is true the slice is the whole stream except
    ``indices``; otherwise it is exactly ``indices``.
    """

    cofinite: bool
    indices: frozenset[int]
    named: frozenset[str]

    def __contains__(self, point: CarrierPoint) -> bool:
        if isinstance(point, str):
            return point in self.named
        return _on_stream(point) and (point.index in self.indices) != self.cofinite

    def __str__(self) -> str:
        pieces = []
        shown = "{" + ", ".join(map(str, sorted(self.indices))) + "}"
        if self.cofinite:
            pieces.append(f"stream {STREAM}: all" + (f" except {shown}" if self.indices else ""))
        elif self.indices:
            pieces.append(f"stream {STREAM}: {shown}")
        if self.named:
            pieces.append("named: " + " ".join(sorted(self.named)))
        return "; ".join(pieces) if pieces else "(empty)"


class TailMap:
    """Finite exceptions plus at most one eventual shift; canonical on build."""

    __slots__ = ("_exceptions", "_tail", "_walked")  # _walked: _chains(self), built once

    def __init__(
        self,
        exceptions: Mapping[CarrierPoint, CarrierPoint] | None = None,
        tail: TailRule | None = None,
    ):
        exc = dict(exceptions or {})
        for p in (*exc, *exc.values()):
            if not (isinstance(p, str) or _on_stream(p)):
                raise TypeError("exceptions must map carrier points to carrier points")
        _canonical(exc, tail, self)

    @property
    def exceptions(self) -> dict[CarrierPoint, CarrierPoint]:
        return dict(self._exceptions)

    @property
    def tail(self) -> TailRule | None:
        return self._tail

    def apply(self, e: CarrierPoint) -> CarrierPoint | None:
        """Image of e, or None when e is outside the domain."""
        if e in self._exceptions:
            return self._exceptions[e]
        rule = self._tail
        if rule is not None and _on_stream(e) and e.index >= rule.threshold:
            # e.index >= threshold >= 2 when delta is -1 (TailRule's floor), so the index is >= 1
            return _element((STREAM, e.index + rule.delta))
        return None

    __call__ = apply

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TailMap):
            return NotImplemented
        return self._exceptions == other._exceptions and self._tail == other._tail

    def __hash__(self) -> int:
        return hash((frozenset(self._exceptions.items()), self._tail))

    def __repr__(self) -> str:
        exc = ", ".join(
            f"{k}->{v}" for k, v in sorted(self._exceptions.items(), key=lambda kv: _point_key(kv[0]))
        )
        r = self._tail
        tail = "" if r is None else f"{STREAM}[n>={r.threshold}]->n{r.delta:+d}"
        return f"TailMap({exc}; {tail})"

    def _point_set(
        self, points: Iterable[CarrierPoint], start: Callable[[TailRule], int]
    ) -> PointSet:
        """points, plus every stream index from start(tail) on when there is a tail."""
        indices: set[int] = set()
        named: set[str] = set()
        for p in points:
            if isinstance(p, str):
                named.add(p)
            else:
                indices.add(p.index)
        if self._tail is None:
            return PointSet(False, frozenset(indices), frozenset(named))
        missing = frozenset(range(1, start(self._tail))) - indices
        return PointSet(True, missing, frozenset(named))

    def dom(self) -> PointSet:
        return self._point_set(self._exceptions, lambda r: r.threshold)

    def img(self) -> PointSet:
        return self._point_set(self._exceptions.values(), lambda r: r.threshold + r.delta)

    def participants(self) -> PointSet:
        """dom union img: every seat the machine use occupies."""
        return self._point_set(
            [*self._exceptions, *self._exceptions.values()],
            lambda r: min(r.threshold, r.threshold + r.delta),
        )


def _canonical(exc: dict, tail: TailRule | None, f: TailMap | None = None) -> TailMap:
    """exc plus tail in canonical form, in f or a new TailMap: every check but the point types."""
    f = TailMap.__new__(TailMap) if f is None else f
    if tail is not None:
        t, d = tail.threshold, tail.delta
        # exceptions inside the tail's region must agree with it; absorb them.
        # These sites only compare, and the plain (kind, index) tuple equals
        # and hashes as the Element, so they build no point.
        for k in list(exc):
            if isinstance(k, Element) and k.index >= t:
                if exc[k] == (STREAM, k.index + d):
                    del exc[k]
                else:
                    raise ValueError(f"exception at {k} conflicts with its stream tail")
        # minimal threshold: pull agreeing exceptions in (no image is a0, so d = -1 stops at 2)
        while t > 1 and exc.get((STREAM, t - 1)) == (STREAM, t - 1 + d):
            del exc[(STREAM, t - 1)]
            t -= 1
        if t != tail.threshold:
            tail = TailRule(t, d)
    values = list(exc.values())
    if len(set(values)) != len(values):
        raise ValueError("map is not injective: repeated image")
    if tail is not None:
        for v in values:
            if isinstance(v, Element) and v.index >= tail.threshold + tail.delta:
                raise ValueError(f"image {v} collides with the {STREAM}-stream tail")
    f._exceptions, f._tail, f._walked = exc, tail, None
    return f


def classify(f: TailMap) -> str:
    """Forgetful, retentive, or neither; see the module docstring.

    img == dom | img iff dom <= img, and dom == dom | img iff img <= dom.
    dom is the exception keys plus, with a tail (t, d), the stream from t;
    img is the values plus the stream from t + d.  So each inclusion reads
    off the table and the at most one index between t and t + d: the cost
    is the table's size, not the threshold's.
    """
    rule, keys = f._tail, f._exceptions
    values = set(keys.values())
    dom_from, img_from = (rule.threshold, rule.threshold + rule.delta) if rule else (None, None)
    if _inside(keys, dom_from, values, img_from):
        return RETENTIVE
    if _inside(values, img_from, keys, dom_from):
        return FORGETFUL
    return NEITHER


def _inside(points: Iterable, start: int | None, other: Container, other_start: int | None) -> bool:
    """Whether points plus the stream from start lie in other plus the stream
    from other_start; both starts are None for a map with no tail."""
    if start is not None and any((STREAM, i) not in other for i in range(start, other_start)):
        return False
    return all(
        p in other or (other_start is not None and _on_stream(p) and p.index >= other_start)
        for p in points
    )


def _max_key_index(f: TailMap) -> int:
    return max((k.index for k in f._exceptions if isinstance(k, Element)), default=0)


def compose(f: TailMap, g: TailMap) -> TailMap:
    """Ride-with-parking composite: g first, then f; dom = dom(g) | dom(f).

    Candidates in the new tail region are composed too: there both factors
    act by their tails, so TailMap's canonical form absorbs them.
    """
    rg, rf = g._tail, f._tail
    tail = None
    if rg is not None or rf is not None:
        dg = rg.delta if rg else 0
        df = rf.delta if rf else 0
        delta = dg + df
        if abs(delta) > 1:
            raise IncompatibleTailsError(
                f"net shift {delta:+d} on stream {STREAM} is not representable"
            )
        # TailRule's floor holds: a net -1 needs a factor tail of threshold >= 2 (dg = 0 if f's)
        threshold = max(
            rg.threshold if rg else _max_key_index(g) + 1,
            rf.threshold - dg if rf else _max_key_index(f) - dg + 1,
        )
        tail = TailRule(threshold, delta)

    candidates: set[CarrierPoint] = set(g._exceptions) | set(f._exceptions)
    if tail is not None:
        candidates.update(_element((STREAM, n)) for n in range(1, tail.threshold))  # n >= 1

    exceptions: dict[CarrierPoint, CarrierPoint] = {}
    for e in sorted(candidates, key=_point_key):  # order free of string hashing
        mid = g.apply(e)  # None: g leaves e's mind parked in e
        out = f.apply(e if mid is None else mid)  # None: f parks it in turn
        if out is not None or mid is not None:  # parked by both, e is outside the domain
            exceptions[e] = mid if out is None else out
    return _canonical(exceptions, tail)


def compose_all(maps: Sequence[TailMap]) -> TailMap:
    """Chronological composite: maps[0] acts first.  Empty list -> empty map."""
    acc, *rest = maps or [TailMap()]  # compose(m, TailMap()) == m: fold from maps[0]
    for m in rest or [TailMap()]:  # a lone map still goes through compose, to sort its keys
        acc = compose(m, acc)
    return acc


# -- constructions ----------------------------------------------------------


def inverse_shift_map() -> TailMap:
    """Canonical inverse of the forward shift: n -> n-1 for n >= 2, z fixed."""
    return TailMap({HELPER: HELPER}, TailRule(2, -1))


def invert_shift_three_step() -> list[TailMap]:
    """Undo the forward shift in three swaps with the helper z.

    Chronological classifications are [retentive, forgetful, retentive]
    and the three participant sets are pairwise distinct; the composite
    equals inverse_shift_map() exactly.
    """
    z, s = HELPER, insider
    step1 = TailMap({s(2): s(1), z: s(2), s(3): z}, TailRule(4, -1))
    step2 = TailMap({z: s(2)}, TailRule(2, +1))
    step3 = TailMap({s(3): z}, TailRule(4, -1))
    return [step1, step2, step3]


def _top_index(p: Permutation) -> int:
    """p's largest moved index, 0 for the identity; refused above INDEX_CAP."""
    top = max((e.index for e in insiders_only(p).support()), default=0)
    if top > INDEX_CAP:
        raise ValueError(f"stream index {top} is above the cap of {INDEX_CAP}")
    return top


def invert_finitary_two_step(sigma: Permutation) -> list[TailMap]:
    """Invert any finitary stream permutation in exactly two swaps.

    sigma moves insiders only, and insider i *is* stream point i, so the
    swaps are built from sigma's cycles as they stand.  However many
    disjoint cycles sigma has, the result is a single [forgetful,
    retentive] pair with distinct participant sets whose composite is
    finitary_extension(sigma.inverse()).  The identity yields an empty
    plan.
    """
    top = _top_index(sigma)
    if top == 0:  # the identity
        return []
    first, *rest = sigma.cycles
    support = sigma.support()
    # indices count up from 1, so each is positive
    untouched = [_element((STREAM, n)) for n in range(1, top) if (STREAM, n) not in support]
    beyond = _element((STREAM, top + 1))

    nodes = [first[0], *reversed(first[1:]), HELPER]
    for c in rest:
        nodes += reversed(c)
    nodes += [*untouched, beyond]
    scatter = _canonical(dict(zip(nodes, nodes[1:])), TailRule(top + 1, +1))

    nodes = [beyond, *reversed(untouched), *(c[-1] for c in reversed(rest))]
    nodes += [HELPER, first[0]]
    gather = _canonical(dict(zip(nodes, nodes[1:])), TailRule(top + 2, -1))
    return [scatter, gather]


def finitary_extension(p: Permutation) -> TailMap:
    """p as a total tail map on the stream, fixing z and all untouched points."""
    top = _top_index(p)
    exceptions: dict[CarrierPoint, CarrierPoint] = {HELPER: HELPER}
    for n in range(1, top + 1):  # indices count up from 1, so each is positive
        e = _element((STREAM, n))
        exceptions[e] = p.apply(e)
    return _canonical(exceptions, TailRule(top + 1, 0))


# -- rendering ---------------------------------------------------------------


def _chains(f: TailMap) -> list[list[tuple[CarrierPoint, CarrierPoint]]]:
    if f._walked is None:  # walked once per map; callers only read the list
        f._walked = _walk(f)
    return f._walked


def _walk(f: TailMap) -> list[list[tuple[CarrierPoint, CarrierPoint]]]:
    """Exception entries grouped into flow-ordered chains and closed cycles."""
    exc = f._exceptions
    values = set(exc.values())
    chains: list[list[tuple[CarrierPoint, CarrierPoint]]] = []
    seen: set[CarrierPoint] = set()
    # open starts first; every key not yet seen then lies on a closed cycle
    for start in sorted(exc, key=lambda k: (k in values, _point_key(k))):
        chain = []
        cur = start
        while cur in exc and cur not in seen:
            chain.append((cur, exc[cur]))
            seen.add(cur)
            cur = exc[cur]
        if chain:
            chains.append(chain)
    return chains


def _tail_hops(rule: TailRule | None, horizon: int) -> list[tuple[int, int]]:
    """The tail's first horizon hops (n, n + delta) from its threshold; none without a shift."""
    if rule is None or rule.delta == 0:
        return []
    return [(n, n + rule.delta) for n in range(rule.threshold, rule.threshold + horizon)]


def step_table(f: TailMap, horizon: int = 4) -> list[str]:
    """Rows "p -> q" in reading order, tail samples truncated at horizon."""
    rows: list[str] = []
    rule = f._tail
    reverse = rule is not None and rule.delta == -1
    for chain in _chains(f):
        rows += [f"{k} -> {v}" for k, v in (reversed(chain) if reverse else chain)]
    if rule is not None and rule.delta == 0:
        rows.append(f"{STREAM}n -> {STREAM}n for n >= {rule.threshold}")
    elif rule is not None:
        rows += [f"{STREAM}{n} -> {STREAM}{m}" for n, m in _tail_hops(rule, horizon)] + ["..."]
    return rows


def cycle_string(f: TailMap, horizon: int = 4) -> str:
    """Extended cycle notation with an explicit "..." ellipsis marker.

    With threshold t, a +1 tail's hops follow the chain ending at a<t> and a
    -1 tail's precede the chain starting at a<t - 1>; else they stand alone.
    """
    groups: list[list[str]] = []
    rule = f._tail
    delta, t = (rule.delta, rule.threshold) if rule else (None, 0)
    hops = _tail_hops(rule, horizon)
    lead = ["..."] + [f"{STREAM}{n}" for n, _ in reversed(hops)]
    joined = False
    for chain in _chains(f):
        start, end = chain[0][0], chain[-1][1]
        tokens = [str(start)] + [str(v) for _, v in chain]
        if end == start:
            tokens.pop()
        # TailMap rejects images at or past a<t + delta>, so no chain ends beyond a<t>
        elif delta == 1 and isinstance(end, Element) and end.index == t:
            tokens += [f"{STREAM}{m}" for _, m in hops] + ["..."]
            joined = True
        elif delta == -1 and isinstance(start, Element) and start.index == t - 1:
            tokens = lead + tokens
            joined = True
        groups.append(tokens)
    if delta == 1 and not joined:
        groups.append([f"{STREAM}{n}" for n, _ in hops] + ["..."])
    elif delta == -1 and not joined:
        groups.append(lead + [f"{STREAM}{t - 1}"])
    elif delta == 0:
        groups.append([f"{STREAM}n for n >= {t}"])
    return "".join("(" + " ".join(tokens) + ")" for tokens in groups) or "()"
