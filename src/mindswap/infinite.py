"""Symbolic algebra for the countably infinite machine.

Carrier points are stream points ("a1", "a2", ... along a named stream) or
named points (a lone helper "z").  A :class:`TailMap` is a partial
injection described by a finite exception table plus, per stream, an
eventual shift rule: every index at or above a threshold moves by a fixed
delta of -1, 0 or +1.  Canonical form keeps thresholds minimal, so two
writings of the same map compare equal syntactically.

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
from typing import Callable, Iterable, Mapping, Sequence

from .perm import Permutation, insider, insiders_only

FORGETFUL = "forgetful"
RETENTIVE = "retentive"
NEITHER = "neither"


class IncompatibleTailsError(ValueError):
    """Composition would need a tail shift outside {-1, 0, +1}."""


@dataclass(frozen=True, order=True)
class StreamPoint:
    stream: str
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("stream indices start at 1")

    def __str__(self) -> str:
        return f"{self.stream}{self.index}"


@dataclass(frozen=True, order=True)
class NamedPoint:
    label: str

    def __str__(self) -> str:
        return self.label


CarrierPoint = StreamPoint | NamedPoint


def _point_key(p: CarrierPoint) -> tuple:
    if isinstance(p, StreamPoint):
        return (0, p.stream, p.index)
    return (1, p.label)


@dataclass(frozen=True)
class TailRule:
    """Stream(s, n) -> Stream(s, n + delta) for all n >= threshold."""

    threshold: int
    delta: int

    def __post_init__(self) -> None:
        if self.delta not in (-1, 0, 1):
            raise ValueError("tail delta must be -1, 0 or +1")
        floor = 2 if self.delta == -1 else 1
        if self.threshold < floor:
            raise ValueError(f"threshold must be at least {floor} for delta {self.delta}")


@dataclass(frozen=True)
class PointSet:
    """Per-stream cofinite or finite slices plus named points.

    ``streams`` holds (stream, kind, indices) entries where kind "cofinite"
    means the whole stream except the listed indices and "finite" means
    exactly the listed indices.
    """

    streams: tuple[tuple[str, str, frozenset[int]], ...]
    named: frozenset[str]

    @classmethod
    def from_parts(
        cls,
        cofinite: Mapping[str, Iterable[int]] | None = None,
        finite: Mapping[str, Iterable[int]] | None = None,
        named: Iterable[str] = (),
    ) -> "PointSet":
        parts: dict[str, tuple[str, frozenset[int]]] = {}
        for s, excluded in (cofinite or {}).items():
            parts[s] = ("cofinite", frozenset(excluded))
        for s, included in (finite or {}).items():
            if s in parts:
                raise ValueError(f"stream {s} given as both cofinite and finite")
            if included:
                parts[s] = ("finite", frozenset(included))
        return cls(
            tuple(sorted((s, kind, idx) for s, (kind, idx) in parts.items())),
            frozenset(named),
        )

    def __contains__(self, point: CarrierPoint) -> bool:
        if isinstance(point, NamedPoint):
            return point.label in self.named
        for s, kind, idx in self.streams:
            if s == point.stream:
                inside = point.index not in idx if kind == "cofinite" else point.index in idx
                return inside
        return False

    def __str__(self) -> str:
        pieces = []
        for s, kind, idx in self.streams:
            shown = "{" + ", ".join(map(str, sorted(idx))) + "}"
            if kind == "cofinite":
                pieces.append(f"stream {s}: all" + (f" except {shown}" if idx else ""))
            else:
                pieces.append(f"stream {s}: {shown}")
        if self.named:
            pieces.append("named: " + " ".join(sorted(self.named)))
        return "; ".join(pieces) if pieces else "(empty)"


class TailMap:
    """Finite exceptions plus per-stream eventual shifts; canonical on build."""

    __slots__ = ("_exceptions", "_tails")

    def __init__(
        self,
        exceptions: Mapping[CarrierPoint, CarrierPoint] | None = None,
        tails: Mapping[str, TailRule] | None = None,
    ):
        exc = dict(exceptions or {})
        rules = dict(tails or {})
        for k, v in exc.items():
            if not isinstance(k, (StreamPoint, NamedPoint)) or not isinstance(
                v, (StreamPoint, NamedPoint)
            ):
                raise TypeError("exceptions must map carrier points to carrier points")
        # exceptions inside a tail's region must agree with it; absorb them
        for k in list(exc):
            if isinstance(k, StreamPoint):
                rule = rules.get(k.stream)
                if rule and k.index >= rule.threshold:
                    if exc[k] == StreamPoint(k.stream, k.index + rule.delta):
                        del exc[k]
                    else:
                        raise ValueError(f"exception at {k} conflicts with its stream tail")
        # minimal thresholds: pull agreeing exceptions into the tail
        for s, rule in list(rules.items()):
            t, d = rule.threshold, rule.delta
            floor = 2 if d == -1 else 1
            while t > floor and exc.get(StreamPoint(s, t - 1)) == StreamPoint(s, t - 1 + d):
                del exc[StreamPoint(s, t - 1)]
                t -= 1
            if t != rule.threshold:
                rules[s] = TailRule(t, d)
        values = list(exc.values())
        if len(set(values)) != len(values):
            raise ValueError("map is not injective: repeated image")
        for v in values:
            if isinstance(v, StreamPoint):
                rule = rules.get(v.stream)
                if rule and v.index >= rule.threshold + rule.delta:
                    raise ValueError(f"image {v} collides with the {v.stream}-stream tail")
        self._exceptions = exc
        self._tails = rules

    @property
    def exceptions(self) -> dict[CarrierPoint, CarrierPoint]:
        return dict(self._exceptions)

    @property
    def tails(self) -> dict[str, TailRule]:
        return dict(self._tails)

    def apply(self, e: CarrierPoint) -> CarrierPoint | None:
        """Image of e, or None when e is outside the domain."""
        if e in self._exceptions:
            return self._exceptions[e]
        if isinstance(e, StreamPoint):
            rule = self._tails.get(e.stream)
            if rule and e.index >= rule.threshold:
                return StreamPoint(e.stream, e.index + rule.delta)
        return None

    __call__ = apply

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TailMap):
            return NotImplemented
        return self._exceptions == other._exceptions and self._tails == other._tails

    def __hash__(self) -> int:
        return hash((frozenset(self._exceptions.items()), frozenset(self._tails.items())))

    def __repr__(self) -> str:
        exc = ", ".join(
            f"{k}->{v}" for k, v in sorted(self._exceptions.items(), key=lambda kv: _point_key(kv[0]))
        )
        tails = ", ".join(
            f"{s}[n>={r.threshold}]->n{r.delta:+d}" for s, r in sorted(self._tails.items())
        )
        return f"TailMap({exc}; {tails})"

    def _point_set(
        self, points: Iterable[CarrierPoint], start: Callable[[TailRule], int]
    ) -> PointSet:
        """points, plus every index from start(rule) on in each tail stream."""
        cof: dict[str, set[int]] = {s: set(range(1, start(r))) for s, r in self._tails.items()}
        fin: dict[str, set[int]] = {}
        named: set[str] = set()
        for p in points:
            if isinstance(p, NamedPoint):
                named.add(p.label)
            elif p.stream in cof:
                cof[p.stream].discard(p.index)
            else:
                fin.setdefault(p.stream, set()).add(p.index)
        return PointSet.from_parts(cof, fin, named)

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


def classify(f: TailMap) -> str:
    """Forgetful, retentive, or neither; see the module docstring."""
    p = f.participants()
    if f.img() == p:
        return RETENTIVE
    if f.dom() == p:
        return FORGETFUL
    return NEITHER


def _max_key_index(f: TailMap, stream: str) -> int:
    return max(
        (k.index for k in f._exceptions if isinstance(k, StreamPoint) and k.stream == stream),
        default=0,
    )


def compose(f: TailMap, g: TailMap) -> TailMap:
    """Ride-with-parking composite: g first, then f; dom = dom(g) | dom(f).

    Candidates in the new tail region are composed too: there both factors
    act by their tails, so TailMap's canonical form absorbs them.
    """
    tails: dict[str, TailRule] = {}
    for s in set(f._tails) | set(g._tails):
        rg, rf = g._tails.get(s), f._tails.get(s)
        dg = rg.delta if rg else 0
        df = rf.delta if rf else 0
        delta = dg + df
        if abs(delta) > 1:
            raise IncompatibleTailsError(
                f"net shift {delta:+d} on stream {s} is not representable"
            )
        bounds = [1, 1 - delta]
        bounds.append(rg.threshold if rg else _max_key_index(g, s) + 1)
        bounds.append(rf.threshold - dg if rf else _max_key_index(f, s) - dg + 1)
        tails[s] = TailRule(max(bounds), delta)

    candidates: set[CarrierPoint] = set(g._exceptions) | set(f._exceptions)
    for s, rule in tails.items():
        candidates |= {StreamPoint(s, n) for n in range(1, rule.threshold)}

    exceptions: dict[CarrierPoint, CarrierPoint] = {}
    for e in sorted(candidates, key=_point_key):  # order free of string hashing
        mid = g.apply(e)
        parked_g = mid is None
        if parked_g:
            mid = e
        out = f.apply(mid)
        if out is None:
            if parked_g:
                continue
            out = mid
        exceptions[e] = out
    return TailMap(exceptions, tails)


def compose_all(maps: Sequence[TailMap]) -> TailMap:
    """Chronological composite: maps[0] acts first.  Empty list -> empty map."""
    acc = TailMap()
    for m in maps:
        acc = compose(m, acc)
    return acc


# -- constructions ----------------------------------------------------------


def forward_shift(stream: str = "a") -> TailMap:
    """The scramble itself: every stream point moves up by one."""
    return TailMap({}, {stream: TailRule(1, +1)})


def inverse_shift_map(stream: str = "a", z: str = "z") -> TailMap:
    """Canonical inverse of the forward shift: n -> n-1 for n >= 2, z fixed."""
    zz = NamedPoint(z)
    return TailMap({zz: zz}, {stream: TailRule(2, -1)})


def invert_shift_three_step(stream: str = "a", z: str = "z") -> list[TailMap]:
    """Undo the forward shift in three swaps with one helper z.

    Chronological classifications are [retentive, forgetful, retentive]
    and the three participant sets are pairwise distinct; the composite
    equals inverse_shift_map(stream, z) exactly.
    """
    zz = NamedPoint(z)
    s = lambda i: StreamPoint(stream, i)
    step1 = TailMap({s(2): s(1), zz: s(2), s(3): zz}, {stream: TailRule(4, -1)})
    step2 = TailMap({zz: s(2)}, {stream: TailRule(2, +1)})
    step3 = TailMap({s(3): zz}, {stream: TailRule(4, -1)})
    return [step1, step2, step3]


def invert_finitary_two_step(
    sigma: Permutation, stream: str = "a", z: str = "z"
) -> list[TailMap]:
    """Invert any finitary stream permutation in exactly two swaps.

    sigma is given over insider-indexed points; insider i stands for
    stream point i.  However many disjoint cycles sigma has, the result is
    a single [forgetful, retentive] pair with distinct participant sets
    whose composite is finitary_extension(sigma.inverse()).  The identity
    yields an empty plan.
    """
    insiders_only(sigma)
    if sigma.is_identity():
        return []
    cycles = [[e.index for e in c] for c in sigma.cycles]
    support = {i for c in cycles for i in c}
    top = max(support)
    untouched = [i for i in range(1, top) if i not in support]
    zz = NamedPoint(z)
    s = lambda i: StreamPoint(stream, i)

    first = cycles[0]
    nodes = [s(first[0])] + [s(i) for i in reversed(first[1:])] + [zz]
    for c in cycles[1:]:
        nodes += [s(i) for i in reversed(c)]
    nodes += [s(u) for u in untouched] + [s(top + 1)]
    scatter = TailMap(
        {nodes[i]: nodes[i + 1] for i in range(len(nodes) - 1)},
        {stream: TailRule(top + 1, +1)},
    )

    nodes = [s(top + 1)] + [s(u) for u in reversed(untouched)]
    nodes += [s(c[-1]) for c in reversed(cycles[1:])]
    nodes += [zz, s(first[0])]
    gather = TailMap(
        {nodes[i]: nodes[i + 1] for i in range(len(nodes) - 1)},
        {stream: TailRule(top + 2, -1)},
    )
    return [scatter, gather]


def finitary_extension(p: Permutation, stream: str = "a", z: str = "z") -> TailMap:
    """p as a total tail map on the stream, fixing z and all untouched points."""
    insiders_only(p)
    top = max((e.index for e in p.support()), default=0)
    s = lambda i: StreamPoint(stream, i)
    exceptions: dict[CarrierPoint, CarrierPoint] = {NamedPoint(z): NamedPoint(z)}
    for i in range(1, top + 1):
        exceptions[s(i)] = s(p.apply(insider(i)).index)
    return TailMap(exceptions, {stream: TailRule(top + 1, 0)})


# -- rendering ---------------------------------------------------------------


def _chains(f: TailMap) -> list[list[tuple[CarrierPoint, CarrierPoint]]]:
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


def step_table(f: TailMap, horizon: int = 4) -> list[str]:
    """Rows "p -> q" in reading order, tail samples truncated at horizon."""
    rows: list[str] = []
    reverse = any(rule.delta == -1 for rule in f._tails.values())
    for chain in _chains(f):
        hops = list(reversed(chain)) if reverse else chain
        rows += [f"{k} -> {v}" for k, v in hops]
    for s, rule in sorted(f.tails.items()):
        if rule.delta == 0:
            rows.append(f"{s}n -> {s}n for n >= {rule.threshold}")
            continue
        for n in range(rule.threshold, rule.threshold + horizon):
            rows.append(f"{StreamPoint(s, n)} -> {StreamPoint(s, n + rule.delta)}")
        rows.append("...")
    return rows


def cycle_string(f: TailMap, horizon: int = 4) -> str:
    """Extended cycle notation with an explicit "..." ellipsis marker."""
    groups: list[str] = []
    consumed: set[str] = set()
    for chain in _chains(f):
        start, end = chain[0][0], chain[-1][1]
        tokens = [str(start)] + [str(v) for _, v in chain]
        if end == start:
            groups.append("(" + " ".join(tokens[:-1]) + ")")
            continue
        prefix: list[str] = []
        suffix: list[str] = []
        if isinstance(end, StreamPoint):
            rule = f._tails.get(end.stream)
            if rule and rule.delta == 1 and end.index >= rule.threshold:
                suffix = [
                    str(StreamPoint(end.stream, end.index + i)) for i in range(1, horizon + 1)
                ] + ["..."]
                consumed.add(end.stream)
        if isinstance(start, StreamPoint):
            rule = f._tails.get(start.stream)
            if rule and rule.delta == -1 and start.index == rule.threshold - 1:
                prefix = ["..."] + [
                    str(StreamPoint(start.stream, start.index + i))
                    for i in range(horizon, 0, -1)
                ]
                consumed.add(start.stream)
        groups.append("(" + " ".join(prefix + tokens + suffix) + ")")
    for s, rule in sorted(f.tails.items()):
        if s in consumed:
            continue
        t = rule.threshold
        if rule.delta == 1:
            tokens = [str(StreamPoint(s, t + i)) for i in range(horizon)] + ["..."]
        elif rule.delta == -1:
            tokens = ["..."] + [str(StreamPoint(s, t + i)) for i in range(horizon - 1, -2, -1)]
        else:
            tokens = [f"{s}n for n >= {t}"]
        groups.append("(" + " ".join(tokens) + ")")
    return "".join(groups) if groups else "()"
