"""Exact arithmetic on finite-support permutations of labeled elements.

Elements are either insiders ("a1", "a2", ...), the originally scrambled
people, or outsiders ("x1", "x2", ...), fresh helpers recruited to undo the
scramble.  An :class:`Element` is the tuple ``(kind, index)``: its hash,
equality and order (kind, then numeric index) are the tuple's, so they run
in C, and it equals the plain tuple ``(kind, index)``.  The index is a
positive ``int``, never a ``bool``.  A :class:`Permutation` is stored as its
image map, fixed points dropped; its canonical disjoint cycles are derived
on demand, each led by its minimal element and sorted by leader.

Composition is right-to-left everywhere in this package: ``(p * q)(e) ==
p(q(e))``, so in a written product of cycles the rightmost factor acts
first.
"""

from __future__ import annotations

import re
import sys
from operator import itemgetter
from typing import Iterable, Sequence

INSIDER = "a"
OUTSIDER = "x"


class ParseError(ValueError):
    """Raised for malformed cycle-notation text."""


class Element(tuple):
    """A labeled point (kind, index); total order puts all insiders before
    all outsiders, and each kind in numeric index order."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "Element":
        if kind not in (INSIDER, OUTSIDER):
            raise ValueError(f"unknown element kind {kind!r}")
        if not isinstance(index, int) or isinstance(index, bool) or index < 1:
            raise ValueError(f"element index must be a positive integer, got {index!r}")
        return tuple.__new__(cls, (kind, index))

    kind = property(itemgetter(0), doc="INSIDER or OUTSIDER")
    index = property(itemgetter(1), doc="the positive integer index")

    def __getnewargs__(self) -> tuple[str, int]:
        return tuple(self)

    @property
    def is_outsider(self) -> bool:
        return self[0] == OUTSIDER

    def __str__(self) -> str:
        return f"{self[0]}{self[1]}"

    def __repr__(self) -> str:
        return f"Element({self[0]}{self[1]})"


def insider(index: int) -> Element:
    return Element(INSIDER, index)


def outsider(index: int) -> Element:
    return Element(OUTSIDER, index)


_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # int()'s digit cap, 0 for none
# ASCII digits, no sign, no leading zero, and no more of them than int() reads
_INDEX = f"[1-9][0-9]{{0,{_DIGITS - 1}}}" if _DIGITS else "[1-9][0-9]*"
_NATURAL = re.compile(f"0|{_INDEX}")
_ELEMENT = re.compile(rf"([{INSIDER}{OUTSIDER}]?)({_INDEX})")


def _natural(text: str) -> int | None:
    """The value of text when it is 0 or an index, or None for any other text."""
    return int(text) if _NATURAL.fullmatch(text) else None


def parse_element(token: str) -> Element:
    """Parse "a3", "x2" or a bare integer (bare integers are insiders).

    Every index is ASCII digits with no leading zero, not 0, and no longer than int() reads.
    """
    match = _ELEMENT.fullmatch(token)
    if match is None:
        raise ParseError(f"malformed element token {token!r}")
    kind, digits = match.groups()
    return Element(kind or INSIDER, int(digits))


class ElementTokens(dict):
    """token -> Element for one text: each distinct token is parsed once."""

    def __missing__(self, token: str) -> Element:
        element = self[token] = parse_element(token)
        return element


Cycle = tuple[Element, ...]


class Permutation:
    """A finite-support bijection stored as its image map, fixed points dropped."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[Element, Element] | None = None):
        cleaned = {e: v for e, v in (mapping or {}).items() if e != v}
        if set(cleaned.values()) != set(cleaned.keys()):
            raise ValueError("mapping is not a finite-support bijection")
        self._map = cleaned

    @classmethod
    def identity(cls) -> "Permutation":
        return cls()

    @classmethod
    def from_cycle(cls, elements: Sequence[Element]) -> "Permutation":
        """The single cycle sending elements[0] -> elements[1] -> ... -> elements[0]."""
        if len(set(elements)) != len(elements):
            raise ValueError("repeated element in cycle")
        return _compose_cycles([elements])

    @property
    def cycles(self) -> tuple[Cycle, ...]:
        """Canonical disjoint cycles; their right-to-left product equals self.

        The ascending scan meets each cycle first at its least element, so
        every cycle leads with its minimum and the leaders come out sorted.
        """
        cycles = []
        seen: set[Element] = set()
        for start in sorted(self._map):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            cur = self._map[start]
            while cur != start:
                cycle.append(cur)
                seen.add(cur)
                cur = self._map[cur]
            cycles.append(tuple(cycle))
        return tuple(cycles)

    def apply(self, e: Element) -> Element:
        return self._map.get(e, e)

    __call__ = apply

    def support(self) -> frozenset[Element]:
        return frozenset(self._map)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Compose right-to-left: (self * other)(e) == self(other(e))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        return _compose_cycles(other.cycles + self.cycles)

    def inverse(self) -> "Permutation":
        return Permutation({v: k for k, v in self._map.items()})

    def parity(self) -> int:
        """0 for even, 1 for odd; a k-cycle contributes k - 1 transpositions."""
        return sum(len(c) - 1 for c in self.cycles) % 2

    def is_identity(self) -> bool:
        return not self._map

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __str__(self) -> str:
        return format_cycles(self) or "()"

    def __repr__(self) -> str:
        return f"Permutation({self})"


def insiders_only(p: Permutation) -> Permutation:
    """p itself, or ValueError when p moves an outsider: a scramble moves
    insiders only, and outsiders are fresh."""
    if any(e.is_outsider for e in p._map):
        raise ValueError("target must move insiders only")
    return p


# a parenthesis, or a run of everything else up to whitespace or a parenthesis
_TOKEN = re.compile(r"[()]|[^()\s]+")


def parse_cycles(text: str) -> Permutation:
    """Parse cycle-notation text into a canonical permutation.

    The text is a whitespace-tolerant concatenation of parenthesized cycles
    over tokens like "a2", "x1" or bare integers (insiders).  Cycles are
    multiplied right-to-left, so repeated elements across cycles are fine;
    repeats inside one cycle are an error.  The empty string is the
    identity.
    """
    return _parse_cycles(text, ElementTokens())


def _parse_cycles(text: str, tokens: ElementTokens) -> Permutation:
    """parse_cycles, reading element tokens through the given memo."""
    groups: list[list[Element]] = []
    current: list[Element] | None = None
    for token in _TOKEN.findall(text):
        if token == "(":
            if current is not None:
                raise ParseError("nested '(' in cycle notation")
            current = []
        elif token == ")":
            if current is None:
                raise ParseError("unbalanced ')' in cycle notation")
            groups.append(current)
            current = None
        elif current is None:
            raise ParseError(f"unexpected character {token[0]!r} outside parentheses")
        else:
            current.append(tokens[token])
    if current is not None:
        raise ParseError("unbalanced '(' in cycle notation")

    for group in groups:
        if len(set(group)) != len(group):
            raise ParseError(f"repeated element within cycle ({' '.join(map(str, group))})")
    return _compose_cycles(reversed(groups))


def _compose_cycles(cycles: Iterable[Sequence[Element]]) -> Permutation:
    """Product of repeat-free cycles in acting order (the first acts first).

    A cycle sends y to its successor, so the running product's inverse
    changes only at the cycle's own elements: the cost is the total length.
    """
    preimage: dict[Element, Element] = {}
    for cycle in cycles:
        sources = [preimage.get(y, y) for y in cycle]
        preimage.update(zip(cycle[1:] + cycle[:1], sources))
    return Permutation({x: y for y, x in preimage.items()})


def format_cycles(p: Permutation) -> str:
    """Serialize to canonical cycle notation; inverse of parse_cycles."""
    return "".join("(" + " ".join(str(e) for e in cycle) + ")" for cycle in p.cycles)
