"""Exact arithmetic on finite-support permutations of labeled elements.

Elements are either insiders ("a1", "a2", ...), the originally scrambled
people, or outsiders ("x1", "x2", ...), fresh helpers recruited to undo the
scramble.  An :class:`Element` is the tuple ``(kind, index)``: its hash,
equality and order (kind, then numeric index) are the tuple's, so they run
in C, and it equals the plain tuple ``(kind, index)``.  The index is a
positive ``int``, never a ``bool``.  A :class:`Permutation` is stored as its
image map, fixed points dropped; its canonical disjoint cycles are derived
on first use and kept, each led by its minimal element and sorted by leader.
Cycle text is read in bulk, each distinct token built once by one call.

Composition is right-to-left everywhere in this package: ``(p * q)(e) ==
p(q(e))``, so in a written product of cycles the rightmost factor acts
first.  A machine move is the tuple of the people it seats, and its cycle
sends each seat to the next; a plan is a chronological list of moves, and
:func:`plan_product` composes one, the last move leftmost, refusing a move
that seats one person twice.
"""

from __future__ import annotations

import re
import sys
from functools import partial
from itertools import chain, filterfalse
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


_element = partial(tuple.__new__, Element)
"""_element((kind, index)) is Element(kind, index) unchecked: the caller
guarantees a known kind and a positive int index, which Element() would
verify.  A partial of tuple.__new__ costs no Python frame."""


_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # int()'s digit cap, 0 for none
# ASCII digits, no sign, no leading zero, and no more of them than int() reads
_INDEX = f"[1-9][0-9]{{0,{_DIGITS - 1}}}" if _DIGITS else "[1-9][0-9]*"
_NATURAL = re.compile(f"0|{_INDEX}")
_ELEMENT = re.compile(rf"([{INSIDER}{OUTSIDER}]?)({_INDEX})")
_PREFIXED = re.compile(rf"[{INSIDER}{OUTSIDER}]{_INDEX}(?: [{INSIDER}{OUTSIDER}]{_INDEX})*")
_FIRST, _TAIL = itemgetter(0), itemgetter(slice(1, None))


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
    return _element((kind or INSIDER, int(digits)))  # _ELEMENT admits no other kind, and no 0


def _read_tokens(words: Iterable[str], table: dict | None = None) -> dict:
    """table, or a new one, holding every distinct word as its Element: the new words are
    built in one go when all are prefixed, else each by parse_element, so the first
    malformed word in reading order raises."""
    table = {} if table is None else table
    if new := [*filterfalse(table.__contains__, dict.fromkeys(words))]:
        if _PREFIXED.fullmatch(" ".join(new)):
            table.update(zip(new, map(_element, zip(map(_FIRST, new), map(int, map(_TAIL, new))))))
        else:
            table.update(zip(new, map(parse_element, new)))
    return table


Cycle = tuple[Element, ...]


class Permutation:
    """A finite-support bijection stored as its image map, fixed points dropped."""

    __slots__ = ("_map", "_cycles")

    def __init__(self, mapping: dict[Element, Element] | None = None):
        cleaned = {e: v for e, v in (mapping or {}).items() if e != v}
        if set(cleaned.values()) != set(cleaned.keys()):
            raise ValueError("mapping is not a finite-support bijection")
        self._map = cleaned
        self._cycles: tuple[Cycle, ...] | None = None

    @classmethod
    def identity(cls) -> "Permutation":
        return cls()

    @property
    def cycles(self) -> tuple[Cycle, ...]:
        """Canonical disjoint cycles; their right-to-left product equals self.

        The ascending scan meets each cycle first at its least element, so
        every cycle leads with its minimum and the leaders come out sorted.
        The result is kept, so the scan runs once per permutation, and
        inverse() hands it on reversed: the inverse's cycles cost no scan.
        """
        if self._cycles is not None:
            return self._cycles
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
        self._cycles = tuple(cycles)
        return self._cycles

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
        """The inverse, with self's cycles reversed when self holds them: a
        reversed cycle keeps its least element in front, so still leads with it."""
        cycles = self._cycles
        if cycles is not None:
            cycles = tuple([(c[0],) + c[:0:-1] for c in cycles])
        return _trusted({v: k for k, v in self._map.items()}, cycles)

    def parity(self) -> int:
        """0 for even, 1 for odd; a k-cycle contributes k - 1 transpositions."""
        return sum(len(c) - 1 for c in self.cycles) % 2

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

    def __reduce__(self) -> tuple:  # for pickle protocols 0 and 1 too, which __slots__ defeat
        return _trusted, (self._map, self._cycles)


def _trusted(
    images: dict[Element, Element], cycles: tuple[Cycle, ...] | None = None
) -> Permutation:
    """The permutation with these images, unchecked: the caller guarantees
    a bijection with no fixed points, which Permutation() would verify, and
    that cycles, when given, are its canonical cycles."""
    p = Permutation.__new__(Permutation)
    p._map = images
    p._cycles = cycles
    return p


def insiders_only(p: Permutation) -> Permutation:
    """p itself, or ValueError when p moves an outsider: a scramble moves
    insiders only, and outsiders are fresh.  Outsiders sort last, so p moves
    one exactly when its greatest moved element is one."""
    if p._map and max(p._map)[0] == OUTSIDER:
        raise ValueError("target must move insiders only")
    return p


_CYCLES = re.compile(r"(?:\s*\([^()]*\))*")  # leading cycles: space, "(", no parenthesis, ")"
_BODY = re.compile(r"\(([^()]*)\)")  # a cycle's body, where only space lies between cycles


def parse_cycles(text: str) -> Permutation:
    """Parse cycle-notation text into a canonical permutation.

    The text is a whitespace-tolerant concatenation of parenthesized cycles
    over tokens like "a2", "x1" or bare integers (insiders).  Cycles are
    multiplied right-to-left, so repeated elements across cycles are fine;
    repeats inside one cycle are an error.  The empty string is the
    identity.

    One match finds where the leading well-formed cycles end and one findall takes their
    bodies.  ``str.split``, ``str.lstrip`` and the regex whitespace class share one rule.
    Every token is read, 1-cycles are dropped, and if no element repeats, the disjoint
    cycles' product is their union, built directly.
    """
    return _parse_cycles(text)


def _parse_cycles(text: str, table: dict | None = None) -> Permutation:
    """parse_cycles, adding its tokens to table (a plan document's) when given."""
    end = _CYCLES.match(text).end()
    split = list(map(str.split, _BODY.findall(text, 0, end)))
    read = _read_tokens(chain.from_iterable(split), table).__getitem__
    groups = [group for words in split if len(group := list(map(read, words))) > 1]
    _raise_first_problem(text[end:])
    images: dict[Element, Element] = {}
    written = 0
    for group in groups:
        images.update(zip(group, group[1:] + group[:1]))
        if len(images) != (written := written + len(group)):  # an element repeats
            break
    else:  # every element differs: the cycles are disjoint, and their product is their union
        return _trusted(images)
    for group in groups:
        if len(set(group)) != len(group):
            raise ParseError(f"repeated element within cycle ({_labels(group)})")
    return _compose_cycles(reversed(groups))


def _raise_first_problem(rest: str) -> None:
    """Raise the first problem, in reading order, of rest: the text after its
    last well-formed leading cycle.  Rest that is only whitespace has none.

    Past its whitespace, rest opens with ')', which closes nothing, or with a
    character outside every cycle, or with a '(' that no ')' closes before the
    next '(' or the end: a '(', tokens and a ')' would have begun a well-formed
    cycle.  So that open cycle's body holds no parenthesis, and its tokens are
    read before the nested or unbalanced '(' is reported.
    """
    rest = rest.lstrip()
    if not rest:
        return
    if rest[0] == ")":
        raise ParseError("unbalanced ')' in cycle notation")
    if rest[0] != "(":
        raise ParseError(f"unexpected character {rest[0]!r} outside parentheses")
    body, nested, _ = rest[1:].partition("(")
    _read_tokens(body.split())  # raises for the first malformed token
    raise ParseError(f"{'nested' if nested else 'unbalanced'} '(' in cycle notation")


def _compose_cycles(cycles: Iterable[Sequence[Element]]) -> Permutation:
    """Product of repeat-free cycles in acting order (the first acts first).

    A cycle sends y to its successor, so the running product's inverse changes only
    at the cycle's own elements: the cost is the total length, and a transposition
    (each factor of a scramble history) sets its two preimages directly.  Each
    repeat-free cycle is a bijection, so preimage stays the inverse of a bijection on
    the points it holds, and the product is built unchecked.  Every caller passes
    repeat-free cycles: parse_cycles checks its own, __mul__ passes canonical cycles,
    and plan_product and oracle.verify_plan check their moves.
    """
    preimage: dict[Element, Element] = {}
    for cycle in cycles:
        if len(cycle) == 2:
            a, b = cycle
            preimage[b], preimage[a] = preimage.get(a, a), preimage.get(b, b)
        else:
            preimage.update(zip(cycle[1:] + cycle[:1], list(map(preimage.get, cycle, cycle))))
    return _trusted({x: y for y, x in preimage.items() if x != y})


def plan_product(moves: Iterable[Cycle]) -> Permutation:
    """Product of a chronological plan of machine moves: later moves compose on the left.

    Raises ValueError for a move that seats one element twice, which has no product.
    """
    moves = list(moves)
    for move in moves:
        if len(set(move)) != len(move):
            raise ValueError(f"repeated seat in move ({_labels(move)})")
    return _compose_cycles(moves)


def _labels(elements: Iterable[Element]) -> str:
    """The elements' labels, space-separated: str(e) for each, without a call per element."""
    return " ".join([kind + str(index) for kind, index in elements])


def format_cycles(p: Permutation) -> str:
    """Serialize to canonical cycle notation; inverse of parse_cycles."""
    return "".join("(" + _labels(cycle) + ")" for cycle in p.cycles)
