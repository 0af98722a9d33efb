"""Machine moves and plan products.

A machine move is one use of an m-machine: the ordered seat list of the m
people cycled together.  A plan is a chronological list of moves (first
machine use first); its product is the right-to-left composition of the
induced cycles, so the last move is the leftmost factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .perm import Element, Permutation, _compose_cycles


@dataclass(frozen=True)
class MachineMove:
    """One machine use: seats[0] -> seats[1] -> ... -> seats[-1] -> seats[0].

    Seats are rotated at construction so the minimal element leads, which
    does not change the induced cycle but makes serialization stable.
    """

    seats: tuple[Element, ...]

    def __post_init__(self) -> None:
        seats = tuple(self.seats)
        if len(seats) < 2:
            raise ValueError("a machine move needs at least 2 seats")
        if len(set(seats)) != len(seats):
            raise ValueError(f"repeated seat in move ({' '.join(map(str, seats))})")
        lead = seats.index(min(seats))
        object.__setattr__(self, "seats", seats[lead:] + seats[:lead])

    @property
    def size(self) -> int:
        return len(self.seats)

    @property
    def support(self) -> frozenset[Element]:
        return frozenset(self.seats)

    def has_outsider(self) -> bool:
        return any(s.is_outsider for s in self.seats)

    def __str__(self) -> str:
        return "(" + " ".join(str(s) for s in self.seats) + ")"


def plan_product(moves: Iterable[MachineMove]) -> Permutation:
    """Product of a chronological plan: later moves compose on the left."""
    return _compose_cycles(move.seats for move in moves)

