"""Machine moves and plan products.

A machine move is one use of an m-machine, and it is the tuple of the m
people cycled together, least seat first.  The solvers and the oracle emit
plain tuples that are legal by construction; MachineMove is the checked
constructor for moves from anywhere else.  A plan is a chronological list
of moves (first machine use first); its product is the right-to-left
composition of the induced cycles, so the last move is the leftmost factor.
"""

from __future__ import annotations

from typing import Iterable

from .perm import Element, Permutation, _compose_cycles


def least_first(seats: tuple[Element, ...]) -> tuple[Element, ...]:
    """seats rotated so the least leads: the same cycle, in the one written form."""
    lead = seats.index(min(seats))
    return seats[lead:] + seats[:lead] if lead else seats


def _repeated_seat(move: tuple[Element, ...]) -> ValueError:
    return ValueError(f"repeated seat in move ({' '.join(map(str, move))})")


class MachineMove(tuple):
    """One machine use: the seat tuple, seats[0] -> seats[1] -> ... -> seats[0].

    Seats are rotated at construction so the least seat leads, which does
    not change the induced cycle but makes serialization stable.
    """

    __slots__ = ()

    def __new__(cls, seats: Iterable[Element]) -> "MachineMove":
        seats = tuple(seats)
        if len(seats) < 2:
            raise ValueError("a machine move needs at least 2 seats")
        if len(set(seats)) != len(seats):
            raise _repeated_seat(seats)
        return tuple.__new__(cls, least_first(seats))

    def __str__(self) -> str:
        return "(" + " ".join(map(str, self)) + ")"

    def __repr__(self) -> str:
        return f"MachineMove{self}"


def plan_product(moves: Iterable[tuple[Element, ...]]) -> Permutation:
    """Product of a chronological plan: later moves compose on the left.

    Raises ValueError for a move that seats one element twice, which has
    no product; MachineMove refuses those, but a plain tuple may hold one.
    """
    moves = list(moves)
    for move in moves:
        if len(set(move)) != len(move):
            raise _repeated_seat(move)
    return _compose_cycles(moves)
