"""Two-machine solver: invert a scramble with distinct transpositions.

The machine swaps two people per use and no pair may repeat.  With two
fresh outsiders x and y, the inverse of any insider permutation factors
into pairwise distinct transpositions that each contain x or y.  The
per-cycle gadget for a k-cycle (a1 ... ak) is, in written order,

    (x a2)(x a3)...(x ak) (y a1)(y a2)(x a1)

whose product composed with the cycle collapses to the single swap (x y).
Chaining the gadgets over all disjoint cycles and prepending one (x y)
when the cycle count is odd yields the inverse.  Insiders sort before
outsiders, so each move is written least seat first, as (a x), as a plain
tuple: every move is legal by construction.
"""

from __future__ import annotations

from .perm import Cycle, Element, Permutation, format_cycles, insiders_only, outsider
from .plandoc import PlanDocument


def cycle_gadget(cycle: Cycle, x: Element, y: Element) -> list[tuple[Element, ...]]:
    """The full per-cycle gadget of an insider cycle, in written order.

    The sweep (x a2)...(x ak) comes first; the written product of the
    result, composed with the cycle itself, equals the transposition (x y).
    Each move is written least seat first, so its insider leads.
    """
    if len(cycle) < 2:
        raise ValueError("cycle length must be at least 2")
    if x == y or not (x.is_outsider and y.is_outsider) or max(cycle).is_outsider:
        raise ValueError("x and y must be two different outsiders, and the cycle insiders only")
    a1, a2 = cycle[0], cycle[1]
    return [(a, x) for a in cycle[1:]] + [(a1, y), (a2, y), (a1, x)]


def solve_two_machine(sigma: Permutation) -> PlanDocument:
    """Invert sigma on a 2-machine using outsiders x1 and x2.

    The plan is chronological, every move contains an outsider, all moves
    are pairwise distinct, and the plan product equals sigma's inverse.
    A single k-cycle takes k + 3 moves; in general the count is
    sum(k_i + 2) plus one extra (x1 x2) move when the cycle count is odd.
    """
    insiders_only(sigma)
    x, y = outsider(1), outsider(2)
    cycles = sigma.cycles
    moves = [mv for cycle in cycles for mv in reversed(cycle_gadget(cycle, x, y))]  # acting order
    if len(cycles) % 2 == 1:
        moves.append((x, y))
    return PlanDocument(
        m=2,
        target=format_cycles(sigma),
        outsiders=(x, y),
        moves=tuple(moves),
        solver="keeler2",
    )
