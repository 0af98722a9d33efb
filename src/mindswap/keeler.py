"""Two-machine solver: invert a scramble with distinct transpositions.

The machine swaps two people per use and no pair may repeat.  With two
fresh outsiders x and y, the inverse of any insider permutation factors
into pairwise distinct transpositions that each contain x or y.  The
per-cycle gadget for a k-cycle (a1 ... ak) is, in written order,

    (x a2)(x a3)...(x ak) (y a1)(y a2)(x a1)

whose product composed with the cycle collapses to the single swap (x y).
Chaining the gadgets over all disjoint cycles and prepending one (x y)
when the cycle count is odd yields the inverse.
"""

from __future__ import annotations

from .moves import MachineMove
from .perm import Cycle, Element, Permutation, format_cycles, insiders_only, outsider
from .plandoc import PlanDocument


def cycle_gadget(cycle: Cycle, x: Element, y: Element) -> list[MachineMove]:
    """The full per-cycle gadget, in written order.

    The sweep (x a2)...(x ak) comes first; the written product of the
    result, composed with the cycle itself, equals the transposition (x y).
    """
    if len(cycle) < 2:
        raise ValueError("cycle length must be at least 2")
    if x == y or x in cycle or y in cycle:
        raise ValueError("the two outsiders must differ and lie outside the cycle")
    a1, a2 = cycle[0], cycle[1]
    return [MachineMove((x, a)) for a in cycle[1:]] + [
        MachineMove((y, a1)),
        MachineMove((y, a2)),
        MachineMove((x, a1)),
    ]


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
        moves.append(MachineMove((x, y)))
    return PlanDocument(
        m=2,
        target=format_cycles(sigma),
        outsiders=(x, y),
        moves=tuple(moves),
        solver="keeler2",
    )
