"""Provably optimal 3-machine solver: one outsider, (n + r) / 2 moves.

For an even target moving n insiders in r disjoint cycles, the inverse
factors into exactly (n + r) / 2 three-cycles, all containing the single
outsider x, and no construction can do better: each move seats at most two
insiders, every moved insider must appear at least once, and each cycle of
the target forces one insider to appear twice, so any plan seats at least
n + r insiders.  The bound holds for any number of outsiders d >= 1.

Odd cycles invert on their own; even-length cycles occur in pairs and
invert jointly.  A note on published presentations of this construction:
factor lists are sometimes printed in the reverse of their acting order,
so this module treats composition checks, not printed order, as ground
truth (products here are right-to-left, and plans are chronological).
"""

from __future__ import annotations

from .moves import MachineMove
from .perm import Cycle, Element, Permutation, format_cycles, insiders_only, outsider
from .plandoc import PlanDocument


def odd_cycle_moves(tau: Cycle, x: Element) -> list[MachineMove]:
    """(k + 1) / 2 chronological moves inverting an odd-length cycle.

    First (a2 a1 x), then (a_{l+1} a_l x) for l = k-1, k-3, ..., 2; the
    product walks each stranded mind home through x.
    """
    k = len(tau)
    if k % 2 == 0:
        raise ValueError("cycle length must be odd")
    if x in tau:
        raise ValueError(f"{x} must not occur in the cycle")
    moves = [MachineMove((tau[1], tau[0], x))]
    for l in range(k - 1, 1, -2):
        moves.append(MachineMove((tau[l], tau[l - 1], x)))
    return moves


def even_pair_moves(tau_v: Cycle, tau_w: Cycle, x: Element) -> list[MachineMove]:
    """(k1 + k2 + 2) / 2 chronological moves inverting two even cycles jointly."""
    k1, k2 = len(tau_v), len(tau_w)
    if k1 % 2 or k2 % 2:
        raise ValueError("both cycles must have even length")
    if set(tau_v) & set(tau_w):
        raise ValueError("cycles must have disjoint supports")
    if x in tau_v or x in tau_w:
        raise ValueError(f"{x} must not occur in the cycles")
    moves = [MachineMove((tau_w[-1], tau_v[-1], x))]
    for l in range(k1 - 2, 1, -2):
        moves.append(MachineMove((tau_v[l], tau_v[l - 1], x)))
    moves.append(MachineMove((tau_v[0], tau_v[-1], x)))
    for l in range(k2 - 2, 1, -2):
        moves.append(MachineMove((tau_w[l], tau_w[l - 1], x)))
    moves.append(MachineMove((tau_w[0], tau_w[-1], x)))
    return moves


def solve_three_machine_optimal(sigma: Permutation) -> PlanDocument:
    """Invert an even sigma in exactly lower_bound(sigma) 3-machine moves.

    Every move contains the outsider x1, support sets are pairwise
    distinct, and the plan seats exactly n + r insiders, meeting the lower
    bound with equality.
    """
    insiders_only(sigma)
    bound = lower_bound(sigma)
    cycles = sigma.cycles
    x = outsider(1)
    odd_cycles = [c for c in cycles if len(c) % 2 == 1]
    even_cycles = [c for c in cycles if len(c) % 2 == 0]
    assert len(even_cycles) % 2 == 0
    moves: list[MachineMove] = []
    for tau in odd_cycles:
        moves += odd_cycle_moves(tau, x)
    for i in range(0, len(even_cycles), 2):
        moves += even_pair_moves(even_cycles[i], even_cycles[i + 1], x)
    return PlanDocument(
        m=3,
        target=format_cycles(sigma),
        outsiders=(x,),
        moves=tuple(moves),
        solver="optimal3",
        lower_bound=bound,
    )


def lower_bound(sigma: Permutation) -> int:
    """(n + r) / 2 with n the moved insiders and r the cycle count.

    Valid for any outsider count d >= 1; fixed points never inflate it.
    Raises ValueError for an odd sigma, which no 3-machine plan reaches.
    """
    cycles = sigma.cycles
    n = sum(len(c) for c in cycles)
    r = len(cycles)
    if (n - r) % 2 != 0:
        raise ValueError("odd permutation is not reachable on a 3-machine")
    return (n + r) // 2
