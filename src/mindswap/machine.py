"""General m-machine solver (m >= 3) under the distinct-seat-set rule.

No two machine uses may cycle the same set of m people, and every use must
include an outsider.  Odd machines can only reach even permutations, so
they reject odd targets; even machines reach everything.  The outsider
budget is m - 2 for odd m and 3 * (m/2 - 1) for even m.

Every construction here reduces to one identity: for distinct p, q, r and
an outsider pool x1..xe (e = m - 2),

    (p q r) = (p q x1 ... xe)(q r xe ... x1)      [rightmost acts first]

Odd cycles invert by chaining overlapping 3-cycles through it (a 1-cycle
needs none), and even-length cycles by splitting off their final
transposition, which is fixed either by pairing with another even cycle
(odd m) or by a dedicated three-move gadget over pools w, y, z (even m).
"""

from __future__ import annotations

from typing import Sequence

from .moves import MachineMove
from .perm import Cycle, Element, Permutation, format_cycles, insiders_only, outsider
from .plandoc import PlanDocument


MACHINE_CAP = 10**5
"""Largest machine size outsider_budget takes: a pool of at most 149,997 outsiders."""


def outsider_budget(m: int) -> int:
    """Pool size d: m - 2 when m is odd, 3 * (m/2 - 1) when m is even; refused above MACHINE_CAP."""
    if m < 3:
        raise ValueError("machine size must be at least 3")
    if m > MACHINE_CAP:
        raise ValueError(f"machine size {m} is above the cap of {MACHINE_CAP}")
    return m - 2 if m % 2 else 3 * (m // 2 - 1)


def in_machine_group(sigma: Permutation, m: int) -> bool:
    """Whether sigma is a product of m-cycles: even permutations for odd m,
    everything for even m."""
    if m < 3:
        raise ValueError("machine size must be at least 3")
    return m % 2 == 0 or sigma.parity() == 0


def _check_pool(pool: Sequence[Element], size: int, *cycles: Cycle) -> None:
    if len(pool) != size or len(set(pool)) != size:
        raise ValueError(f"need exactly {size} distinct pool outsiders, got {len(pool)}")
    touched = {e for c in cycles for e in c}
    if touched & set(pool):
        raise ValueError("outsider pool overlaps the cycle support")


def three_cycle_moves(p: Element, q: Element, r: Element, pool: Sequence[Element]) -> list[MachineMove]:
    """Chronological pair of m-cycles whose product is the 3-cycle (p q r)."""
    return [
        MachineMove((q, r) + tuple(reversed(pool))),
        MachineMove((p, q) + tuple(pool)),
    ]


def invert_odd_cycle(tau: Cycle, pool: Sequence[Element], m: int) -> list[MachineMove]:
    """k - 1 moves composing to the inverse of an odd-length cycle.

    The cycle factors into overlapping 3-cycles (a1 a2 a3)(a3 a4 a5)...,
    rightmost acting first; inverting each in chain order undoes the whole
    cycle, and a 1-cycle needs no moves.  The construction is the same for
    odd and even m; the two support sets of each link share the pool but
    differ in insiders.
    """
    if len(tau) % 2 == 0:
        raise ValueError("cycle length must be odd")
    _check_pool(pool, m - 2, tau)
    moves: list[MachineMove] = []
    for i in range(0, len(tau) - 2, 2):
        moves += three_cycle_moves(tau[i], tau[i + 2], tau[i + 1], pool)
    return moves


def invert_even_pair_odd_m(
    tau_i: Cycle, tau_j: Cycle, pool: Sequence[Element], m: int
) -> list[MachineMove]:
    """Invert a product of two even-length cycles on an odd machine.

    Each cycle splits as (odd prefix)(final transposition), rightmost
    first.  The prefixes invert through the odd-cycle path and the two
    leftover transpositions cancel jointly via

        ((a' a)(b' b))^-1 = (a b b')(a' b' a)

    with each 3-cycle expanded into two m-cycle moves.
    """
    if len(tau_i) % 2 or len(tau_j) % 2:
        raise ValueError("both cycles must have even length")
    if m % 2 == 0:
        raise ValueError("machine size must be odd here")
    if set(tau_i) & set(tau_j):
        raise ValueError("cycles must have disjoint supports")
    _check_pool(pool, m - 2, tau_i, tau_j)
    moves = invert_odd_cycle(tau_i[:-1], pool, m) + invert_odd_cycle(tau_j[:-1], pool, m)
    a_prev, a_last = tau_i[-2], tau_i[-1]
    b_prev, b_last = tau_j[-2], tau_j[-1]
    moves += three_cycle_moves(a_prev, b_prev, a_last, pool)
    moves += three_cycle_moves(a_last, b_last, b_prev, pool)
    return moves


def invert_transposition_even_m(
    tau: Cycle,
    w: Sequence[Element],
    y: Sequence[Element],
    z: Sequence[Element],
    m: int,
) -> list[MachineMove]:
    """Three m-cycle moves composing to the transposition tau on an even machine.

    The pools w, y, z each hold m/2 - 1 outsiders; the three moves use
    pairwise distinct seat sets {w, y}, {w, z}, {z, y} around the two
    insiders.
    """
    if m % 2 or m < 4:
        raise ValueError("machine size must be even and at least 4")
    if len(tau) != 2:
        raise ValueError("tau must be a transposition")
    h = m // 2 - 1
    pools = (tuple(w), tuple(y), tuple(z))
    if any(len(p) != h for p in pools):
        raise ValueError(f"pools w, y, z must hold {h} outsiders each")
    _check_pool(sum(pools, ()), 3 * h, tau)
    a1, a2 = tau
    wr, yr, zr = (tuple(reversed(p)) for p in pools)
    return [
        MachineMove(pools[0] + (a1,) + pools[1] + (a2,)),
        MachineMove((a1,) + wr + (a2,) + pools[2]),
        MachineMove((a1,) + zr + yr + (a2,)),
    ]


def solve_m_machine(sigma: Permutation, m: int) -> PlanDocument:
    """Invert sigma with m-cycle moves on pairwise distinct seat sets.

    The plan is chronological; its product equals sigma's inverse, every
    move has exactly m seats including at least one outsider, and the pool
    has exactly outsider_budget(m) members.
    """
    insiders_only(sigma)
    if not in_machine_group(sigma, m):
        raise ValueError(f"odd permutation is not a product of {m}-cycles")
    d = outsider_budget(m)
    pool = tuple(outsider(i) for i in range(1, d + 1))
    moves: list[MachineMove] = []
    if m % 2:
        cycles = sigma.cycles
        odd_cycles = [c for c in cycles if len(c) % 2 == 1]
        even_cycles = [c for c in cycles if len(c) % 2 == 0]
        assert len(even_cycles) % 2 == 0
        for tau in odd_cycles:
            moves += invert_odd_cycle(tau, pool, m)
        for i in range(0, len(even_cycles), 2):
            moves += invert_even_pair_odd_m(even_cycles[i], even_cycles[i + 1], pool, m)
    else:
        chain_pool = pool[: m - 2]
        h = m // 2 - 1
        w, y, z = pool[:h], pool[h : 2 * h], pool[2 * h :]
        for tau in sigma.cycles:
            if len(tau) % 2 == 1:
                moves += invert_odd_cycle(tau, chain_pool, m)
            else:
                moves += invert_odd_cycle(tau[:-1], chain_pool, m)
                moves += invert_transposition_even_m((tau[-2], tau[-1]), w, y, z, m)
    return PlanDocument(
        m=m,
        target=format_cycles(sigma),
        outsiders=pool,
        moves=tuple(moves),
        solver="general_m",
    )
