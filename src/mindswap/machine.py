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
transposition.  One path serves every m: those transpositions are fixed
two at a time as pairs of 3-cycles, and only an odd target's leftover,
which only an even machine reaches, takes a three-move gadget over pools
w, y, z.  A plan has n - r_odd + parity(sigma) moves, for n moved insiders
and r_odd odd cycles of length 3 or more.
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


def _check_pool(pool: Sequence[Element], size: int, tau: Cycle) -> None:
    if len(pool) != size or len(set(pool)) != size:
        raise ValueError(f"need exactly {size} distinct pool outsiders, got {len(pool)}")
    if set(tau) & set(pool):
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

    One path for every m: odd cycles and the odd prefixes of even cycles
    chain first; then the even cycles' final transpositions are fixed in
    pairs via ((a' a)(b' b))^-1 = (a b b')(a' b' a), and an odd target's
    leftover, on an even machine, alone takes the gadget.  The plan is
    chronological, has n - r_odd + parity(sigma) moves, and its product is
    sigma's inverse; every move has exactly m seats including at least one
    outsider, and the pool has exactly outsider_budget(m) members.
    """
    insiders_only(sigma)
    if not in_machine_group(sigma, m):
        raise ValueError(f"odd permutation is not a product of {m}-cycles")
    d = outsider_budget(m)
    pool = tuple(outsider(i) for i in range(1, d + 1))
    chain_pool = pool[: m - 2]
    moves: list[MachineMove] = []
    ends: list[Cycle] = []
    for tau in sigma.cycles:
        if len(tau) % 2:
            moves += invert_odd_cycle(tau, chain_pool, m)
        else:
            moves += invert_odd_cycle(tau[:-1], chain_pool, m)
            ends.append(tau[-2:])
    for (a_prev, a_last), (b_prev, b_last) in zip(ends[::2], ends[1::2]):
        moves += three_cycle_moves(a_prev, b_prev, a_last, chain_pool)
        moves += three_cycle_moves(a_last, b_last, b_prev, chain_pool)
    if len(ends) % 2:
        h = m // 2 - 1
        moves += invert_transposition_even_m(ends[-1], pool[:h], pool[h : 2 * h], pool[2 * h :], m)
    return PlanDocument(
        m=m,
        target=format_cycles(sigma),
        outsiders=pool,
        moves=tuple(moves),
        solver="general_m",
    )
