"""General m-machine solver (m >= 3) under the distinct-seat-set rule.

No two machine uses may cycle the same set of m people, and every use must
include an outsider.  Odd machines can only reach even permutations, so
they reject odd targets; even machines reach everything.  The outsider
budget is m - 2 for odd m and 3 * (m/2 - 1) for even m.

Every construction here reduces to one identity: for distinct p, q, r and
an outsider pool x1..xe (e = m - 2),

    (p q r) = (p q x1 ... xe)(q r xe ... x1)      [rightmost acts first]

Three-cycles invert through it directly, longer odd cycles by chaining
overlapping 3-cycles, and even-length cycles by splitting off their final
transposition, which is fixed either by pairing with another even cycle
(odd m) or by a dedicated three-move gadget over pools w, y, z (even m).
"""

from __future__ import annotations

from typing import Sequence

from .moves import MachineMove
from .perm import Cycle, Element, Permutation, format_cycles, insider, outsider
from .plandoc import PlanDocument


def outsider_budget(m: int) -> int:
    """Pool size d: m - 2 when m is odd, 3 * (m/2 - 1) when m is even."""
    if m < 3:
        raise ValueError("machine size must be at least 3")
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


def invert_three_cycle(tau: Cycle, pool: Sequence[Element], m: int) -> list[MachineMove]:
    """Two m-cycle moves composing to the inverse of the 3-cycle tau.

    The construction is the same for odd and even m; the two support sets
    share the pool but differ in insiders.
    """
    if len(tau) != 3:
        raise ValueError("tau must be a 3-cycle")
    _check_pool(pool, m - 2, tau)
    a1, a2, a3 = tau
    return three_cycle_moves(a1, a3, a2, pool)


def invert_odd_cycle(tau: Cycle, pool: Sequence[Element], m: int) -> list[MachineMove]:
    """k - 1 moves composing to the inverse of an odd-length cycle.

    The cycle factors into overlapping 3-cycles (a1 a2 a3)(a3 a4 a5)...,
    rightmost acting first; inverting each in chain order undoes the whole
    cycle.
    """
    k = len(tau)
    if k % 2 == 0:
        raise ValueError("cycle length must be odd")
    if k < 3:
        raise ValueError("cycle length must be at least 3")
    moves: list[MachineMove] = []
    for i in range(0, k - 2, 2):
        moves += invert_three_cycle((tau[i], tau[i + 1], tau[i + 2]), pool, m)
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
    moves: list[MachineMove] = []
    for tau in (tau_i, tau_j):
        prefix = tau[:-1]
        if len(prefix) >= 3:
            moves += invert_odd_cycle(prefix, pool, m)
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
    flat = [e for p in pools for e in p]
    if any(len(p) != h for p in pools) or len(set(flat)) != 3 * h:
        raise ValueError(f"pools w, y, z must be disjoint with {h} outsiders each")
    if set(flat) & set(tau):
        raise ValueError("pools overlap the transposition")
    a1, a2 = tau
    wr, yr, zr = (tuple(reversed(p)) for p in pools)
    return [
        MachineMove(pools[0] + (a1,) + pools[1] + (a2,)),
        MachineMove((a1,) + wr + (a2,) + pools[2]),
        MachineMove((a1,) + zr + yr + (a2,)),
    ]


def generator_identity_check(m: int, elements: Sequence[Element] | None = None) -> bool:
    """Self-test that even machines generate every transposition.

    Verifies by direct composition that two m-cycles collapse to an
    (m-1)-cycle and that a third m-cycle reduces that to the bare swap
    (x y).  Returns True when both identities hold.
    """
    if m % 2 or m < 4:
        raise ValueError("machine size must be even and at least 4")
    if elements is None:
        elements = [outsider(1), outsider(2)] + [insider(i) for i in range(1, m - 1)]
    if len(set(elements)) < m:
        raise ValueError(f"need {m} distinct elements")
    x, y = elements[0], elements[1]
    a = tuple(elements[2:m])
    evens = a[1::2]
    odds = a[0::2]
    g1 = Permutation.from_cycle((y, a[0], x) + a[1:])
    g2 = Permutation.from_cycle((y, x) + a)
    collapsed = Permutation.from_cycle((y,) + evens + odds)
    first = g1 * g2 == collapsed
    g3 = Permutation.from_cycle((x, y) + tuple(reversed(odds)) + tuple(reversed(evens)))
    second = g3 * collapsed == Permutation.from_cycle((x, y))
    return first and second


def solve_m_machine(sigma: Permutation, m: int) -> PlanDocument:
    """Invert sigma with m-cycle moves on pairwise distinct seat sets.

    The plan is chronological; its product equals sigma's inverse, every
    move has exactly m seats including at least one outsider, and the pool
    has exactly outsider_budget(m) members.
    """
    if any(e.is_outsider for e in sigma.support()):
        raise ValueError("target must move insiders only")
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
                prefix = tau[:-1]
                if len(prefix) >= 3:
                    moves += invert_odd_cycle(prefix, chain_pool, m)
                moves += invert_transposition_even_m((tau[-2], tau[-1]), w, y, z, m)
    return PlanDocument(
        m=m,
        target=format_cycles(sigma),
        outsiders=pool,
        moves=tuple(moves),
        solver="general_m",
    )
