"""The m-machine solver (m >= 3): every plan has, and records, lower_bound(sigma, m) moves.

Every move seats the hub outsider x1.  A *word* is a list of people other
than x1, read as the transpositions (x1 l) in acting order.  A run W of w =
m - 1 distinct letters is the m-cycle (W x1), since (l1 ... lw x1) =
(x1 lw) ... (x1 l1), so a word of T * w letters whose chunks
word[i*w : (i+1)*w] are repeat-free is a T-move plan.  The cycle
(d1 ... dk) has the word d1 d2 ... dk d1, so rho = sigma^-1, with n moved
insiders in r cycles, needs n + r letters, a classical count (I. Pak,
Discrete Math. 204, 1999).  Two facts move letters around:

- a word whose product fixes x1 moves only its own letters, so it can be
  inserted anywhere among other letters;
- a palindrome, or a word followed by its inverse's word, is the identity.

Cut each cycle Di of rho after ji letters, 1 <= ji <= ki: its head is
d1 ... dj and its tail d(j+1) ... dk d1.  The heads hold c letters in all,
one per cycle and the extra ones in the first cycles.  H is the heads in
cycle order and R the tails in reverse cycle order; each cycle's word sits
whole inside the next one's, so H R is rho.  Within H, and within R, no
letter repeats: the heads are disjoint, and so are the tails.  With T =
lower_bound(sigma, m), Q = (T*w - n - r) / 2 pairs pad the word to T*w
letters, and the fresh outsiders y1, y2, ... (yi = x(i+1)) fill them:

- A, one center: choose c in [r, n] with c + Q = 0 (mod w).  The word
  is H y1 ... yQ yQ ... y1 R; its center is a chunk boundary, and each
  half is repeat-free.  Such a c exists unless T is odd and n - r < w,
  and then T = 3.
- B, T = 3 and n + r >= w: c = min(n, w), Y = y1 ... y(w-c) and
  t = (n + r - w) / 2.  U is the first Q - (w - c) of the heads'
  non-leaders, then fresh outsiders.  The word is
  H Y | Y^R R[:t] U | U^R R[t:], and its chunks are repeat-free because R
  holds no head's non-leader.
- C, T = 3 and n + r < w, on even machines only: L = Q - 1, tau =
  (y1 ... yL), c = r and j = w - r.  The word is H, tau's word
  y1 ... yL y1, tau^-1's word from yj, yj y(j-1) ... y1 yL ... yj, and
  R.  The second chunk ends with the first p = w - L + j - 1 letters of
  tau^-1's word: p >= 1 splits its two yj, and p <= j - 1, as L >= w,
  keeps y1 out of them.

Seat sets differ as well.  In A, chunks of one half are disjoint, and H
and R share only the leaders d1.  A chunk of H made of leaders alone
spans one-letter heads but for its last letter, and one of R spans
one-letter tails but for its first; no cycle has both, so no chunk of H
has the letters of a chunk of R.  The two chunks at the center share Y,
and H ends with a non-leader or else the last head is one letter and R
opens with that cycle's d2.  In B and C the second and third chunks
split R between them, and the first lacks a letter of each.  In C that
is yL, as L > j.  In B with c = n it is a fresh outsider of U, which is
longer than the heads' non-leaders.  In B with c = w < n, the second
chunk opens R with a letter past the last head; the third would need
H's r leaders in R[t:] and its w - r non-leaders in U, so Q = w - r and
n - r = w, and then A applies.

The pool is x1 and the fresh outsiders the word uses: at most m - 2 for
odd m and 3(m/2 - 1) for even m, the latter for (1 2) in case C.
"""

from __future__ import annotations

from .moves import least_first
from .perm import Permutation, format_cycles, insiders_only, outsider
from .plandoc import PlanDocument


MACHINE_CAP = 10**5
"""Largest machine size solve_m_machine takes: (1 2) seats 3(m/2 - 1) outsiders."""


def lower_bound(sigma: Permutation, m: int = 3) -> int:
    """B(sigma, m): a lower bound on the moves of any plan for sigma on an
    m-machine, and the fewest for m >= 3, where solve_m_machine meets it.

    It is max(2, ceil((n + r) / (m - 1))) for n moved insiders in r cycles,
    raised by one on an even machine when its parity differs from sigma's,
    and 0 for the identity.  At m = 2 it is n + r + 2, which the distinct
    swaps need by the Components bound in the oracle module's docstring.
    Raises ValueError for m < 2, and for an odd sigma on an odd machine,
    which no plan reaches.  Proof for m >= 3:

    - Each move seats at most m - 1 insiders, beside its outsider.
    - Every moved insider sits at least once, and each cycle C of sigma has
      an insider that sits twice.  Suppose instead that each c in C sits
      once, in move t(c), which sends c to its next seat s; only later
      moves that seat s carry it on, to sigma^-1(c).  So t never falls
      along C, hence is constant, and that one move maps C into C: it is
      C itself (inverted), which seats no outsider.
    - So a plan seats at least n + r insiders, at most m - 1 per move.
    - When m is even each move is odd, so the plan's length has sigma's
      parity; when m is odd each move is even, so sigma must be.
    - No single move fixes its outsider, so a nonempty plan has two moves.
    """
    if m < 2:
        raise ValueError(f"machine size must be at least 2, got {m}")
    cycles = sigma.cycles
    return _bound(sum(map(len, cycles)), len(cycles), m)


def _bound(n: int, r: int, m: int) -> int:
    if m % 2 and (n + r) % 2:
        raise ValueError(f"odd permutation is not a product of {m}-cycles")
    if not n:
        return 0
    if m == 2:
        return n + r + 2
    bound = max(2, -(-(n + r) // (m - 1)))
    if m % 2 == 0 and (bound + n + r) % 2:
        bound += 1
    return bound


def solve_m_machine(sigma: Permutation, m: int) -> PlanDocument:
    """Invert sigma in lower_bound(sigma, m) moves through the hub x1, and record that bound."""
    insiders_only(sigma)
    if m < 3:
        raise ValueError("machine size must be at least 3")
    if m > MACHINE_CAP:
        raise ValueError(f"machine size {m} is above the cap of {MACHINE_CAP}")
    target = format_cycles(sigma)  # reads sigma.cycles, which the inverse takes over reversed
    cycles = sigma.inverse().cycles
    n, r, w = sum(map(len, cycles)), len(cycles), m - 1
    steps = _bound(n, r, m)
    q = (steps * w - n - r) // 2

    def cut(c: int) -> tuple[list, list]:
        """H and R when the heads hold c letters."""
        heads, tails, extra = [], [], c - r
        for d in cycles:
            j = 1 + min(extra, len(d) - 1)
            extra -= j - 1
            heads.append(d[:j])
            tails.append(d[j:] + d[:1])
        return [e for h in heads for e in h], [e for t in tails[::-1] for e in t]

    ys = [outsider(i) for i in range(2, q + 2)]
    c = r + (-r - q) % w
    if c <= n:
        head, tail = cut(c)
        word, used = head + ys + ys[::-1] + tail, q
    elif n + r >= w:
        c = min(n, w)
        head, tail = cut(c)
        leaders = {d[0] for d in cycles}
        inner = [e for e in head if e not in leaders]
        y, t, u = ys[: w - c], (n + r - w) // 2, (inner + ys[w - c :])[: q - w + c]
        word = head + y + y[::-1] + tail[:t] + u + u[::-1] + tail[t:]
        used = q - min(len(inner), q - w + c)
    else:
        head, tail = cut(r)
        used, j = q - 1, w - r
        tau = ys[:used]
        inverse = tau[j - 1 :: -1] + tau[: j - 1 : -1] + tau[j - 1 : j]
        word = head + tau + tau[:1] + inverse + tail
    x1 = outsider(1)
    return PlanDocument(
        m=m,
        target=target,
        outsiders=tuple(outsider(i) for i in range(1, used + 2)),
        moves=tuple(least_first((*word[i * w : (i + 1) * w], x1)) for i in range(steps)),
        solver="general_m",
        lower_bound=steps,
    )
