"""Provably optimal 3-machine solver: one outsider, (n + r) / 2 moves.

For an even target moving n insiders in r disjoint cycles, the inverse
factors into exactly (n + r) / 2 three-cycles, all containing the single
outsider x, and no construction can do better: each move seats at most two
insiders, every moved insider must appear at least once, and each cycle of
the target forces one insider to appear twice, so any plan seats at least
n + r insiders.  The bound holds for any number of outsiders d >= 1; it is
``machine.lower_bound`` at m = 3, which also proves the repeat.

The plan is ``machine``'s hub word cut into pairs: at m = 3 that word needs
no padding and no outsider but x.  The paper's plan, odd cycles on their
own and even cycles in pairs, is one cutting of such a word.  A note on
published presentations of this construction: factor lists are sometimes
printed in the reverse of their acting order, so this module treats
composition checks, not printed order, as ground truth (products here are
right-to-left, and plans are chronological).
"""

from __future__ import annotations

from .machine import hub_plan, lower_bound
from .perm import Permutation
from .plandoc import PlanDocument

__all__ = ["lower_bound", "solve_three_machine_optimal"]


def solve_three_machine_optimal(sigma: Permutation) -> PlanDocument:
    """Invert an even sigma in exactly lower_bound(sigma) 3-machine moves.

    Every move contains the outsider x1, support sets are pairwise
    distinct, and the plan seats exactly n + r insiders, meeting the lower
    bound with equality, which the document records.
    """
    return hub_plan(sigma, 3, "optimal3", claim=True)
