"""Provably optimal 3-machine solver: one outsider, (n + r) / 2 moves.

For n moved insiders in r cycles, no plan is shorter: ``machine.lower_bound``.

The plan is ``machine.solve_m_machine``'s at m = 3: the hub word cut into
pairs, which at m = 3 needs no padding and no outsider but x1.  It is
recorded under solver "optimal3", with its own length as the lower bound.
The paper's plan, odd cycles on their own and even cycles in pairs, is one
cutting of such a word.  A note on published presentations of this
construction: factor lists are sometimes printed in the reverse of their
acting order, so this module treats composition checks, not printed order,
as ground truth (products here are right-to-left, and plans are
chronological).
"""

from __future__ import annotations

from dataclasses import replace

from .machine import lower_bound, solve_m_machine
from .perm import Permutation
from .plandoc import PlanDocument

__all__ = ["lower_bound", "solve_three_machine_optimal"]


def solve_three_machine_optimal(sigma: Permutation) -> PlanDocument:
    """Invert an even sigma in exactly lower_bound(sigma) 3-machine moves.

    Every move contains the outsider x1, support sets are pairwise
    distinct, and the plan seats exactly n + r insiders, meeting the lower
    bound with equality, which the document records.
    """
    plan = solve_m_machine(sigma, 3)
    return replace(plan, solver="optimal3", lower_bound=plan.steps)
