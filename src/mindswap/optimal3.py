"""The optimal 3-machine solver: ``machine.solve_m_machine`` at m = 3, recorded
under solver "optimal3".  ``machine.lower_bound`` proves its (n + r) / 2 moves
the fewest for n moved insiders in r cycles.  No module in the package
imports it: ``mindswap solve --m 3`` calls ``solve_m_machine`` itself.  The
module stays because ``bench/workloads.py`` imports both of its names.
"""

from __future__ import annotations

from dataclasses import replace

from .machine import lower_bound, solve_m_machine
from .perm import Permutation
from .plandoc import PlanDocument

__all__ = ["lower_bound", "solve_three_machine_optimal"]


def solve_three_machine_optimal(sigma: Permutation) -> PlanDocument:
    """solve_m_machine(sigma, 3) with its solver field set to "optimal3"."""
    return replace(solve_m_machine(sigma, 3), solver="optimal3")
