"""The 2-machine solver's old name, kept because ``bench/workloads.py`` imports
it: ``solve_two_machine(sigma)`` is ``machine.solve_m_machine(sigma, 2)``.
No module in the package imports this one."""

from __future__ import annotations

from .machine import solve_m_machine
from .perm import Permutation
from .plandoc import PlanDocument


def solve_two_machine(sigma: Permutation) -> PlanDocument:
    """solve_m_machine(sigma, 2): sigma's inverse in n + 2r + [r odd] distinct swaps."""
    return solve_m_machine(sigma, 2)
