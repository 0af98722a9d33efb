"""Mind-swap machine inversion toolkit.

Solvers for the 2-machine, general m-machines under the distinct-seat-set
rule, the optimal 3-machine, a brute-force optimality oracle, and symbolic
algebra for the countably infinite machine.  Every solver returns a
``plandoc.PlanDocument``.
"""

from .perm import (
    Element,
    ParseError,
    Permutation,
    format_cycles,
    insider,
    outsider,
    parse_cycles,
)
from .moves import MachineMove, plan_product
from .keeler import solve_two_machine
from .machine import in_machine_group, outsider_budget, solve_m_machine
from .optimal3 import lower_bound, solve_three_machine_optimal
from .oracle import (
    OracleBudgetError,
    RuleSet,
    VerificationReport,
    search_min_plan,
    verify_plan,
)

__all__ = [
    "Element",
    "MachineMove",
    "OracleBudgetError",
    "ParseError",
    "Permutation",
    "RuleSet",
    "VerificationReport",
    "format_cycles",
    "in_machine_group",
    "insider",
    "lower_bound",
    "outsider",
    "outsider_budget",
    "parse_cycles",
    "plan_product",
    "search_min_plan",
    "solve_m_machine",
    "solve_three_machine_optimal",
    "solve_two_machine",
    "verify_plan",
]
