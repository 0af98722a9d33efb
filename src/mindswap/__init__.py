"""Mind-swap machine inversion toolkit.

Solvers for the 2-machine and for every m-machine (m >= 3, optimal) under
the distinct-seat-set rule, a brute-force optimality oracle, and symbolic
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
    plan_product,
)
from .keeler import solve_two_machine
from .machine import lower_bound, solve_m_machine
from .oracle import (
    OracleBudgetError,
    RuleSet,
    VerificationReport,
    search_min_plan,
    verify_plan,
)

__all__ = [
    "Element",
    "OracleBudgetError",
    "ParseError",
    "Permutation",
    "RuleSet",
    "VerificationReport",
    "format_cycles",
    "insider",
    "lower_bound",
    "outsider",
    "parse_cycles",
    "plan_product",
    "search_min_plan",
    "solve_m_machine",
    "solve_two_machine",
    "verify_plan",
]
