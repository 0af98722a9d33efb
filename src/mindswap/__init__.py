"""Mind-swap machine inversion toolkit.

``solve_m_machine(sigma, m)`` solves every m-machine under the distinct-seat-set
rule: Keeler's sweep at m = 2, optimal at m >= 3.  Beside it, a brute-force
optimality oracle and symbolic algebra for the countably infinite machine.
Every plan is a ``plandoc.PlanDocument``.
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
    "verify_plan",
]
