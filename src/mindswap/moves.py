"""The name of a machine move's type.

A machine move is one use of an m-machine: the tuple of the people seated,
whose cycle sends each seat to the next.  Solvers and the oracle give each
move least seat first, ``oracle.verify_plan`` checks any move and
``perm.plan_product`` composes a plan.  No module of the package imports
this one; it keeps the name for code that annotates with it.  The alias is
a string, so calling it fails: no call builds an unchecked move.
"""

from typing import TypeAlias

from .perm import Element

MachineMove: TypeAlias = "tuple[Element, ...]"
