"""Plan documents: the on-disk text format for machine plans.

A document is line-oriented with a fixed field order so diffs stay stable:

    mindswap-plan v1
    machine-size: 3
    target: (a1 a2 a3)
    outsiders: x1
    solver: general_m         # optional
    steps: 2
    lower-bound: 2            # optional
    moves:
      a1 x1 a2
      a2 x1 a3

Move lines list seats chronologically, one machine use per line, and read
back as written.  A field other than those above, or one given twice, is
an error.  Serialization normalizes in one pass: loading a canonical
document and dumping it again is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracle import RuleSet
from .perm import Element, Permutation, _labels, _natural, _parse_cycles, _read_tokens

HEADER = "mindswap-plan v1"
_FIELDS = ("machine-size", "target", "outsiders", "solver", "steps", "lower-bound")


class PlanFormatError(ValueError):
    """Raised for malformed plan documents."""


@dataclass(frozen=True)
class PlanDocument:
    """A plan: the package's one record for solver output and plan files.

    ``target`` is canonical cycle text (``format_cycles`` output); it is
    only re-parsed by ``loads``, where text enters from outside.  Solvers
    fill every field, with each move a plain seat tuple, least seat first;
    ``loads`` gives each move as its seat tuple as written.  ``lower_bound``
    is set by ``solve_m_machine`` at m >= 3, which meets it, and left
    ``None`` at m = 2 (keeler2).  The record refuses only what could not be
    checked or read back: a machine size and pool that ``RuleSet`` refuses,
    a ``target`` or ``solver`` not one line without outer whitespace, a
    bound that is not an integer or is negative, and an empty move.
    Seat counts, repeats and false bounds are the verifier's to report.
    """

    m: int
    target: str
    outsiders: tuple[Element, ...]
    moves: tuple[tuple[Element, ...], ...]
    solver: str | None = None
    lower_bound: int | None = None

    def __post_init__(self) -> None:
        try:
            RuleSet(self.m, self.outsiders, require_outsider_per_move=False)
        except ValueError as err:
            raise PlanFormatError(str(err)) from err
        for key, text in (("target", self.target), ("solver", self.solver or "")):
            if text != text.strip() or len(text.splitlines()) > 1:
                raise PlanFormatError(f"{key} {text!r} is not one line without outer whitespace")
        bound = self.lower_bound
        if bound is not None and (not isinstance(bound, int) or isinstance(bound, bool)):
            raise PlanFormatError(f"lower bound must be an integer, got {bound!r}")
        if bound is not None and bound < 0:
            raise PlanFormatError(f"lower bound {bound} is negative")
        if () in self.moves:
            raise PlanFormatError(f"move {self.moves.index(())} has no seats")

    @property
    def steps(self) -> int:
        return len(self.moves)


def dumps(doc: PlanDocument) -> str:
    lines = [
        HEADER,
        f"machine-size: {doc.m}",
        f"target: {doc.target}",
        "outsiders: " + _labels(doc.outsiders),
    ]
    if doc.solver is not None:
        lines.append(f"solver: {doc.solver}")
    lines.append(f"steps: {doc.steps}")
    if doc.lower_bound is not None:
        lines.append(f"lower-bound: {doc.lower_bound}")
    lines.append("moves:")
    for move in doc.moves:
        lines.append("  " + _labels(move))
    return "\n".join(lines) + "\n"


def _number(fields: dict[str, str], key: str) -> int:
    value = _natural(fields[key])
    if value is None:
        raise PlanFormatError(f"malformed {key} {fields[key]!r}")
    return value


def loads(text: str) -> PlanDocument:
    return read(text)[0]


def read(text: str) -> tuple[PlanDocument, Permutation]:
    """The document in text, and the permutation its target field parsed to,
    so that a caller who needs both parses the target once."""
    lines = [line.rstrip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != HEADER:
        raise PlanFormatError(f"missing header line {HEADER!r}")
    body = lines[1:]
    cut = next((i for i, line in enumerate(body) if line.strip() == "moves:"), None)
    fields: dict[str, str] = {}
    for line in body[:cut]:
        key, sep, value = line.partition(":")
        if not sep:
            raise PlanFormatError(f"expected 'key: value', got {line!r}")
        key = key.strip()
        if key not in _FIELDS:
            raise PlanFormatError(f"unknown field {key!r}")
        if key in fields:
            raise PlanFormatError(f"repeated field {key!r}")
        fields[key] = value.strip()
    if cut is None:
        raise PlanFormatError("missing 'moves:' section")
    for required in ("machine-size", "target", "outsiders"):
        if required not in fields:
            raise PlanFormatError(f"missing required field {required!r}")
    try:
        m = _number(fields, "machine-size")
        lines = body[cut + 1 :]
        table = _read_tokens(" ".join([fields["outsiders"], *lines]).split())
        get = table.__getitem__
        outsiders = tuple(map(get, fields["outsiders"].split()))
        moves = tuple([tuple(map(get, line.split())) for line in lines])
        target = _parse_cycles(fields["target"], table)
        doc = PlanDocument(
            m=m,
            target=fields["target"],
            outsiders=outsiders,
            moves=moves,
            solver=fields.get("solver"),
            lower_bound=_number(fields, "lower-bound") if "lower-bound" in fields else None,
        )
        steps = _number(fields, "steps") if "steps" in fields else doc.steps
    except ValueError as err:
        raise PlanFormatError(str(err)) from err
    if steps != doc.steps:
        raise PlanFormatError(
            f"steps field says {fields['steps']} but document lists {doc.steps} moves"
        )
    return doc, target
