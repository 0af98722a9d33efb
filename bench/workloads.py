"""The benchmark's workloads: seeded inputs, op pipelines and correctness gates.

Each workload yields its ops in blocks.  A block is the smallest run of ops
whose mix of input kinds is the same in every block, so a run that stops on
a block boundary measures the same mix whatever its length or seed.  The
inputs come from the benchmark's own generator; mindswap receives only the
target text and a RuleSet the benchmark builds from the workload
definition, never rules read back from a plan document.

A pipeline calls mindswap's public functions inside tracer spans named
after the module and function; the gate that checks its outputs runs after
the op has been timed.  A gate returns None for a correct op, else the
reason it failed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from mindswap import infinite, keeler, machine, optimal3, plandoc
from mindswap.moves import MachineMove
from mindswap.oracle import RuleSet, VerificationReport, search_min_plan, verify_plan
from mindswap.perm import Permutation, format_cycles, insider, outsider, parse_cycles

Images = dict[int, int]
"""A target as the benchmark holds it: insider index -> image index."""


# -- the benchmark's own permutation arithmetic ------------------------------


def cycles_of(images: Images) -> list[list[int]]:
    """Nontrivial cycles, each led by its least index, sorted by leader."""
    seen: set[int] = set()
    cycles = []
    for start in sorted(images):
        if start in seen or images[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        cur = images[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = images[cur]
        cycles.append(cycle)
    return cycles


def cycle_text(cycles: list[list[int]]) -> str:
    return "".join("(" + " ".join(f"a{i}" for i in c) + ")" for c in cycles)


def is_even(images: Images) -> bool:
    return sum(len(c) - 1 for c in cycles_of(images)) % 2 == 0


def random_images(rng: random.Random, n: int, even: bool) -> Images:
    """A uniform non-identity permutation of 1..n, made even when asked."""
    while True:
        shuffled = list(range(1, n + 1))
        rng.shuffle(shuffled)
        images = dict(zip(range(1, n + 1), shuffled))
        if even and not is_even(images):
            images[1], images[2] = images[2], images[1]
        if any(i != v for i, v in images.items()):
            return images


def scramble_history(rng: random.Random, n: int, swaps: int) -> tuple[str, Images]:
    """A product of random overlapping transpositions, and what it composes to.

    The written product acts right to left, so the last transposition is
    applied first.
    """
    pairs = [rng.sample(range(1, n + 1), 2) for _ in range(swaps)]
    images = {i: i for i in range(1, n + 1)}
    preimage = dict(images)
    for a, b in reversed(pairs):
        ea, eb = preimage[a], preimage[b]
        images[ea], images[eb] = b, a
        preimage[a], preimage[b] = eb, ea
    return "".join(f"(a{a} a{b})" for a, b in pairs), images


def matches(target: Permutation, images: Images) -> bool:
    """Whether mindswap's permutation is the one the benchmark generated."""
    moved = sum(1 for i, v in images.items() if i != v)
    return len(target.support()) == moved and all(
        target(insider(i)).index == v for i, v in images.items() if i != v
    )


# -- solve -> dumps -> loads -> verify ---------------------------------------


@dataclass(frozen=True)
class Solver:
    name: str
    m: int
    span: str
    solve: Callable[[Permutation], object]
    pool: tuple
    rules: RuleSet


def _solver(name: str, m: int, d: int, span: str, solve: Callable) -> Solver:
    pool = tuple(outsider(i) for i in range(1, d + 1))
    return Solver(name, m, span, solve, pool, RuleSet(m=m, outsiders=pool))


SOLVERS = {
    s.name: s
    for s in (
        _solver("keeler2", 2, 2, "keeler.solve_two_machine", keeler.solve_two_machine),
        _solver(
            "optimal3", 3, 1, "optimal3.solve_three_machine_optimal",
            optimal3.solve_three_machine_optimal,
        ),
        _solver("general_m4", 4, 3, "machine.solve_m_machine", lambda t: machine.solve_m_machine(t, 4)),
        _solver("general_m5", 5, 3, "machine.solve_m_machine", lambda t: machine.solve_m_machine(t, 5)),
    )
}
SOLVER_ORDER = tuple(SOLVERS)


@dataclass(frozen=True)
class SolveCase:
    text: str
    images: Images
    solver: str
    tamper: str | None = None
    """None, "drop" (one move removed) or "repeat" (one move used twice)."""
    pick: float = 0.0
    """Which move is tampered with, as a share of the plan length."""


@dataclass
class SolveResult:
    target: Permutation
    moves: tuple[MachineMove, ...]
    loaded: Permutation
    report: VerificationReport
    composite_ok: bool | None = None
    swap_kinds: list[str] | None = None


def tampered(moves: tuple[MachineMove, ...], case: SolveCase) -> tuple[MachineMove, ...]:
    if case.tamper is None:
        return moves
    i = int(case.pick * len(moves))
    if case.tamper == "drop":
        return moves[:i] + moves[i + 1 :]
    return moves[: i + 1] + moves[i:]


def solve_verify(case: SolveCase, tr, with_infinite: bool) -> SolveResult:
    """`mindswap solve | mindswap verify`, and optionally `mindswap infinite finitary2`."""
    solver = SOLVERS[case.solver]
    with tr.span("perm.parse_cycles"):
        target = parse_cycles(case.text)
    tr.add("perm.parse_cycles.factors", case.text.count("("))
    with tr.span(solver.span):
        plan = solver.solve(target)
    tr.add(solver.span + ".moves", len(plan.moves))
    moves = tampered(plan.moves, case)
    with tr.span("perm.format_cycles"):
        target_text = format_cycles(target)
    with tr.span("plandoc.dumps"):
        doc = plandoc.PlanDocument(
            m=solver.m, target=target_text, outsiders=solver.pool, moves=moves, solver=solver.name
        )
        text = plandoc.dumps(doc)
    tr.add("plandoc.dumps.bytes", len(text))
    with tr.span("plandoc.loads"):
        loaded_doc = plandoc.loads(text)
    tr.add("plandoc.loads.bytes", len(text))
    with tr.span("perm.parse_cycles"):
        loaded = parse_cycles(loaded_doc.target)
    tr.add("perm.parse_cycles.factors", loaded_doc.target.count("("))
    with tr.span("oracle.verify_plan"):
        report = verify_plan(loaded, list(loaded_doc.moves), solver.rules)
    tr.add("oracle.verify_plan.moves", len(loaded_doc.moves))
    tr.add("oracle.verify_plan.rejected", not report.clean)
    result = SolveResult(target, plan.moves, loaded, report)
    if with_infinite:
        with tr.span("infinite.invert_finitary_two_step"):
            swaps = infinite.invert_finitary_two_step(target)
        # The composition check of `mindswap infinite finitary2`.
        with tr.span("infinite.compose_all"):
            expected = infinite.finitary_extension(target.inverse())
            result.composite_ok = infinite.compose_all(swaps) == expected
        tr.add("infinite.compose_all.swaps", len(swaps))
        with tr.span("infinite.render"):
            result.swap_kinds = [infinite.classify(s) for s in swaps]
            for swap in swaps:
                infinite.step_table(swap, 4)
                infinite.cycle_string(swap, 4)
    return result


def keeler_steps(images: Images) -> int:
    """The paper's 2-machine count: k + 2 per k-cycle, plus one when the cycle count is odd."""
    cycles = cycles_of(images)
    return sum(len(c) + 2 for c in cycles) + len(cycles) % 2


def check_solve(case: SolveCase, out: SolveResult) -> str | None:
    if not matches(out.target, case.images):
        return "parse_cycles returned the wrong permutation"
    if out.loaded != out.target:
        return "the target changed across dumps and loads"
    report, steps = out.report, len(out.moves)
    kinds = {kind for _, kind in report.rule_violations}
    if case.tamper is None:
        if not (report.clean and report.product_ok):
            return f"clean plan rejected: product_ok={report.product_ok} violations={sorted(kinds)}"
        if report.step_count != steps:
            return f"verifier counted {report.step_count} steps of {steps}"
        if case.solver == "keeler2" and steps != keeler_steps(case.images):
            return f"keeler2 took {steps} moves, expected {keeler_steps(case.images)}"
        if case.solver == "optimal3" and steps != optimal3.lower_bound(out.target):
            return f"optimal3 took {steps} moves, lower bound {optimal3.lower_bound(out.target)}"
    elif case.tamper == "drop":
        if report.clean or report.product_ok or report.step_count != steps - 1:
            return "a plan with a dropped move was not rejected on its product"
    elif report.clean or "duplicate-support" not in kinds or report.step_count != steps + 1:
        return "a plan with a repeated move was not rejected as duplicate-support"
    if out.composite_ok is False:
        return "infinite composite differs from finitary_extension of the inverse"
    if out.swap_kinds is not None and out.swap_kinds != [infinite.FORGETFUL, infinite.RETENTIVE]:
        return f"infinite swaps classified {out.swap_kinds}"
    return None


# -- oracle certification ----------------------------------------------------


@dataclass(frozen=True)
class SearchCase:
    text: str
    images: Images
    rules: RuleSet
    max_steps: int
    minimum: int
    """The target's minimal plan length; a search with a smaller limit must refute."""


@dataclass
class SearchResult:
    target: Permutation
    plan: list[MachineMove] | None
    report: VerificationReport | None


CORPUS = (
    # (cycle type, m, d, also refuted at minimum - 1)
    ((2, 2, 3), 3, 1, True),
    ((3, 3), 3, 1, True),
    ((7,), 3, 1, False),
    ((2, 2), 2, 2, False),
    ((4,), 2, 2, True),
    ((5,), 2, 2, False),
    ((3,), 4, 3, True),
    ((3,), 5, 3, True),
)

MINIMUM = {
    # Minimal plan lengths search_min_plan found when this table was written,
    # for every corpus entry that optimal3.lower_bound does not cover (m != 3).
    ((2, 2), 2, 2): 8,
    ((4,), 2, 2): 7,
    ((5,), 2, 2): 8,
    ((3,), 4, 3): 2,
    ((3,), 5, 3): 2,
}


def corpus_minimum(shape: tuple[int, ...], m: int, d: int) -> int:
    if m == 3:
        return (sum(shape) + len(shape)) // 2
    return MINIMUM[shape, m, d]


def shuffled_target(rng: random.Random, shape: tuple[int, ...]) -> tuple[str, Images]:
    labels = list(range(1, sum(shape) + 1))
    rng.shuffle(labels)
    images = {i: i for i in labels}
    cycles = []
    for k in shape:
        cycle, labels = labels[:k], labels[k:]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        cycles.append(cycle)
    return cycle_text(cycles), images


def certify(case: SearchCase, tr) -> SearchResult:
    """`mindswap oracle`, which prints the plan it found, then verification of that plan."""
    with tr.span("perm.parse_cycles"):
        target = parse_cycles(case.text)
    tr.add("perm.parse_cycles.factors", case.text.count("("))
    with tr.span("oracle.search_min_plan"):
        plan = search_min_plan(target, case.rules, case.max_steps)
    if plan is None:
        tr.add("oracle.search_min_plan.refuted")
        return SearchResult(target, None, None)
    tr.add("oracle.search_min_plan.found")
    tr.add("oracle.search_min_plan.plan_steps", len(plan))
    with tr.span("perm.format_cycles"):
        target_text = format_cycles(target)
    with tr.span("plandoc.dumps"):
        doc = plandoc.PlanDocument(
            m=case.rules.m, target=target_text, outsiders=case.rules.outsiders,
            moves=tuple(plan), solver="oracle",
        )
        text = plandoc.dumps(doc)
    tr.add("plandoc.dumps.bytes", len(text))
    with tr.span("oracle.verify_plan"):
        report = verify_plan(target, plan, case.rules)
    tr.add("oracle.verify_plan.moves", len(plan))
    tr.add("oracle.verify_plan.rejected", not report.clean)
    return SearchResult(target, plan, report)


def check_certify(case: SearchCase, out: SearchResult) -> str | None:
    if not matches(out.target, case.images):
        return "parse_cycles returned the wrong permutation"
    if case.max_steps < case.minimum:
        return None if out.plan is None else f"found {len(out.plan)} steps below the minimum"
    if out.plan is None:
        return f"no plan within the minimum of {case.minimum} steps"
    if len(out.plan) != case.minimum:
        return f"plan of {len(out.plan)} steps, minimum is {case.minimum}"
    if case.rules.m == 3 and len(out.plan) != optimal3.lower_bound(out.target):
        return "minimal plan length differs from optimal3.lower_bound"
    if case.rules.m == 2 and len(out.plan) > len(keeler.solve_two_machine(out.target).moves):
        return "the oracle minimum exceeds the keeler2 plan length"
    if not out.report.clean:
        return f"oracle plan failed verification: {out.report.rule_violations[:3]}"
    return None


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: Callable[[random.Random], Iterator[list]]
    pipeline: Callable
    check: Callable
    trace_blocks: int
    """Blocks a traced pass replays; fixed, so its counts repeat exactly."""
    block_is_op: bool = False
    """Whether end-to-end metrics count a whole block as one op."""


LARGE_N = 500
HISTORY_SWAPS = 500


def large_blocks(rng: random.Random) -> Iterator[list[SolveCase]]:
    """Twelve ops per block: every solver on two canonical targets and one history.

    Canonical cycle text and scramble histories interleave two to one, so
    the median op is a canonical one and the 90th percentile a history,
    each inside a cluster of like ops rather than in the gap between the
    two kinds.  Every 4th plan is tampered with, dropped moves on canonical
    inputs and repeated moves on histories; the tampered positions rotate
    by block, so over four blocks every solver meets both tamperings.
    """
    for b in itertools.count():
        block = []
        for j in range(12):
            solver = SOLVER_ORDER[j % 4]
            history = j % 3 == 1
            if history:
                text, images = scramble_history(rng, LARGE_N, HISTORY_SWAPS)
            else:
                images = random_images(rng, LARGE_N, even=SOLVERS[solver].m % 2 == 1)
                text = cycle_text(cycles_of(images))
            tamper = None
            if j % 4 == (j // 4 + b) % 4:
                tamper = "repeat" if history else "drop"
            block.append(SolveCase(text, images, solver, tamper, rng.random()))
        yield block


def small_blocks(rng: random.Random) -> Iterator[list[SolveCase]]:
    """One op per solver on fresh targets of 4-24 insiders with any cycle type."""
    while True:
        block = []
        for solver in SOLVER_ORDER:
            n = rng.randint(4, 24)
            images = random_images(rng, n, even=SOLVERS[solver].m % 2 == 1)
            block.append(SolveCase(cycle_text(cycles_of(images)), images, solver))
        yield block


def oracle_blocks(rng: random.Random) -> Iterator[list[SearchCase]]:
    """One pass over the corpus per block, insider labels reshuffled."""
    while True:
        searches = []
        for shape, m, d, refute in CORPUS:
            text, images = shuffled_target(rng, shape)
            rules = RuleSet(m=m, outsiders=tuple(outsider(i) for i in range(1, d + 1)))
            minimum = corpus_minimum(shape, m, d)
            searches.append(SearchCase(text, images, rules, minimum, minimum))
            if refute:
                searches.append(SearchCase(text, images, rules, minimum - 1, minimum))
        yield searches


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "large_targets", large_blocks,
            lambda case, tr: solve_verify(case, tr, with_infinite=False), check_solve, 1,
        ),
        Workload(
            "small_targets", small_blocks,
            lambda case, tr: solve_verify(case, tr, with_infinite=True), check_solve, 125,
        ),
        # The searches of one pass differ in cost by two orders of magnitude,
        # so the reported op is the pass, whose time is steady across seeds.
        Workload("oracle_certify", oracle_blocks, certify, check_certify, 1, block_is_op=True),
    )
}
