import random
from typing import Iterable, Sequence

from mindswap.infinite import TailMap, TailRule
from mindswap.machine import least_first
from mindswap.oracle import RuleSet, VerificationReport, verify_plan
from mindswap.perm import Element, Permutation, insider, outsider, plan_product


def permutation_from_images(images: list[int]) -> Permutation:
    """Permutation sending insider i+1 to insider images[i]."""
    return Permutation({insider(i + 1): insider(images[i]) for i in range(len(images))})


def random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return permutation_from_images(images)


def random_even_permutation(rng: random.Random, n: int) -> Permutation:
    while True:
        p = random_permutation(rng, n)
        if p.parity() == 0:
            return p


def random_cycle(rng: random.Random, k: int, universe: int) -> tuple:
    picks = rng.sample(range(1, universe + 1), k)
    return tuple(insider(i) for i in picks)


def move(*seats: Element) -> tuple[Element, ...]:
    """The move seating these people, least seat first, as the solvers write it."""
    return least_first(seats)


def move_text(move: Sequence[Element]) -> str:
    """A move's seats as written, "(a1 x1)": the cycle notation of its one cycle."""
    return "(" + " ".join(map(str, move)) + ")"


def duplicate_supports(moves) -> list[int]:
    """Indices of moves that verify_plan flags as duplicate-support.

    Only that rule's verdict is read; the other rules and the product do
    not matter here.
    """
    rules = RuleSet(m=2, outsiders=(), require_outsider_per_move=False)
    report = verify_plan(Permutation.identity(), list(moves), rules)
    return [i for i, kind in report.rule_violations if kind == "duplicate-support"]


def generator_identity_check(m: int) -> bool:
    """Self-test that even machines generate every transposition.

    Verifies by direct composition that two m-cycles collapse to an
    (m-1)-cycle and that a third m-cycle reduces that to the bare swap
    (x y) on x1, x2 and insiders a1..a(m-2).  Returns True when both
    identities hold.
    """
    if m % 2 or m < 4:
        raise ValueError("machine size must be even and at least 4")
    x, y = outsider(1), outsider(2)
    a = tuple(insider(i) for i in range(1, m - 1))
    evens = a[1::2]
    odds = a[0::2]
    g1 = plan_product([(y, a[0], x) + a[1:]])
    g2 = plan_product([(y, x) + a])
    collapsed = plan_product([(y,) + evens + odds])
    first = g1 * g2 == collapsed
    g3 = plan_product([(x, y) + tuple(reversed(odds)) + tuple(reversed(evens))])
    second = g3 * collapsed == plan_product([(x, y)])
    return first and second


def forward_shift() -> TailMap:
    """The scramble the infinite machine undoes: every stream point moves up by one."""
    return TailMap({}, TailRule(1, +1))


def cycle_as_two_swaps(order: Sequence[int]) -> list[TailMap]:
    """Produce the cycle over the first n stream points in two swaps.

    Chronologically [forgetful, retentive]: the first swap performs the
    cycle and bumps the rest of the stream up by one, the second pulls the
    bumped tail back down.  The composite is the cycle extended by the
    identity, total on the stream, and the participant sets differ.
    """
    n = len(order)
    if n < 1:
        raise ValueError("need at least one point")
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError("order must arrange the first n stream points")
    cycle = {insider(order[i]): insider(order[(i + 1) % n]) for i in range(n)}
    bump = TailMap(cycle, TailRule(n + 1, +1))
    pull_back = TailMap({}, TailRule(n + 2, -1))
    return [bump, pull_back]


def checked_compose_cycles(cycles: Iterable[Sequence[Element]]) -> Permutation:
    """The product of cycles in acting order, built through Permutation's
    bijection check, which raises ValueError when the fold is not one."""
    preimage: dict[Element, Element] = {}
    for cycle in cycles:
        sources = [preimage.get(y, y) for y in cycle]
        preimage.update(zip(cycle[1:] + cycle[:1], sources))
    return Permutation({x: y for y, x in preimage.items()})


def reference_verify_plan(
    target: Permutation,
    plan: list[tuple[Element, ...]],
    rules: RuleSet,
    product=checked_compose_cycles,
) -> VerificationReport:
    """The verifier that re-read each move per rule and built both sides of
    the product check as permutations.  product is its plan product; it
    has none for a move that seats one element twice."""
    violations: list[tuple[int, str]] = []
    pool = set(rules.outsiders)
    for i, move in enumerate(plan):
        if len(move) != rules.m:
            violations.append((i, "seat-count"))
        if rules.require_outsider_per_move and not any(s.is_outsider for s in move):
            violations.append((i, "missing-outsider"))
        elif any(s.is_outsider and s not in pool for s in move):
            violations.append((i, "unknown-outsider"))
    if rules.require_distinct_supports:
        seen: set[frozenset[Element]] = set()
        for i, move in enumerate(plan):
            support = frozenset(move)
            if support in seen:
                violations.append((i, "duplicate-support"))
            seen.add(support)
    product_ok = product(plan) == target.inverse()
    return VerificationReport(product_ok, violations, len(plan))


RANK = {"seat-count": 0, "repeated-seat": 1}


def expected_report(
    target: Permutation, plan: list, rules: RuleSet
) -> tuple[bool, list[tuple[int, str]], int]:
    """(product_ok, rule_violations, step_count) that verify_plan must give.

    They are reference_verify_plan's, except that a move seating one
    element twice is reported as repeated-seat, after its seat-count and
    before its outsider kind, and leaves product_ok false: the reference's
    product of such a move raises or comes out as some other permutation.
    """
    repeated = [i for i, move in enumerate(plan) if len(set(move)) != len(move)]
    if not repeated:
        want = reference_verify_plan(target, plan, rules)
        return want.product_ok, want.rule_violations, want.step_count
    want = reference_verify_plan(target, plan, rules, product=lambda moves: None)
    per_move = [v for v in want.rule_violations if v[1] != "duplicate-support"]
    per_move += [(i, "repeated-seat") for i in repeated]
    per_move.sort(key=lambda v: (v[0], RANK.get(v[1], 2)))
    duplicates = [v for v in want.rule_violations if v[1] == "duplicate-support"]
    return False, per_move + duplicates, len(plan)
