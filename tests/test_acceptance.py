"""Acceptance suite: one test per criterion, each printing a PASS line.

All algebra is exact, so every comparison is exact equality; runtime
bounds are asserted with perf_counter.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
import time

from mindswap.infinite import (
    FORGETFUL,
    RETENTIVE,
    classify,
    compose,
    compose_all,
    finitary_extension,
    invert_finitary_two_step,
    invert_shift_three_step,
    inverse_shift_map,
    TailMap,
    TailRule,
)
from mindswap.keeler import cycle_gadget, solve_two_machine
from mindswap.machine import lower_bound, solve_m_machine
from mindswap.optimal3 import solve_three_machine_optimal
from mindswap.oracle import RuleSet, search_min_plan, verify_plan
from mindswap.perm import Permutation, insider, outsider, parse_cycles, plan_product

from conftest import (
    duplicate_supports,
    generator_identity_check,
    permutation_from_images,
    random_cycle,
    random_permutation,
)


def report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_keeler_base_case():
    solve_two_machine(parse_cycles("(3 4)"))  # warm-up
    start = time.perf_counter()
    plan = solve_two_machine(parse_cycles("(1 2)"))
    elapsed = time.perf_counter() - start
    x, y = outsider(1), outsider(2)
    expected = [
        (insider(1), x),
        (insider(2), y),
        (insider(1), y),
        (insider(2), x),
        (x, y),
    ]
    assert list(plan.moves) == expected
    rules = RuleSet(m=2, outsiders=(x, y))
    assert verify_plan(parse_cycles("(1 2)"), list(plan.moves), rules).clean
    assert elapsed < 0.001
    report(1, f"base-case plan is the exact 5-swap solution ({elapsed * 1e6:.0f} us)")


def test_criterion_2_keeler_single_cycle_counts():
    start = time.perf_counter()
    for k in range(2, 13):
        sigma = plan_product([[insider(i) for i in range(1, k + 1)]])
        plan = solve_two_machine(sigma)
        assert len(plan.moves) == k + 3
        assert plan_product(plan.moves) == sigma.inverse()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"single k-cycles solve in exactly k+3 swaps, k=2..12 ({elapsed:.3f} s)")


def test_criterion_3_cycle_gadget_identity():
    rng = random.Random(2024)
    x, y = outsider(1), outsider(2)
    swap = plan_product([(x, y)])
    for _ in range(200):
        k = rng.randint(2, 10)
        tau = random_cycle(rng, k, 12)
        gadget = cycle_gadget(tau, x, y)
        assert plan_product(reversed(gadget)) * plan_product([tau]) == swap
    report(3, "gadget times its cycle equals (x1 x2) on 200 random cycles")


def test_criterion_4_m_machine_soundness():
    start = time.perf_counter()
    for m in (3, 4, 5, 6):
        rng = random.Random(40 + m)
        cap = m - 2 if m % 2 else 3 * (m // 2 - 1)
        for _ in range(300):
            sigma = random_permutation(rng, rng.randint(0, 8))
            while m % 2 and sigma.parity():
                sigma = random_permutation(rng, rng.randint(0, 8))
            plan = solve_m_machine(sigma, m)
            assert plan.steps == lower_bound(sigma, m)
            assert len(plan.outsiders) <= cap
            assert plan_product(plan.moves) == sigma.inverse()
            assert all(len(mv) == m for mv in plan.moves)
            assert not duplicate_supports(plan.moves)
            assert all(any(s.is_outsider for s in mv) for mv in plan.moves)
            used = {s for mv in plan.moves for s in mv if s.is_outsider}
            assert used <= set(plan.outsiders)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"m in 3..6, 300 random targets each: plans sound and at the bound ({elapsed:.2f} s)")


def test_criterion_5_even_m_transposition_fix():
    for m in (4, 6, 8):
        plan = solve_m_machine(parse_cycles("(1 2)"), m)
        assert plan.steps == 3
        assert plan_product(plan.moves) == parse_cycles("(1 2)")
        assert not duplicate_supports(plan.moves)
    report(5, "(1 2) takes exactly three moves for m in {4, 6, 8}")


def test_criterion_6_generator_identity():
    for m in (4, 6, 8):
        assert generator_identity_check(m)
    report(6, "even-machine generator identities collapse to (x1 x2) for m in {4, 6, 8}")


def _even_cycle_types(n):
    """Partitions of n into parts >= 2 whose permutations are even."""

    def parts(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            if remaining - first in (1,):
                continue
            for rest in parts(remaining - first, first):
                yield (first,) + rest

    for shape in parts(n, 2):
        if sum(k - 1 for k in shape) % 2 == 0:
            yield shape


def _permutation_of_type(shape):
    cycles = []
    next_index = 1
    for k in shape:
        cycles.append([insider(i) for i in range(next_index, next_index + k)])
        next_index += k
    p = Permutation.identity()
    for cycle in cycles:
        p = plan_product([cycle]) * p
    return p


def test_criterion_7_optimal3_exact_counts():
    start = time.perf_counter()
    checked = 0
    for n in range(0, 10):
        for shape in _even_cycle_types(n):
            sigma = _permutation_of_type(shape)
            r = len(shape)
            plan = solve_three_machine_optimal(sigma)
            assert plan.steps == (n + r) // 2 == lower_bound(sigma)
            assert sum(not s.is_outsider for mv in plan.moves for s in mv) == n + r
            assert plan_product(plan.moves) == sigma.inverse()
            assert not duplicate_supports(plan.moves)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(7, f"optimal-3 hits (n+r)/2 on all {checked} cycle types, n<=9 ({elapsed:.2f} s)")


def test_criterion_8_optimality_certification():
    start = time.perf_counter()
    checked = 0
    for images in itertools.permutations(range(1, 6)):
        sigma = permutation_from_images(list(images))
        if sigma.parity() != 0:
            continue
        n = len(sigma.support())
        r = len(sigma.cycles)
        for d in (1, 2):
            pool = tuple(outsider(i) for i in range(1, d + 1))
            plan = search_min_plan(sigma, RuleSet(m=3, outsiders=pool), max_steps=4)
            assert plan is not None
            assert len(plan) == (n + r) // 2
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        8,
        f"exhaustive search matches (n+r)/2 on {checked} (target, d) pairs ({elapsed:.1f} s)",
    )


def test_criterion_9_two_machine_minimality():
    start = time.perf_counter()
    pool = (outsider(1), outsider(2))
    plan = search_min_plan(parse_cycles("(1 2)"), RuleSet(m=2, outsiders=pool), max_steps=6)
    elapsed = time.perf_counter() - start
    assert plan is not None and len(plan) == 5
    assert elapsed < 1.0
    report(9, f"5 swaps is minimal for one transposition with 2 outsiders ({elapsed:.3f} s)")


def test_criterion_10_infinite_machine():
    start = time.perf_counter()
    steps = invert_shift_three_step()
    composite = compose(steps[2], compose(steps[1], steps[0]))
    assert composite == inverse_shift_map()
    assert [classify(f) for f in steps] == [RETENTIVE, FORGETFUL, RETENTIVE]
    assert len({f.participants() for f in steps}) == 3

    rng = random.Random(777)
    checked = 0
    while checked < 200:
        sigma = random_permutation(rng, rng.randint(2, 12))
        if not sigma:
            continue
        swaps = invert_finitary_two_step(sigma)
        assert len(swaps) == 2
        assert [classify(f) for f in swaps] == [FORGETFUL, RETENTIVE]
        assert swaps[0].participants() != swaps[1].participants()
        assert compose_all(swaps) == finitary_extension(sigma.inverse())
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(10, f"3-step shift inverse exact; 200 finitary targets in 2 swaps ({elapsed:.2f} s)")


def test_criterion_11_worked_finitary_example():
    swaps = invert_finitary_two_step(parse_cycles("(a1 a2)(a3 a4 a5)"))
    z = "z"
    a = insider
    printed_step1 = TailMap(
        {a(1): a(2), a(2): z, z: a(5), a(5): a(4), a(4): a(3), a(3): a(6)},
        TailRule(6, +1),
    )
    printed_step2 = TailMap({z: a(1), a(5): z}, TailRule(6, -1))
    assert swaps == [printed_step1, printed_step2]
    report(11, "worked two-step example reproduces the printed solution exactly")
