"""Byte-for-byte CLI output on a fixed set of commands.

``golden_cli.json`` holds the stdout, stderr and exit code of every command
in CASES.  When a change is meant to alter that output, regenerate the
fixture and review its diff:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from mindswap.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")

CLEAN_PLAN = """\
mindswap-plan v1
machine-size: 3
target: (a1 a2)(a3 a4)
outsiders: x1
solver: general_m
steps: 4
moves:
  a2 x1 a3
  a1 a3 x1
  a3 x1 a4
  a2 a4 x1
"""

DROPPED_MOVE_PLAN = """\
mindswap-plan v1
machine-size: 3
target: (a1 a2)(a3 a4)
outsiders: x1
moves:
  a2 x1 a3
  a3 x1 a4
  a2 a4 x1
"""

REPEATED_MOVE_PLAN = """\
mindswap-plan v1
machine-size: 3
target: (a1 a2)(a3 a4)
outsiders: x1
moves:
  a2 x1 a3
  a1 a3 x1
  a1 a3 x1
  a3 x1 a4
  a2 a4 x1
"""

NO_OUTSIDER_PLAN = """\
mindswap-plan v1
machine-size: 3
target: (a1 a2 a3)
outsiders: x1
moves:
  a1 a3 a2
"""

GENERAL_M4_PLAN = """\
mindswap-plan v1
machine-size: 4
target: (a1 a2 a3)(a4 a5 a6 a7)
outsiders: x1
solver: general_m
steps: 3
lower-bound: 3
moves:
  a1 a3 a4 x1
  a5 x1 a7 a6
  a1 x1 a4 a2
"""

UNKNOWN_OUTSIDER_PLAN = CLEAN_PLAN.replace("x1", "x2").replace("outsiders: x2", "outsiders: x1")

# CLEAN_PLAN with one fault that only the verifier judges
SEAT_COUNT_PLAN = CLEAN_PLAN.replace("  a1 a3 x1\n", "  a1 x1\n")
REPEATED_SEAT_PLAN = CLEAN_PLAN.replace("  a1 a3 x1\n", "  a1 a3 a1\n")
LOWER_BOUND_PLAN = CLEAN_PLAN.replace("steps: 4\n", "steps: 4\nlower-bound: 5\n")

# name -> (argv, stdin)
CASES: dict[str, tuple[list[str], str]] = {
    "solve-keeler2-transposition": (["solve", "--target", "(1 2)", "--m", "2"], ""),
    "solve-keeler2-two-cycles": (["solve", "--target", "(1 2 3)(4 5 6 7)", "--m", "2"], ""),
    "solve-general_m-m3-three-cycle": (["solve", "--target", "(1 2 3)", "--m", "3"], ""),
    "solve-general_m-m3": (["solve", "--target", "(1 2)(3 4)", "--m", "3"], ""),
    "solve-general_m-m4": (["solve", "--target", "(1 2 3)(4 5 6 7)", "--m", "4"], ""),
    "solve-general_m-m5": (["solve", "--target", "(1 2 3)", "--m", "5"], ""),
    "solve-general_m-empty-target": (["solve", "--target", "", "--m", "4"], ""),
    "solve-general_m-m5-odd-chain-and-even-pair": (
        ["solve", "--target", "(1 2 3 4 5 6 7)(8 9 10 11)(12 13)", "--m", "5"],
        "",
    ),
    "solve-general_m-m6-even-prefixes": (
        ["solve", "--target", "(1 2 3 4 5)(6 7 8 9)(10 11)", "--m", "6"],
        "",
    ),
    "solve-general_m-m4-odd-pair-and-leftover": (
        ["solve", "--target", "(1 2)(3 4)(5 6)", "--m", "4"],
        "",
    ),
    "solve-general_m-m7-mixed": (
        ["solve", "--target", "(1 2 3)(4 5)(6 7)(8 9 10 11 12)", "--m", "7"],
        "",
    ),
    "solve-general_m-m6-transposition": (["solve", "--target", "(1 2)", "--m", "6"], ""),
    "solve-general_m-m9-six-transpositions": (
        ["solve", "--target", "(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)", "--m", "9"],
        "",
    ),
    "solve-keeler2-odd-cycle-count": (
        ["solve", "--target", "(1 2 3 4 5)(6 7)(8 9 10)", "--m", "2"],
        "",
    ),
    "solve-general_m-odd-target": (["solve", "--target", "(1 2)", "--m", "3"], ""),
    "solve-outsider-in-target": (["solve", "--target", "(a1 x1)", "--m", "2"], ""),
    "solve-machine-size-1": (["solve", "--target", "(1 2)", "--m", "1"], ""),
    "solve-general_m-machine-size-above-cap": (
        ["solve", "--target", "(1 2)", "--m", "1000000000"],
        "",
    ),
    "solve-parse-error": (["solve", "--target", "(1 2", "--m", "2"], ""),
    "verify-clean": (["verify", "--plan", "-"], CLEAN_PLAN),
    "verify-dropped-move": (["verify", "--plan", "-"], DROPPED_MOVE_PLAN),
    "verify-repeated-move": (["verify", "--plan", "-"], REPEATED_MOVE_PLAN),
    "verify-repeated-move-no-distinct-rule": (
        ["verify", "--plan", "-", "--no-distinct-rule"],
        REPEATED_MOVE_PLAN,
    ),
    "verify-missing-outsider": (["verify", "--plan", "-"], NO_OUTSIDER_PLAN),
    "verify-no-outsider-rule": (["verify", "--plan", "-", "--no-outsider-rule"], NO_OUTSIDER_PLAN),
    "verify-unknown-outsider": (["verify", "--plan", "-"], UNKNOWN_OUTSIDER_PLAN),
    "verify-target-override": (
        ["verify", "--plan", "-", "--target", "(1 2)(3 5)"],
        CLEAN_PLAN,
    ),
    "verify-general_m-target-override": (
        ["verify", "--plan", "-", "--target", "(1 2 3)"],
        GENERAL_M4_PLAN,
    ),
    "verify-seat-count": (["verify", "--plan", "-"], SEAT_COUNT_PLAN),
    "verify-repeated-seat": (["verify", "--plan", "-"], REPEATED_SEAT_PLAN),
    "verify-lower-bound-above-steps": (["verify", "--plan", "-"], LOWER_BOUND_PLAN),
    "verify-missing-header": (["verify", "--plan", "-"], "machine-size: 3\n"),
    "verify-missing-plan-file": (["verify", "--plan", "/nonexistent/plan.txt"], ""),
    "oracle-found": (["oracle", "--target", "(1 2)(3 4)", "--m", "3", "--d", "1"], ""),
    "oracle-none-within-bound": (
        ["oracle", "--target", "(1 2)", "--m", "3", "--d", "1", "--max-steps", "3"],
        "",
    ),
    "oracle-budget-exceeded": (
        ["oracle", "--target", "(1 2 3 4 5)", "--m", "3", "--d", "2", "--node-budget", "5"],
        "",
    ),
    "oracle-negative-node-budget": (
        ["oracle", "--target", "(1 2)", "--m", "2", "--d", "2", "--node-budget", "-4"],
        "",
    ),
    "oracle-parse-error": (["oracle", "--target", "(1 2", "--m", "3"], ""),
    "oracle-outsider-in-target": (["oracle", "--target", "(a1 x1)", "--m", "3"], ""),
    "infinite-shift3": (["infinite", "shift3"], ""),
    "infinite-shift3-horizon1": (["infinite", "shift3", "--horizon", "1"], ""),
    "infinite-shift3-negative-horizon": (["infinite", "shift3", "--horizon", "-1"], ""),
    "infinite-shift3-sigma": (["infinite", "shift3", "--sigma", "(a1 a2)"], ""),
    "infinite-shift3-horizon-above-cap": (
        ["infinite", "shift3", "--horizon", "1000000000"],
        "",
    ),
    "infinite-finitary2-gaps": (
        ["infinite", "finitary2", "--sigma", "(a2 a5)(a7 a9 a8)", "--horizon", "2"],
        "",
    ),
    "infinite-finitary2": (["infinite", "finitary2", "--sigma", "(a1 a2)(a3 a4 a5)"], ""),
    "infinite-finitary2-empty": (["infinite", "finitary2", "--sigma", ""], ""),
    "infinite-finitary2-parse-error": (["infinite", "finitary2", "--sigma", "(a1 a2"], ""),
    "infinite-finitary2-index-above-cap": (
        ["infinite", "finitary2", "--sigma", "(a1 a100001)"],
        "",
    ),
}


def run_cli(argv: list[str], stdin: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def test_fixture_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_fixture(name):
    argv, stdin = CASES[name]
    assert run_cli(argv, stdin) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    golden = {name: run_cli(argv, stdin) for name, (argv, stdin) in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
