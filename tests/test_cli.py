import contextlib
import dataclasses
import io
import itertools
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mindswap import cli, infinite, perm
from mindswap.cli import main
from mindswap.keeler import solve_two_machine
from mindswap.moves import MachineMove, plan_product
from mindswap.machine import lower_bound, solve_m_machine
from mindswap.optimal3 import solve_three_machine_optimal
from mindswap.oracle import RuleSet, verify_plan
from mindswap.perm import format_cycles, insider, outsider, parse_cycles, parse_element
from mindswap import plandoc

from conftest import expected_report, permutation_from_images


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# clean plans for (1 2 3 4 5), each one move longer than the bound
FIVE_CYCLE_PLANS = {
    m: f"mindswap-plan v1\nmachine-size: {m}\ntarget: (a1 a2 a3 a4 a5)\noutsiders: {pool}\nmoves:\n"
    + "".join(f"  {line}\n" for line in moves)
    for m, pool, moves in [
        (3, "x1", ["a2 x1 a3", "a1 a3 x1", "a4 x1 a5", "a3 a5 x1"]),
        (4, "x1 x2", ["a2 x2 x1 a3", "a1 a3 x1 x2", "a4 x2 x1 a5", "a3 a5 x1 x2"]),
    ]
}

UNDECODABLE_MESSAGE = (
    "parse error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
)


class TestSolve:
    def test_keeler_base_case(self, capsys):
        code, out, err = run(capsys, "solve", "--target", "(1 2)", "--m", "2")
        assert code == 0
        doc = plandoc.loads(out)
        assert doc.m == 2 and doc.steps == 5
        assert doc.solver == "keeler2"
        assert plan_product(doc.moves) == parse_cycles("(1 2)")
        assert "product-ok: true" in err

    def test_optimal3(self, capsys):
        code, out, _ = run(capsys, "solve", "--target", "(1 2 3)", "--m", "3")
        assert code == 0
        doc = plandoc.loads(out)
        assert doc.steps == 2
        assert doc.lower_bound == 2

    def test_empty_target(self, capsys):
        code, out, _ = run(capsys, "solve", "--target", "", "--m", "4")
        assert code == 0
        assert plandoc.loads(out).steps == 0

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "solve", "--target", "(1 2", "--m", "2")
        assert code == 2
        assert "parse error" in err

    def test_undecodable_stdin_target_is_a_parse_error(self, capsys):
        class Undecodable:
            def read(self):
                raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        with mock.patch.object(sys, "stdin", Undecodable()):
            result = run(capsys, "solve", "--target", "-", "--m", "3")
        assert result == (2, "", UNDECODABLE_MESSAGE)

    def test_undecodable_stdin_target_through_a_real_process(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8:strict")
        proc = subprocess.run(
            [sys.executable, "-m", "mindswap.cli", "solve", "--target", "-", "--m", "3"],
            input=b"\xff",
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", UNDECODABLE_MESSAGE)

    def test_membership_failure(self, capsys):
        code, _, err = run(capsys, "solve", "--target", "(1 2)", "--m", "3")
        assert code == 3
        assert "unsolvable" in err

    def test_solver_size_mismatch(self, capsys):
        # the machine size picks the solver, so no solver can mismatch it
        with pytest.raises(SystemExit) as caught:
            main(["solve", "--target", "(1 2 3)", "--m", "3", "--solver", "general_m"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --solver general_m" in capsys.readouterr().err
        code, out, err = run(capsys, "solve", "--target", "(1 2)", "--m", "0")
        assert (code, out, err) == (2, "", "error: machine size must be at least 2, got 0\n")
        code, _, err = run(capsys, "solve", "--target", "(1 2", "--m", "0")
        assert code == 2 and err.startswith("parse error: ")

    def test_general_m_even(self, capsys):
        code, out, _ = run(capsys, "solve", "--target", "(1 2 3 4)", "--m", "4")
        assert code == 0
        doc = plandoc.loads(out)
        assert plan_product(doc.moves) == parse_cycles("(1 2 3 4)").inverse()


class TestSolverTable:
    PERMUTATIONS = [
        permutation_from_images(list(images)) for images in itertools.permutations(range(1, 6))
    ]

    # solve picks its solver from the machine size: name -> the sizes it serves
    @pytest.mark.parametrize(
        "name, sizes", [("keeler2", [2]), ("general_m", range(3, 7))], ids=["keeler2", "general_m"]
    )
    def test_every_small_target(self, capsys, name, sizes):
        for m in sizes:
            for sigma in self.PERMUTATIONS:
                argv = ["solve", "--target", format_cycles(sigma), "--m", str(m)]
                code, out, err = run(capsys, *argv)
                if m % 2 == 0 or sigma.parity() == 0:
                    assert code == 0
                    doc = plandoc.loads(out)
                    assert doc.m == m and doc.solver == name
                    assert doc.target == format_cycles(sigma)
                    assert verify_plan(sigma, doc.moves, RuleSet(m, doc.outsiders)).clean
                    if name == "keeler2":
                        assert doc.lower_bound is None
                    else:
                        assert doc.steps == doc.lower_bound == lower_bound(sigma, m)
                else:
                    assert (code, out) == (3, "")
                    assert err.startswith("unsolvable: ")


class TestVerify:
    def test_round_trip_through_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", "--target", "(1 2)(3 4)", "--m", "3")
        assert code == 0
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text(out)
        code, out2, _ = run(capsys, "verify", "--plan", str(plan_file))
        assert code == 0
        assert "verdict: clean" in out2

    def test_document_target_is_parsed_once(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "solve", "--target", "(a1 a2 a3 a4 a5 a6 a7 a8 a9)", "--m", "3"
        )
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text(out)
        # parse_element and _read_tokens's bulk build both build each Element through _element
        with mock.patch("mindswap.perm._element", wraps=perm._element) as spy:
            code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
        assert code == 0 and out.endswith("verdict: clean\n")
        # once per distinct token of the document: a1 .. a9 and x1
        assert spy.call_count == 10

    def test_document_target_moving_an_outsider_is_a_parse_error(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text(
            "mindswap-plan v1\nmachine-size: 2\ntarget: (a1 x1)\noutsiders: x2\nmoves:\n"
        )
        code, out, err = run(capsys, "verify", "--plan", str(plan_file))
        assert (code, out, err) == (2, "", "parse error: target must move insiders only\n")

    def test_duplicate_support_fails(self, capsys, tmp_path):
        text = (
            "mindswap-plan v1\n"
            "machine-size: 3\n"
            "target: (a1 a2 a3)\n"
            "outsiders: x1\n"
            "moves:\n"
            "  a1 a2 x1\n"
            "  a1 a2 x1\n"
        )
        plan_file = tmp_path / "bad.txt"
        plan_file.write_text(text)
        code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
        assert code == 1
        assert "kind=duplicate-support" in out

    @pytest.mark.parametrize("m, outsiders", [("0", "x1"), ("2", "x1 x1")])
    def test_unusable_header_is_a_parse_error(self, capsys, tmp_path, m, outsiders):
        plan_file = tmp_path / "bad.txt"
        plan_file.write_text(
            f"mindswap-plan v1\nmachine-size: {m}\ntarget: \noutsiders: {outsiders}\nmoves:\n"
        )
        code, out, err = run(capsys, "verify", "--plan", str(plan_file))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ")

    def test_malformed_plan_file(self, capsys, tmp_path):
        plan_file = tmp_path / "garbage.txt"
        plan_file.write_text("not a plan\n")
        code, _, err = run(capsys, "verify", "--plan", str(plan_file))
        assert code == 2
        assert "parse error" in err

    def test_outsider_rule_comes_from_the_flags(self, capsys, tmp_path):
        plan_file = tmp_path / "no_pool.txt"
        plan_file.write_text(
            "mindswap-plan v1\nmachine-size: 2\ntarget: (a1 a2)\noutsiders: \nmoves:\n  a1 a2\n"
        )
        code, out, err = run(capsys, "verify", "--plan", str(plan_file))
        assert (code, out) == (2, "")
        assert err == "parse error: outsider rule requires a nonempty outsider pool\n"
        code, out, _ = run(capsys, "verify", "--plan", str(plan_file), "--no-outsider-rule")
        assert code == 0
        assert "verdict: clean" in out

    @pytest.mark.parametrize(
        "target, claim, override, line",
        [
            ("(1 2 3)(4 5 6)", 1, None, "claimed=1 bound=4"),
            (None, 4, None, "claimed=4 bound=3"),
            (None, 5, None, "claimed=5 bound=3"),
            ("(1 2 3)(4 5 6)", 4, "(1 2)(3 4 5)", "claimed=4 bound=none"),
        ],
        ids=["below", "above", "above-steps", "odd-target"],
    )
    def test_false_lower_bound_claim_fails(self, capsys, tmp_path, target, claim, override, line):
        if target is None:
            # a clean plan for (1 2 3 4 5), one move longer than the bound
            doc = plandoc.loads(FIVE_CYCLE_PLANS[3])
        else:
            _, out, _ = run(capsys, "solve", "--target", target, "--m", "3")
            doc = plandoc.loads(out)
        doc = dataclasses.replace(doc, lower_bound=claim)
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text(plandoc.dumps(doc))
        argv = ["verify", "--plan", str(plan_file)] + (["--target", override] if override else [])
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert f"violation: kind=lower-bound {line}\n" in out
        assert out.endswith("verdict: failed\n")


    @pytest.mark.parametrize("m, bound", [(3, 3), (4, 2)])
    def test_lower_bound_claim_is_checked_at_every_machine_size(self, capsys, m, bound):
        # a clean plan may claim lower_bound(target, m) and nothing else
        doc = plandoc.loads(FIVE_CYCLE_PLANS[m])
        for claim in (bound, bound + 1):
            text = plandoc.dumps(dataclasses.replace(doc, lower_bound=claim))
            with mock.patch.object(sys, "stdin", io.StringIO(text)):
                code, out, err = run(capsys, "verify", "--plan", "-")
            if claim == bound:
                assert (code, err) == (0, "") and out.endswith("verdict: clean\n")
            else:
                assert (code, err) == (1, "")
                assert f"violation: kind=lower-bound claimed={claim} bound={bound}\n" in out


class TestOracle:
    def test_pair_of_transpositions(self, capsys):
        code, out, err = run(
            capsys, "oracle", "--target", "(1 2)(3 4)", "--m", "3", "--d", "1"
        )
        assert code == 0
        assert "minimal-steps: 3" in err
        assert plandoc.loads(out).steps == 3

    def test_keeler_minimum(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--target", "(1 2)", "--m", "2", "--d", "2", "--max-steps", "6"
        )
        assert code == 0
        assert "minimal-steps: 5" in err

    def test_identity(self, capsys):
        code, _, err = run(capsys, "oracle", "--target", "", "--m", "3", "--d", "1")
        assert code == 0
        assert "minimal-steps: 0" in err

    def test_unreachable_within_bound(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--target", "(1 2)", "--m", "3", "--d", "1", "--max-steps", "3"
        )
        assert code == 3
        assert "no plan within" in err

    def test_budget_exceeded(self, capsys):
        code, _, err = run(
            capsys,
            "oracle",
            "--target",
            "(1 2 3 4 5)",
            "--m",
            "3",
            "--d",
            "2",
            "--node-budget",
            "5",
        )
        assert code == 4
        assert "budget exceeded" in err

    def test_empty_catalog_is_refuted_at_once(self, capsys):
        # no 5-seat move fits on (1 2 3) and one outsider: only limit 0 is tried
        code, _, err = run(
            capsys, "oracle", "--target", "(1 2 3)", "--m", "5", "--d", "1",
            "--max-steps", "1000000000", "--node-budget", "10",
        )
        assert code == 3
        assert "no plan within 1000000000 steps" in err

    def test_search_stops_at_the_support_count(self, capsys):
        # one legal support on (1 2 3) and one outsider, so no plan has more
        # than one move and no deeper limit is tried
        start = time.perf_counter()
        code, _, err = run(
            capsys, "oracle", "--target", "(1 2 3)", "--m", "4", "--d", "1",
            "--max-steps", "10000000",
        )
        assert (code, err) == (3, "no plan within 10000000 steps\n")
        assert time.perf_counter() - start < 1.0

    def test_oversized_ground_set_is_refused_before_its_pool(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "outsider", lambda i: built.append(i))
        code, out, err = run(capsys, "oracle", "--target", "(1 2)", "--m", "3", "--d", "100000")
        assert (code, out, built) == (2, "", [])
        assert err == "error: ground set of 100002 elements is too large to search\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--m", "1"], "machine size must be at least 2, got 1"),
            (["--m", "3", "--max-steps", "-1"], "max_steps must be nonnegative"),
            (["--m", "3", "--node-budget", "-1"], "node_budget must be nonnegative"),
        ],
    )
    def test_other_refusals_come_before_the_ground_set(self, capsys, flags, message):
        code, _, err = run(capsys, "oracle", "--target", "(1 2)", "--d", "20", *flags)
        assert (code, err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--m", "0"], "machine size must be at least 2, got 0"),
            (["--m", "3", "--max-steps", "-1"], "max_steps must be nonnegative"),
            (["--m", "3", "--node-budget", "-1"], "node_budget must be nonnegative"),
        ],
    )
    def test_other_refusals_build_at_most_one_outsider(self, capsys, monkeypatch, flags, message):
        built = []

        def counting_outsider(i):
            built.append(i)
            return outsider(i)

        monkeypatch.setattr(cli, "outsider", counting_outsider)
        code, out, err = run(capsys, "oracle", "--target", "(1 2 3)", "--d", "100000", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(built) <= 1

    def test_oversized_catalog_is_refused_at_once(self, capsys):
        # one support of 11! orderings: refused before any move is built
        target = "(" + " ".join(map(str, range(1, 12))) + ")"
        code, _, err = run(
            capsys, "oracle", "--target", target, "--m", "12", "--d", "1", "--node-budget", "5"
        )
        assert code == 2
        assert "error: catalog of 39916800 moves is too large to search" in err


# an index one digit longer than int() reads from text
LONG_INDEX = "1" * (sys.get_int_max_str_digits() + 1)


class TestIndexDigitLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--target", f"(a{LONG_INDEX} a2)", "--m", "2"],
            ["oracle", "--target", f"(a{LONG_INDEX} a2)", "--m", "3"],
            ["infinite", "finitary2", "--sigma", f"(a{LONG_INDEX} a2)"],
        ],
        ids=["solve", "oracle", "finitary2"],
    )
    def test_long_index_is_a_parse_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: malformed element token ")
        assert "int_max_str_digits" not in err

    def test_long_index_in_a_move_is_a_parse_error(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text(
            "mindswap-plan v1\nmachine-size: 2\ntarget: (a1 a2)\noutsiders: x1\n"
            f"moves:\n  a1 x{LONG_INDEX}\n"
        )
        code, out, err = run(capsys, "verify", "--plan", str(plan_file))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: malformed element token ")
        assert "int_max_str_digits" not in err


class TestInfinite:
    def test_shift3(self, capsys):
        code, out, _ = run(capsys, "infinite", "shift3")
        assert code == 0
        assert "step 1 (retentive):" in out
        assert "a2 -> a1" in out
        assert "composition check: ok" in out

    @pytest.mark.parametrize("k", range(2, 7))
    def test_finitary2_single_cycle(self, capsys, k):
        cycle = "(" + " ".join(f"a{i}" for i in range(1, k + 1)) + ")"
        code, out, _ = run(capsys, "infinite", "finitary2", "--sigma", cycle)
        assert code == 0
        assert "step 1 (forgetful):" in out
        assert "step 2 (retentive):" in out
        assert out.endswith("composition check: ok (target inverse, canonical form)\n")
        if k == 2:
            assert "a2 -> z" in out

    def test_star_mode_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["infinite", "star", "--k", "2"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'star'" in capsys.readouterr().err

    def test_finitary2(self, capsys):
        code, out, _ = run(
            capsys, "infinite", "finitary2", "--sigma", "(a1 a2)(a3 a4 a5)"
        )
        assert code == 0
        assert "step 2 (retentive):" in out
        assert "z -> a1" in out
        assert "composition check: ok" in out

    def test_finitary2_identity(self, capsys):
        code, out, _ = run(capsys, "infinite", "finitary2", "--sigma", "")
        assert code == 0
        assert "empty plan" in out
        assert run(capsys, "infinite", "finitary2") == (code, out, "")  # no --sigma

    def test_finitary2_parse_error(self, capsys):
        code, _, err = run(capsys, "infinite", "finitary2", "--sigma", "(1 2")
        assert code == 2

    def test_index_above_the_cap_is_refused_before_any_point(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(infinite, "_element", lambda data: built.append(data))
        code, out, err = run(capsys, "infinite", "finitary2", "--sigma", "(a1 a1000000000000)")
        assert (code, out, built) == (2, "", [])
        assert err == "error: stream index 1000000000000 is above the cap of 100000\n"

    def test_negative_horizon_rejected(self, capsys):
        code, out, err = run(capsys, "infinite", "shift3", "--horizon", "-3")
        assert (code, out, err) == (2, "", "error: --horizon must be at least 0\n")
        code, out, _ = run(capsys, "infinite", "shift3", "--horizon", "0")
        assert code == 0 and "composition check: ok" in out

    @pytest.mark.parametrize("sigma", ["(a1 a2)", ""])
    def test_shift3_refuses_a_sigma(self, capsys, sigma):
        # shift3 has its own target; a --sigma it would ignore is refused
        code, out, err = run(capsys, "infinite", "shift3", "--sigma", sigma)
        assert (code, out, err) == (2, "", "error: --sigma is for finitary2 only\n")

    def test_horizon_above_the_cap_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr(infinite, "INDEX_CAP", 3)
        code, out, err = run(capsys, "infinite", "shift3", "--horizon", "4")
        assert (code, out, err) == (2, "", "error: --horizon must be at most 3\n")
        code, out, _ = run(capsys, "infinite", "shift3", "--horizon", "3")
        assert code == 0 and "composition check: ok" in out


BASE_DOCUMENTS = [
    plandoc.dumps(doc)
    for doc in [
        solve_two_machine(parse_cycles("(1 2)(3 4 5)")),
        solve_three_machine_optimal(parse_cycles("(1 2 3)(4 5)(6 7)")),
        solve_m_machine(parse_cycles("(1 2)(3 4 5)"), 4),
    ]
]


@st.composite
def mutated_documents(draw):
    """A valid plan document with lines dropped, duplicated or swapped,
    tokens swapped, or a digit-like character inserted."""
    lines = draw(st.sampled_from(BASE_DOCUMENTS)).split("\n")
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap-lines", "swap-tokens", "insert"]))
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap-lines":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "swap-tokens":
            a = lines[i].split(" ")
            b = a if i == j else lines[j].split(" ")
            s, t = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(b) - 1))
            a[s], b[t] = b[t], a[s]
            lines[i], lines[j] = " ".join(a), " ".join(b)
        else:
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from("\u0663\u00b20")) + lines[i][at:]
        if not lines:
            lines = [""]
    return "\n".join(lines)


@st.composite
def drawn_documents(draw):
    """A record whose moves hold 1..m+1 seats over a small alphabet, with
    repeats, insiders, and outsiders in and out of the pool, and perhaps a
    bound claim; with the target it names."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(0, 4))
    target = permutation_from_images(list(draw(st.permutations(range(1, n + 1)))))
    pool = tuple(outsider(i) for i in range(1, draw(st.integers(1, 2)) + 1))
    alphabet = [insider(i) for i in range(1, 6)] + [outsider(i) for i in range(1, 4)]
    move = st.lists(st.sampled_from(alphabet), min_size=1, max_size=m + 1).map(tuple)
    doc = plandoc.PlanDocument(
        m=m,
        target=format_cycles(target),
        outsiders=pool,
        moves=tuple(draw(st.lists(move, max_size=6))),
        lower_bound=draw(st.none() | st.integers(0, 8)),
    )
    return doc, target


def line_by_line_read(text):
    """plandoc.read without its shared token table: every pool and move token
    through parse_element as its line is read, and the target through
    parse_cycles."""
    lines = [line.rstrip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != plandoc.HEADER:
        raise plandoc.PlanFormatError(f"missing header line {plandoc.HEADER!r}")
    fields = {}
    for i, line in enumerate(lines[1:], start=1):
        if line.strip() == "moves:":
            break
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            raise plandoc.PlanFormatError(f"expected 'key: value', got {line!r}")
        if key not in plandoc._FIELDS:
            raise plandoc.PlanFormatError(f"unknown field {key!r}")
        if key in fields:
            raise plandoc.PlanFormatError(f"repeated field {key!r}")
        fields[key] = value.strip()
    else:
        raise plandoc.PlanFormatError("missing 'moves:' section")
    for required in ("machine-size", "target", "outsiders"):
        if required not in fields:
            raise plandoc.PlanFormatError(f"missing required field {required!r}")
    try:
        m = plandoc._number(fields, "machine-size")
        outsiders = tuple(parse_element(token) for token in fields["outsiders"].split())
        moves = []
        for line in lines[i + 1 :]:
            moves.append(tuple(parse_element(token) for token in line.split()))
        target = parse_cycles(fields["target"])
        doc = plandoc.PlanDocument(
            m=m,
            target=fields["target"],
            outsiders=outsiders,
            moves=tuple(moves),
            solver=fields.get("solver"),
            lower_bound=plandoc._number(fields, "lower-bound") if "lower-bound" in fields else None,
        )
        steps = plandoc._number(fields, "steps") if "steps" in fields else doc.steps
    except ValueError as err:
        raise plandoc.PlanFormatError(str(err)) from err
    if steps != doc.steps:
        raise plandoc.PlanFormatError(
            f"steps field says {fields['steps']} but document lists {doc.steps} moves"
        )
    return doc, target


def read_outcome(read, text):
    try:
        doc, target = read(text)
    except plandoc.PlanFormatError as err:
        return str(err)
    assert all(type(seat) is perm.Element for move in doc.moves for seat in move)
    return doc, target._map


# (m, pool, message): each breaks the one pool rule that RuleSet owns
POOL_RULE_CASES = [
    (1, "x1", "machine size must be at least 2, got 1"),
    (3, "x1 x1", "repeated outsider in pool"),
    (3, "x1 a1", "pool entry a1 is not an outsider"),
]


KEELER_DOC = solve_two_machine(parse_cycles("(1 2)"))


class TestPlanDocFormat:
    @pytest.mark.parametrize("m, pool, message", POOL_RULE_CASES, ids=["m1", "repeat", "insider"])
    def test_pool_rule_has_one_message(self, m, pool, message):
        outsiders = tuple(map(parse_element, pool.split()))
        with pytest.raises(ValueError) as rules_err:
            RuleSet(m=m, outsiders=outsiders)
        with pytest.raises(plandoc.PlanFormatError) as record_err:
            plandoc.PlanDocument(m=m, target="", outsiders=outsiders, moves=())
        text = f"mindswap-plan v1\nmachine-size: {m}\ntarget: (a1 a2)\noutsiders: {pool}\nmoves:\n"
        with pytest.raises(plandoc.PlanFormatError) as loads_err:
            plandoc.loads(text)
        assert str(rules_err.value) == str(record_err.value) == str(loads_err.value) == message

    @given(
        st.none() | st.text(),
        st.permutations(range(1, 7)).map(
            lambda images: format_cycles(permutation_from_images(list(images)))
        ),
    )
    @example("keeler2\nlower-bound: 0", "(a1 a2)")
    @example(" keeler2", "")
    def test_record_text_reads_back_or_is_refused(self, solver, target):
        try:
            doc = dataclasses.replace(KEELER_DOC, solver=solver, target=target)
        except plandoc.PlanFormatError:
            return
        assert plandoc.loads(plandoc.dumps(doc)) == doc

    @pytest.mark.parametrize(
        "field, text",
        [("solver", "keeler2\nlower-bound: 0"), ("target", "(a1 a2)\nsolver: x"),
         ("solver", "keeler2\x85"), ("target", " (a1 a2)")],
        ids=["solver-newline", "target-newline", "solver-next-line", "target-leading-space"],
    )
    def test_text_that_would_not_read_back_is_refused(self, field, text):
        with pytest.raises(plandoc.PlanFormatError) as err:
            dataclasses.replace(KEELER_DOC, **{field: text})
        assert str(err.value) == f"{field} {text!r} is not one line without outer whitespace"

    def test_dumps_loads_round_trip_is_byte_exact(self, capsys):
        _, out, _ = run(capsys, "solve", "--target", "(1 2 3)", "--m", "3")
        doc = plandoc.loads(out)
        assert plandoc.dumps(doc) == out

    def test_normalization_is_idempotent(self):
        loose = (
            "mindswap-plan v1\n"
            "machine-size:   3\n"
            "target:  (a1 a2 a3)\n"
            "outsiders: x1\n\n"
            "moves:\n"
            "   a2   a1   x1\n"
            "  a3 a2 x1\n"
        )
        once = plandoc.dumps(plandoc.loads(loose))
        assert plandoc.dumps(plandoc.loads(once)) == once

    @pytest.mark.parametrize(
        "body, message",
        [
            ("outsiders: x1\n", "missing 'moves:' section"),
            ("outsiders: x1\nstray\nmoves:\n  a1 x1 a2\n", "expected 'key: value', got 'stray'"),
            ("outsiders: x1\nstray\n", "expected 'key: value', got 'stray'"),
        ],
        ids=["no-moves-section", "not-key-value", "field-error-before-missing-section"],
    )
    def test_reader_messages(self, body, message):
        text = "mindswap-plan v1\nmachine-size: 3\ntarget: (a1 a2 a3)\n" + body
        with pytest.raises(plandoc.PlanFormatError) as err:
            plandoc.loads(text)
        assert str(err.value) == message

    def test_padded_moves_section_loads(self):
        head = "mindswap-plan v1\nmachine-size: 3\ntarget: (a1 a2 a3)\noutsiders: x1\n"
        plain = head + "moves:\n  a1 x1 a2\n  a2 x1 a3\n"
        padded = head + "\n   moves:  \n\n\t a1 x1 a2   \n\n  a2 x1 a3 \n\n"
        assert plandoc.loads(padded) == plandoc.loads(plain)

    def test_steps_mismatch_rejected(self):
        text = (
            "mindswap-plan v1\n"
            "machine-size: 2\n"
            "target: (a1 a2)\n"
            "outsiders: x1 x2\n"
            "steps: 3\n"
            "moves:\n"
            "  a1 x1\n"
        )
        with pytest.raises(plandoc.PlanFormatError):
            plandoc.loads(text)

    def test_non_integer_steps_rejected(self):
        text = (
            "mindswap-plan v1\n"
            "machine-size: 2\n"
            "target: \n"
            "outsiders: x1 x2\n"
            "steps: abc\n"
            "moves:\n"
        )
        with pytest.raises(plandoc.PlanFormatError):
            plandoc.loads(text)

    def test_malformed_target_rejected(self):
        text = (
            "mindswap-plan v1\n"
            "machine-size: 2\n"
            "target: (a1 a2\n"
            "outsiders: x1 x2\n"
            "moves:\n"
        )
        with pytest.raises(plandoc.PlanFormatError):
            plandoc.loads(text)

    @pytest.mark.parametrize(
        "field, message",
        [
            ("outsiders: x1 a1", "pool entry a1 is not an outsider"),
            ("lower-bound: -3", "malformed lower-bound '-3'"),
            ("machine-size: 3", "repeated field 'machine-size'"),
            ("target: (a1 a2 a3)", "repeated field 'target'"),
            ("bogus: 1", "unknown field 'bogus'"),
            ("machine-size: \u0663", "malformed machine-size '\u0663'"),
            ("steps: 0_2", "malformed steps '0_2'"),
            ("lower-bound: +2", r"malformed lower-bound '\+2'"),
            (f"machine-size: {LONG_INDEX}", f"malformed machine-size '{LONG_INDEX}'"),
            (f"steps: {LONG_INDEX}", f"malformed steps '{LONG_INDEX}'"),
            (f"lower-bound: {LONG_INDEX}", f"malformed lower-bound '{LONG_INDEX}'"),
        ],
        ids=["insider-in-pool", "negative-lower-bound", "repeated-size", "repeated-target",
             "unknown-key", "non-ascii-size", "underscored-steps", "signed-lower-bound",
             "long-size", "long-steps", "long-lower-bound"],
    )
    def test_strict_fields_rejected(self, field, message):
        key, _, value = field.partition(": ")
        base = {"machine-size": "3", "target": "(a1 a2 a3)", "outsiders": "x1"}
        # A field that changes a base value replaces that line; one equal to it repeats it.
        header = "".join(f"{k}: {v}\n" for k, v in base.items() if k != key or v == value)
        text = f"mindswap-plan v1\n{header}{field}\nmoves:\n  a1 x1 a2\n  a2 x1 a3\n"
        with pytest.raises(plandoc.PlanFormatError, match=message):
            plandoc.loads(text)

    def test_record_rejects_negative_lower_bound(self):
        doc = plandoc.loads(
            "mindswap-plan v1\nmachine-size: 3\ntarget: (a1 a2 a3)\noutsiders: x1\n"
            "moves:\n  a1 x1 a2\n  a2 x1 a3\n"
        )
        with pytest.raises(plandoc.PlanFormatError, match="lower bound -3 is negative"):
            dataclasses.replace(doc, lower_bound=-3)

    @settings(max_examples=300, deadline=None)
    @given(mutated_documents())
    def test_mutated_documents_fail_cleanly(self, text):
        try:
            plandoc.loads(text)
        except plandoc.PlanFormatError:
            pass
        quiet = io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(
            quiet
        ), contextlib.redirect_stderr(quiet):
            code = main(["verify", "--plan", "-"])
        assert code in (0, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(
        mutated_documents() | drawn_documents().map(lambda case: plandoc.dumps(case[0])),
        st.booleans(),
    )
    @example("mindswap-plan v1\nmachine-size: 2\ntarget: (1 3)\noutsiders: x1\nmoves:\n  1 x1\n", False)
    @example("mindswap-plan v1\nmachine-size: 2\ntarget: (a1 0)\noutsiders: x1\nmoves:\n  x0\n", False)
    def test_read_matches_the_line_by_line_reader(self, text, bare):
        if bare:  # insiders written as bare integers, beside the prefixed outsiders
            text = re.sub(r"\ba(?=[0-9])", "", text)
        assert read_outcome(plandoc.read, text) == read_outcome(line_by_line_read, text)

    def test_wrong_seat_count_rejected(self):
        # the reader keeps the move as written; the verifier rejects it
        text = (
            "mindswap-plan v1\n"
            "machine-size: 3\n"
            "target: (a1 a2)\n"
            "outsiders: x1\n"
            "moves:\n"
            "  a1 x1\n"
        )
        doc = plandoc.loads(text)
        rules = RuleSet(doc.m, doc.outsiders)
        report = verify_plan(parse_cycles(doc.target), list(doc.moves), rules)
        assert (0, "seat-count") in report.rule_violations

    def test_record_rejects_an_empty_move(self):
        # dumps would write it as a blank line, which loads drops
        with pytest.raises(plandoc.PlanFormatError, match="move 1 has no seats"):
            plandoc.PlanDocument(
                m=3, target="", outsiders=(outsider(1),), moves=((outsider(1),), ())
            )
        with pytest.raises(plandoc.PlanFormatError, match="move 0 has no seats"):
            plandoc.PlanDocument(m=3, target="", outsiders=(outsider(1),), moves=((),))

    @settings(max_examples=200, deadline=None)
    @given(drawn_documents())
    def test_loaded_moves_verify_as_drawn(self, case):
        doc, target = case
        refuse = mock.patch.object(
            MachineMove, "__new__", side_effect=AssertionError("loads built a MachineMove")
        )
        with refuse:
            loaded = plandoc.loads(plandoc.dumps(doc))
        assert loaded == doc
        for outsider_rule, distinct_rule in itertools.product((True, False), repeat=2):
            rules = RuleSet(doc.m, doc.outsiders, outsider_rule, distinct_rule)
            got = verify_plan(target, list(loaded.moves), rules)
            assert (got.product_ok, got.rule_violations, got.step_count) == expected_report(
                target, list(doc.moves), rules
            )
