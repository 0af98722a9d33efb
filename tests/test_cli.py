import dataclasses
import itertools

import pytest

from mindswap.cli import SOLVERS, main
from mindswap.moves import plan_product
from mindswap.optimal3 import lower_bound
from mindswap.oracle import RuleSet, verify_plan
from mindswap.perm import format_cycles, parse_cycles
from mindswap import plandoc

from conftest import permutation_from_images


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, out, _ = run(
            capsys, "solve", "--target", "(1 2 3)", "--m", "3", "--solver", "optimal3"
        )
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

    def test_membership_failure(self, capsys):
        code, _, err = run(capsys, "solve", "--target", "(1 2)", "--m", "3")
        assert code == 3
        assert "unsolvable" in err

    def test_solver_size_mismatch(self, capsys):
        code, _, _ = run(
            capsys, "solve", "--target", "(1 2)", "--m", "4", "--solver", "keeler2"
        )
        assert code == 2

    def test_general_m_even(self, capsys):
        code, out, _ = run(capsys, "solve", "--target", "(1 2 3 4)", "--m", "4")
        assert code == 0
        doc = plandoc.loads(out)
        assert plan_product(doc.moves) == parse_cycles("(1 2 3 4)").inverse()


class TestSolverTable:
    PERMUTATIONS = [
        permutation_from_images(list(images)) for images in itertools.permutations(range(1, 6))
    ]

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_every_small_target(self, capsys, name):
        accepts_m, solve = SOLVERS[name]
        for m in filter(accepts_m, range(2, 7)):
            for sigma in self.PERMUTATIONS:
                if m % 2 == 0 or sigma.parity() == 0:
                    doc = solve(sigma, m)
                    assert doc.m == m and doc.solver == name
                    assert doc.target == format_cycles(sigma)
                    assert verify_plan(sigma, list(doc.moves), RuleSet(m, doc.outsiders)).clean
                    if name == "optimal3":
                        assert doc.steps == doc.lower_bound == lower_bound(sigma)
                    else:
                        assert doc.lower_bound is None
                else:
                    argv = ["solve", "--target", format_cycles(sigma), "--m", str(m)]
                    code, out, err = run(capsys, *argv, "--solver", name)
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


class TestInfinite:
    def test_shift3(self, capsys):
        code, out, _ = run(capsys, "infinite", "shift3")
        assert code == 0
        assert "step 1 (retentive):" in out
        assert "a2 -> a1" in out
        assert "composition check: ok" in out

    def test_star(self, capsys):
        code, out, _ = run(capsys, "infinite", "star", "--k", "2")
        assert code == 0
        assert "step 1 (forgetful):" in out
        assert "a2 -> z" in out
        assert "composition check: ok" in out

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

    def test_finitary2_parse_error(self, capsys):
        code, _, err = run(capsys, "infinite", "finitary2", "--sigma", "(1 2")
        assert code == 2

    def test_negative_horizon_rejected(self, capsys):
        code, out, err = run(capsys, "infinite", "shift3", "--horizon", "-3")
        assert (code, out, err) == (2, "", "error: --horizon must be at least 0\n")
        code, out, _ = run(capsys, "infinite", "shift3", "--horizon", "0")
        assert code == 0 and "composition check: ok" in out


class TestPlanDocFormat:
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
            ("lower-bound: 5", "lower bound 5 exceeds the plan's 2 steps"),
            ("lower-bound: -3", "malformed lower-bound '-3'"),
            ("machine-size: 3", "repeated field 'machine-size'"),
            ("target: (a1 a2 a3)", "repeated field 'target'"),
            ("bogus: 1", "unknown field 'bogus'"),
            ("machine-size: \u0663", "malformed machine-size '\u0663'"),
            ("steps: 0_2", "malformed steps '0_2'"),
            ("lower-bound: +2", r"malformed lower-bound '\+2'"),
        ],
        ids=["insider-in-pool", "lower-bound-above-steps", "negative-lower-bound", "repeated-size",
             "repeated-target", "unknown-key", "non-ascii-size", "underscored-steps",
             "signed-lower-bound"],
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

    def test_wrong_seat_count_rejected(self):
        text = (
            "mindswap-plan v1\n"
            "machine-size: 3\n"
            "target: (a1 a2)\n"
            "outsiders: x1\n"
            "moves:\n"
            "  a1 x1\n"
        )
        with pytest.raises(plandoc.PlanFormatError):
            plandoc.loads(text)
