"""Command-line interface.

    mindswap solve    --target "(a1 a2)" --m 2
    mindswap verify   --plan plan.txt
    mindswap oracle   --target "(a1 a2)(a3 a4)" --m 3 --d 1
    mindswap infinite shift3 | finitary2 --sigma "(a1 a2)(a3 a4 a5)"

``solve`` calls ``solve_m_machine`` at every m: keeler2 at 2, general_m above.
``solve --target -`` reads the target's cycle text from stdin, as
``verify --plan -`` reads the plan, for targets too long for one argument.
Plan documents go to stdout; summaries and diagnostics go to stderr.  Exit
codes: 0 ok, 1 verification failed, 2 parse error, 3 unsolvable, 4 node
budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from . import infinite, plandoc
from .machine import lower_bound, solve_m_machine
from .oracle import (
    MachineSizeError,
    OracleBudgetError,
    RuleSet,
    _refuse_ground,
    _refuse_machine_size,
    search_min_plan,
    verify_plan,
)
from .perm import (
    ParseError,
    Permutation,
    format_cycles,
    insiders_only,
    outsider,
    parse_cycles,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_UNSOLVABLE = 3
EXIT_BUDGET = 4


def _fail(code: int, message: str) -> int:
    """Print message as the one diagnostic line on stderr and return code."""
    print(message, file=sys.stderr)
    return code


def _parse_target(text: str) -> Permutation:
    """The target text's permutation; a target that moves an outsider is a parse error."""
    target = parse_cycles(text)
    try:
        return insiders_only(target)
    except ValueError as err:
        raise ParseError(str(err)) from err


def _verify(
    target: Permutation, doc: plandoc.PlanDocument, rules: RuleSet, out: TextIO
) -> bool:
    """Verify the document against target, print the report to out, and
    return whether it is clean.

    The moves' seats are judged by verify_plan alone.  A claimed lower
    bound must equal lower_bound(target, m), whatever the plan's length;
    an odd target on an odd machine has none to claim.
    """
    report = verify_plan(target, doc.moves, rules)
    violations = [f"index={index} kind={kind}" for index, kind in report.rule_violations]
    if doc.lower_bound is not None:
        try:
            bound = lower_bound(target, rules.m)
        except ValueError:
            bound = "none"
        if doc.lower_bound != bound:
            violations.append(f"kind=lower-bound claimed={doc.lower_bound} bound={bound}")
    print(f"steps: {report.step_count}", file=out)
    print(f"product-ok: {str(report.product_ok).lower()}", file=out)
    for violation in violations:
        print(f"violation: {violation}", file=out)
    if not violations:
        print("rule-violations: none", file=out)
    return report.product_ok and not violations


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        text = sys.stdin.read() if args.target == "-" else args.target
    except (OSError, ValueError) as err:
        return _fail(EXIT_PARSE, f"parse error: {err}")
    try:
        target = _parse_target(text)
        doc = solve_m_machine(target, args.m)
    except ParseError as err:
        return _fail(EXIT_PARSE, f"parse error: {err}")
    except MachineSizeError as err:
        return _fail(EXIT_PARSE, f"error: {err}")
    except ValueError as err:
        return _fail(EXIT_UNSOLVABLE, f"unsolvable: {err}")
    sys.stdout.write(plandoc.dumps(doc))
    rules = RuleSet(m=doc.m, outsiders=doc.outsiders)
    return EXIT_OK if _verify(target, doc, rules, sys.stderr) else EXIT_VERIFY_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        if args.plan == "-":
            text = sys.stdin.read()
        else:
            with open(args.plan) as f:
                text = f.read()
        doc, target = plandoc.read(text)
        target = insiders_only(target) if args.target is None else _parse_target(args.target)
        rules = RuleSet(
            m=doc.m,
            outsiders=doc.outsiders,
            require_outsider_per_move=not args.no_outsider_rule,
            require_distinct_supports=not args.no_distinct_rule,
        )
    except (OSError, ValueError) as err:
        return _fail(EXIT_PARSE, f"parse error: {err}")
    clean = _verify(target, doc, rules, sys.stdout)
    print(f"verdict: {'clean' if clean else 'failed'}")
    return EXIT_OK if clean else EXIT_VERIFY_FAILED


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        target = _parse_target(args.target)
    except ParseError as err:
        return _fail(EXIT_PARSE, f"parse error: {err}")
    try:
        # refuse before building a pool that no search takes: the machine size
        # first, as RuleSet would; search_min_plan's own refusals keep their
        # precedence over the ground cap, and one outsider gives them the
        # same message as the whole pool
        _refuse_machine_size(args.m)
        d = args.d
        if args.max_steps < 0 or args.node_budget < 0:
            d = min(d, 1)
        elif d > 0:
            _refuse_ground(len(target.support()) + d)
        pool = tuple(outsider(i) for i in range(1, d + 1))
        rules = RuleSet(m=args.m, outsiders=pool)
        plan = search_min_plan(target, rules, args.max_steps, node_budget=args.node_budget)
    except OracleBudgetError as err:
        return _fail(EXIT_BUDGET, f"budget exceeded: {err}")
    except ValueError as err:
        return _fail(EXIT_PARSE, f"error: {err}")
    if plan is None:
        return _fail(EXIT_UNSOLVABLE, f"no plan within {args.max_steps} steps")
    print(f"minimal-steps: {len(plan)}", file=sys.stderr)
    doc = plandoc.PlanDocument(
        m=args.m,
        target=format_cycles(target),
        outsiders=pool,
        moves=tuple(plan),
        solver="oracle",
    )
    sys.stdout.write(plandoc.dumps(doc))
    return EXIT_OK


def _print_swaps(swaps: list[infinite.TailMap], horizon: int) -> None:
    for i, swap in enumerate(swaps, start=1):
        print(f"step {i} ({infinite.classify(swap)}):")
        for row in infinite.step_table(swap, horizon):
            print(f"  {row}")
        print(f"  cycle form: {infinite.cycle_string(swap, horizon)}")
        print(f"  dom: {swap.dom()}")
        print(f"  img: {swap.img()}")
        print(f"  participants: {swap.participants()}")


def _cmd_infinite(args: argparse.Namespace) -> int:
    horizon = args.horizon
    if horizon < 0:
        return _fail(EXIT_PARSE, "error: --horizon must be at least 0")
    if horizon > infinite.INDEX_CAP:
        return _fail(EXIT_PARSE, f"error: --horizon must be at most {infinite.INDEX_CAP}")
    if args.mode == "shift3":
        if args.sigma is not None:
            return _fail(EXIT_PARSE, "error: --sigma is for finitary2 only")
        swaps = infinite.invert_shift_three_step()
        expected = infinite.inverse_shift_map()
    else:
        try:
            sigma = _parse_target(args.sigma or "")
        except ValueError as err:
            return _fail(EXIT_PARSE, f"parse error: {err}")
        try:
            swaps = infinite.invert_finitary_two_step(sigma)
        except ValueError as err:  # an index above infinite.INDEX_CAP
            return _fail(EXIT_PARSE, f"error: {err}")
        if not swaps:
            print("identity target: empty plan")
            return EXIT_OK
        expected = infinite.finitary_extension(sigma.inverse())
    _print_swaps(swaps, horizon)
    ok = infinite.compose_all(swaps) == expected
    print(f"composition check: {'ok' if ok else 'MISMATCH'} (target inverse, canonical form)")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mindswap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a target and print a plan document")
    p_solve.add_argument(
        "--target", required=True, help="cycle notation, e.g. '(a1 a2)(a3 a4)', or - for stdin"
    )
    p_solve.add_argument("--m", type=int, required=True, help="machine size")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a plan document against the rules")
    p_verify.add_argument("--plan", required=True, help="plan file path, or - for stdin")
    p_verify.add_argument("--target", help="override the document's target")
    p_verify.add_argument("--no-outsider-rule", action="store_true")
    p_verify.add_argument("--no-distinct-rule", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="exhaustive shortest-plan search")
    p_oracle.add_argument("--target", required=True)
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument("--d", type=int, default=1, help="number of outsiders")
    p_oracle.add_argument("--max-steps", type=int, default=8)
    p_oracle.add_argument(
        "--node-budget", type=int, default=10**8, help="nodes allowed: catalog moves per position"
    )
    p_oracle.set_defaults(func=_cmd_oracle)

    p_inf = sub.add_parser("infinite", help="infinite-machine demonstrations")
    p_inf.add_argument("mode", choices=["shift3", "finitary2"])
    p_inf.add_argument("--sigma", help="finitary target for finitary2")
    p_inf.add_argument("--horizon", type=int, default=4, help="tail rows before the ellipsis")
    p_inf.set_defaults(func=_cmd_infinite)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
