"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload large_targets --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``large_targets``, ``small_targets`` and
``oracle_certify``.  Each runs a single-threaded closed loop with one
client, in its own process, on inputs made from ``--seed``.  Every op's
outputs are checked; a failed check counts in ``failed`` and makes
``correct`` false.

With ``--trace 0`` the run measures for at least ``--seconds`` seconds,
stopping on a block boundary, and reports the end-to-end metrics.  With
``--trace 1`` it replays the first blocks of the same inputs in pairs, one
pass untraced and one traced, until ``--seconds`` would be exceeded, and
reports per-layer self times and counts from the spans of the traced
passes; the last traced pass's spans are written to ``.bench_out/`` at the
repository root.

Every time is in calibrated seconds: each op's wall time is scaled by how
fast a fixed calibration loop ran just before and after it, relative to
CALIBRATION_S, so that the machine's own changes of speed cancel out.

End-to-end metrics: ``setup_s`` is the median time to import ``mindswap``
and ``mindswap.cli`` in a fresh interpreter; ``ops_per_s`` is correct ops
per second of op time; ``latency_p50_s`` and ``latency_p90_s`` are op
latency percentiles; ``peak_rss_mb`` is the run's peak resident memory.
Per-layer metrics: a layer's ``busy_s`` is its self time summed over one
traced pass (the median over passes), and every count is that of one
traced pass, so counts repeat exactly for a seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, and ``error_rate`` (failed / attempted).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from spans import NullTracer, Tracer, self_times, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CALIBRATION_S = 0.0004
"""What calibrate() typically takes at the reference speed, a 2.1 GHz Xeon
vCPU running CPython 3.11; times are reported scaled to that speed."""

SETUP_RUNS = 15
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mindswap, mindswap.cli; print(time.perf_counter() - t)"
)

SPAN_LAYERS = (
    "perm.parse_cycles",
    "perm.format_cycles",
    "keeler.solve_two_machine",
    "optimal3.solve_three_machine_optimal",
    "machine.solve_m_machine",
    "plandoc.dumps",
    "plandoc.loads",
    "oracle.verify_plan",
    "oracle.search_min_plan",
    "infinite.invert_finitary_two_step",
    "infinite.compose_all",
    "infinite.render",
)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("perm.parse_cycles.calls", "count"),
    ("perm.parse_cycles.busy_s", "s"),
    ("perm.parse_cycles.factors", "count"),
    ("perm.format_cycles.busy_s", "s"),
    ("keeler.solve_two_machine.busy_s", "s"),
    ("keeler.solve_two_machine.moves", "count"),
    ("optimal3.solve_three_machine_optimal.busy_s", "s"),
    ("optimal3.solve_three_machine_optimal.moves", "count"),
    ("machine.solve_m_machine.busy_s", "s"),
    ("machine.solve_m_machine.moves", "count"),
    ("plandoc.dumps.busy_s", "s"),
    ("plandoc.dumps.bytes", "bytes"),
    ("plandoc.loads.busy_s", "s"),
    ("plandoc.loads.bytes", "bytes"),
    ("oracle.verify_plan.calls", "count"),
    ("oracle.verify_plan.busy_s", "s"),
    ("oracle.verify_plan.moves", "count"),
    ("oracle.verify_plan.rejected", "count"),
    ("oracle.verify_plan.reject_ratio", "ratio"),
    ("oracle.search_min_plan.calls", "count"),
    ("oracle.search_min_plan.busy_s", "s"),
    ("oracle.search_min_plan.p50_s", "s"),
    ("oracle.search_min_plan.found", "count"),
    ("oracle.search_min_plan.refuted", "count"),
    ("oracle.search_min_plan.found_ratio", "ratio"),
    ("oracle.search_min_plan.plan_steps", "count"),
    ("infinite.invert_finitary_two_step.busy_s", "s"),
    ("infinite.compose_all.busy_s", "s"),
    ("infinite.compose_all.swaps", "count"),
    ("infinite.render.busy_s", "s"),
    ("trace.ops", "count"),
    ("trace.op_busy_s", "s"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def calibrate() -> float:
    """Best of three timings of a fixed slice of dict-and-sort work.

    A shared cloud machine can change speed by a third for seconds at a
    time as other tenants come and go.  Timing this loop just before and
    after each measured step tells how fast the machine ran then, so the
    step's time can be scaled to the reference speed.
    """
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        table = {(i * 7919 % 1009, "a"): i for i in range(1000)}
        sorted(table)
        best = min(best, perf_counter() - start)
    return best


def measure_setup() -> float:
    """Median time to import mindswap and its CLI in a fresh interpreter.

    One discarded run first, so byte-code compilation is not counted.
    """
    samples = []
    for _ in range(SETUP_RUNS + 1):
        before = calibrate()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout) * 2 * CALIBRATION_S / (before + calibrate()))
    return median(samples[1:])


class Tally:
    """Calibrated op latencies, the scale applied to each, and failures."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_op(workload, case, tracer, op_id: int) -> tuple[float, bool]:
    """Wall time of the op's pipeline, and whether its outputs passed the gate."""
    tracer.op_id = op_id
    start = perf_counter()
    try:
        with tracer.span("op"):
            out = workload.pipeline(case, tracer)
        latency = perf_counter() - start
        reason = workload.check(case, out)
    except Exception:
        latency = perf_counter() - start
        reason = traceback.format_exc()
    if reason is not None:
        print(f"op {op_id} failed: {reason}", file=sys.stderr)
    return latency, reason is None


def run_ops(workload, cases, tracer, tally: Tally) -> None:
    """Ops one after another, each timed between two calibrations."""
    before = calibrate()
    for case in cases:
        latency, ok = run_op(workload, case, tracer, tally.attempted)
        after = calibrate()
        tally.scales.append(2 * CALIBRATION_S / (before + after))
        tally.latencies.append(latency * tally.scales[-1])
        tally.failed += not ok
        before = after


def closed_loop(workload, seed: int, seconds: float) -> Tally:
    """Fresh inputs, op after op, until `seconds` have passed and a block ends.

    A workload whose `block_is_op` is set reports each block as one op.
    """
    tally, blocks = Tally(), Tally()
    start = perf_counter()
    for block in workload.blocks(random.Random(seed)):
        failed = tally.failed
        run_ops(workload, block, NullTracer(), tally)
        blocks.latencies.append(sum(tally.latencies[-len(block):]))
        blocks.failed += tally.failed > failed
        if perf_counter() - start >= seconds:
            return blocks if workload.block_is_op else tally


def replay(workload, seed: int, tracer) -> Tally:
    """The first `workload.trace_blocks` blocks of the seed's inputs."""
    tally = Tally()
    blocks = workload.blocks(random.Random(seed))
    for _ in range(workload.trace_blocks):
        run_ops(workload, next(blocks), tracer, tally)
    return tally


def end_to_end(workload, seed: int, seconds: float) -> tuple[Tally, dict[str, float]]:
    setup = measure_setup()
    tally = closed_loop(workload, seed, seconds)
    lat = tally.latencies
    values = {
        "setup_s": setup,
        "ops_per_s": (tally.attempted - tally.failed) / sum(lat),
        "latency_p50_s": median(lat),
        "latency_p90_s": quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, values


def layer_times(tracer: Tracer, scales: list[float]) -> dict[str, float]:
    """Calibrated self time per span name over one traced pass, "op" included."""
    totals = dict.fromkeys(("op", *SPAN_LAYERS), 0.0)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, _, op_id = span
        totals[name] += (end - start if name == "op" else own) * scales[op_id]
    return totals


def per_layer(workload, seed: int, seconds: float) -> tuple[Tally, dict[str, float]]:
    """Untraced and traced passes over the same ops, in pairs, while time allows."""
    tally = Tally()
    plain_s, traced_s, times, searches = [], [], [], []
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        plain = replay(workload, seed, NullTracer())
        tracer = Tracer()
        traced = replay(workload, seed, tracer)
        for t in (plain, traced):
            tally.latencies += t.latencies
            tally.failed += t.failed
        plain_s.append(sum(plain.latencies))
        traced_s.append(sum(traced.latencies))
        times.append(layer_times(tracer, traced.scales))
        searches += [
            (end - begin) * traced.scales[op_id]
            for name, begin, end, _, op_id in tracer.spans
            if name == "oracle.search_min_plan"
        ]
        now = perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    write_spans(OUT / f"trace-{workload.name}-seed{seed}.jsonl", tracer)

    values: dict[str, float] = dict(tracer.counts)
    for name in SPAN_LAYERS:
        values[f"{name}.calls"] = sum(1 for span in tracer.spans if span[0] == name)
        values[f"{name}.busy_s"] = median(t[name] for t in times)
    verify_calls = values["oracle.verify_plan.calls"]
    search_calls = values["oracle.search_min_plan.calls"]
    if verify_calls:
        values["oracle.verify_plan.reject_ratio"] = values["oracle.verify_plan.rejected"] / verify_calls
    if search_calls:
        values["oracle.search_min_plan.found_ratio"] = (
            values.get("oracle.search_min_plan.found", 0) / search_calls
        )
        values["oracle.search_min_plan.p50_s"] = median(searches)
    values["trace.ops"] = traced.attempted
    values["trace.op_busy_s"] = median(t["op"] for t in times)
    values["trace.accounted_ratio"] = median(
        sum(t[name] for name in SPAN_LAYERS) / t["op"] for t in times
    )
    values["trace.overhead_ratio"] = median(plain_s) / median(traced_s)
    return tally, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mindswap" / "__init__.py").is_file():
        print(f"error: no mindswap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mindswap

    if Path(mindswap.__file__).resolve().parent != SRC / "mindswap":
        print(f"error: imported mindswap from {mindswap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        tally, values = per_layer(workload, args.seed, args.seconds)
        wanted = PER_LAYER
    else:
        tally, values = end_to_end(workload, args.seed, args.seconds)
        wanted = END_TO_END
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in wanted}

    for name, metric in metrics.items():
        print(f"{name:<46} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'error_rate':<46} {tally.failed / tally.attempted:>14.6g} ratio")
    print(f"{'attempted':<46} {tally.attempted:>14d} count")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
