"""Run a workload on several seeds and report each metric's median and spread.

    python3 bench/spread.py --workload small_targets --seeds 1-10 --seconds 30 [--trace 1]

Runs are sequential, one process at a time.  For every metric the output
gives the median and the interquartile range as a share of the median,
which is how BENCHMARK.json's bounds are meant to be compared.  The last
line of stdout is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a range such as 1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True, timeout=300,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr)

    summary = {}
    for name, series in values.items():
        mid = median(series)
        q1, _, q3 = quantiles(series, n=4) if len(series) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else 0.0
        summary[name] = {"median": mid, "spread": spread, "unit": units[name], "values": series}
        print(f"{name:<46} median {mid:>12.6g} {units[name]:<6} spread {spread:7.2%}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
