"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload maier --seeds 1 2 3 4 5 [--trace 0]

Run it from the root of a gapchain checkout.  For every metric it prints
the median and the interquartile range as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound in
BENCHMARK.json, and it prints every run's detail and result lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        *_, detail, last = out.stdout.strip().splitlines()
        result = json.loads(last)
        runs.append(result)
        print(detail)
        print(json.dumps({"seed": seed, **result}), flush=True)

    print(f"{'metric':40s} {'median':>14s} {'iqr/median':>10s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:40s} {med:14.6g} {spread:10.4f} {'' if bound is None else bound:>6}")
    ok = all(r["correct"] for r in runs)
    print(f"correct in every run: {ok}; failed per run: {[r['failed'] for r in runs]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
