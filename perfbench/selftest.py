"""Self-test of the benchmark's own code, at the tiny size of each workload.

    python3 perfbench/selftest.py

Run it from the root of a gapchain checkout; it takes about half a
minute.  It runs every workload once untraced and once traced at the
tiny size and checks the result schema, the metric names and units
against BENCHMARK.json, and the correctness gate.  It also checks that
a failing check or an exception in one operation is counted without
aborting the run, that tracing restores every library binding, and that
run.py refuses to run where ./src/gapchain is missing.  Exit status 0
means every check passed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
MUTATIONS = {
    "min_gap_plus_1", "z_plus_1", "drop_first_evidence", "k_zero",
    "epsilon_negative", "mr_rounds_zero", "witness_non_numeric", "x_string",
}
# mutations the verifier is known to accept or to raise on
KNOWN_DEFECTS = {"k_zero", "epsilon_negative", "mr_rounds_zero",
                 "witness_non_numeric", "x_string"}

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"  [{'PASS' if cond else 'FAIL'}] {what}")
    if not cond:
        failures.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int, spec: dict) -> None:
    proc = run_bench(workload, trace)
    print(f"{workload} --trace {trace}")
    expect(proc.returncode == 0, f"exit status 0 (got {proc.returncode}) {proc.stderr[-300:]}")
    if proc.returncode != 0:
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    expect(set(result) == RESULT_KEYS, "result has exactly the four keys")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           "attempted is a whole number >= 1")
    expect(isinstance(result["failed"], int), "failed is a whole number")
    expect(result["correct"] is True, f"correctness gate passes {detail['failures']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    expect(
        {m["name"]: m["unit"] for m in declared}
        == {k: v["unit"] for k, v in result["metrics"].items()},
        "metric names and units match BENCHMARK.json",
    )
    expect(
        all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
            for v in result["metrics"].values()),
        "every metric value is a finite number",
    )
    if not trace:
        expect(all(v["value"] > 0 for v in result["metrics"].values()),
               "no end-to-end metric reads 0")
    for key in ("python", "numpy", "cores", "cpu", "src_sha256"):
        expect(bool(detail["environment"].get(key)), f"environment records {key}")
    expect(bool(detail["output_sha256"]), "output digest recorded")
    if workload == "certify":
        probes = detail["probes"]
        expect(set(probes) == MUTATIONS, "every named mutation was tried")
        failed = {name for name, p in probes.items() if not p["ok"]}
        expect(failed <= KNOWN_DEFECTS, f"only known defects fail ({sorted(failed)})")
        expect(result["failed"] == sum(p["failed"] for p in probes.values()),
               "failed counts the probe failures")
        tried = {p["passed"] + p["failed"] for p in probes.values()}
        expect(tried == {len(detail["wall_samples_s"]) * (1 + trace)},
               "every mutation was tried on every genuine certificate")
    else:
        expect(result["failed"] == 0, "no failed operation")


def check_gate() -> None:
    """A failing check and an exception are counted; the run goes on."""
    print("correctness gate")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from measure import measure
    from tracing import Recorder, patched_layers
    from workloads import OpResult, Workload

    def op(state, i, rec):
        if i == 1:
            raise RuntimeError("injected failure")
        return OpResult(checks=[("even", i % 2 == 0, "")], items=1, item_s=1e-3,
                        output=str(i))

    wl = Workload(name="fake", sizes={}, setup=lambda s, p: None,
                  make_input=lambda st, i: i, op=op)
    out = measure(wl, None, seconds=0.05, trace=False, min_ops=4)
    expect(out["attempted"] >= 4, "the run went on past the failures")
    expect(out["failed"] == out["attempted"] - len(out["wall_samples_s"]),
           "failed counts every op that raised or failed a check")
    expect(out["correct"] is False, "a failed check makes the run incorrect")

    import gapchain.maier
    import gapchain.nt

    originals = (gapchain.nt.is_prime, gapchain.maier.is_prime,
                 gapchain.nt.mr_composite_witness, gapchain.nt.derived_mr_bases)
    with patched_layers(Recorder(), {"gapchain.harness.nibble_cover": "x"}):
        expect(gapchain.maier.is_prime is not originals[1], "tracing rebinds is_prime")
    expect((gapchain.nt.is_prime, gapchain.maier.is_prime,
            gapchain.nt.mr_composite_witness, gapchain.nt.derived_mr_bases)
           == originals, "tracing restores every binding")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_gate()
    print("without ./src/gapchain")
    proc = run_bench("cover", 0, cwd=HERE)
    expect(proc.returncode not in (0, None) and not proc.stdout.strip(),
           f"refuses to run, prints no result (exit {proc.returncode})")
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
