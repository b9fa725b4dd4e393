"""The measuring child's loop: run operations, check them, summarize.

Every operation is timed as a whole.  An exception or a failed check
makes it a failed operation; the loop goes on.  In a traced run each
input is run twice, untraced and then traced, so the difference of the
two is the tracing overhead and the traced output must equal the
untraced one.  A workload's probes run after each of its operations that
passed its checks, outside the operation's timing; each probe is an
attempted operation of its own.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from hostspeed import REF_NOMINAL_S, sample_host
from tracing import LAYER_METRICS, Recorder, patched_layers
from workloads import OpResult, Workload

LAYER_NAMES = tuple(name for name, _, _ in LAYER_METRICS)


def _run_op(wl: Workload, state, inp, traced: bool):
    """(seconds, OpResult or None, Recorder) for one operation."""
    rec = Recorder()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with patched_layers(rec, wl.spans) if traced else contextlib.nullcontext():
            res = wl.op(state, inp, rec)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        res = None
    return time.perf_counter() - t0, res, rec


def _layer_values(op_s: float, res: OpResult, rec: Recorder) -> dict[str, float]:
    vals = dict.fromkeys(LAYER_NAMES, 0.0)
    for source in (rec.span_s, rec.counts, res.layers):
        vals.update((k, float(v)) for k, v in source.items() if k in vals)
    calls = vals["nt.is_prime_calls"]
    if calls:
        vals["nt.prime_yield"] = vals["nt.is_prime.miller_rabin.probable_prime"] / calls
        vals["nt.td_reject_ratio"] = vals["nt.is_prime.trial_division.composite"] / calls
    if vals["weights.rows_built"]:
        vals["weights.row_ms"] = 1000.0 * vals["weights.rows_s"] / vals["weights.rows_built"]
    vals["harness.other_s"] = op_s - rec.top_s
    return vals


def measure(wl: Workload, state, seconds: float, trace: bool, min_ops: int) -> dict:
    wall: list[float] = []
    item_samples: list[tuple[int, float]] = []
    overhead: list[float] = []
    traced_layers: list[dict[str, float]] = []
    attempted = failed = 0
    failures: list[str] = []  # genuine operations that failed
    probes: dict[str, dict] = {}  # probe name -> outcome counts
    digest = None

    def account(name: str, dt: float, res: OpResult | None) -> bool:
        nonlocal attempted, failed
        attempted += 1
        bad = ["raised"] if res is None else [c[0] for c in res.checks if not c[1]]
        if bad:
            failed += 1
            failures.append(f"{name}: {', '.join(bad)}")
        elif wl.probes:
            for pname, ok, outcome in wl.probes(state, res):
                attempted += 1
                failed += not ok
                p = probes.setdefault(pname, {"ok": True, "passed": 0, "failed": 0,
                                              "outcomes": []})
                p["ok"] = p["ok"] and ok
                p["passed" if ok else "failed"] += 1
                if outcome not in p["outcomes"] and len(p["outcomes"]) < 3:
                    p["outcomes"].append(outcome)
        return not bad

    if trace:  # each input runs twice
        min_ops = max(1, min_ops // 2)
    iter_s: list[float] = []
    ref: list[float] = []
    cuts = [0]  # ref[cuts[j]:cuts[j + 1]] was sampled just before op j
    ok_ops: list[int] = []  # op index of each wall/item sample
    start = time.perf_counter()
    i = 0
    while True:
        # sample the host for about a tenth of the time the operations take
        # (see hostspeed.py)
        sample_host(ref, 0.1 * iter_s[-1] if iter_s else 0.3)
        cuts.append(len(ref))
        elapsed = time.perf_counter() - start
        if i >= min_ops and elapsed + statistics.median(iter_s) > seconds:
            break
        inp = wl.make_input(state, i)
        dt, res, _ = _run_op(wl, state, inp, traced=False)
        ok = account(f"op {i}", dt, res)
        if ok:
            ok_ops.append(i)
            wall.append(dt if res.wall_s is None else res.wall_s)
            item_samples.append((res.items, res.item_s))
            if digest is None:
                digest = hashlib.sha256(res.output.encode()).hexdigest()
        if trace:
            dt_t, res_t, rec_t = _run_op(wl, state, inp, traced=True)
            ok_t = account(f"op {i} traced", dt_t, res_t)
            if ok and ok_t:
                if res_t.output != res.output:
                    failed += 1  # counted as attempted by account() above
                    failures.append(f"op {i} traced: output differs from untraced")
                else:
                    overhead.append(dt_t - dt)
                    traced_layers.append(_layer_values(dt_t, res_t, rec_t))
        iter_s.append(time.perf_counter() - start - elapsed)
        i += 1
    # nominal s per measured s, for the whole run and, from the passes
    # sampled just before and just after it, for each operation
    scale = REF_NOMINAL_S / statistics.fmean(ref)
    op_scale = [REF_NOMINAL_S / statistics.fmean(ref[cuts[j]:cuts[j + 2]])
                for j in ok_ops]
    items = sum(n for n, _ in item_samples)
    item_s = sum(t * k for (_, t), k in zip(item_samples, op_scale))

    layers = {
        name: statistics.median(v[name] for v in traced_layers) if traced_layers else 0.0
        for name in LAYER_NAMES
    }
    if overhead:
        layers["harness.trace_overhead_s"] = statistics.median(overhead)
    layers["harness.fail_ratio"] = failed / attempted
    return {
        # probes count as failed operations, not as wrong outputs
        "correct": not failures and bool(wall),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "probes": probes,
        "ops": len(wall),
        "host_scale": scale,
        "ref_samples_s": ref,
        "op_scales": op_scale,
        "wall_s": statistics.median(w * k for w, k in zip(wall, op_scale)) if wall else None,
        "wall_samples_s": wall,
        "items": items,
        "item_samples": item_samples,
        "items_per_s": items / item_s if item_s else None,
        "output_sha256": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "layers": layers,
        "layer_units": {name: unit for name, unit, _ in LAYER_METRICS},
    }
