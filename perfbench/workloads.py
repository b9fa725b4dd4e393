"""The four benchmark workloads, driven through gapchain's public functions.

Each workload has a set-up step (input generation, done once per
process), a per-operation input step (untimed), and a timed operation.
An operation returns an `OpResult`: its checks (the same checks and
bounds as the matching CLI mode), the work units it finished, the time
of the phase that finished them, and canonical output bytes for the
output digest.

Sizes: "full" is the benchmark; "tiny" runs the same code at a toy scale
for selftest.py.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import gapchain as g
from gapchain import nt

from tracing import Recorder


@dataclass
class OpResult:
    checks: list[tuple[str, bool, str]]
    items: int
    item_s: float
    output: str
    layers: dict[str, float] = field(default_factory=dict)
    # the operation's own wall-clock sample, when it is not the whole op
    # (certify: verifying one genuine certificate)
    wall_s: float | None = None
    # what the workload's probes examine (certify: the genuine certificate)
    subject: Any = None


@dataclass
class Workload:
    name: str
    sizes: dict[str, dict[str, Any]]
    setup: Callable[[int, dict[str, Any]], Any]
    make_input: Callable[[Any, int], Any]
    op: Callable[[Any, Any, Recorder], OpResult]
    # gapchain call sites reached only inside run_experiment: traced runs
    # rebind them ("module.attr" -> span name)
    spans: dict[str, str] = field(default_factory=dict)
    # extra operations run after each operation that passed its checks,
    # outside its timing: (state, result) -> [(name, ok, outcome)]
    probes: Callable[[Any, OpResult], list[tuple[str, bool, str]]] | None = None


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i in a run started with --seed seed."""
    return seed * 1000 + i


def _canonical(obj: Any) -> str:
    def default(v):
        if isinstance(v, np.generic):
            return v.item()
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, Fraction):
            return str(v)
        raise TypeError(f"cannot serialize {type(v).__name__}")

    return json.dumps(obj, sort_keys=True, indent=1, default=default) + "\n"


def _check(name: str, passed: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(passed), detail)


# ---------------------------------------------------------------------------
# construct: partition -> Maynard table -> contracts -> construction -> coverage


def _construct_op(st: dict[str, Any], seed: int, rec: Recorder) -> OpResult:
    with rec.span("partition.build_s"):
        part = g.build_partition(
            g.derive_parameters(
                st["x"], y=st["y"], z=st["z"], small_low=st["small_low"]
            )
        )
    with rec.span("weights.rows_s"):
        table = g.build_weights(
            part, g.first_primes_tuple(st["r"]), kind="maynard", theta=st["theta"]
        )
        table.matrix()  # forces every lazy row into this span
    rows_s = rec.span_s["weights.rows_s"]
    with rec.span("weights.contracts_s"):
        contracts = g.weight_contract_report(table)
    with rec.span("construction.run_s"):
        run = g.run_construction(table, seed, eta=st["eta"])
    with rec.span("construction.coverage_s"):
        coverage = g.target_coverage_report(run, part.coverage_target, max_q=512)

    rows = int(part.weighted_primes.size)
    n_scored = len(run.survival_mass)
    checks = [
        # weights mode, default bounds
        _check("row_sums_comparable", contracts.row_sum_ratio <= 1.1,
               f"max/min = {contracts.row_sum_ratio:.6f}"),
        _check("off_tuple_suppressed", contracts.off_on_aggregate_ratio <= 0.1,
               f"aggregate off/on = {contracts.off_on_aggregate_ratio:.6f}"),
        _check("no_point_concentration", contracts.max_point_mass <= 1e-2,
               f"max mass = {contracts.max_point_mass:.3e}"),
        _check("no_zero_rows_in_table", contracts.zero_rows == 0,
               f"{contracts.zero_rows} zero rows"),
        # construct mode
        _check("normalization_consistent", run.normalization_max_rel_err <= 1e-12,
               f"max rel err {run.normalization_max_rel_err:.3e}"),
        _check("no_zero_rows", len(run.zero_rows) == 0,
               f"{len(run.zero_rows)} zero rows"),
        _check("stable_primes_exist", len(run.stable_primes) >= 1,
               f"{len(run.stable_primes)} stable of {n_scored}"),
    ]
    output = _canonical({
        "contracts": contracts.summary(),
        "construction": run.summary(),
        "coverage": coverage.summary(),
    })
    return OpResult(
        checks=checks,
        items=rows,
        item_s=rows_s,
        output=output,
        layers={
            "weights.rows_built": rows,
            "weights.grid_cells": rows * (table.n_max - table.n_min + 1),
            "construction.stable_ratio": len(run.stable_primes) / max(n_scored, 1),
        },
    )


# ---------------------------------------------------------------------------
# maier and certify: Maier frames at x=150, y=600


def _residue_system(x: float, class_seed: int) -> g.ResidueSystem:
    # the classes the maier CLI mode draws for --seed class_seed
    rng = g.derive_rng(class_seed, "maier-classes")
    entries = {
        int(p): int(rng.integers(0, int(p)))
        for p in nt.primes_in_range(1, math.floor(x)).tolist()
    }
    return g.ResidueSystem(entries=entries, excluded=1)


def _frame(st: dict[str, Any], system: g.ResidueSystem, rec: Recorder):
    x, y = math.floor(st["x"]), math.floor(st["y"])
    with rec.span("maier.frame_s"):
        frame = g.assemble_frame(system, g.FrameWindow(x=st["x"], y=st["y"]), 1)
    with rec.span("sieving.sift_s"):
        survivors = g.sift_interval(x, y, system)
    return frame, survivors


def _maier_setup(seed: int, p: dict[str, Any]) -> dict[str, Any]:
    # one fixed frame (the classes of `class_seed`); --seed draws the rows
    return {"seed": seed, **p, "system": _residue_system(p["x"], p["class_seed"])}


def _maier_op(st: dict[str, Any], seed: int, rec: Recorder) -> OpResult:
    frame, survivors = _frame(st, st["system"], rec)
    with rec.span("maier.row_stats_s"):
        stats = g.sample_rows(
            frame, survivors, st["stat_trials"], g.derive_random(seed, "maier-rows")
        )
    with rec.span("maier.search_s"):
        outcome = g.find_gap_chain(
            frame, survivors, st["k"], st["epsilon"], st["trials"],
            g.derive_random(seed, "maier-search"), seed=seed,
        )
    found = isinstance(outcome, g.GapChainCertificate)
    verified = False
    if found:
        with rec.span("maier.verify_s"):
            verified = bool(g.verify_certificate(outcome))

    # translation soundness, as the maier CLI mode draws it
    srng = g.derive_random(seed, "maier-soundness")
    outside = escapes = 0
    for _ in range(1000):
        t = srng.randrange(frame.x + 1, frame.y + 1)
        if t not in survivors:
            outside += 1
            escapes += math.gcd(frame.offset + t, frame.modulus) == 1

    trials = outcome.trials_used if found else outcome.trials
    checks = [
        _check("chain_found", found, f"k={st['k']} after {trials} trials"),
        _check("certificate_verifies", verified, "re-checked from scratch"),
        _check("translation_soundness", outside > 0 and escapes == 0,
               f"{escapes} coprime escapes among {outside} sieved-out draws"),
    ]
    output = _canonical({
        "row_stats": stats.summary(),
        "certificate": json.loads(outcome.to_json()) if found
        else dataclasses.asdict(outcome),
    })
    return OpResult(
        checks=checks,
        items=st["stat_trials"] + trials,
        item_s=rec.span_s["maier.row_stats_s"] + rec.span_s["maier.search_s"],
        output=output,
        layers={
            "maier.search_trials": trials,
            "maier.evidence_items": len(outcome.evidence) if found else 0,
        },
    )


def _certify_input(st: dict[str, Any], i: int):
    s = op_seed(st["seed"], i)
    return s, _residue_system(st["x"], s)


def _certify_op(st: dict[str, Any], inp, rec: Recorder) -> OpResult:
    seed, system = inp
    frame, survivors = _frame(st, system, rec)
    with rec.span("maier.search_s"):
        cert = g.find_gap_chain(
            frame, survivors, st["k"], st["epsilon"], st["trials"],
            g.derive_random(seed, "maier-search"), seed=seed,
        )
    if not isinstance(cert, g.GapChainCertificate):
        return OpResult(
            checks=[_check("chain_found", False,
                           f"no row in {cert.trials} trials")],
            items=cert.trials,
            item_s=rec.span_s["maier.search_s"],
            output=_canonical(dataclasses.asdict(cert)),
        )
    with rec.span("maier.verify_s"):
        outcome = g.verify_certificate(cert)
    return OpResult(
        checks=[
            _check("chain_found", True, f"k={cert.k} after {cert.trials_used} trials"),
            _check("certificate_verifies", bool(outcome), outcome.reason or "ok"),
        ],
        items=cert.trials_used,
        item_s=rec.span_s["maier.search_s"],
        output=cert.to_json(),
        layers={
            "maier.search_trials": cert.trials_used,
            "maier.evidence_items": len(cert.evidence),
        },
        wall_s=rec.span_s["maier.verify_s"],
        subject=cert,
    )


# Each mutation must be rejected.  The last five are the verifier defects
# the roadmap lists; today the verifier accepts them or raises.
def _tampered(cert: g.GapChainCertificate) -> dict[str, g.GapChainCertificate]:
    replace = dataclasses.replace
    bad_witness = [dict(e) for e in cert.evidence]
    bad_witness[0]["witness"] = "not-a-number"
    return {
        "min_gap_plus_1": replace(cert, min_gap=cert.min_gap + 1),
        "z_plus_1": replace(cert, z_str=str(int(cert.z_str) + 1)),
        "drop_first_evidence": replace(cert, evidence=cert.evidence[1:]),
        "k_zero": replace(cert, k=0),
        "epsilon_negative": replace(cert, epsilon=-1.0),
        "mr_rounds_zero": replace(cert, policy={**cert.policy, "mr_rounds": 0}),
        "witness_non_numeric": replace(cert, evidence=bad_witness),
        "x_string": replace(cert, x=str(cert.x)),
    }


def tamper_probe(st: dict[str, Any], res: OpResult) -> list[tuple[str, bool, str]]:
    results = []
    for name, bad in _tampered(res.subject).items():
        try:
            outcome = g.verify_certificate(bad)
        except Exception as exc:  # a total verifier never raises
            results.append((name, False, f"raised {type(exc).__name__}: {exc}"))
            continue
        if outcome.accepted:
            results.append((name, False, "accepted"))
        else:
            results.append((name, True, f"rejected: {outcome.reason}"))
    return results


# ---------------------------------------------------------------------------
# cover: the cover CLI mode through run_experiment


def _cover_op(st: dict[str, Any], seed: int, rec: Recorder) -> OpResult:
    cfg = g.ExperimentConfig(mode="cover", seed=seed)
    for key in ("n_elements", "n_covers", "m"):
        cfg.set("cover", key, st[key])
    report = g.run_experiment(cfg)
    return OpResult(
        checks=[(c["name"], c["passed"], c["detail"]) for c in report.checks],
        items=st["n_covers"],
        item_s=report.timings["nibble"],
        output=report.metrics_json(),
        layers={"covering.leftover_ratio": report.metrics["leftover"]["ratio"]},
    )


def _plain_setup(seed: int, p: dict[str, Any]) -> dict[str, Any]:
    return {"seed": seed, **p}


def _seed_input(st: dict[str, Any], i: int) -> int:
    return op_seed(st["seed"], i)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="construct",
            sizes={
                "full": dict(x=1400, y=21000.0, z=80.0, small_low=32.0,
                             r=4, theta=1.0, eta=0.1),
                "tiny": dict(x=800, y=12000.0, z=80.0, small_low=32.0,
                             r=4, theta=1.0, eta=0.1),
            },
            setup=_plain_setup,
            make_input=_seed_input,
            op=_construct_op,
        ),
        Workload(
            name="maier",
            sizes={
                "full": dict(x=150.0, y=600.0, class_seed=5, k=2, epsilon=0.01,
                             trials=400, stat_trials=200),
                "tiny": dict(x=36.0, y=120.0, class_seed=5, k=2, epsilon=0.01,
                             trials=400, stat_trials=20),
            },
            setup=_maier_setup,
            make_input=_seed_input,
            op=_maier_op,
        ),
        Workload(
            name="certify",
            sizes={
                "full": dict(x=150.0, y=600.0, k=3, epsilon=0.01, trials=2000),
                "tiny": dict(x=36.0, y=120.0, k=2, epsilon=0.01, trials=2000),
            },
            setup=_plain_setup,
            make_input=_certify_input,
            op=_certify_op,
            probes=tamper_probe,
        ),
        Workload(
            name="cover",
            sizes={
                "full": dict(n_elements=100_000, n_covers=10_000, m=2),
                "tiny": dict(n_elements=5_000, n_covers=500, m=2),
            },
            setup=_plain_setup,
            make_input=_seed_input,
            op=_cover_op,
            spans={
                "gapchain.harness.synth_instance": "covering.synth_s",
                "gapchain.harness.nibble_cover": "covering.nibble_s",
            },
        ),
    )
}
