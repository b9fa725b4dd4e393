"""Benchmark entry point: one workload per run, in a fresh child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a gapchain checkout.  It imports gapchain from
./src and nowhere else, and exits with status 2 when ./src/gapchain is
missing.

The parent times set-up (interpreter start, `import gapchain`, input
generation) over several set-up-only children, then starts one measuring
child, which runs operations of the workload until the next one would
end after S seconds.  Each set-up timing is scaled by the reference
kernel timed just before it (see hostspeed.py).  The child is
single-threaded: BLAS/OpenMP pools are pinned to one thread.

Standard output: one JSON line of detail (environment, raw samples,
checks, output digest), then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones: wall_s, items_per_s and setup_s are
scaled to a nominal host speed (see hostspeed.py), peak_rss_mb is raw.
With --trace 1 they are the per-layer ones, in raw units, from
operations run under outside-in tracing (see tracing.py), each paired
with an untraced run of the same input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import REF_NOMINAL_S, reference_pass

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("construct", "maier", "certify", "cover")
SETUP_SAMPLES = 7          # set-up timings per run, median reported
SETUP_REF_PASSES = 3       # reference passes timed before each set-up
DEADLINE_S = 170.0         # hard stop for everything one run starts
END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# child side


def child_main(args: argparse.Namespace, root: Path) -> int:
    sys.path.insert(0, str(root / "src"))
    import gapchain

    if Path(gapchain.__file__).resolve().parent != (root / "src" / "gapchain").resolve():
        print(f"imported gapchain from {gapchain.__file__}, not ./src", file=sys.stderr)
        return 3

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed, wl.sizes[args.size])
    print("READY", flush=True)
    if args.child == "setup":
        return 0

    from measure import measure

    result = measure(wl, state, args.seconds, bool(args.trace),
                     min_ops=1 if args.size == "tiny" else 2)
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent side


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONNOUSERSITE="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def _spawn(args, root: Path, role: str, deadline: float):
    """Start a child; return (process, set-up seconds, reference passes, kill timer)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size,
    ]
    refs = [reference_pass() for _ in range(SETUP_REF_PASSES)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        timer.cancel()
        raise RuntimeError(f"{role} child failed before set-up finished "
                           f"(exit {proc.returncode})")
    return proc, setup_s, refs, timer


def _finish(proc, timer) -> str:
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, env={**os.environ, "GIT_DIR": str(root / ".git")},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "gapchain").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def parent_main(args: argparse.Namespace, root: Path) -> int:
    deadline = time.monotonic() + DEADLINE_S
    setup_samples = []
    setup_refs = []
    for k in range(SETUP_SAMPLES):
        role = "measure" if k == SETUP_SAMPLES - 1 else "setup"
        proc, setup_s, refs, timer = _spawn(args, root, role, deadline)
        setup_samples.append(setup_s)
        setup_refs.append(refs)
        if role == "setup":
            _finish(proc, timer)
    lines = _finish(proc, timer).strip().splitlines()
    if not lines:
        raise RuntimeError("measuring child printed no result")
    child = json.loads(lines[-1])

    if args.trace:
        metrics = {name: {"value": child["layers"][name], "unit": unit}
                   for name, unit in child["layer_units"].items()}
    else:
        values = {
            "wall_s": child["wall_s"],
            "items_per_s": child["items_per_s"],
            "setup_s": statistics.median(
                s * REF_NOMINAL_S / statistics.fmean(r)
                for s, r in zip(setup_samples, setup_refs)
            ),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    detail = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": child["numpy"],
            "cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "commit": _commit(root),
            "src_sha256": _src_digest(root),
        },
        "setup_samples_s": setup_samples,
        "setup_ref_samples_s": setup_refs,
        **{k: v for k, v in child.items() if k not in ("layers", "layer_units")},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if args.child:
        return child_main(args, root)
    if not (root / "src" / "gapchain" / "__init__.py").is_file():
        print("run.py: no ./src/gapchain here; run it from the root of a "
              "gapchain checkout", file=sys.stderr)
        return 2
    try:
        return parent_main(args, root)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
