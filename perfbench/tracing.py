"""Outside-in spans and counters around the calls into each gapchain layer.

Nothing here changes gapchain's source.  A `Recorder` times the spans
the workload code opens around its own calls into the library.  In a
traced run, `patched_layers` also rebinds selected library names (for
example `is_prime` as bound in `gapchain.nt` and `gapchain.maier`) to
wrappers that open spans and bump counters, and restores every original
binding on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Every per-layer metric a traced run reports, with its unit and the
# direction in which it improves.  A workload reports 0 for a layer it
# never reaches.  BENCHMARK.json lists the same names; selftest.py checks
# that the two agree.
IS_PRIME_OUTCOMES = (
    ("trial_division", "prime"),
    ("trial_division", "composite"),
    ("miller_rabin", "prime"),
    ("miller_rabin", "probable_prime"),
    ("miller_rabin", "composite"),
    ("convention", "composite"),
)

LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("partition.build_s", "s", "lower"),
    ("weights.rows_s", "s", "lower"),
    ("weights.rows_built", "count", "lower"),
    ("weights.row_ms", "ms", "lower"),
    ("weights.grid_cells", "count", "lower"),
    ("weights.contracts_s", "s", "lower"),
    ("construction.run_s", "s", "lower"),
    ("construction.coverage_s", "s", "lower"),
    ("construction.stable_ratio", "ratio", "higher"),
    ("sieving.sift_s", "s", "lower"),
    ("maier.frame_s", "s", "lower"),
    ("maier.row_stats_s", "s", "lower"),
    ("maier.search_s", "s", "lower"),
    ("maier.search_trials", "count", "lower"),
    ("maier.evidence_items", "count", "lower"),
    ("maier.verify_s", "s", "lower"),
    ("nt.is_prime_calls", "count", "lower"),
    ("nt.is_prime_s", "s", "lower"),
    *(
        (f"nt.is_prime.{method}.{verdict}", "count", "lower")
        for method, verdict in IS_PRIME_OUTCOMES
    ),
    ("nt.mr_rounds", "count", "lower"),
    ("nt.mr_bases_calls", "count", "lower"),
    ("nt.mr_bases_s", "s", "lower"),
    ("nt.prime_yield", "ratio", "higher"),
    ("nt.td_reject_ratio", "ratio", "lower"),
    ("covering.synth_s", "s", "lower"),
    ("covering.nibble_s", "s", "lower"),
    ("covering.edges_drawn", "count", "lower"),
    ("covering.leftover_ratio", "ratio", "lower"),
    ("harness.other_s", "s", "lower"),
    ("harness.trace_overhead_s", "s", "lower"),
    ("harness.fail_ratio", "ratio", "lower"),
)


class Recorder:
    """Per-operation span totals (seconds by name) and named counters.

    Spans nest: `top_s` sums only the spans opened while no other span
    was open, so `op seconds - top_s` is the time no layer span covers.
    """

    def __init__(self) -> None:
        self.span_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_s = 0.0
        self._depth = 0

    @contextmanager
    def span(self, name: str):
        self._depth += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._depth -= 1
            self.span_s[name] += dt
            if self._depth == 0:
                self.top_s += dt

    def timed(self, name: str, fn):
        """Wrap fn so that each call runs inside span `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper


def _rebind_everywhere(original, replacement, saved: list) -> None:
    """Point every gapchain module attribute bound to `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "gapchain" or mod_name.startswith("gapchain.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                saved.append((mod, attr, value))
                setattr(mod, attr, replacement)


@contextmanager
def patched_layers(rec: Recorder, spans: dict[str, str]):
    """Trace the nt primitives everywhere they are bound, plus named calls.

    spans maps "module.attr" (as bound in that gapchain module, e.g.
    "gapchain.harness.sample_rows") to the span name charged for each call.
    """
    import gapchain.covering as covering
    import gapchain.nt as nt

    saved: list = []
    is_prime = nt.is_prime
    mr_witness = nt.mr_composite_witness
    mr_bases = nt.derived_mr_bases
    draw_edge = covering.CoveringInstance.draw_edge
    counts = rec.counts

    def traced_is_prime(n, *args, **kwargs):
        with rec.span("nt.is_prime_s"):
            res = is_prime(n, *args, **kwargs)
        counts["nt.is_prime_calls"] += 1
        counts[f"nt.is_prime.{res.method}.{res.verdict}"] += 1
        return res

    def counted_mr_witness(n, a):
        counts["nt.mr_rounds"] += 1
        return mr_witness(n, a)

    def traced_mr_bases(n, rounds):
        counts["nt.mr_bases_calls"] += 1
        with rec.span("nt.mr_bases_s"):
            return mr_bases(n, rounds)

    def counted_draw_edge(self, p, rng):
        counts["covering.edges_drawn"] += 1
        return draw_edge(self, p, rng)

    try:
        _rebind_everywhere(is_prime, functools.wraps(is_prime)(traced_is_prime), saved)
        _rebind_everywhere(mr_witness, counted_mr_witness, saved)
        _rebind_everywhere(mr_bases, traced_mr_bases, saved)
        saved.append((covering.CoveringInstance, "draw_edge", draw_edge))
        covering.CoveringInstance.draw_edge = counted_draw_edge
        for target, span_name in spans.items():
            mod_name, attr = target.rsplit(".", 1)
            mod = sys.modules[mod_name]
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, rec.timed(span_name, fn))
        yield rec
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
