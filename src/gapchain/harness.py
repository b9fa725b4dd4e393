"""Experiment harness: INI-configured runs producing reproducible reports.

Every experiment is described by an ExperimentConfig (read from
configparser INI text) and executed by run_experiment, which returns a
Report.  The modes are construct (partition, weight table, contracts,
construction and coverage), cover, chain, gk and verify.  The report's
metrics JSON deliberately excludes wall-clock timings and sorts every
key, so re-running the same configuration with the same library build
yields byte-identical bytes; timings live in a separate, unstable file.
"""

from __future__ import annotations

import configparser
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from . import nt
from .covering import nibble_cover, subset_leftover, synth_instance

if TYPE_CHECKING:
    from .partition import PrimePartition

__all__ = [
    "MODES",
    "ExperimentConfig",
    "Report",
    "run_experiment",
]

@contextmanager
def _timed(timings: dict[str, float], name: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - t0


def _text(obj: Any) -> str:
    """obj as JSON text under sorted keys, one space a level, and a newline."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _check(name: str, passed: bool, detail: str = "") -> dict[str, Any]:
    return {"name": name, "passed": bool(passed), "detail": detail}


_RUN_KEYS = frozenset({"mode", "seed", "out"})
# The keys each mode section may set.  configparser lowercases INI keys,
# and ExperimentConfig stores and looks up every key in lower case.
_SECTION_KEYS = {
    "partition": frozenset(
        {"x", "y", "z", "small_low", "small_high", "excluded"}
    ),
    "weights": frozenset({"theta", "r"}),
    "construct": frozenset({"eta"}),
    "cover": frozenset({"n_elements", "n_covers", "m"}),
    "chain": frozenset(
        {"x", "y", "excluded", "k", "epsilon", "trials", "stat_trials", "classes"}
    ),
    "gk": frozenset({"limit", "k"}),
    "verify": frozenset({"certificate"}),
}


def _check_keys(
    known: dict[str, frozenset[str]], section: str, keys: set[str]
) -> None:
    """Refuse a section that is not in known, or keys it does not know, by name."""
    if section not in known:
        raise ValueError(
            f"unknown section [{section}]; known: "
            + ", ".join(f"[{k}]" for k in known)
        )
    unknown = sorted(keys - known[section])
    if unknown:
        raise ValueError(
            f"unknown [{section}] key(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known[section]))}"
        )


@dataclass
class ExperimentConfig:
    """One experiment: a mode plus INI-style per-module option sections.

    The [run] section of the INI carries mode/seed/out; every other
    section is one of _SECTION_KEYS and is kept in `sections`, read
    through the typed getters.  from_ini and set reject an unknown
    section or key by name, so a misspelt key cannot run at its default.
    Keys are case-insensitive: set and the getters lowercase them, as
    configparser does.
    """

    mode: str = ""
    seed: int = 0
    out_dir: str | None = None
    sections: dict[str, dict[str, str]] = field(default_factory=dict)

    @classmethod
    def from_ini(cls, text: str, source: str = "<string>") -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text, source)
        sections = {
            name: dict(parser.items(name)) for name in parser.sections()
        }
        run = sections.pop("run", {})
        # configparser copies [DEFAULT] keys into every section: each must
        # be known to some section, and is not checked section by section
        known = {"run": _RUN_KEYS, **_SECTION_KEYS}
        defaults = set(parser.defaults())
        for name, keys in [("run", run), *sections.items()]:
            _check_keys(known, name, set(keys) - defaults)
        unknown = sorted(
            key for key in defaults if not any(key in v for v in known.values())
        )
        if unknown:
            raise ValueError(f"unknown [DEFAULT] key(s) {', '.join(unknown)}")
        return cls(
            mode=run.get("mode", ""),
            seed=_parse("run", "seed", run.get("seed", "0"), int, "an integer"),
            out_dir=run.get("out", None),
            sections=sections,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_ini(Path(path).read_text(), str(path))

    def set(self, section: str, key: str, value: Any) -> None:
        _check_keys(_SECTION_KEYS, section, {key.lower()})
        self.sections.setdefault(section, {})[key.lower()] = str(value)

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        raw = self.sections.get(section, {}).get(key.lower())
        if raw is None or raw.strip() == "":
            return default
        return raw.strip()

    def getint(self, section: str, key: str, default: int) -> int:
        raw = self.get(section, key)
        return default if raw is None else _parse(section, key, raw, int, "an integer")

    def getfloat(self, section: str, key: str, default: float) -> float:
        raw = self.get(section, key)
        if raw is None:
            return default
        value = _parse(section, key, raw, float, "a number")
        if not math.isfinite(value):
            raise ValueError(f"[{section}] {key} = {raw} is not a finite number")
        return value


def _parse(
    section: str, key: str, raw: str, parse: Callable[[str], Any], kind: str
) -> Any:
    """parse(raw); a ValueError names the option as [section] key = raw."""
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key} = {raw} is not {kind}") from None


@dataclass
class Report:
    """Outcome of one experiment run.

    metrics_json() is the run's record: config echo, metrics and checks
    under sorted keys, no timings.  The metrics must be plain JSON types,
    as every mode runner builds them.
    """

    mode: str
    config: dict[str, Any]
    metrics: dict[str, Any]
    checks: list[dict[str, Any]]
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def metrics_json(self) -> str:
        return _text(
            {
                "mode": self.mode,
                "config": self.config,
                "metrics": self.metrics,
                "checks": self.checks,
            }
        )

    def write(self, out_dir: str | Path) -> list[Path]:
        """Write metrics.json, timings.json and, for a chain found,
        certificate.json; return their paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = {
            "metrics.json": self.metrics_json(),
            "timings.json": _text(self.timings),
        }
        if self.mode == "chain" and "certificate" in self.metrics:
            files["certificate.json"] = _text(self.metrics["certificate"])
        written = []
        for name, text in files.items():
            path = out / name
            path.write_text(text)
            written.append(path)
        return written


# ---------------------------------------------------------------------------
# mode runners: each imports the stages it uses, so a run loads only those

# Check bounds are fixed, so no config can loosen a verdict: the Maynard
# row sums' max/min, the off-tuple over on-tuple aggregate mass, the
# largest point mass of one row, and the cover leftover's relative
# distance from 5^-m.
ROW_SUM_RATIO_BOUND = 1.1
AGGREGATE_BOUND = 0.1
POINT_MASS_BOUND = 1e-2
LEFTOVER_TOLERANCE = 0.5


def _build_partition(
    cfg: ExperimentConfig,
    x: float | None = None,
    y: float | None = None,
    excluded: int = 1,
) -> PrimePartition:
    from .partition import build_partition, derive_parameters

    # a chain run passes its own window (x, y and the excluded prime) from
    # [chain]; every other run reads it from [partition].  A key the config
    # does not set keeps derive_parameters' desk default
    sec = "partition"
    if x is None:
        x = cfg.getfloat(sec, "x", 1400.0)
        y = cfg.getfloat(sec, "y", None)
        excluded = cfg.getint(sec, "excluded", 1)
    keys = ("z", "small_low", "small_high")
    overrides = {"y": y, **{key: cfg.getfloat(sec, key, None) for key in keys}}
    params = derive_parameters(
        x, **{key: v for key, v in overrides.items() if v is not None}
    )
    return build_partition(params, excluded)


def _build_table(cfg: ExperimentConfig, partition: PrimePartition):
    from .weights import build_weights, first_primes_tuple

    table = build_weights(
        partition,
        first_primes_tuple(cfg.getint("weights", "r", 4)),
        theta=cfg.getfloat("weights", "theta", 1.0),
    )
    table.matrix()  # build the rows now, so they are timed as "table"
    return table


def _run_construct(cfg: ExperimentConfig):
    from .construction import _check_eta, run_construction, target_coverage_report
    from .weights import weight_contract_report

    timings: dict[str, float] = {}
    eta = cfg.getfloat("construct", "eta", 0.1)
    _check_eta(eta)  # refused before the table is built
    part = _build_partition(cfg)
    with _timed(timings, "table"):
        table = _build_table(cfg, part)
    with _timed(timings, "contracts"):
        contracts = weight_contract_report(table)
    with _timed(timings, "construction"):
        run = run_construction(table, cfg.seed, eta=eta)
    metrics = {"contracts": contracts.summary(), "construction": run.summary()}
    if run.stable_primes:  # with none, nothing covers the targets
        with _timed(timings, "coverage"):
            coverage = target_coverage_report(run, part.coverage_target)
        metrics["coverage"] = coverage.summary()
    checks = [
        _check(
            "row_sums_comparable",
            contracts.row_sum_ratio <= ROW_SUM_RATIO_BOUND,
            f"max/min = {contracts.row_sum_ratio:.6f} "
            f"vs bound {ROW_SUM_RATIO_BOUND}",
        ),
        _check(
            "off_tuple_suppressed",
            contracts.off_on_aggregate_ratio <= AGGREGATE_BOUND,
            f"aggregate off/on = {contracts.off_on_aggregate_ratio:.6f} "
            f"vs bound {AGGREGATE_BOUND}",
        ),
        _check(
            "no_point_concentration",
            contracts.max_point_mass <= POINT_MASS_BOUND,
            f"max mass = {contracts.max_point_mass:.3e} vs bound {POINT_MASS_BOUND}",
        ),
        _check(
            "no_zero_rows",
            contracts.zero_rows == 0,
            f"{contracts.zero_rows} zero rows",
        ),
        _check(
            "normalization_consistent",
            run.normalization_max_rel_err <= 1e-12,
            f"max rel err {run.normalization_max_rel_err:.3e}",
        ),
        _check(
            "stable_primes_exist",
            len(run.stable_primes) >= 1,
            f"{len(run.stable_primes)} stable of {len(run.survival_mass)}",
        ),
    ]
    return metrics, checks, timings


def _run_cover(cfg: ExperimentConfig):
    from .seeds import derive_rng

    timings: dict[str, float] = {}
    sec = "cover"
    n_elements = cfg.getint(sec, "n_elements", 20_000)
    n_covers = cfg.getint(sec, "n_covers", 2_000)
    m = cfg.getint(sec, "m", 2)
    instance = synth_instance(n_elements, n_covers, m)
    rng = derive_rng(cfg.seed, "cover")
    with _timed(timings, "nibble"):
        result = nibble_cover(instance, m, rng)
    subset = rng.choice(n_elements, size=max(1, n_elements // 10), replace=False)
    sub_count = subset_leftover(result, subset)
    expected = 5.0**-m
    lf = result.leftover_fraction
    sub_frac = sub_count / subset.size
    metrics = {
        "instance": {
            "n_elements": n_elements,
            "n_covers": n_covers,
            "m": m,
            "coverage": instance.coverage,
        },
        "leftover": {
            "fraction": lf,
            "expected": expected,
            "ratio": lf / expected,
            "subset_size": int(subset.size),
            "subset_count": sub_count,
            "subset_fraction": sub_frac,
        },
    }
    checks = [
        _check(
            "leftover_near_expected",
            abs(lf / expected - 1.0) <= LEFTOVER_TOLERANCE,
            f"fraction {lf:.6f} vs 5^-{m} = {expected:.6f}",
        ),
        _check(
            "subset_tracks_population",
            lf == 0.0 or abs(sub_frac / lf - 1.0) <= 0.75,
            f"subset {sub_frac:.6f} vs population {lf:.6f}",
        ),
    ]
    return metrics, checks, timings


CLASS_SOURCES = ("random", "greedy", "construction")


def _chain_classes(cfg: ExperimentConfig, source: str, x: float, y: float, b0: int):
    """The window of a chain run's frame, and its residue system over the
    primes up to x: uniform classes on the maier-classes stream,
    `greedy_rankin`, or the random construction's full system."""
    if source == "random":
        from .maier import FrameWindow
        from .seeds import derive_rng
        from .sieving import sample_classes

        window = FrameWindow(x=x, y=y, excluded_prime=b0)  # before any draw
        return window, sample_classes(
            nt.primes_in_range(1, math.floor(x)).tolist(),
            derive_rng(cfg.seed, "maier-classes"),
            excluded=b0,
        )
    if source == "greedy":
        from .sieving import greedy_rankin

        part = _build_partition(cfg, x, y, b0)
        medium_high = min(part.x / 2, 25.0 * part.small_high)
        medium = nt.primes_in_range(
            math.floor(part.small_high), math.floor(medium_high)
        )
        return part, greedy_rankin(part, medium[medium != b0].tolist())
    from .construction import _check_eta, run_construction
    from .sieving import assemble_full_system

    eta = cfg.getfloat("construct", "eta", 0.1)
    _check_eta(eta)  # refused before the table is built
    part = _build_partition(cfg, x, y, b0)
    run = run_construction(_build_table(cfg, part), cfg.seed, eta=eta)
    return part, assemble_full_system(run.small_classes, run.chosen_offsets, part)


def _run_chain(cfg: ExperimentConfig):
    from .maier import GapChainCertificate, _check_row_sample, _check_search
    from .maier import assemble_frame, find_gap_chain, sample_rows, verify_certificate
    from .maier import row_index_bound
    from .seeds import derive_random
    from .sieving import sift_interval

    timings: dict[str, float] = {}
    sec = "chain"
    # the window comes from [chain] alone: [partition]'s would be ignored
    ignored = [key for key in ("x", "y", "excluded") if cfg.get("partition", key)]
    if ignored:
        keys = ", ".join(ignored)
        raise ValueError(
            f"chain mode reads no [partition] {keys}: set [{sec}] {keys} instead"
        )
    x = cfg.getfloat(sec, "x", 36.0)
    y = cfg.getfloat(sec, "y", 120.0)
    b0 = cfg.getint(sec, "excluded", 1)
    k = cfg.getint(sec, "k", 2)
    epsilon = cfg.getfloat(sec, "epsilon", 0.01)
    trials = cfg.getint(sec, "trials", 400)
    stat_trials = cfg.getint(sec, "stat_trials", 200)
    source = cfg.get(sec, "classes", "random")
    if source not in CLASS_SOURCES:
        raise ValueError(
            f"[{sec}] classes = {source} is not one of {', '.join(CLASS_SOURCES)}"
        )
    # refused before any class source runs
    _check_search(k, epsilon, trials)
    _check_row_sample(stat_trials, f"[{sec}] stat_trials")

    with _timed(timings, "classes"):
        window, system = _chain_classes(cfg, source, x, y, b0)
    with _timed(timings, "frame"):
        frame = assemble_frame(system, window)
        survivors = sift_interval(frame.x, frame.y, system)
    # the search and the row sample read separate streams, so order is free
    with _timed(timings, "search"):
        outcome = find_gap_chain(
            frame,
            survivors,
            k,
            epsilon,
            trials,
            derive_random(cfg.seed, "maier-search"),
            seed=cfg.seed,
        )
    with _timed(timings, "row_stats"):
        stats = sample_rows(
            frame,
            survivors,
            stat_trials,
            derive_random(cfg.seed, "maier-rows"),
        )

    found = isinstance(outcome, GapChainCertificate)
    with _timed(timings, "verify"):
        verified = bool(verify_certificate(outcome)) if found else False
    metrics: dict[str, Any] = {
        "frame": {
            "x": frame.x,
            "y": frame.y,
            "modulus_bits": frame.modulus.bit_length(),
            "row_index_bits": row_index_bound(frame.modulus).bit_length(),
            "survivors": survivors.count,
        },
        "row_stats": stats.summary(),
    }
    if found:
        metrics["certificate"] = json.loads(outcome.to_json())
        search_detail = (
            f"k={k} after {outcome.trials_used} trials, "
            f"min gap {outcome.min_gap}"
        )
    else:
        metrics["miss"] = asdict(outcome)
        search_detail = (
            f"no row in {trials} trials; best had {outcome.best_prime_count} primes"
        )
    checks = [
        _check("chain_found", found, search_detail),
        _check("certificate_verifies", verified, "re-checked from scratch"),
    ]
    return metrics, checks, timings


def _run_gk(cfg: ExperimentConfig):
    timings: dict[str, float] = {}
    limit = cfg.getint("gk", "limit", 1_000_000)
    k = cfg.getint("gk", "k", 1)
    with _timed(timings, "scan"):
        record = nt.chain_gap_record(limit, k)
        try:
            record_next = nt.chain_gap_record(limit, k + 1)
        except ValueError as exc:  # too few gaps for one more
            raise ValueError(
                f"gk compares k = {k} with order k + 1 = {k + 1}: {exc}"
            ) from None
    metrics = {
        "limit": limit,
        "k": k,
        "record": record,
        "record_next_order": record_next,
    }
    checks = [
        _check("record_positive", record > 0, f"record {record}"),
        _check(
            "longer_chains_no_larger",
            record_next <= record,
            f"order {k + 1} gives {record_next} vs {record}",
        ),
    ]
    return metrics, checks, timings


def _run_verify(cfg: ExperimentConfig):
    from .maier import GapChainCertificate, VerificationOutcome, verify_certificate

    timings: dict[str, float] = {}
    path = cfg.get("verify", "certificate")
    if path is None:
        raise ValueError("verify mode needs [verify] certificate = <path>")
    with _timed(timings, "verify"):
        try:
            cert = GapChainCertificate.from_json(Path(path).read_text())
        except OSError as exc:  # missing, a directory, unreadable
            cert = None
            outcome = VerificationOutcome(
                False, f"cannot read certificate {path} ({exc.strerror})"
            )
        except ValueError as exc:  # not JSON, or the wrong keys
            cert, outcome = None, VerificationOutcome(False, str(exc))
        else:
            outcome = verify_certificate(cert)
    metrics: dict[str, Any] = {
        "accepted": outcome.accepted,
        "reason": outcome.reason or "",
    }
    if cert is not None:
        ps = cert.prime_offsets
        metrics["certificate"] = {
            "k": cert.k,
            "epsilon": cert.epsilon,
            "n_primes": len(ps) if isinstance(ps, list) else None,
            "min_gap": cert.min_gap,
            "version": cert.version,
        }
    checks = [
        _check("certificate_accepted", outcome.accepted, outcome.reason or "ok")
    ]
    return metrics, checks, timings


_RUNNERS: dict[str, Callable[[ExperimentConfig], tuple]] = {
    "construct": _run_construct,
    "cover": _run_cover,
    "chain": _run_chain,
    "gk": _run_gk,
    "verify": _run_verify,
}
MODES = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Dispatch on cfg.mode and assemble the Report."""
    if cfg.mode not in _RUNNERS:
        raise ValueError(
            f"unknown mode {cfg.mode!r}; expected one of {', '.join(MODES)}"
        )
    timings: dict[str, float] = {}
    with _timed(timings, "total"):
        metrics, checks, phase_timings = _RUNNERS[cfg.mode](cfg)
    timings.update(phase_timings)
    config_echo = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "sections": {
            name: dict(sorted(body.items()))
            for name, body in sorted(cfg.sections.items())
        },
    }
    return Report(
        mode=cfg.mode,
        config=config_echo,
        metrics=metrics,
        checks=checks,
        timings=timings,
    )
