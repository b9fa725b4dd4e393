"""Experiment harness: INI-configured runs producing reproducible reports.

Every experiment is described by an ExperimentConfig (read from
configparser INI text) and executed by run_experiment, which returns a
Report.  The report's metrics JSON deliberately excludes wall-clock
timings and sorts every key, so re-running the same configuration with
the same library build yields byte-identical bytes; timings live in a
separate, unstable file.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from . import nt
from .covering import nibble_cover, subset_leftover, synth_instance

if TYPE_CHECKING:
    from .partition import PrimePartition
    from .weights import AdmissibleTuple

__all__ = [
    "MODES",
    "ExperimentConfig",
    "Report",
    "run_experiment",
]

_SCALARS = (str, int, float, bool, type(None))


@contextmanager
def _timed(timings: dict[str, float], name: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - t0


def _check(name: str, passed: bool, detail: str = "") -> dict[str, Any]:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _jsonable(obj: Any) -> Any:
    """Reduce to plain JSON types; keys become strings, arrays become lists."""
    if isinstance(obj, _SCALARS):
        return obj
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into metrics")


_RUN_KEYS = frozenset({"mode", "seed", "out"})
# The keys each mode section may set.  configparser lowercases INI keys,
# and ExperimentConfig stores and looks up every key in lower case.
_SECTION_KEYS = {
    "primes": frozenset({"limit", "gk_limit", "gk_orders"}),
    "partition": frozenset(
        {"x", "y", "z", "small_low", "small_high", "excluded"}
    ),
    "sieve": frozenset({"medium_high"}),
    "weights": frozenset({"kind", "theta", "r", "offsets", "q_sample"}),
    "construct": frozenset({"eta", "max_q"}),
    "cover": frozenset({"n_elements", "n_covers", "m", "profile", "r_cap"}),
    "maier": frozenset(
        {"x", "y", "excluded", "k", "epsilon", "trials", "stat_trials", "d",
         "mr_rounds", "soundness_draws"}
    ),
    "gk": frozenset({"limit", "k"}),
    "verify": frozenset({"certificate"}),
}


@dataclass
class ExperimentConfig:
    """One experiment: a mode plus INI-style per-module option sections.

    The [run] section of the INI carries mode/seed/out; every other
    section is one of _SECTION_KEYS and is kept in `sections`, read
    through the typed getters.  from_ini rejects an unknown section or
    key by name, so a misspelt key cannot run at its default.  Keys are
    case-insensitive: set and the getters lowercase them, as configparser
    does.
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
            if name not in known:
                raise ValueError(
                    f"unknown section [{name}]; known: "
                    + ", ".join(f"[{k}]" for k in known)
                )
            unknown = sorted(set(keys) - defaults - known[name])
            if unknown:
                raise ValueError(
                    f"unknown [{name}] key(s) {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(known[name]))}"
                )
        unknown = sorted(
            key for key in defaults if not any(key in v for v in known.values())
        )
        if unknown:
            raise ValueError(f"unknown [DEFAULT] key(s) {', '.join(unknown)}")
        return cls(
            mode=run.get("mode", ""),
            seed=int(run.get("seed", "0")),
            out_dir=run.get("out", None),
            sections=sections,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_ini(Path(path).read_text(), str(path))

    def set(self, section: str, key: str, value: Any) -> None:
        self.sections.setdefault(section, {})[key.lower()] = str(value)

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        raw = self.sections.get(section, {}).get(key.lower())
        if raw is None or raw.strip() == "":
            return default
        return raw.strip()

    def getint(self, section: str, key: str, default: int) -> int:
        raw = self.get(section, key)
        return default if raw is None else int(raw)

    def getfloat(self, section: str, key: str, default: float) -> float:
        raw = self.get(section, key)
        if raw is None:
            return default
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"[{section}] {key} = {raw} is not a finite number")
        return value

    def getints(
        self, section: str, key: str, default: tuple[int, ...] | None
    ) -> tuple[int, ...] | None:
        raw = self.get(section, key)
        if raw is None:
            return default
        return tuple(int(part) for part in raw.replace(",", " ").split())


@dataclass
class Report:
    """Outcome of one experiment run.

    metrics_json() is the reproducibility surface: config echo, metrics,
    and checks under sorted keys, no timings.  csv_tables() flattens each
    dict-of-scalars metric family plus the check list for spreadsheet
    users.
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
        payload = {
            "mode": self.mode,
            "config": self.config,
            "metrics": self.metrics,
            "checks": self.checks,
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    def csv_tables(self) -> dict[str, str]:
        tables: dict[str, str] = {}

        def render(rows: list[tuple[Any, ...]], header: tuple[str, ...]) -> str:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return buf.getvalue()

        for family in sorted(self.metrics):
            value = self.metrics[family]
            if (
                isinstance(value, dict)
                and value
                and all(isinstance(v, _SCALARS) for v in value.values())
            ):
                rows = [(k, value[k]) for k in sorted(value)]
                tables[family] = render(rows, ("key", "value"))
        tables["checks"] = render(
            [(c["name"], c["passed"], c["detail"]) for c in self.checks],
            ("name", "passed", "detail"),
        )
        return tables

    def write(self, out_dir: str | Path) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        metrics_path = out / "metrics.json"
        metrics_path.write_text(self.metrics_json())
        written.append(metrics_path)
        for name, text in self.csv_tables().items():
            path = out / f"{name}.csv"
            path.write_text(text)
            written.append(path)
        timings_path = out / "timings.json"
        timings_path.write_text(
            json.dumps(self.timings, sort_keys=True, indent=1) + "\n"
        )
        written.append(timings_path)
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


def _build_partition(cfg: ExperimentConfig) -> PrimePartition:
    from .partition import build_partition, derive_parameters

    # desk-scale defaults: the window must fit every tuple translate (y/x
    # above the largest offset) and the small primes must sit above the
    # tuple difference scale 2 r^2, or the survival masses cannot track
    # sigma^r.  Formula mode (no overrides) lives only in derive_parameters:
    # below x ~ 1e15 its formulas give y <= x.
    sec = "partition"
    x = cfg.getfloat(sec, "x", 1400.0)
    z = cfg.getfloat(sec, "z", 80.0)
    params = derive_parameters(
        x,
        y=cfg.getfloat(sec, "y", 15.0 * x),
        z=z,
        small_low=cfg.getfloat(sec, "small_low", 32.0),
        small_high=cfg.getfloat(sec, "small_high", z),
    )
    return build_partition(params, cfg.getint(sec, "excluded", 1))


def _tuple_from_config(cfg: ExperimentConfig) -> AdmissibleTuple:
    from .weights import AdmissibleTuple, first_primes_tuple

    offsets = cfg.getints("weights", "offsets", None)
    if offsets is not None:
        return AdmissibleTuple(offsets)
    return first_primes_tuple(cfg.getint("weights", "r", 4))


def _build_table(cfg: ExperimentConfig, partition: PrimePartition):
    from .weights import build_weights

    table = build_weights(
        partition,
        _tuple_from_config(cfg),
        kind=cfg.get("weights", "kind", "maynard"),
        theta=cfg.getfloat("weights", "theta", 1.0),
    )
    table.matrix()  # build the rows now, so they are timed as "table"
    return table


def _run_primes(cfg: ExperimentConfig):
    timings: dict[str, float] = {}
    limit = cfg.getint("primes", "limit", 1_000_000)
    gk_limit = cfg.getint("primes", "gk_limit", 10_000)
    orders = cfg.getints("primes", "gk_orders", (1, 2))
    with _timed(timings, "count"):
        count = nt.prime_count(limit)
        recount = sum(
            int(seg.size)
            for seg in nt.iter_prime_segments(limit, segment_size=1 << 16)
        )
    with _timed(timings, "gap_records"):
        records = {str(k): nt.chain_gap_record(gk_limit, k) for k in sorted(orders)}
    metrics = {
        "limit": limit,
        "prime_count": count,
        "segmented_recount": recount,
        "gk_limit": gk_limit,
        "gap_records": records,
    }
    values = [records[str(k)] for k in sorted(orders)]
    checks = [
        _check(
            "segmented_recount_matches",
            recount == count,
            f"{recount} vs {count}",
        ),
        _check(
            "gap_records_nonincreasing",
            all(b <= a for a, b in zip(values, values[1:])),
            f"records {values} over orders {sorted(orders)}",
        ),
    ]
    return metrics, checks, timings


def _run_sieve(cfg: ExperimentConfig):
    from .sieving import greedy_rankin, residual_smooth_set, sift_interval

    timings: dict[str, float] = {}
    part = _build_partition(cfg)
    x, y = math.floor(part.x), math.floor(part.y)
    medium_high = cfg.getfloat(
        "sieve", "medium_high", min(part.x / 2, 25.0 * part.small_high)
    )
    medium = nt.primes_in_range(math.floor(part.small_high), math.floor(medium_high))
    medium = medium[medium != part.excluded_prime]
    with _timed(timings, "greedy"):
        system = greedy_rankin(part, medium.tolist())
        survivors = sift_interval(x, y, system)
    with _timed(timings, "residual"):
        _, residual = residual_smooth_set(survivors, part)

    stride = max(1, (y - x) // 200)
    entries = sorted(system.entries.items())
    mismatches = 0
    for t in range(x + 1, y + 1, stride):
        direct = not any(t % p == a for p, a in entries)
        if direct != (t in survivors):
            mismatches += 1
    n_smooth = sum(1 for _, flag in residual.classifications if flag)
    metrics = {
        "window": {"x": x, "y": y, "medium_high": medium_high},
        "partition_counts": {
            "small": part.counts[0],
            "weighted": part.counts[1],
            "target": part.counts[2],
            "medium": int(medium.size),
        },
        "survivors": survivors.count,
        "residual": {
            "count": residual.count,
            "target_survivors": len(residual.target_survivors),
            "count_bound": residual.count_bound,
            "smooth_members": n_smooth,
        },
    }
    checks = [
        _check(
            "membership_recheck",
            mismatches == 0,
            f"{mismatches} mismatches on stride {stride}",
        ),
        _check(
            "survivors_split",
            survivors.count == residual.count + len(residual.target_survivors),
            f"{survivors.count} survivors = {residual.count} residual + "
            f"{len(residual.target_survivors)} targets",
        ),
    ]
    return metrics, checks, timings


def _run_weights(cfg: ExperimentConfig):
    from .seeds import derive_rng
    from .weights import weight_contract_report

    timings: dict[str, float] = {}
    part = _build_partition(cfg)
    with _timed(timings, "table"):
        table = _build_table(cfg, part)
    q_sample = cfg.getint("weights", "q_sample", 0)
    with _timed(timings, "contracts"):
        report = weight_contract_report(
            table,
            q_sample=q_sample or None,
            rng=derive_rng(cfg.seed, "weights-q") if q_sample else None,
        )
    metrics = {"contracts": report.summary()}
    checks = []
    if table.kind == "maynard":
        # a uniform row covers the shifts that keep every translate in
        # (x, y], a window that narrows as p grows, so its sums differ by design
        checks.append(
            _check(
                "row_sums_comparable",
                report.row_sum_ratio <= ROW_SUM_RATIO_BOUND,
                f"max/min = {report.row_sum_ratio:.6f} "
                f"vs bound {ROW_SUM_RATIO_BOUND}",
            )
        )
    checks += [
        _check(
            "off_tuple_suppressed",
            report.off_on_aggregate_ratio <= AGGREGATE_BOUND,
            f"aggregate off/on = {report.off_on_aggregate_ratio:.6f} "
            f"vs bound {AGGREGATE_BOUND}",
        ),
        _check(
            "no_point_concentration",
            report.max_point_mass <= POINT_MASS_BOUND,
            f"max mass = {report.max_point_mass:.3e} vs bound {POINT_MASS_BOUND}",
        ),
        _check("no_zero_rows", report.zero_rows == 0, f"{report.zero_rows} zero rows"),
    ]
    return metrics, checks, timings


def _run_construct(cfg: ExperimentConfig):
    from .construction import run_construction, target_coverage_report

    timings: dict[str, float] = {}
    part = _build_partition(cfg)
    with _timed(timings, "table"):
        table = _build_table(cfg, part)
    with _timed(timings, "construction"):
        run = run_construction(
            table, cfg.seed, eta=cfg.getfloat("construct", "eta", 0.1)
        )
    with _timed(timings, "coverage"):
        coverage = target_coverage_report(
            run,
            part.coverage_target,
            max_q=cfg.getint("construct", "max_q", 512),
        )
    metrics = {
        "construction": run.summary(),
        "coverage": coverage.summary(),
    }
    checks = [
        _check(
            "normalization_consistent",
            run.normalization_max_rel_err <= 1e-12,
            f"max rel err {run.normalization_max_rel_err:.3e}",
        ),
        _check(
            "no_zero_rows",
            len(run.zero_rows) == 0,
            f"{len(run.zero_rows)} zero rows",
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
    profile = cfg.get(sec, "profile", "poisson")
    r_cap_raw = cfg.get(sec, "r_cap")
    instance = synth_instance(
        n_elements,
        n_covers,
        m,
        profile=profile,
        r_cap=int(r_cap_raw) if r_cap_raw is not None else None,
    )
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
            "profile": profile,
            "coverage": instance.coverage,
            "truncated_draws": result.truncated_draws,
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


def _run_maier(cfg: ExperimentConfig):
    from .maier import FrameWindow, GapChainCertificate, assemble_frame
    from .maier import find_gap_chain, sample_rows, verify_certificate
    from .seeds import derive_random, derive_rng
    from .sieving import ResidueSystem, sift_interval

    timings: dict[str, float] = {}
    sec = "maier"
    x = cfg.getfloat(sec, "x", 36.0)
    y = cfg.getfloat(sec, "y", 120.0)
    b0 = cfg.getint(sec, "excluded", 1)
    k = cfg.getint(sec, "k", 2)
    epsilon = cfg.getfloat(sec, "epsilon", 0.01)
    trials = cfg.getint(sec, "trials", 400)
    stat_trials = cfg.getint(sec, "stat_trials", 200)
    D = cfg.getint(sec, "D", 1)
    mr_rounds = cfg.getint(sec, "mr_rounds", 48)

    window = FrameWindow(x=x, y=y, excluded_prime=b0)
    class_rng = derive_rng(cfg.seed, "maier-classes")
    entries = {
        int(p): int(class_rng.integers(0, int(p)))
        for p in nt.primes_in_range(1, math.floor(x)).tolist()
        if int(p) != b0
    }
    system = ResidueSystem(entries=entries, excluded=b0)
    with _timed(timings, "frame"):
        frame = assemble_frame(system, window, D)
        survivors = sift_interval(math.floor(x), math.floor(y), system)
    with _timed(timings, "row_stats"):
        stats = sample_rows(
            frame,
            survivors,
            stat_trials,
            derive_random(cfg.seed, "maier-rows"),
        )
    with _timed(timings, "search"):
        outcome = find_gap_chain(
            frame,
            survivors,
            k,
            epsilon,
            trials,
            derive_random(cfg.seed, "maier-search"),
            mr_rounds=mr_rounds,
            seed=cfg.seed,
        )

    soundness_rng = derive_random(cfg.seed, "maier-soundness")
    draws = cfg.getint(sec, "soundness_draws", 1000)
    outside = 0
    coprime_escapes = 0
    for _ in range(draws):
        t = soundness_rng.randrange(math.floor(x) + 1, math.floor(y) + 1)
        if t not in survivors:
            outside += 1
            if math.gcd(frame.offset + t, frame.modulus) == 1:
                coprime_escapes += 1

    found = isinstance(outcome, GapChainCertificate)
    verified = bool(verify_certificate(outcome)) if found else False
    metrics: dict[str, Any] = {
        "frame": {
            "x": frame.x,
            "y": frame.y,
            "D": D,
            "modulus_bits": frame.modulus.bit_length(),
            "row_space_bits": frame.row_space_bits(),
            "row_index_bits": frame.row_index_bound().bit_length(),
            "survivors": survivors.count,
        },
        "row_stats": stats.summary(),
        "hit_counts": {str(a): c for a, c in sorted(stats.hit_counts.items())},
        "pair_counts": {
            f"{a}&{b}": c for (a, b), c in sorted(stats.pair_counts.items())
        },
        "soundness": {"draws": draws, "outside": outside, "escapes": coprime_escapes},
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
        _check(
            "translation_soundness",
            outside > 0 and coprime_escapes == 0,
            f"{coprime_escapes} coprime escapes among {outside} sieved-out draws",
        ),
    ]
    return metrics, checks, timings


def _run_gk(cfg: ExperimentConfig):
    timings: dict[str, float] = {}
    limit = cfg.getint("gk", "limit", 1_000_000)
    k = cfg.getint("gk", "k", 1)
    with _timed(timings, "scan"):
        record = nt.chain_gap_record(limit, k)
        record_next = nt.chain_gap_record(limit, k + 1)
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
    "primes": _run_primes,
    "sieve": _run_sieve,
    "weights": _run_weights,
    "construct": _run_construct,
    "cover": _run_cover,
    "maier": _run_maier,
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
        metrics=_jsonable(metrics),
        checks=checks,
        timings=timings,
    )
