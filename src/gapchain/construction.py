"""The randomized residue-class construction and its statistical checks.

One run proceeds in four moves:

  1. draw one uniform residue class per small prime (a ResidueSystem
     over the small primes), which carves out the sifted set;
  2. for every weighted prime p, compute exactly the survival mass:
     the normalized weight carried by shifts n for which every translate
     n + h_i p is sifted, i.e. the probability that a weighted random
     shift keeps the whole tuple alive;
  3. keep the stable primes, those whose survival mass stays within a
     tolerance eta of the fully-independent value sigma**r, and for each
     draw one shift from the conditional law (survivors of the mask,
     reweighted); unstable primes get the sentinel shift 0;
  4. measure how well the chosen translates cover the target primes,
     splitting each target's incoming mass into the on-tuple main part
     and the near-window off-tuple error part.

Exactness discipline: survival masses are exact sums, math.fsum of each
masked row bit for bit (weights.exact_row_sums), and are re-derived
through an independent numpy pairwise reduction each run; the two must
agree to 1e-12 relative or the run aborts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .nt import strike_classes
from .seeds import derive_rng
from .sieving import ResidueSystem, sample_classes, sift_interval
from .weights import WeightTable, draw_shift, exact_row_sums, gathered_sums

__all__ = [
    "survival_mask",
    "select_stable_primes",
    "ConstructionRun",
    "run_construction",
    "TargetCoverageReport",
    "target_coverage_report",
]

NORMALIZATION_RTOL = 1e-12


def survival_mask(
    table: WeightTable, p: int, small_classes: ResidueSystem
) -> np.ndarray:
    """Boolean mask over the table's shift grid: shifts whose tuple is sifted."""
    p = int(p)
    keep = np.ones(table.n_max - table.n_min + 1, dtype=bool)
    # shift n survives iff every translate n + h p avoids every chosen
    # class a_s (mod s), i.e. iff n avoids a_s - h p (mod s) for all s, h
    strike_classes(
        keep,
        table.n_min,
        [
            (s, (a - h * p) % s)
            for s, a in small_classes.entries.items()
            for h in table.tuple.offsets
        ],
    )
    return keep


def select_stable_primes(
    survival_mass: dict[int, float], sigma_r: float, eta: float
) -> list[int]:
    """Primes whose survival mass is within eta (relative) of sigma**r."""
    if sigma_r <= 0:
        raise ValueError("sigma**r must be positive")
    return sorted(
        p for p, xp in survival_mass.items() if abs(xp / sigma_r - 1) <= eta
    )


@dataclass
class ConstructionRun:
    """Everything one seeded construction run produced.

    chosen_offsets maps every weighted prime to its drawn shift, with the
    conventional sentinel 0 for primes outside the stable set (and for
    zero-weight rows, which can never be stable).  The survival matrix is
    the boolean sifted-tuple mask aligned with table.matrix() rows, each
    row followed in memory by one False as the matrix rows are by one 0.0.
    """

    table: WeightTable
    seed: int
    eta: float
    small_classes: ResidueSystem
    sigma_r: float
    survival_mass: dict[int, float]
    stable_primes: list[int]
    n_unstable: int
    zero_rows: list[int]
    chosen_offsets: dict[int, int]
    normalization_max_rel_err: float
    mask_matrix: np.ndarray = field(repr=False)

    @property
    def partition(self):
        return self.table.partition

    def summary(self) -> dict:
        xs = np.array(
            [self.survival_mass[p] for p in sorted(self.survival_mass)]
        )
        return {
            "seed": self.seed,
            "eta": self.eta,
            "sigma_r": self.sigma_r,
            "n_weighted": len(self.survival_mass) + len(self.zero_rows),
            "n_stable": len(self.stable_primes),
            "n_unstable": self.n_unstable,
            "n_zero_rows": len(self.zero_rows),
            "survival_mass_mean": float(xs.mean()) if xs.size else 0.0,
            "survival_mass_min": float(xs.min()) if xs.size else 0.0,
            "survival_mass_max": float(xs.max()) if xs.size else 0.0,
            "normalization_max_rel_err": self.normalization_max_rel_err,
        }


def _check_eta(eta: float) -> None:
    if not eta >= 0:
        raise ValueError(f"eta = {eta:g} must be nonnegative")


def run_construction(
    table: WeightTable, seed: int, eta: float = 0.1
) -> ConstructionRun:
    """Execute one full seeded run (draw classes, masses, stable shifts).

    Determinism: the small classes and each prime's shift use
    substreams derived from (seed, label), so results do not depend on
    iteration order or on how many other draws happened in between.
    """
    _check_eta(eta)
    part = table.partition
    small_classes = sample_classes(
        part.small_primes, derive_rng(seed, "small-classes"),
        excluded=part.excluded_prime,
    )

    ps, W, sums = table.matrix()
    # laid out like the matrix, each row followed by one False
    mask = np.ones((W.shape[0], W.shape[1] + 1), dtype=bool)
    mask[:, -1] = False
    mask = mask[:, :-1]
    for i, p in enumerate(ps.tolist()):
        mask[i] = survival_mask(table, p, small_classes)

    sigma_r = float(part.sigma ** table.tuple.r)
    survival: dict[int, float] = {}
    zero_rows: list[int] = []
    chosen: dict[int, int] = {}
    max_rel = 0.0
    for i, p in enumerate(ps.tolist()):
        chosen[p] = 0
        if sums[i] <= 0:
            zero_rows.append(p)
            continue
        # one masked row feeds the exact sum, the numpy sum and the draw
        vals = W[i] * mask[i]
        xp = float(exact_row_sums(vals[None])[0]) / float(sums[i])
        # independent reduction path: plain numpy pairwise sum
        total_np = vals.sum()
        xp_np = float(total_np / sums[i])
        denom = max(abs(xp), 1e-300)
        rel = abs(xp_np - xp) / denom
        max_rel = max(max_rel, rel)
        if rel > NORMALIZATION_RTOL:
            raise AssertionError(
                f"survival mass normalization drifted for p={p}: "
                f"{xp} vs {xp_np} (rel {rel:.3e})"
            )
        survival[p] = xp
        if select_stable_primes({p: xp}, sigma_r, eta):
            if total_np <= 0:
                raise ValueError(
                    f"stable prime {p} has zero conditional mass; eta too loose"
                )
            chosen[p] = draw_shift(
                vals, table.n_min, derive_rng(seed, "offset", str(p))
            )

    stable = select_stable_primes(survival, sigma_r, eta)

    return ConstructionRun(
        table=table,
        seed=seed,
        eta=eta,
        small_classes=small_classes,
        sigma_r=sigma_r,
        survival_mass=survival,
        stable_primes=stable,
        n_unstable=len(survival) - len(stable),
        zero_rows=zero_rows,
        chosen_offsets=chosen,
        normalization_max_rel_err=max_rel,
        mask_matrix=mask,
    )


@dataclass(frozen=True)
class TargetCoverageReport:
    """Coverage mass received by sampled sifted targets, split by shift.

    For each sampled target q the incoming mass is
    sigma**-r * sum over stable p of the conditional-law probability of
    the shift q - h p, accumulated separately over tuple shifts (main)
    and over non-tuple shifts within the |h| <= y/x window (error).
    """

    coverage_target: float
    n_stable: int
    n_sifted_targets: int
    n_q_sampled: int
    error_offsets: list[int]
    main_mean: float
    main_std: float
    main_cv: float
    main_min: float
    main_max: float
    mean_abs_rel_dev: float
    error_mean: float
    error_max: float
    frac_error_above_tenth_main: float

    def summary(self) -> dict:
        return asdict(self)


def target_coverage_report(
    run: ConstructionRun,
    coverage_target: float,
    *,
    max_q: int = 512,
) -> TargetCoverageReport:
    """Measure main/error coverage of sifted targets against the target level.

    Sampling is deterministic and stratified: every stride-th surviving
    target, stride chosen so at most max_q targets are scored.
    """
    if max_q < 1:
        raise ValueError(f"max_q = {max_q} must be at least 1")
    table = run.table
    part = run.partition
    q_all = part.target_primes.astype(np.int64)
    # every target lies in (floor x, floor y], the window of the bitmap
    lo = math.floor(part.x)
    T = sift_interval(lo, math.floor(part.y), run.small_classes)
    q_sifted = q_all[T.bitmap[q_all - lo - 1]]
    if q_sifted.size == 0:
        raise ValueError("no sifted targets survive this small-class draw")
    stride = max(1, math.ceil(q_sifted.size / max_q))
    q_arr = q_sifted[::stride]

    ps, W, sums = table.matrix()
    good_idx = np.flatnonzero(np.isin(ps, run.stable_primes))
    if good_idx.size == 0:
        raise ValueError("no stable primes; nothing covers the targets")

    def incoming(offsets: Sequence[int]) -> np.ndarray:
        # sigma**-r times the conditional laws of the stable rows, that is
        # their masked rows over their sums, summed over the offsets (the
        # axis-0 sum adds one offset after another)
        terms = gathered_sums(
            W, sums, good_idx, ps[good_idx], q_arr, offsets, table.n_min,
            run.mask_matrix,
        )
        return terms.sum(axis=0) * (1.0 / run.sigma_r)

    h_window = math.floor(part.y / part.x)
    err_offsets = [
        h
        for h in range(-h_window, h_window + 1)
        if h not in table.tuple.offsets
    ]
    main = incoming(table.tuple.offsets)
    error = incoming(err_offsets)

    main_mean = float(main.mean())
    rel_dev = (
        np.abs(main - coverage_target) / coverage_target
        if coverage_target > 0
        else np.full_like(main, math.inf)
    )
    return TargetCoverageReport(
        coverage_target=coverage_target,
        n_stable=len(run.stable_primes),
        n_sifted_targets=int(q_sifted.size),
        n_q_sampled=int(q_arr.size),
        error_offsets=err_offsets,
        main_mean=main_mean,
        main_std=float(main.std()),
        main_cv=float(main.std() / main_mean) if main_mean > 0 else math.inf,
        main_min=float(main.min()),
        main_max=float(main.max()),
        mean_abs_rel_dev=float(rel_dev.mean()),
        error_mean=float(error.mean()),
        error_max=float(error.max()),
        frac_error_above_tenth_main=float(
            (error > main / 10).mean()
        ),
    )
