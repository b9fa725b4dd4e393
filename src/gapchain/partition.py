"""Run parameters and the three-way prime partition they induce.

A run is governed by a scale x.  From it we derive the interval end y
and the smoothness cut z of the sieve window, then split the primes at or
below y into three disjoint working sets:

  small_primes     sieving primes in (small_low, small_high]
  weighted_primes  primes in (x/2, x] that carry weight rows
  target_primes    primes in (x, y] that the construction tries to cover

One distinguished modulus (`excluded_prime`, 1 for "none") is removed
wherever it occurs.  Every window is a desk-scale one: x >= 100, with
defaults chosen so the whole pipeline runs on a laptop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .nt import is_prime, mertens_density, primes_in_range

__all__ = [
    "MIN_X",
    "Params",
    "derive_parameters",
    "PrimePartition",
    "build_partition",
    "check_excluded_prime",
]

MIN_X = 100.0


@dataclass(frozen=True)
class Params:
    """The sieve window of one run: x, y, z, u = log y / log z, and the
    small-prime window (small_low, small_high]."""

    x: float
    y: float
    z: float
    u: float
    small_low: float
    small_high: float


def _check_small_window(small_low: float, small_high: float) -> None:
    if small_low >= small_high:
        raise ValueError(f"small window ({small_low!r}, {small_high!r}] is empty")


def derive_parameters(
    x: float,
    *,
    y: float | None = None,
    z: float = 80.0,
    small_low: float = 32.0,
    small_high: float | None = None,
) -> Params:
    """The desk-scale sieve window for x >= MIN_X.

    y defaults to 15 x and small_high to z.  The defaults keep every tuple
    translate inside the window (y/x above the largest offset) and the
    small primes above the tuple difference scale 2 r^2, or the survival
    masses cannot track sigma^r.  u = log y / log z.

    The paper's window, from Ford, Green, Konyagin, Maynard and Tao, is
    y = c x log x log_3 x / log_2 x with small primes above (log x)^20.  At
    c = 0.1 it gives y <= x for every x below 1.04e12, and at any x above
    that the (x/2, x] sieve is over the 1 GiB cap, so no desk run can use
    it.
    """
    x = float(x)
    if x < MIN_X:
        raise ValueError(f"x = {x!r} is below the minimum {MIN_X}")
    y = 15.0 * x if y is None else float(y)
    if y <= x:
        raise ValueError(f"y = {y!r} must exceed x = {x!r}")
    z = float(z)
    if z <= 1:
        raise ValueError(f"z = {z!r} must exceed 1")
    small_low = float(small_low)
    small_high = z if small_high is None else float(small_high)
    _check_small_window(small_low, small_high)
    return Params(
        x=x, y=y, z=z, u=math.log(y) / math.log(z),
        small_low=small_low, small_high=small_high,
    )


def check_excluded_prime(excluded_prime: int, x: float) -> None:
    """Raise unless the excluded modulus is 1 or a prime at most x.

    A prime above x divides no modulus a frame builds, and in a partition
    it would silently drop a target prime.
    """
    if excluded_prime > x:
        raise ValueError(f"excluded modulus {excluded_prime} exceeds x = {x}")
    if excluded_prime != 1 and not is_prime(excluded_prime):
        raise ValueError(f"excluded modulus {excluded_prime} must be 1 or a prime")


@dataclass(eq=False)
class PrimePartition:
    """Three disjoint prime sets for one run, with the exact small density.

    sigma is the exact Fraction product of (1 - 1/s) over small_primes
    (after excluding `excluded_prime`); coverage_target is the derived
    float (u / sigma) * (x / 2y).
    """

    x: float
    y: float
    small_low: float
    small_high: float
    excluded_prime: int
    small_primes: np.ndarray
    weighted_primes: np.ndarray
    target_primes: np.ndarray
    sigma: Fraction
    coverage_target: float
    params: Params

    def __post_init__(self) -> None:
        for name, arr, lo, hi in (
            ("small_primes", self.small_primes, self.small_low, self.small_high),
            ("weighted_primes", self.weighted_primes, self.x / 2, self.x),
            ("target_primes", self.target_primes, self.x, self.y),
        ):
            if arr.size and not ((arr > lo) & (arr <= hi)).all():
                raise AssertionError(f"{name} escaped its window ({lo}, {hi}]")
            if arr.size and self.excluded_prime in arr:
                raise AssertionError(f"excluded_prime present in {name}")
        small = set(self.small_primes.tolist())
        mid = set(self.weighted_primes.tolist())
        top = set(self.target_primes.tolist())
        if small & mid or small & top or mid & top:
            raise AssertionError("prime sets are not pairwise disjoint")

    @property
    def counts(self) -> tuple[int, int, int]:
        return (
            int(self.small_primes.size),
            int(self.weighted_primes.size),
            int(self.target_primes.size),
        )


def _drop_excluded(arr: np.ndarray, b0: int) -> np.ndarray:
    return arr[arr != b0] if arr.size else arr


def build_partition(params: Params, excluded_prime: int = 1) -> PrimePartition:
    """Sieve out the three prime sets described by params.

    Raises if the excluded modulus is neither 1 nor a prime at most x, if
    the small window is empty or reaches the weighted window, or if no
    target primes exist.  A small window that holds no primes only warns.
    """
    b0 = int(excluded_prime)
    check_excluded_prime(b0, params.x)

    x, y = params.x, params.y
    small_low, small_high = params.small_low, params.small_high
    _check_small_window(small_low, small_high)
    if small_high > x / 2:
        raise ValueError(
            f"small_high = {small_high!r} exceeds x/2 = {x / 2!r}; "
            "the small window would collide with the weighted window"
        )
    small = primes_in_range(math.floor(small_low), math.floor(small_high))
    if small.size == 0:
        warnings.warn(
            f"small window ({small_low:.4g}, {small_high:.4g}] contains "
            "no primes",
            stacklevel=2,
        )

    small = _drop_excluded(small, b0)
    weighted = _drop_excluded(
        primes_in_range(math.floor(x / 2), math.floor(x)), b0
    )
    target = _drop_excluded(primes_in_range(math.floor(x), math.floor(y)), b0)
    if target.size == 0:
        raise ValueError(
            f"no target primes in ({x!r}, {y!r}]; nothing to sieve toward"
        )

    sigma = mertens_density(int(p) for p in small)
    coverage_target = (params.u / float(sigma)) * (x / (2 * y))
    return PrimePartition(
        x=x,
        y=y,
        small_low=small_low,
        small_high=small_high,
        excluded_prime=b0,
        small_primes=small,
        weighted_primes=weighted,
        target_primes=target,
        sigma=sigma,
        coverage_target=coverage_target,
        params=params,
    )
