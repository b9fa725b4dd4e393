"""Residue systems, sifted intervals, and the systems a chain run sieves by.

The sieving story in one sentence: pick one forbidden residue class per
prime, strike those classes from a target interval, and study what
survives.  This module owns the data types for that story

  ResidueSystem     prime -> forbidden class, one distinguished modulus
                    exempted
  SievedSet         immutable bitmap of the survivors of an interval

plus the one class sieve (`sift_interval`, through `nt.strike_classes`:
the construction reads its sifted targets from the same bitmap), its
exact check by `%` (`sift_mismatches`), the one sampler of uniform
classes (`sample_classes`: the construction's small classes and a chain
run's random frame), the full system built out of the construction's
partial random data, and a deterministic greedy baseline after Erdos and
Rankin.  A chain run sieves by one of the last three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .nt import check_sieve_window, is_prime, primes_in_range
from .nt import strike_classes
from .partition import PrimePartition

__all__ = [
    "ResidueSystem",
    "SievedSet",
    "sample_classes",
    "sift_interval",
    "sift_mismatches",
    "assemble_full_system",
    "greedy_rankin",
]


def _check_prime_keys(keys: Iterable[int]) -> None:
    bad = sorted(int(k) for k in keys if not is_prime(k))
    if bad:
        raise ValueError(f"non-prime moduli in residue system: {bad[:10]}")


@dataclass(frozen=True)
class ResidueSystem:
    """One forbidden residue class per prime modulus.

    entries maps each prime p to the class a_p in [0, p) that the sieve
    removes.  `excluded` is the one modulus (1 for none) that must never
    appear as a key.  Every key is checked for primality.
    """

    entries: dict[int, int]
    excluded: int = 1

    def __post_init__(self) -> None:
        if self.excluded in self.entries:
            raise ValueError(
                f"excluded modulus {self.excluded} appears in the system"
            )
        for p, a in self.entries.items():
            if not 0 <= a < p:
                raise ValueError(f"class {a} not reduced modulo {p}")
        _check_prime_keys(self.entries.keys())


@dataclass(frozen=True)
class SievedSet:
    """Immutable survivor bitmap over the interval (lo, hi].

    bitmap[i] corresponds to n = lo + 1 + i; offset addressing keeps the
    representation valid for spans up to 1e8 (one byte per element, the
    price of vectorized strided sieving).  Cardinality is precomputed.
    """

    lo: int
    hi: int
    bitmap: np.ndarray
    count: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi}]")
        if self.bitmap.shape[0] != self.hi - self.lo:
            raise ValueError("bitmap length does not match the interval")
        self.bitmap.setflags(write=False)
        if self.count < 0:
            object.__setattr__(self, "count", int(self.bitmap.sum()))

    def __contains__(self, n: int) -> bool:
        return self.lo < n <= self.hi and bool(self.bitmap[n - self.lo - 1])

    def members(self) -> np.ndarray:
        """Surviving values themselves, ascending."""
        return np.nonzero(self.bitmap)[0].astype(np.int64) + self.lo + 1


def sift_interval(lo: int, hi: int, system: ResidueSystem) -> SievedSet:
    """Survivors of (lo, hi] after removing n = a_p (mod p) for every entry.

    A window of more than nt.MAX_BYTES integers is refused with
    MatrixTooLarge, a ValueError, before its bitmap is allocated.
    """
    lo, hi = int(lo), int(hi)
    if lo >= hi:
        raise ValueError(f"empty interval ({lo}, {hi}]")
    check_sieve_window("class sieve", lo, hi, hi - lo)
    alive = np.ones(hi - lo, dtype=bool)
    strike_classes(alive, lo + 1, system.entries.items())
    return SievedSet(lo=lo, hi=hi, bitmap=alive)


def sift_mismatches(T: SievedSet, system: ResidueSystem) -> Iterator[int]:
    """Ascending, each t of T's window that T keeps though a class
    t = a_p (mod p) holds it, or strikes though none does.  By `%` on
    blocks of 2**16 window values, not through `strike_classes`; a struck
    t meets the classes only up to the first that holds it."""
    classes = sorted(system.entries.items())  # small primes strike most
    for lo in range(T.lo, T.hi, 1 << 16):
        t = np.arange(lo + 1, min(lo + (1 << 16), T.hi) + 1, dtype=np.int64)
        kept = T.bitmap[lo - T.lo : lo - T.lo + t.size]
        survivors, struck = t[kept], t[~kept]
        in_class = np.zeros(survivors.size, dtype=bool)
        for p, a in classes:
            in_class |= survivors % p == a
            struck = struck[struck % p != a]  # those in no class so far
        yield from sorted(survivors[in_class].tolist() + struck.tolist())


def sample_classes(
    primes: Iterable[int], rng: np.random.Generator, excluded: int = 1
) -> ResidueSystem:
    """One independent uniform class per prime, in ascending order of the
    primes; `excluded` draws no class."""
    entries = {
        p: int(rng.integers(0, p))
        for p in sorted(int(p) for p in primes)
        if p != excluded
    }
    return ResidueSystem(entries, excluded=excluded)


def assemble_full_system(
    small_classes: ResidueSystem,
    chosen_offsets: Mapping[int, int],
    partition: PrimePartition,
) -> ResidueSystem:
    """Extend the random choices to a system over every prime up to x.

    Small primes take their chosen classes, weighted primes p take
    chosen_offsets[p] reduced mod p, and every other prime (the excluded
    modulus aside) forbids class 0, i.e. sieves out its own multiples.
    """
    small = {int(s) for s in partition.small_primes}
    if set(small_classes.entries) != small:
        raise ValueError("small classes do not cover exactly the small primes")
    weighted = {int(p) for p in partition.weighted_primes}
    missing = sorted(weighted - {int(p) for p in chosen_offsets})
    if missing:
        raise ValueError(
            f"chosen offsets missing for {len(missing)} weighted primes: "
            f"{missing[:10]}"
        )
    entries: dict[int, int] = {}
    for p in primes_in_range(1, math.floor(partition.x)).tolist():
        if p == partition.excluded_prime:
            continue
        if p in small:
            entries[p] = small_classes.entries[p]
        elif p in weighted:
            entries[p] = int(chosen_offsets[p]) % p
        else:
            entries[p] = 0
    return ResidueSystem(entries=entries, excluded=partition.excluded_prime)


def greedy_rankin(
    partition: PrimePartition, medium_primes: Iterable[int]
) -> ResidueSystem:
    """Deterministic greedy baseline over the target interval.

    Every prime up to x forbids class 0, except the medium primes and the
    weighted primes, which are processed in ascending order and each
    assigned the class that removes the most current survivors of (x, y]
    (ties broken toward the smallest class).  Purely a yardstick for the
    randomized construction; no randomness anywhere.
    """
    medium = sorted(int(p) for p in medium_primes)
    _check_prime_keys(medium)
    small = set(partition.small_primes.tolist())
    weighted = sorted(partition.weighted_primes.tolist())
    clash = (set(medium) & small) | (set(medium) & set(weighted))
    if clash:
        raise ValueError(
            f"medium primes overlap the partition sets: {sorted(clash)[:10]}"
        )
    if partition.excluded_prime in medium:
        raise ValueError("medium primes must not contain the excluded modulus")

    lo, hi = math.floor(partition.x), math.floor(partition.y)
    start = lo + 1
    alive = np.ones(hi - lo, dtype=bool)
    entries: dict[int, int] = {}
    chosen = set(medium) | set(weighted)
    for p in primes_in_range(1, lo).tolist():
        if p != partition.excluded_prime and p not in chosen:
            entries[p] = 0
    strike_classes(alive, start, entries.items())
    for p in medium + weighted:
        counts = np.bincount(
            (np.nonzero(alive)[0] + start) % p, minlength=p
        )
        a = int(np.argmax(counts))
        entries[p] = a
        strike_classes(alive, start, [(p, a)])
    return ResidueSystem(entries=entries, excluded=partition.excluded_prime)
