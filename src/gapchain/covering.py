"""Synthetic hypergraph-covering experiments (the nibble leftover law).

An instance abstracts the covering step away from number theory: a ground
set of N elements, a family of P_count random subsets ("edges"), each
element entering each edge independently with probability C/P_count, so
that every element's total expected coverage is exactly C.  The nibble
selection partitions the edge family into m random blocks and peels one
block per round; the leftover is the set of elements that no drawn edge
contains.  With per-round coverage C/m = log 5 the classical heuristic
predicts a leftover fraction near 5**-m.

A round's edges are drawn together, a bounded chunk at a time, in block
order, all from the one generator the caller passes: a run is
reproducible bit for bit per seed.

Total coverage is deliberately scaled as C = m log 5: holding C fixed
while m grows (the sharper regime) needs a conditioning mechanism outside
this package's scope, and the scaled form still exercises the leftover
law's shape honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .nt import check_bytes

__all__ = [
    "CoveringInstance",
    "synth_instance",
    "CoverResult",
    "nibble_cover",
    "subset_leftover",
]

# A round's edges are drawn in chunks of about this many bytes of int64
# elements (a chunk holds at least one edge).  On a 2-core Xeon, a nibble
# over 100000 elements and 10000 edges of ~32 elements took ~25 ms for
# any chunk from 32 KiB to 256 KiB and ~35 ms with each round drawn
# whole; the process peaked at 40.3 MB with 64 KiB chunks, 42.5 MB with
# 256 KiB and 47.7 MB whole.
_CHUNK_BYTES = 1 << 16


def _distinct_sorted(
    rng: np.random.Generator, universe: int, sizes: np.ndarray
) -> np.ndarray:
    """Uniform sizes[i]-subsets of range(universe), each sorted, concatenated.

    One draw covers every subset.  An element repeated within its subset is
    redrawn, on the key subset * universe + element, until none is; the
    rule treats all elements alike, so each subset is uniform among those
    of its size.  Every size must be below universe.
    """
    owners = np.arange(sizes.size, dtype=np.int64)
    keys = np.empty(0, dtype=np.int64)
    missing = sizes
    while missing.any():
        owner = np.repeat(owners, missing)
        drawn = owner * universe + rng.integers(0, universe, size=owner.size)
        keys = np.sort(np.concatenate((keys, drawn)))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        missing = sizes - np.bincount(keys // universe, minlength=sizes.size)
    return keys % universe


@dataclass(frozen=True)
class CoveringInstance:
    """Parametric random-edge family with uniform expected coverage.

    Every element belongs to every edge independently with probability
    inclusion_prob = coverage / n_covers, so per-element coverage sums to
    exactly `coverage` with no exceptional elements.
    """

    n_elements: int
    n_covers: int
    coverage: float

    def __post_init__(self) -> None:
        if self.n_elements < 10:
            raise ValueError("need at least 10 elements")
        if self.n_covers < 1:
            raise ValueError("need at least one edge")
        if not (math.isfinite(self.coverage) and self.coverage > 0):
            raise ValueError(
                f"coverage {self.coverage!r} is not a positive finite number"
            )
        if self.coverage > self.n_covers:  # no quotient: n_covers may pass a float
            raise ValueError(
                f"per-edge inclusion probability {self.inclusion_prob:.4g} "
                "exceeds 1; raise n_covers or lower coverage"
            )

    @property
    def inclusion_prob(self) -> float:
        return self.coverage / self.n_covers

    def draw_edges(
        self, ids: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """The edges of cover indices ids, drawn together.

        Returns (values, sizes): the edges, each sorted, concatenated in
        the order of ids, and the size of each.  An edge as large as the
        ground set is that set, with no draw.
        """
        n = self.n_elements
        sizes = rng.binomial(n, self.inclusion_prob, size=ids.size)
        plain = sizes < n
        values = _distinct_sorted(rng, n, sizes[plain])
        if plain.all():
            return values, sizes
        # whole-set edges: possible only when inclusion_prob is near 1
        out = np.empty(int(sizes.sum()), dtype=np.int64)
        out[np.repeat(plain, sizes)] = values
        out[np.repeat(~plain, sizes)] = np.tile(np.arange(n), int((~plain).sum()))
        return out, sizes

    def draw_edge(self, p: int, rng: np.random.Generator) -> np.ndarray:
        """The sorted element indices of one edge for cover index p.

        The one-edge case of draw_edges, with the same random stream.
        """
        return self.draw_edges(np.array([p]), rng)[0]


def synth_instance(n_elements: int, n_covers: int, m: int) -> CoveringInstance:
    """Instance scaled for an m-round nibble: total coverage m * log 5."""
    if n_covers < m:
        raise ValueError(f"n_covers = {n_covers} cannot fill {m} blocks")
    if m < 1:
        raise ValueError("m must be at least 1")
    return CoveringInstance(
        n_elements=n_elements, n_covers=n_covers, coverage=m * math.log(5)
    )


@dataclass(frozen=True)
class CoverResult:
    """Outcome of a nibble run: the uncovered leftover, in increasing order."""

    n_elements: int
    m: int
    leftover: np.ndarray = field(repr=False)

    @property
    def leftover_fraction(self) -> float:
        return self.leftover.size / self.n_elements


def nibble_cover(
    instance: CoveringInstance, m: int, rng: np.random.Generator
) -> CoverResult:
    """Peel the ground set in m rounds of freshly drawn edges.

    The edge family is split into m near-equal random blocks.  Round j
    draws the edges of block j in chunks of about _CHUNK_BYTES, in block
    order, and removes them from the ground set.  The leftover is the set
    of elements that no drawn edge contains, so the rounds fix only the
    order of the draws.  rng is read in that order alone, so a seed fixes
    every bit; the arrays are counted against nt.MAX_BYTES first.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > instance.n_covers:
        raise ValueError(
            f"cannot split {instance.n_covers} edges into {m} nonempty blocks"
        )
    n, e = instance.n_elements, instance.n_covers
    num, den = instance.coverage.as_integer_ratio()
    mass = -(-n * num // den)  # the expected edge mass, coverage * n
    check_bytes(
        f"nibble over n_elements = {n} and n_covers = {e}",
        # alive and the leftover; the permutation; one chunk's draw, at
        # most 8 int64 buffers of it
        9 * n + 8 * e + 64 * max(_CHUNK_BYTES // 8, -(-mass // e)),
    )
    perm = rng.permutation(e)
    blocks = np.array_split(perm, m)
    if any(b.size == 0 for b in blocks):
        raise ValueError("empty block in nibble schedule")
    chunk = max(1, int(_CHUNK_BYTES // (8 * max(1.0, n * instance.inclusion_prob))))

    alive = np.ones(n, dtype=bool)
    for block in blocks:
        for lo in range(0, block.size, chunk):
            values, _ = instance.draw_edges(block[lo : lo + chunk], rng)
            alive[values] = False
    return CoverResult(
        n_elements=n,
        m=m,
        leftover=np.flatnonzero(alive).astype(np.int64, copy=False),
    )


def subset_leftover(result: CoverResult, subset: Iterable[int]) -> int:
    """How many distinct elements of the subset the cover failed to touch."""
    if not isinstance(subset, np.ndarray):
        subset = np.fromiter(subset, np.int64)
    sub = np.sort(subset.astype(np.int64, copy=False), axis=None)
    if sub.size and (sub[0] < 0 or sub[-1] >= result.n_elements):
        raise ValueError("subset leaves the ground set")
    # leftover is sorted; the sentinel -1 answers searches past its end
    at = np.searchsorted(result.leftover, sub)
    hit = np.append(result.leftover, -1)[at] == sub
    hit[1:] &= sub[1:] != sub[:-1]  # each distinct element once
    return int(hit.sum())
