"""Synthetic hypergraph-covering experiments (the nibble leftover law).

An instance abstracts the covering step away from number theory: a ground
set of N elements, a family of P_count random subsets ("edges"), each
element entering each edge independently with probability C/P_count, so
that every element's total expected coverage is exactly C.  The nibble
selection partitions the edge family into m random blocks and peels one
block per round, keeping of each drawn edge only the part still uncovered
at the start of its round.  With per-round coverage C/m = log 5 the
classical heuristic predicts a leftover fraction near 5**-m.

Total coverage is deliberately scaled as C = m log 5: holding C fixed
while m grows (the sharper regime) needs a conditioning mechanism outside
this package's scope, and the scaled form still exercises the leftover
law's shape honestly.  Instances carry a paper_mode flag that enforces
the C >= (5/4) log 5 floor when set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "CoveringInstance",
    "synth_instance",
    "CoverResult",
    "nibble_cover",
    "subset_leftover",
]

COVERAGE_FLOOR = 1.25 * math.log(5)  # paper-mode minimum total coverage


def _distinct_uniform(
    rng: np.random.Generator, universe: int, k: int
) -> np.ndarray:
    """Uniform k-subset of range(universe) by rejection; k is tiny here."""
    if k >= universe:
        return np.arange(universe, dtype=np.int64)
    chosen: set[int] = set()
    while len(chosen) < k:
        chosen.update(rng.integers(0, universe, size=k - len(chosen)).tolist())
    out = np.fromiter(chosen, dtype=np.int64, count=k)
    out.sort()
    return out


@dataclass(frozen=True)
class CoveringInstance:
    """Parametric random-edge family with uniform expected coverage.

    Every element belongs to every edge independently with probability
    inclusion_prob = coverage / n_covers, so per-element coverage sums to
    exactly `coverage` with no exceptional elements.  Edges larger than
    r_cap (when set) are truncated by uniform subsampling; truncations
    are surfaced by the cover result.  forced_edges pins specific edges
    to fixed sets, for degenerate-case tests.
    """

    n_elements: int
    n_covers: int
    coverage: float
    profile: str
    r_cap: int | None = None
    paper_mode: bool = False
    forced_edges: dict[int, tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if self.n_elements < 10:
            raise ValueError("need at least 10 elements")
        if self.n_covers < 1:
            raise ValueError("need at least one edge")
        if self.profile not in ("poisson", "fixed-size"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.inclusion_prob > 1:
            raise ValueError(
                f"per-edge inclusion probability {self.inclusion_prob:.4g} "
                "exceeds 1; raise n_covers or lower coverage"
            )
        if self.paper_mode and self.coverage < COVERAGE_FLOOR:
            raise ValueError(
                f"coverage {self.coverage:.4g} below the paper-mode floor "
                f"{COVERAGE_FLOOR:.4g}"
            )

    @property
    def inclusion_prob(self) -> float:
        return self.coverage / self.n_covers

    @property
    def fixed_edge_size(self) -> int:
        return round(self.n_elements * self.inclusion_prob)

    def draw_edge(
        self, p: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, bool]:
        """One edge for cover index p: (sorted element indices, truncated?)."""
        if self.forced_edges is not None and p in self.forced_edges:
            edge = np.array(sorted(self.forced_edges[p]), dtype=np.int64)
        elif self.profile == "poisson":
            k = int(rng.binomial(self.n_elements, self.inclusion_prob))
            edge = _distinct_uniform(rng, self.n_elements, k)
        else:
            edge = _distinct_uniform(rng, self.n_elements, self.fixed_edge_size)
        if self.r_cap is not None and edge.size > self.r_cap:
            keep = rng.permutation(edge.size)[: self.r_cap]
            keep.sort()
            return edge[keep], True
        return edge, False


def synth_instance(
    n_elements: int,
    n_covers: int,
    m: int,
    profile: str = "poisson",
    *,
    r_cap: int | None = None,
    paper_mode: bool = False,
) -> CoveringInstance:
    """Instance scaled for an m-round nibble: total coverage m * log 5."""
    if n_covers < m:
        raise ValueError(f"n_covers = {n_covers} cannot fill {m} blocks")
    if m < 1:
        raise ValueError("m must be at least 1")
    return CoveringInstance(
        n_elements=n_elements,
        n_covers=n_covers,
        coverage=m * math.log(5),
        profile=profile,
        r_cap=r_cap,
        paper_mode=paper_mode,
    )


@dataclass(frozen=True)
class CoverResult:
    """Outcome of a nibble run: kept edge parts and the uncovered leftover."""

    n_elements: int
    m: int
    kept_edges: dict[int, np.ndarray] = field(repr=False)
    leftover: np.ndarray = field(repr=False)
    truncated_draws: int = 0

    @property
    def leftover_fraction(self) -> float:
        return self.leftover.size / self.n_elements


def nibble_cover(
    instance: CoveringInstance, m: int, rng: np.random.Generator
) -> CoverResult:
    """Peel the ground set in m rounds of freshly drawn edges.

    The edge family is split into m near-equal random blocks.  Round j
    draws every edge of block j, intersects it with the survivors as they
    stood at the start of the round, and removes the union.  Per-edge
    randomness flows through seeds pre-drawn from rng, so the result is
    reproducible bit for bit and independent of traversal order.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > instance.n_covers:
        raise ValueError(
            f"cannot split {instance.n_covers} edges into {m} nonempty blocks"
        )
    perm = rng.permutation(instance.n_covers)
    blocks = np.array_split(perm, m)
    if any(b.size == 0 for b in blocks):
        raise ValueError("empty block in nibble schedule")
    edge_seeds = rng.integers(0, 2**63, size=instance.n_covers)

    alive = np.ones(instance.n_elements, dtype=bool)
    kept: dict[int, np.ndarray] = {}
    truncated = 0
    for block in blocks:
        alive_at_round_start = alive.copy()
        newly = np.zeros(instance.n_elements, dtype=bool)
        for p in block.tolist():
            rng_p = np.random.default_rng(int(edge_seeds[p]))
            edge, was_truncated = instance.draw_edge(p, rng_p)
            truncated += int(was_truncated)
            part = edge[alive_at_round_start[edge]]
            kept[p] = part
            newly[part] = True
        alive &= ~newly
    leftover = np.nonzero(alive)[0].astype(np.int64)

    leftover_mask = alive
    for p, part in kept.items():
        if part.size and leftover_mask[part].any():
            raise AssertionError(
                f"kept edge {p} intersects the leftover; nibble bookkeeping bug"
            )
    return CoverResult(
        n_elements=instance.n_elements,
        m=m,
        kept_edges=kept,
        leftover=leftover,
        truncated_draws=truncated,
    )


def subset_leftover(result: CoverResult, subset: Iterable[int]) -> int:
    """How many elements of the given subset the cover failed to touch."""
    sub = np.asarray(sorted(set(int(q) for q in subset)), dtype=np.int64)
    if sub.size and (sub.min() < 0 or sub.max() >= result.n_elements):
        raise ValueError("subset leaves the ground set")
    return int(np.isin(sub, result.leftover).sum())
