"""Admissible tuples and normalized sieve-weight tables.

A weight table assigns to every middle prime p a nonnegative row
w(p, n) over integer shifts n in [-y, y].  Rows are used exclusively in
normalized form w(p, n)/rowsum(p), i.e. as the law of a random shift, so
every downstream claim is scale-free.  No normalized copy is made: the
matrix stores each row followed by one 0.0, and gathered_sums reads raw
rows through it and divides by the row sum.  Two surrogate kinds exist:

  uniform   w = 1 exactly on the shifts n for which every translate
            n + h_i p lands in the target interval (x, y]
  maynard   w(p, n) = (sum over divisor tuples of a signed, smoothly
            truncated Moebius weight)^2, the classical multidimensional
            sieve shape

For the maynard kind the divisor tuples (d_1, .., d_r) run over
squarefree products m = d_1 * .. * d_r < R = x**theta whose prime factors
all exceed r and avoid the excluded modulus, with d_i | n + h_i p and

    weight = prod_i mu(d_i) * F(log m / log R),   F(t) = max(1 - t, 0)**r.

Since the weight depends on the d_i only through m, summing over tuples
reduces to a sum over squarefree m weighted by prod_{s | m} A_s(n) where
A_s(n) = #{i : s | n + h_i p}.  A_s depends on n only mod s, so the
product is constant on each class mod m and nonzero only on the CRT
combinations of the <= r classes of each prime factor.  Rows are built by
walking the m depth-first in increasing prime order and adding each term
on those classes alone, for a batch of rows at once.  Every shift receives
its terms in the order a dense pass over all m would add them, and each
term left out would add exactly +-0.0, so the rows equal that dense sum
bit for bit.  Batches depend on nothing but the table, so matrix() builds
them on every usable CPU: forked workers (`_fork.fork_map`) each take
whole batches and write rows and sums into one shared mapping, and every
row is the same bits whichever worker built it.  Single points are
evaluated independently by factoring the r translates.  The two paths
agree to floating round-off and are cross-checked in the tests.

Row sums are exact: exact_row_sums buckets each row's entries by binary
exponent, splits each entry into two parts that every bucket sums without
rounding, and rounds the exact total once, which is math.fsum of the row
bit for bit at a fraction of its cost.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _fork
from .nt import factorize, primes_after, sieve_primes
from .partition import PrimePartition

__all__ = [
    "AdmissibleTuple",
    "first_primes_tuple",
    "is_admissible",
    "WeightTable",
    "MatrixTooLarge",
    "build_weights",
    "draw_shift",
    "exact_row_sums",
    "gathered_sums",
    "WeightContractReport",
    "weight_contract_report",
]

# Maynard rows are built in batches whose padded work buffer stays within
# this many bytes (a batch holds at least one row); each build worker holds
# one such buffer at a time.  Small batches keep the fancy-indexed updates
# near the cache: built serially on one core of a 2-core Xeon, the 97 rows
# of x = 1400, theta = 1 took ~0.85 s in batches of 12 and ~1.2 s as one
# batch.
_BATCH_BYTES = 1 << 22
# Larger dense allocations are refused up front, with MatrixTooLarge.
_MAX_BYTES = 1 << 30
# exact_row_sums splits each entry after its top 27 significant bits; a
# bucket of one binary exponent then sums exactly while it holds fewer
# than 2**26 terms, so longer rows are refused.
_LOW_BITS = 26
_MAX_ROW_TERMS = 1 << 26


class MatrixTooLarge(MemoryError, ValueError):
    """A value refused before allocating its weight matrix: lower y, theta or x."""


def is_admissible(offsets: Sequence[int]) -> bool:
    """True iff the offsets miss a residue class modulo every prime <= len.

    Primes above the tuple length can never be covered by it, so only
    p <= len(offsets) need checking.  Duplicate entries are a caller bug.
    """
    hs = [int(h) for h in offsets]
    if len(set(hs)) != len(hs):
        raise ValueError("offsets must be distinct")
    for p in sieve_primes(len(hs)).tolist():
        if len({h % p for h in hs}) == p:
            return False
    return True


@dataclass(frozen=True)
class AdmissibleTuple:
    """Strictly increasing offsets that miss a class mod every small prime."""

    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.offsets:
            raise ValueError("tuple must be nonempty")
        offs = tuple(int(h) for h in self.offsets)
        object.__setattr__(self, "offsets", offs)
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("offsets must be strictly increasing")
        if not is_admissible(offs):
            raise ValueError(f"offsets {offs} cover all classes mod some prime")

    @property
    def r(self) -> int:
        return len(self.offsets)

    @property
    def span(self) -> int:
        return self.offsets[-1] - self.offsets[0]


def first_primes_tuple(r: int) -> AdmissibleTuple:
    """The first r primes above r; always admissible, contained in [0, 2r^2].

    Admissible because none of the entries is divisible by any prime
    p <= r, so class 0 is missed mod every such p.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    return AdmissibleTuple(primes_after(r, r))


def exact_row_sums(A: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a nonnegative, finite float64 matrix, bit for bit.

    Each entry x splits exactly into hi, its bit pattern with the low 26
    mantissa bits cleared, and lo = x - hi.  Among entries of one binary
    exponent every hi is a multiple of 2**26 ulps and every lo is below
    2**26 ulps, so with fewer than 2**26 entries per row one float64
    bincount per part, keyed by (row, exponent), sums every bucket
    exactly.  fsum of a row's nonzero bucket sums then rounds the exact
    total once, which is what fsum of the row returns.  Rows are taken in
    chunks of about _BATCH_BYTES.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.dtype != np.float64:
        raise ValueError(f"need a 2-D float64 matrix, not {A.ndim}-D {A.dtype}")
    n_rows, n_cols = A.shape
    if n_cols >= _MAX_ROW_TERMS:
        raise ValueError(
            f"rows of {n_cols} entries reach 2**26: a bucket sum could round"
        )
    out = np.zeros(n_rows)
    step = max(1, _BATCH_BYTES // (8 * max(n_cols, 1)))
    for k in range(0, n_rows, step):
        block = A[k : k + step]
        if not np.isfinite(block).all():
            raise ValueError("exact_row_sums got a NaN or infinite entry")
        if (block < 0).any():
            raise ValueError("exact_row_sums got a negative entry")
        bits = block.view(np.int64)
        # biased exponent, with -0.0 sent to the bucket of +0.0
        key = (bits >> 52) & 0x7FF
        key += 2048 * np.arange(block.shape[0])[:, None]
        hi = (bits & (-1 << _LOW_BITS)).view(np.float64)
        lo = block - hi
        n_keys = 2048 * block.shape[0]
        parts = np.concatenate(
            (
                np.bincount(key.ravel(), hi.ravel(), n_keys).reshape(-1, 2048),
                np.bincount(key.ravel(), lo.ravel(), n_keys).reshape(-1, 2048),
            ),
            axis=1,
        )
        if np.isinf(parts).any():
            raise OverflowError("a row sum overflows float64")
        for i, row in enumerate(parts):
            out[k + i] = math.fsum(row[row != 0].tolist())
    return out


class WeightTable:
    """Rows w(p, .) for every weighted prime, held in one dense matrix.

    Rows live on the common shift grid [-floor(y), floor(y)].  Row sums
    are exact_row_sums, each row's exact sum rounded once, and are stored
    once; all normalized quantities divide by the stored sums.  matrix()
    is the one row accessor: its first call builds every row, and the
    matrix is read-only from then on.
    """

    def __init__(
        self,
        partition: PrimePartition,
        tuple_: AdmissibleTuple,
        kind: str,
        theta: float,
    ):
        self.partition = partition
        self.tuple = tuple_
        self.kind = kind
        self.theta = float(theta)
        # the support sieve below takes one byte per integer below the
        # level; compare logs, so that no theta can overflow x**theta
        if not self.theta * math.log(partition.x) <= math.log(_MAX_BYTES):
            raise MatrixTooLarge(
                f"divisor level x**theta = {partition.x:g}**{self.theta:g} "
                f"needs a prime sieve above {_MAX_BYTES / 2**30:.1f} GiB; "
                "lower theta or x"
            )
        self.level = float(partition.x) ** self.theta
        ny = math.floor(partition.y)
        self.n_min = -ny
        self.n_max = ny
        self._matrix: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # primes allowed into divisor products: r < s < R, s != excluded
        r = tuple_.r
        cap = math.ceil(self.level) - 1
        sup = sieve_primes(cap)
        sup = sup[(sup > r) & (sup.astype(float) < self.level)]
        b0 = partition.excluded_prime
        self.support_primes: list[int] = [
            int(s) for s in sup.tolist() if s != b0
        ]

    # -- construction ------------------------------------------------------

    def _uniform_rows(
        self, ps: list[int], W: np.ndarray, sums: np.ndarray
    ) -> None:
        offs = self.tuple.offsets
        x, y = self.partition.x, self.partition.y
        for i, p in enumerate(ps):
            # all translates n + h_i p in (x, y] pins n to one interval
            lo = max(math.floor(x - offs[0] * p), self.n_min - 1)  # n > x - h_1 p
            hi = min(math.floor(y - offs[-1] * p), self.n_max)  # n <= y - h_r p
            if hi > lo:
                W[i, lo + 1 - self.n_min : hi + 1 - self.n_min] = 1.0
                sums[i] = hi - lo

    def _maynard_batches(self, n: int) -> tuple[int, int]:
        """(rows per build batch, padded row width) for n Maynard rows.

        The padding lets a row reshape to (ceil(width / m), m) for every
        m < level and takes the terms of classes past the grid's end.
        """
        padded = self.n_max - self.n_min + 1 + math.ceil(self.level)
        return max(1, min(n, _BATCH_BYTES // (8 * padded))), padded

    def _maynard_rows(
        self, ps: list[int], W: np.ndarray, sums: np.ndarray, padded: int
    ) -> None:
        """One batch: the rows of ps, squared into W with their sums."""
        R = len(ps)
        r = self.tuple.r
        n0 = self.n_min
        length = self.n_max - n0 + 1
        level = self.level
        log_level = math.log(level)
        # per row and offset h, the class j mod s of the grid index with
        # s | n0 + j + h p; cnt counts the offsets sharing that class, which
        # is A_s(j) on it.  Primes with no class on the grid add nothing.
        base = -np.outer(ps, self.tuple.offsets) - n0
        hits = []
        for s in self.support_primes:
            cls = base % s
            if cls.min() >= length:
                continue
            cnt = (cls[:, :, None] == cls[:, None, :]).sum(axis=2)
            hits.append((s, cls, cnt))
        # lam[i, j] = lambda(p_i, n0 + j), starting from the m = 1 term F(0) = 1
        lam = np.ones((R, padded), dtype=np.float64)
        each = np.arange(R)[:, None]
        # Depth-first over squarefree m in increasing prime order: the
        # order in which every grid entry receives its terms.  A frame
        # (j, m, sign, cls, mult) resumes m's children, whose Moebius sign
        # is sign, at hits[j]; cls and mult hold, per row, the classes mod m
        # on which prod_{s | m} A_s is nonzero and its value there.  A class
        # can repeat (e.g. when s = p every offset shares one class), but
        # always with the same value, so the repeated writes of one
        # fancy-indexed += agree.
        stack = [(0, 1, -1, np.zeros((R, 1), np.int64), np.ones((R, 1), np.int64))]
        while stack:
            j, m, sign, cls, mult = stack.pop()
            if j == len(hits):
                continue
            s, cs, ks = hits[j]
            m2 = m * s
            if m2 >= level:
                continue  # later primes are larger: no sibling is below level
            stack.append((j + 1, m, sign, cls, mult))
            # CRT: c2 = c (mod m) and c2 = c_s (mod s), for every pair
            t = ((cs[:, None, :] - cls[:, :, None]) * pow(m, -1, s)) % s
            cls2 = (cls[:, :, None] + m * t).reshape(R, -1)
            mult2 = (mult[:, :, None] * ks[:, None, :]).reshape(R, -1)
            if cls2.min() >= length:
                continue  # no row has a class on the grid, here or below
            f = (1.0 - math.log(m2) / log_level) ** r
            rows = -(-length // m2)
            view = lam[:, : rows * m2].reshape(R, rows, m2)
            view[each, :, cls2] += ((sign * f) * mult2)[:, :, None]
            stack.append((j + 1, m2, -sign, cls2, mult2))
        np.multiply(lam[:, :length], lam[:, :length], out=W)
        sums[:] = exact_row_sums(W)

    def matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(primes, dense weight matrix on the full grid, row sums).

        Matrix shape is (#weighted primes, n_max - n_min + 1); a uniform
        row is zero outside its window.  Built on the first call.  Each
        row is followed in memory by one 0.0 (see gathered_sums); rows,
        zeros and sums share one anonymous shared mapping, so the
        Maynard batches are built by `_fork.fork_map` on every usable CPU:
        each worker writes its batches' rows and sums in place, and
        nothing comes back.
        """
        if self._matrix is None:
            ps = self.partition.weighted_primes.astype(np.int64)
            n = ps.size
            width = self.n_max - self.n_min + 1
            est_bytes = 8 * n * (width + 2)  # rows, a zero after each, sums
            if self.kind == "maynard":
                step, padded = self._maynard_batches(n)
                starts = list(range(0, n, step))
                # every worker holds one padded batch buffer at a time
                workers = min(_fork.usable_cpus(), len(starts))
                est_bytes += workers * step * padded * 8
            if est_bytes > _MAX_BYTES:
                raise MatrixTooLarge(
                    f"dense weight matrix and its build buffers would need "
                    f"{est_bytes / 2**30:.1f} GiB; lower y, theta or the "
                    "number of weighted primes"
                )
            shared = mmap.mmap(-1, 8 * n * (width + 2))
            flat = np.frombuffer(shared, np.float64, n * (width + 1))
            W = flat.reshape(n, width + 1)[:, :width]
            sums = np.frombuffer(shared, np.float64, n, 8 * n * (width + 1))
            if self.kind == "uniform":
                self._uniform_rows(ps.tolist(), W, sums)
            else:
                state = (self, ps, W, sums, step, padded)
                _fork.fork_map(_build_batch, starts, state)
            W.setflags(write=False)
            sums.setflags(write=False)
            self._matrix = (ps, W, sums)
        return self._matrix

    # -- point evaluation ----------------------------------------------------

    def _maynard_point(self, p: int, n: int) -> float:
        r = self.tuple.r
        level = self.level
        log_level = math.log(level)
        b0 = self.partition.excluded_prime
        translates = [n + h * p for h in self.tuple.offsets]
        if any(v == 0 for v in translates):
            # zero is divisible by everything: every support prime counts
            zeros = sum(1 for v in translates if v == 0)
            counts = {}
            for s in self.support_primes:
                counts[s] = zeros + sum(
                    1 for v in translates if v != 0 and v % s == 0
                )
        else:
            counts = {}
            for v in translates:
                for s in factorize(abs(v)):
                    if s <= r or s == b0 or not s < level:
                        continue
                    counts[s] = counts.get(s, 0) + 1
        support = sorted(counts)

        def descend(start: int, m: int, sign: int, mult: int) -> float:
            total = 0.0
            for j in range(start, len(support)):
                s = support[j]
                m2 = m * s
                if m2 >= level:
                    break
                mult2 = mult * counts[s]
                f = (1.0 - math.log(m2) / log_level) ** r
                total += sign * f * mult2
                total += descend(j + 1, m2, -sign, mult2)
            return total

        lam = 1.0 + descend(0, 1, -1, 1)
        return lam * lam

    def weight_at(self, p: int, n: int) -> float:
        """w(p, n), evaluated independently of the matrix."""
        p, n = int(p), int(n)
        if n < self.n_min or n > self.n_max:
            return 0.0
        if self.kind == "uniform":
            x, y = self.partition.x, self.partition.y
            ok = all(
                x < n + h * p <= y for h in self.tuple.offsets
            )
            return 1.0 if ok else 0.0
        return self._maynard_point(p, n)


def _build_batch(state: tuple, k: int) -> None:
    """Build the Maynard batch of rows k, k + 1, ... into the shared matrix."""
    table, ps, W, sums, step, padded = state
    table._maynard_rows(
        ps[k : k + step].tolist(), W[k : k + step], sums[k : k + step], padded
    )


def build_weights(
    partition: PrimePartition,
    tuple_: AdmissibleTuple,
    kind: str = "maynard",
    theta: float = 0.25,
) -> WeightTable:
    """Validate parameters and assemble a weight table (rows built on use).

    theta sets the divisor level R = x**theta; enumeration cost grows
    steeply with theta and r, hence the cap r <= 16.  Offsets must stay
    within [0, 2 r^2].
    """
    if kind not in ("uniform", "maynard"):
        raise ValueError(f"unknown weight kind {kind!r}")
    if not theta > 0:
        raise ValueError(f"theta = {theta!r} must be positive")
    r = tuple_.r
    if not 1 <= r <= 16:
        raise ValueError(f"tuple length {r} outside [1, 16]")
    if not all(0 <= h <= 2 * r * r for h in tuple_.offsets):
        raise ValueError(f"offsets {tuple_.offsets} leave [0, {2 * r * r}]")
    if partition.weighted_primes.size == 0:
        raise ValueError("partition has no weighted primes")
    return WeightTable(partition, tuple_, kind, theta)


def draw_shift(values: np.ndarray, n_start: int, rng: np.random.Generator) -> int:
    """Draw the shift n_start + j with probability values[j] / sum(values).

    values must be nonnegative with a positive total.
    """
    cum = np.cumsum(values)
    if not cum[-1] > 0:
        raise ValueError("a row with no positive total has no shift to draw")
    idx = np.searchsorted(cum, rng.random() * float(cum[-1]), side="right")
    return n_start + int(idx)


# ---------------------------------------------------------------------------
# contract measurement


@dataclass(frozen=True)
class WeightContractReport:
    """Empirical dispersion and cross-shift leakage of a weight table.

    Four measured contracts:
      row sums      max/min ratio of row sums across weighted primes
      on-tuple      S(q, i) = sum_p w(p, q - h_i p)/rowsum(p): its mean,
                    spread, and the empirical coverage r * mean
      off-tuple     same sums at shifts h outside the tuple; reported both
                    per pair (off mean / on mean) and in aggregate form,
                    off mean relative to the whole-tuple scale r * on mean
      point mass    max_n w(p, n)/rowsum(p) over all rows

    on_sums holds every S(q, i), one row per q in q_used.
    """

    kind: str
    r: int
    theta: float
    row_sums: dict[int, float]
    row_sum_ratio: float
    zero_rows: int
    q_used: list[int]
    on_mean: float
    on_std: float
    on_max_rel_dev: float
    empirical_coverage: float
    off_offsets: list[int]
    off_means: dict[int, float]
    off_mean: float
    off_max_mean: float
    off_on_pair_ratio: float
    off_on_aggregate_ratio: float
    max_point_mass: float
    on_sums: np.ndarray = field(repr=False, compare=False)

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "r": self.r,
            "theta": self.theta,
            "row_sum_ratio": self.row_sum_ratio,
            "zero_rows": self.zero_rows,
            "n_q": len(self.q_used),
            "on_mean": self.on_mean,
            "on_std": self.on_std,
            "on_max_rel_dev": self.on_max_rel_dev,
            "empirical_coverage": self.empirical_coverage,
            "off_offsets": list(self.off_offsets),
            "off_mean": self.off_mean,
            "off_max_mean": self.off_max_mean,
            "off_on_pair_ratio": self.off_on_pair_ratio,
            "off_on_aggregate_ratio": self.off_on_aggregate_ratio,
            "max_point_mass": self.max_point_mass,
        }


def gathered_sums(
    W: np.ndarray,
    sums: np.ndarray,
    rows: np.ndarray,
    p_arr: np.ndarray,
    q_arr: np.ndarray,
    offsets: Sequence[int],
    n_min: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """out[k, j] = sum over t of W[i, q_j - h p_arr[t] - n_min] / sums[i].

    Here h = offsets[k] and i = rows[t]: each term is row i's law at the
    shift q_j - h p_arr[t].  W stores each row followed by one 0 slot, as
    WeightTable.matrix() does: a shift off the grid reads it, so it adds
    0, as does a zero row.  A boolean mask of that layout multiplies each
    raw entry before the division.  One set of buffers serves every h.
    """
    n, width = W.shape
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise IndexError(f"rows must lie in [0, {n})")
    padded = _with_zero_slots(W)
    hits = None if mask is None else _with_zero_slots(mask)
    starts = rows * (width + 1)
    row_sums = sums[rows]
    denom = np.where(row_sums > 0, row_sums, 1.0)  # a zero row reads zeros
    idx = np.empty((q_arr.size, rows.size), dtype=np.int64)
    vals = np.empty(idx.shape)
    out = np.empty((len(offsets), q_arr.size))
    for k, h in enumerate(offsets):
        np.subtract.outer(q_arr, h * p_arr + n_min, out=idx)
        # read as unsigned, a negative index exceeds width too: one
        # minimum sends every shift off the grid to the zero slot
        np.minimum(idx.view(np.uint64), width, out=idx.view(np.uint64))
        idx += starts
        # every index is in range, so "clip" never clips: it only spares
        # take the copy of out that "raise" makes
        np.take(padded, idx, out=vals, mode="clip")
        if hits is not None:
            vals *= np.take(hits, idx, mode="clip")
        vals /= denom
        vals.sum(axis=1, out=out[k])
    return out


def _with_zero_slots(A: np.ndarray) -> np.ndarray:
    """A read-only view of the (n, width) rows A and the zero after each."""
    n, width = A.shape
    padded = np.lib.stride_tricks.as_strided(A, (n, width + 1), writeable=False)
    if A.strides != ((width + 1) * A.itemsize, A.itemsize) or padded[:, -1].any():
        raise ValueError("each row must be followed by one zero slot")
    return padded


def weight_contract_report(
    table: WeightTable,
    *,
    q_values: Iterable[int] | None = None,
    q_sample: int | None = None,
    off_offsets: Iterable[int] | None = None,
    rng: np.random.Generator | None = None,
) -> WeightContractReport:
    """Measure the four weight contracts on the table's own partition.

    q defaults to every target prime (optionally subsampled with rng);
    off-tuple shifts default to every integer shift that is geometrically
    capable of landing q - h p inside the support grid for at least one
    (q, p) pair, minus the tuple's own offsets.
    """
    part = table.partition
    offs = table.tuple.offsets
    r = table.tuple.r
    ps, W, sums = table.matrix()
    keep = sums > 0
    zero_rows = int((~keep).sum())
    if not keep.any():
        raise ValueError("every weight row is zero; contracts are undefined")

    if q_values is None:
        q_arr = part.target_primes.astype(np.int64)
    else:
        q_arr = np.array(sorted(int(q) for q in q_values), dtype=np.int64)
    if q_sample is not None and q_sample < q_arr.size:
        if rng is None:
            raise ValueError("q_sample without rng would be nondeterministic")
        q_arr = np.sort(rng.choice(q_arr, size=q_sample, replace=False))
    if q_arr.size == 0:
        raise ValueError("no target primes to measure against")

    p_min, p_max = int(ps.min()), int(ps.max())
    q_min, q_max = int(q_arr.min()), int(q_arr.max())

    def feasible(h: int) -> bool:
        lo = q_min - h * (p_max if h > 0 else p_min)
        hi = q_max - h * (p_min if h > 0 else p_max)
        return hi >= table.n_min and lo <= table.n_max

    if off_offsets is None:
        h_lo = math.floor((q_min - table.n_max) / p_max)
        h_hi = math.ceil((q_max - table.n_min) / p_min)
        cand = [h for h in range(h_lo, h_hi + 1) if h not in offs]
        off_list = [h for h in cand if feasible(h)]
    else:
        off_list = sorted(int(h) for h in off_offsets)
        bad = [h for h in off_list if h in offs]
        if bad:
            raise ValueError(f"off-tuple shifts {bad} are tuple offsets")

    rows = np.arange(ps.size)
    on = gathered_sums(W, sums, rows, ps, q_arr, offs, table.n_min).T.copy()
    on_mean = float(on.mean())
    on_std = float(on.std())
    on_max_rel_dev = (
        float(np.abs(on - on_mean).max() / on_mean) if on_mean > 0 else math.inf
    )

    off = gathered_sums(W, sums, rows, ps, q_arr, off_list, table.n_min)
    off_means = {h: float(t.mean()) for h, t in zip(off_list, off)}
    off_mean = float(off.ravel().mean()) if off_list else 0.0
    off_max_mean = max(off_means.values()) if off_means else 0.0

    pair_ratio = off_mean / on_mean if on_mean > 0 else math.inf
    agg_ratio = off_mean / (r * on_mean) if on_mean > 0 else math.inf

    return WeightContractReport(
        kind=table.kind,
        r=r,
        theta=table.theta,
        row_sums={int(p): float(s) for p, s in zip(ps.tolist(), sums.tolist())},
        row_sum_ratio=float(sums[keep].max() / sums[keep].min()),
        zero_rows=zero_rows,
        q_used=[int(q) for q in q_arr.tolist()],
        on_mean=on_mean,
        on_std=on_std,
        on_max_rel_dev=on_max_rel_dev,
        empirical_coverage=r * on_mean,
        off_offsets=off_list,
        off_means=off_means,
        off_mean=off_mean,
        off_max_mean=off_max_mean,
        off_on_pair_ratio=pair_ratio,
        off_on_aggregate_ratio=agg_ratio,
        # division by a positive sum is monotone: M.max() bit for bit
        max_point_mass=float((W.max(axis=1)[keep] / sums[keep]).max()),
        on_sums=on,
    )
