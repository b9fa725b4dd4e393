"""Admissible tuples and normalized sieve-weight tables.

A weight table assigns to every middle prime p a nonnegative row
w(p, n) over integer shifts n in [-y, y].  Rows are used exclusively in
normalized form w(p, n)/rowsum(p), i.e. as the law of a random shift, so
every downstream claim is scale-free.  No normalized copy is made: the
matrix stores each row followed by one 0.0, and gathered_sums reads raw
rows through it and divides by the row sum.  The rows are Maynard's
multidimensional sieve shape:

    w(p, n) = (sum over divisor tuples of a signed, smoothly truncated
              Moebius weight)^2,

where the divisor tuples (d_1, .., d_r) run over squarefree products
m = d_1 * .. * d_r < R = x**theta whose prime factors all exceed r and
avoid the excluded modulus, with d_i | n + h_i p and

    weight = prod_i mu(d_i) * F(log m / log R),   F(t) = max(1 - t, 0)**r.

Since the weight depends on the d_i only through m, summing over tuples
reduces to a sum over squarefree m weighted by prod_{s | m} A_s(n) where
A_s(n) = #{i : s | n + h_i p}.  A_s depends on n only mod s, so the
product is constant on each class mod m and nonzero only on the CRT
combinations of the <= r classes of each prime factor.  A batch of rows
is built in two passes.  The first walks the m depth-first in increasing
prime order, once for the whole batch, and lists each node m with the
classes and terms of every row.  The second adds that list, node by node
in walk order, to one block of rows at a time, a block whose padded
buffer stays in L2, and squares the block into the matrix.  A modulus
that repeats at least _STRIDED_ROWS times on the grid adds each distinct
class of a row as one strided slice, a larger one every class of the
block in one fancy-indexed += (a repeated class is added once either
way).  Every shift receives its terms in the order a dense pass over all
m would add them, whatever the batch and block, and each term left out
would add exactly +-0.0, so the rows equal that dense sum bit for bit.
Batches depend on nothing but the table, so matrix() builds one per
usable CPU (more if their node lists would pass _NODE_BYTES): this
process and forked workers (`_fork.fork_map`) each take one batch at a
time and write its rows and sums into one shared mapping, and every row
is the same bits whichever process built it.  The rows are the only evaluation of w: the
tests check them against an independent point oracle that factors the r
translates of one shift and sums over the divisors found, which agrees
to floating round-off.

Row sums are exact: exact_row_sums buckets each row's entries by binary
exponent, splits each entry into two parts that every bucket sums without
rounding, and rounds the exact total once, which is math.fsum of the row
bit for bit at a fraction of its cost.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import _fork, nt
from .nt import MatrixTooLarge, primes_in_range
from .partition import PrimePartition

__all__ = [
    "AdmissibleTuple",
    "first_primes_tuple",
    "is_admissible",
    "WeightTable",
    "build_weights",
    "draw_shift",
    "exact_row_sums",
    "gathered_sums",
    "WeightContractReport",
    "weight_contract_report",
]

# Maynard rows take their node updates in blocks whose padded buffer stays
# within this many bytes (a block holds at least one row), so that every
# update hits L2.  On one core of a 2-core Xeon (2 MiB of L2 a core), the
# 97 rows of x = 1400, theta = 1 (43,401 padded entries a row) took, in
# medians of 11 builds, 0.68 s in blocks of 1 row, 0.50 s of 2, 0.42 s of
# 3, 0.38 s of 4 (this budget), 0.43 s of 6, 0.48 s of 8, 0.53 s of 12.
_BLOCK_BYTES = 3 << 19
# A batch's node lists take 16 bytes a row for each CRT class of each node
# (93 KB a row at x = 1400, theta = 1); a batch is cut to fewer rows than
# its CPU's share if they would pass this many bytes (a batch holds at
# least one row).
_NODE_BYTES = 1 << 26
# exact_row_sums takes rows in chunks of at most this many bytes of
# entries (a chunk holds at least one row), so that its temporaries stay
# in L2 and reuse their memory from chunk to chunk.
_SUM_BYTES = 1 << 18
# A Maynard modulus that repeats this often on the grid adds each class of
# a row as one strided slice; larger ones take one fancy-indexed += on the
# block.  Timed as above: 0.42 s at 125, 0.37 s at 250, 0.36 s at 500,
# 0.42 s at 1000, 0.41 s with no slices.
_STRIDED_ROWS = 500
# exact_row_sums splits each entry after its top 27 significant bits; a
# bucket of one binary exponent then sums exactly while it holds fewer
# than 2**26 terms, so longer rows are refused.
_LOW_BITS = 26
_MAX_ROW_TERMS = 1 << 26


def is_admissible(offsets: Sequence[int]) -> bool:
    """True iff the offsets miss a residue class modulo every prime <= len.

    Primes above the tuple length can never be covered by it, so only
    p <= len(offsets) need checking.  Duplicate entries are a caller bug.
    """
    hs = [int(h) for h in offsets]
    if len(set(hs)) != len(hs):
        raise ValueError("offsets must be distinct")
    for p in primes_in_range(1, len(hs)).tolist():
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


def first_primes_tuple(r: int) -> AdmissibleTuple:
    """The first r primes above r; always admissible, contained in [0, 2r^2].

    Admissible because none of the entries is divisible by any prime
    p <= r, so class 0 is missed mod every such p.  (r, 2r^2] holds at
    least r primes for every r >= 1.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    return AdmissibleTuple(tuple(primes_in_range(r, 2 * r * r)[:r].tolist()))


def exact_row_sums(A: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a nonnegative, finite float64 matrix, bit for bit.

    Each entry x splits exactly into hi, its bit pattern with the low 26
    mantissa bits cleared, and lo = x - hi.  Among entries of one binary
    exponent every hi is a multiple of 2**26 ulps and every lo is below
    2**26 ulps, so with fewer than 2**26 entries per row one float64
    bincount per part, keyed by (row, exponent), sums every bucket
    exactly.  fsum of a row's nonzero bucket sums then rounds the exact
    total once, which is what fsum of the row returns.  Rows are taken in
    chunks of at most _SUM_BYTES of entries, or one row; each row's
    buckets are its own, so the chunking never changes a bit.
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
    step = max(1, _SUM_BYTES // (8 * max(n_cols, 1)))
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
        theta: float,
    ):
        self.partition = partition
        self.tuple = tuple_
        self.theta = float(theta)
        # the support sieve below takes one byte per integer below the
        # level; compare logs, so that no theta can overflow x**theta
        bits = self.theta * math.log2(partition.x)
        if not bits <= math.log2(nt.MAX_BYTES):
            raise MatrixTooLarge(
                f"divisor level x**theta = {partition.x:g}**{self.theta:g} "
                f"would need a prime sieve of 2**{bits:.4g} bytes, over the "
                f"{nt.MAX_BYTES / 2**30:g} GiB cap"
            )
        self.level = float(partition.x) ** self.theta
        ny = math.floor(partition.y)
        self.n_min = -ny
        self.n_max = ny
        self._matrix: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # primes allowed into divisor products: r < s < R, s != excluded
        r = tuple_.r
        cap = math.ceil(self.level) - 1
        sup = primes_in_range(1, cap)
        sup = sup[(sup > r) & (sup.astype(float) < self.level)]
        b0 = partition.excluded_prime
        self.support_primes: list[int] = [
            int(s) for s in sup.tolist() if s != b0
        ]

    # -- construction ------------------------------------------------------

    def _maynard_batches(self, n: int) -> tuple[int, int, int]:
        """(rows per batch, padded row width, node bytes per row) for n rows.

        A batch is one contiguous share of the n Maynard rows per usable
        CPU, or fewer rows if its node lists would pass _NODE_BYTES.  The
        padding lets a row reshape to (ceil(width / m), m) for every
        m < level and takes the terms of classes past the grid's end.
        The node bytes bound what one row adds to its batch: a class and
        a term (8 bytes each) for each of the r**omega(m) CRT combinations
        of every node m, and a class and its count mod each support prime.
        """
        r, level, support = self.tuple.r, self.level, self.support_primes
        entries = r * len(support)
        stack = [(0, 1, 1)]  # (next prime, m, r**omega(m))
        while stack:
            j, m, k = stack.pop()
            for i in range(j, len(support)):
                if m * support[i] >= level:
                    break
                entries += k * r
                stack.append((i + 1, m * support[i], k * r))
        row_bytes = 16 * entries
        share = -(-n // _fork.usable_cpus())
        padded = self.n_max - self.n_min + 1 + math.ceil(level)
        step = min(share, _NODE_BYTES // max(row_bytes, 1))
        return max(1, step), padded, row_bytes

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
        cls = base % np.array(self.support_primes, np.int64)[:, None, None]
        cnt = (cls[..., :, None] == cls[..., None, :]).sum(axis=3)
        on = (cls.min(axis=(1, 2)) < length).tolist()
        hits = [h for h, k in zip(zip(self.support_primes, cls, cnt), on) if k]
        # Pass 1 walks the squarefree m depth-first in increasing prime
        # order, the order in which every grid entry receives its terms, and
        # lists each node (m, rows of the grid mod m, classes, terms).  A
        # frame (j, m, sign, cls, mult) resumes m's children, whose Moebius
        # sign is sign, at hits[j]; cls and mult hold, per row, the classes
        # mod m on which prod_{s | m} A_s is nonzero and its value there; a
        # class that repeats (when s = p, every offset's) has one value.
        nodes = []
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
            if m2 > length and cls2.min() >= length:  # every class is below m2
                continue  # no row has a class on the grid, here or below
            f = (1.0 - math.log(m2) / log_level) ** r
            nodes.append((m2, -(-length // m2), cls2, (sign * f) * mult2))
            stack.append((j + 1, m2, -sign, cls2, mult2))
        # Pass 2 adds the nodes, in that order, to one block of rows at a
        # time; lam[i, j] = lambda(p_i, n0 + j), from the m = 1 term F(0) = 1
        block = _block_rows(R, padded)
        lam = np.empty((block, padded))
        for a in range(0, R, block):
            b = min(a + block, R)
            lb = lam[: b - a]
            lb.fill(1.0)
            each = np.arange(b - a)[:, None]
            for m2, rows, cls2, terms in nodes:
                if rows < _STRIDED_ROWS:
                    view = lb[:, : rows * m2].reshape(b - a, rows, m2)
                    view[each, :, cls2[a:b]] += terms[a:b, :, None]
                    continue
                # each distinct class of a row once, as one strided slice
                for row, ci, ti in zip(lb, cls2[a:b].tolist(), terms[a:b].tolist()):
                    for c, term in dict(zip(ci, ti)).items():
                        row[c:length:m2] += term
            np.multiply(lb[:, :length], lb[:, :length], out=W[a:b])
            sums[a:b] = exact_row_sums(W[a:b])

    def matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(primes, dense weight matrix on the full grid, row sums).

        Matrix shape is (#weighted primes, n_max - n_min + 1).  Built on
        the first call.  Each row is followed in memory by one 0.0 (see
        gathered_sums); rows, zeros and sums share one anonymous shared
        mapping, so the batches are built by `_fork.fork_map` on every
        usable CPU: each process, this one included, builds its batch
        block by block and writes the rows and sums in place, and nothing
        comes back.
        """
        if self._matrix is None:
            ps = self.partition.weighted_primes.astype(np.int64)
            n = ps.size
            width = self.n_max - self.n_min + 1
            est_bytes = 8 * n * (width + 2)  # rows, a zero after each, sums
            step, padded, row_bytes = self._maynard_batches(n)
            starts = list(range(0, n, step))
            # every process holds one batch's node lists and one padded
            # block buffer at a time
            procs = min(_fork.usable_cpus(), len(starts))
            block_bytes = 8 * _block_rows(step, padded) * padded
            est_bytes += procs * (step * row_bytes + block_bytes)
            nt.check_bytes("dense weight matrix and its build buffers", est_bytes)
            shared = mmap.mmap(-1, 8 * n * (width + 2))
            flat = np.frombuffer(shared, np.float64, n * (width + 1))
            W = flat.reshape(n, width + 1)[:, :width]
            sums = np.frombuffer(shared, np.float64, n, 8 * n * (width + 1))
            state = (self, ps, W, sums, step, padded)
            _fork.fork_map(_build_batch, starts, state)
            W.setflags(write=False)
            sums.setflags(write=False)
            self._matrix = (ps, W, sums)
        return self._matrix


def _block_rows(rows: int, padded: int) -> int:
    """Rows per block of a batch of rows: at most _BLOCK_BYTES of padded rows."""
    return max(1, min(rows, _BLOCK_BYTES // (8 * padded)))


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
    theta: float = 1.0,
) -> WeightTable:
    """Validate parameters and assemble a Maynard weight table (rows built on use).

    theta sets the divisor level R = x**theta; enumeration cost grows
    steeply with theta and r, hence the cap r <= 16.  Offsets must stay
    within [0, 2 r^2].  kind names the one table there is, "maynard".
    """
    # ROADMAP item 15 deletes kind together with assemble_frame's D
    if kind != "maynard":
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
    return WeightTable(partition, tuple_, theta)


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
      on-tuple      S(q, i) = sum_p w(p, q - h_i p)/rowsum(p) over the n_q
                    targets q: its mean, spread, and the empirical
                    coverage r * mean
      off-tuple     same sums at shifts h outside the tuple; reported both
                    per pair (off mean / on mean) and in aggregate form,
                    off mean relative to the whole-tuple scale r * on mean
      point mass    max_n w(p, n)/rowsum(p) over all rows
    """

    r: int
    theta: float
    row_sum_ratio: float
    zero_rows: int
    n_q: int
    on_mean: float
    on_std: float
    on_max_rel_dev: float
    empirical_coverage: float
    off_offsets: list[int]
    off_mean: float
    off_max_mean: float
    off_on_pair_ratio: float
    off_on_aggregate_ratio: float
    max_point_mass: float

    def summary(self) -> dict:
        return asdict(self)


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
    The targets go in one contiguous block per usable CPU to
    `_fork.thread_map` (numpy drops the GIL in take, the ufuncs and the
    sums); each block fills its own columns, the same bits for any split.
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
    n_blocks = max(1, min(_fork.usable_cpus(), q_arr.size))

    def gather(_: None, block: int) -> None:
        a, b = (q_arr.size * t // n_blocks for t in (block, block + 1))
        ix, vs = idx[a:b], vals[a:b]
        for k, h in enumerate(offsets):
            np.subtract.outer(q_arr[a:b], h * p_arr + n_min, out=ix)
            # read as unsigned, a negative index exceeds width too: one
            # minimum sends every shift off the grid to the zero slot
            np.minimum(ix.view(np.uint64), width, out=ix.view(np.uint64))
            ix += starts
            # every index is in range, so "clip" never clips: it only spares
            # take the copy of out that "raise" makes
            np.take(padded, ix, out=vs, mode="clip")
            if hits is not None:
                vs *= np.take(hits, ix, mode="clip")
            vs /= denom
            vs.sum(axis=1, out=out[k, a:b])

    _fork.thread_map(gather, range(n_blocks), None)
    return out


def _with_zero_slots(A: np.ndarray) -> np.ndarray:
    """A read-only view of the (n, width) rows A and the zero after each."""
    n, width = A.shape
    padded = np.lib.stride_tricks.as_strided(A, (n, width + 1), writeable=False)
    if A.strides != ((width + 1) * A.itemsize, A.itemsize) or padded[:, -1].any():
        raise ValueError("each row must be followed by one zero slot")
    return padded


def weight_contract_report(table: WeightTable) -> WeightContractReport:
    """Measure the four weight contracts on the table's own partition.

    q runs over every target prime, and the off-tuple shifts are every
    integer shift h, other than the tuple's own offsets, for which q - h p
    can land inside the support grid for at least one (q, p) pair.
    """
    part = table.partition
    offs = table.tuple.offsets
    r = table.tuple.r
    ps, W, sums = table.matrix()
    keep = sums > 0
    zero_rows = int((~keep).sum())
    if not keep.any():
        raise ValueError("every weight row is zero; contracts are undefined")

    q_arr = part.target_primes.astype(np.int64)
    p_min, p_max = int(ps.min()), int(ps.max())
    q_min, q_max = int(q_arr.min()), int(q_arr.max())

    def feasible(h: int) -> bool:
        lo = q_min - h * (p_max if h > 0 else p_min)
        hi = q_max - h * (p_min if h > 0 else p_max)
        return hi >= table.n_min and lo <= table.n_max

    h_lo = math.floor((q_min - table.n_max) / p_max)
    h_hi = math.ceil((q_max - table.n_min) / p_min)
    off_list = [h for h in range(h_lo, h_hi + 1) if h not in offs and feasible(h)]

    rows = np.arange(ps.size)
    # one row per target, in memory too: the means sum in that order
    on = gathered_sums(W, sums, rows, ps, q_arr, offs, table.n_min).T.copy()
    on_mean = float(on.mean())
    on_std = float(on.std())
    on_max_rel_dev = (
        float(np.abs(on - on_mean).max() / on_mean) if on_mean > 0 else math.inf
    )

    off = gathered_sums(W, sums, rows, ps, q_arr, off_list, table.n_min)
    off_mean = float(off.ravel().mean()) if off_list else 0.0
    off_max_mean = max((float(t.mean()) for t in off), default=0.0)

    pair_ratio = off_mean / on_mean if on_mean > 0 else math.inf
    agg_ratio = off_mean / (r * on_mean) if on_mean > 0 else math.inf

    return WeightContractReport(
        r=r,
        theta=table.theta,
        row_sum_ratio=float(sums[keep].max() / sums[keep].min()),
        zero_rows=zero_rows,
        n_q=int(q_arr.size),
        on_mean=on_mean,
        on_std=on_std,
        on_max_rel_dev=on_max_rel_dev,
        empirical_coverage=r * on_mean,
        off_offsets=off_list,
        off_mean=off_mean,
        off_max_mean=off_max_mean,
        off_on_pair_ratio=pair_ratio,
        off_on_aggregate_ratio=agg_ratio,
        # division by a positive sum is monotone: M.max() bit for bit
        max_point_mass=float((W.max(axis=1)[keep] / sums[keep]).max()),
    )
