"""Weight tables: admissibility, the row builder, sampling, contracts.

The rows are validated against a from-scratch oracle that sums
over explicit subsets of support primes (signed truncated weight times
divisibility multiplicity), written without any of the library's strided
or recursive accumulation tricks.
"""

import itertools
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapchain as g
from gapchain import (
    AdmissibleTuple,
    build_weights,
    first_primes_tuple,
    is_admissible,
    weight_contract_report,
)
from gapchain import _fork
from gapchain import weights as weights_mod
from gapchain.seeds import derive_rng
from gapchain.weights import draw_shift, exact_row_sums, gathered_sums

from oracles import factorize, weight_at


def brute_subset_weight(table, p, n):
    """Oracle for w(p, n): full inclusion-exclusion over support subsets.

    A zero translate counts as divisible by every support prime.  Only
    usable when 2**len(support) enumerations are affordable, so callers
    restrict either the table (small level) or n (few dividing primes).
    """
    translates = [n + h * p for h in table.tuple.offsets]
    level = table.level
    relevant = [
        s
        for s in table.support_primes
        if any(v == 0 or v % s == 0 for v in translates)
    ]
    assert len(relevant) <= 16, "oracle blow-up; pick a tamer n"
    lam = 0.0
    for k in range(len(relevant) + 1):
        for subset in itertools.combinations(relevant, k):
            m = math.prod(subset)
            if m >= level:
                continue
            mult = 1
            for s in subset:
                mult *= sum(1 for v in translates if v == 0 or v % s == 0)
            shape = (1.0 - math.log(m) / math.log(level)) ** table.tuple.r
            lam += (-1.0) ** k * shape * mult
    return lam * lam


def grid_classes(table, p, primes):
    """Grid-index classes j mod prod(primes) on which every prime divides
    a translate n_min + j + h p, by CRT over the per-prime classes."""
    m = math.prod(primes)
    per = [
        {(-h * p - table.n_min) % s for h in table.tuple.offsets} for s in primes
    ]
    return {
        sum(a * (m // s) * pow(m // s, -1, s) for s, a in zip(primes, combo)) % m
        for combo in itertools.product(*per)
    }


def masked_gather(M, p_arr, q_arr, h, n_min):
    """Oracle for gathered_sums on an unpadded M: every shift off the grid
    is masked to 0 by np.where before the same row-wise sum."""
    idx = q_arr[:, None] - h * p_arr[None, :] - n_min
    ok = (idx >= 0) & (idx < M.shape[1])
    safe = np.where(ok, idx, 0)
    vals = M[np.arange(p_arr.size)[None, :], safe]
    return np.where(ok, vals, 0.0).sum(axis=1)


def fancy_indexed_rows(table, ps):
    """Oracle for the Maynard rows of ps, squared: the depth-first walk over
    squarefree m with one fancy-indexed += per node, whatever its modulus,
    and no pruning (a pruned node adds only past the grid's end)."""
    R, r, n0 = len(ps), table.tuple.r, table.n_min
    length = table.n_max - n0 + 1
    log_level = math.log(table.level)
    base = -np.outer(ps, table.tuple.offsets) - n0
    hits = []
    for s in table.support_primes:
        cls = base % s
        hits.append((s, cls, (cls[:, :, None] == cls[:, None, :]).sum(axis=2)))
    lam = np.ones((R, length + math.ceil(table.level)))
    each = np.arange(R)[:, None]
    stack = [(0, 1, -1, np.zeros((R, 1), np.int64), np.ones((R, 1), np.int64))]
    while stack:
        j, m, sign, cls, mult = stack.pop()
        if j == len(hits) or m * hits[j][0] >= table.level:
            continue
        s, cs, ks = hits[j]
        stack.append((j + 1, m, sign, cls, mult))
        t = ((cs[:, None, :] - cls[:, :, None]) * pow(m, -1, s)) % s
        cls2 = (cls[:, :, None] + m * t).reshape(R, -1)
        mult2 = (mult[:, :, None] * ks[:, None, :]).reshape(R, -1)
        f = (1.0 - math.log(m * s) / log_level) ** r
        rows = -(-length // (m * s))
        view = lam[:, : rows * m * s].reshape(R, rows, m * s)
        view[each, :, cls2] += ((sign * f) * mult2)[:, :, None]
        stack.append((j + 1, m * s, -sign, cls2, mult2))
    return lam[:, :length] * lam[:, :length]


def with_zero_slots(A):
    """The (n, width + 1) view of A's rows and the memory slot after each."""
    return np.lib.stride_tricks.as_strided(A, (A.shape[0], A.shape[1] + 1), A.strides)


def fsum_rows(A):
    return np.array([math.fsum(row.tolist()) for row in A], dtype=np.float64)


# entries for exact_row_sums: zeros, subnormals, the smallest normals and
# magnitudes spread over +-300 decades
_entries = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.3e-308, allow_subnormal=True),
    st.floats(0.0, 1.0),
    st.builds(
        lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 300)
    ),
)


@st.composite
def _matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 24))
    flat = draw(st.lists(_entries, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.float64).reshape(rows, cols)


class TestAdmissibility:
    def test_known_patterns(self):
        assert is_admissible((0, 2, 6, 8, 12))
        assert is_admissible((0,))
        assert not is_admissible((0, 1))  # covers both classes mod 2
        assert not is_admissible((0, 2, 4))  # covers everything mod 3
        with pytest.raises(ValueError):
            is_admissible((0, 2, 2))

    def test_tuple_construction(self):
        t = AdmissibleTuple((0, 2, 6))
        assert t.r == 3 and t.offsets == (0, 2, 6)
        with pytest.raises(ValueError):
            AdmissibleTuple(())
        with pytest.raises(ValueError):
            AdmissibleTuple((0, 6, 2))
        with pytest.raises(ValueError):
            AdmissibleTuple((0, 2, 4))

    def test_first_primes_tuple(self):
        assert first_primes_tuple(4).offsets == (5, 7, 11, 13)
        assert first_primes_tuple(1).offsets == (2,)
        t = first_primes_tuple(6)
        assert t.offsets == (7, 11, 13, 17, 19, 23)
        assert t.offsets[-1] <= 2 * 36
        with pytest.raises(ValueError):
            first_primes_tuple(0)

    def test_first_primes_tuple_matches_trial_division(self):
        # the first r primes above r, enumerated without a sieve
        for r in range(1, 17):
            want, n = [], r
            while len(want) < r:
                n += 1
                if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)):
                    want.append(n)
            assert first_primes_tuple(r).offsets == tuple(want), r


class TestBuildValidation:
    def test_rejects_bad_knobs(self, small_partition):
        t = first_primes_tuple(4)
        for kind in ("selberg", "uniform"):
            with pytest.raises(ValueError, match=f"unknown weight kind '{kind}'"):
                build_weights(small_partition, t, kind=kind)
        with pytest.raises(ValueError):
            build_weights(small_partition, t, theta=0.0)
        with pytest.raises(ValueError, match="positive"):
            build_weights(small_partition, t, theta=math.nan)
        with pytest.raises(ValueError, match="outside"):
            build_weights(small_partition, first_primes_tuple(17))  # r > 16

    def test_divisor_level_refused_before_its_sieve(
        self, small_partition, monkeypatch
    ):
        # level 400**0.5 = 20: its support sieve takes about 20 bytes
        t = first_primes_tuple(4)
        monkeypatch.setattr(g.nt, "MAX_BYTES", 19)
        with pytest.raises(g.nt.MatrixTooLarge, match="divisor level"):
            build_weights(small_partition, t, theta=0.5)
        monkeypatch.setattr(g.nt, "MAX_BYTES", 21)
        assert build_weights(small_partition, t, theta=0.5).level < 21
        # x**theta would overflow a float; the refusal compares logs
        monkeypatch.undo()
        with pytest.raises(g.nt.MatrixTooLarge, match="divisor level"):
            build_weights(small_partition, t, theta=1e300)

    def test_offset_bound(self, small_partition):
        wide = AdmissibleTuple((0, 40))  # leaves [0, 2 r^2] = [0, 8]
        with pytest.raises(ValueError, match="leave"):
            build_weights(small_partition, wide)


class TestDivisorSumRows:
    def test_small_level_rows_match_oracle(self, small_table):
        # level 20 leaves six support primes, so the oracle enumerates all
        assert small_table.support_primes == [5, 7, 11, 13, 17, 19]
        rng = derive_rng(0, "weights-small-oracle")
        ps, W, _ = small_table.matrix()
        for p in (211, 307, 397):
            row = W[ps.tolist().index(p)]
            picks = rng.integers(row.shape[0], size=12)
            for j in picks.tolist():
                n = small_table.n_min + j
                want = brute_subset_weight(small_table, p, n)
                assert row[j] == pytest.approx(want, rel=1e-12, abs=1e-12)
                assert weight_at(small_table, p, n) == pytest.approx(
                    want, rel=1e-12, abs=1e-12
                )
        # off the grid a point weighs nothing
        assert weight_at(small_table, 307, small_table.n_max + 1) == 0.0
        assert weight_at(small_table, 307, small_table.n_min - 5) == 0.0

    def test_zero_translate_counts_every_support_prime(self, small_table):
        n = -5 * 211  # first translate lands exactly on zero
        want = brute_subset_weight(small_table, 211, n)
        assert weight_at(small_table, 211, n) == pytest.approx(want, rel=1e-12)
        ps, W, _ = small_table.matrix()
        row = W[ps.tolist().index(211)]
        assert row[n - small_table.n_min] == pytest.approx(want, rel=1e-12)

    def test_deep_level_rows_match_oracle(self, pinned_table):
        # level 1400: restrict to shifts whose translates carry few
        # support divisors, where full subset enumeration stays feasible
        support = set(pinned_table.support_primes)
        ps, W, _ = pinned_table.matrix()
        p, row = int(ps[0]), W[0]
        zeros = {-h * p for h in pinned_table.tuple.offsets}
        cases = []
        for n in range(100, 4_000, 37):
            if n in zeros:
                continue
            union = {
                s
                for h in pinned_table.tuple.offsets
                for s in factorize(abs(n + h * p))
                if s in support
            }
            if len(union) <= 13:
                cases.append(n)
            if len(cases) == 8:
                break
        assert len(cases) >= 5
        for n in cases:
            want = brute_subset_weight(pinned_table, p, n)
            assert row[n - pinned_table.n_min] == pytest.approx(want, rel=1e-9)

    def test_point_and_row_paths_agree(self, pinned_table):
        rng = derive_rng(0, "weights-point-vs-row")
        ps, W, _ = pinned_table.matrix()
        for i in rng.choice(ps.size, size=4, replace=False).tolist():
            p = int(ps[i])
            for j in rng.integers(W.shape[1], size=20).tolist():
                n = pinned_table.n_min + j
                assert weight_at(pinned_table, p, n) == pytest.approx(
                    W[i, j], rel=1e-9, abs=1e-12
                )

    def test_rows_above_grid_width_match_oracle(self):
        # level 400**1.6 ~ 14565 against a 2001-wide grid: some divisor
        # products have every class past the grid's end, and the builder
        # must leave them (and their multiples) out without changing a
        # value.  (With y = 6000 every h p < y, so no class leaves the grid.)
        part = g.build_partition(
            g.derive_parameters(400, y=1000, z=80, small_low=32)
        )
        t4 = first_primes_tuple(4)
        table = build_weights(part, t4, theta=1.6)
        width = table.n_max - table.n_min + 1
        assert table.level > width
        support = set(table.support_primes)
        ps = part.weighted_primes[:3].tolist()
        _, W, sums = table.matrix()
        rng = derive_rng(0, "weights-above-width")
        for i, p in enumerate(ps):
            on = [
                s
                for s in table.support_primes
                if min(grid_classes(table, p, [s])) < width
            ]
            assert len(on) < len(support)  # whole primes fall off the grid
            assert any(  # and so do products of primes that are on it
                min(grid_classes(table, p, [s, u])) >= width
                for s, u in itertools.combinations(on, 2)
                if s * u < table.level
            )
            oracle_checked = 0
            for j in rng.integers(width, size=40).tolist():
                n = table.n_min + j
                assert W[i, j] == pytest.approx(
                    weight_at(table, p, n), rel=1e-9, abs=1e-12
                )
                translates = [n + h * p for h in table.tuple.offsets]
                if 0 in translates:
                    continue
                union = support & {
                    s for v in translates for s in factorize(abs(v))
                }
                if len(union) <= 12:
                    want = brute_subset_weight(table, p, n)
                    assert W[i, j] == pytest.approx(want, rel=1e-9, abs=1e-12)
                    oracle_checked += 1
            assert oracle_checked >= 10
        # a row built alone prunes products its batch keeps, yet equals its
        # row of the matrix bit for bit
        padded = table._maynard_batches(1)[1]
        for i, p in enumerate(ps):
            alone, alone_sum = np.empty((1, width)), np.empty(1)
            table._maynard_rows([p], alone, alone_sum, padded)
            assert np.array_equal(alone[0], W[i])
            assert alone_sum[0] == sums[i]

    def test_strided_and_fancy_nodes_match_the_fancy_oracle(
        self, small_partition, pinned_table
    ):
        # x = 400 at level 400 (all 32 rows) and the first batch at x = 1400:
        # the smallest support prime repeats often enough on the grid to be
        # added by strided slices, the largest does not.  The offsets
        # (0, 2, 6, 12) share a class mod 5 (2 and 12), so a strided node
        # meets a repeated class, which must be added once.
        x400 = [
            build_weights(small_partition, t, theta=1.0)
            for t in (first_primes_tuple(4), AdmissibleTuple((0, 2, 6, 12)))
        ]
        batch = pinned_table._maynard_batches(97)[0]
        for table, n in ((x400[0], 32), (x400[1], 32), (pinned_table, batch)):
            length = table.n_max - table.n_min + 1
            s = table.support_primes
            assert -(-length // s[0]) >= weights_mod._STRIDED_ROWS
            assert -(-length // s[-1]) < weights_mod._STRIDED_ROWS
            ps, W, sums = table.matrix()
            assert ps.size == (97 if table is pinned_table else 32)
            want = fancy_indexed_rows(table, ps[:n].tolist())
            assert W[:n].tobytes() == want.tobytes()
            assert sums[:n].tobytes() == exact_row_sums(want).tobytes()

    def test_level_above_the_grid_matches_the_fancy_oracle(self, monkeypatch):
        # level 200**1.5 ~ 2828 against a 1201-wide grid: the support primes
        # above the grid's width are nodes with m2 > length, the only ones
        # on which the builder looks for a class on the grid.  The matrix,
        # on one CPU one batch of 21 rows, equals the unpruned oracle bit
        # for bit.  (test_rows_above_grid_width_match_oracle has nodes that
        # prune.)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        table = above_grid_table()
        length = table.n_max - table.n_min + 1
        assert (length, math.floor(table.level)) == (1201, 2828)
        assert max(table.support_primes) > length
        ps, W, sums = table.matrix()
        assert ps.size == 21 and table._maynard_batches(21)[0] == 21
        want = fancy_indexed_rows(table, ps.tolist())
        assert W.tobytes() == want.tobytes()
        assert sums.tobytes() == exact_row_sums(want).tobytes()

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_blocked_build_matches_the_fancy_oracle(
        self, small_partition, block, monkeypatch
    ):
        # blocks of 1, 2 and 3 rows, in one batch of every row: the 32 rows
        # at x = 400, level 400 (strided and fancy nodes), and the 21 at
        # x = 200, theta = 1.5 (level above the grid); 3 divides neither
        # and 2 not 21, so those builds end in a short block
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        x400 = build_weights(small_partition, first_primes_tuple(4), theta=1.0)
        for table in (x400, above_grid_table()):
            ps = table.partition.weighted_primes.tolist()
            step, padded, _ = table._maynard_batches(len(ps))
            assert step == len(ps)
            monkeypatch.setattr(weights_mod, "_BLOCK_BYTES", 8 * padded * block)
            assert weights_mod._block_rows(step, padded) == block
            _, W, sums = table.matrix()
            want = fancy_indexed_rows(table, ps)
            assert W.tobytes() == want.tobytes()
            assert sums.tobytes() == exact_row_sums(want).tobytes()

    def test_matrix_bytes_do_not_depend_on_the_cpus(
        self, small_partition, monkeypatch
    ):
        # one batch per CPU, of 32, 16 or 11 rows, in blocks of at most 15
        # rows (12401 padded entries a row at level 400): 15 + 15 + 2 rows,
        # 15 + 1 and 11
        t4 = first_primes_tuple(4)
        built = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            table = build_weights(small_partition, t4, theta=1.0)
            step, padded, _ = table._maynard_batches(32)
            assert (step, weights_mod._block_rows(step, padded)) == (
                (32, 15), (16, 15), (11, 11)
            )[cpus - 1]
            _, W, sums = table.matrix()
            built.append((W.tobytes(), sums.tobytes()))
        want = fancy_indexed_rows(table, table.partition.weighted_primes.tolist())
        assert built == [(want.tobytes(), exact_row_sums(want).tobytes())] * 3

    def test_level_below_every_support_prime_gives_rows_of_ones(
        self, small_partition
    ):
        # level 400**0.25 ~ 4.47 leaves no prime in (r, level): the node
        # lists are empty, and every row is the m = 1 term squared
        table = build_weights(small_partition, first_primes_tuple(4), theta=0.25)
        assert table.support_primes == []
        _, W, sums = table.matrix()
        assert np.array_equal(W, np.ones(W.shape))
        assert np.array_equal(sums, np.full(sums.shape, float(W.shape[1])))

    def test_batch_size_leaves_rows_unchanged(self, small_partition, monkeypatch):
        t4 = first_primes_tuple(4)
        ref = build_weights(small_partition, t4, theta=0.5)
        ps = small_partition.weighted_primes.tolist()
        _, W, sums = ref.matrix()
        # on one CPU the batch is every row, unless the node lists cap it
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        row_bytes = ref._maynard_batches(len(ps))[2]
        for rows_per_batch in (1, 5):
            monkeypatch.setattr(
                weights_mod, "_NODE_BYTES", row_bytes * rows_per_batch
            )
            table = build_weights(small_partition, t4, theta=0.5)
            assert table._maynard_batches(len(ps))[0] == rows_per_batch
            _, W2, sums2 = table.matrix()
            assert np.array_equal(W2, W)
            assert np.array_equal(sums2, sums)

    def test_build_buffer_counts_toward_memory_cap(
        self, small_partition, small_table, monkeypatch
    ):
        table = build_weights(small_partition, first_primes_tuple(4), theta=0.5)
        _, W0, sums0 = small_table.matrix()  # built before the cap is patched
        n = small_partition.weighted_primes.size
        width = table.n_max - table.n_min + 1
        # the rows, the zero slot after each row, and the sums
        matrix_bytes = 8 * n * (width + 2)
        monkeypatch.setattr(g.nt, "MAX_BYTES", matrix_bytes)
        with pytest.raises(MemoryError, match="build buffer"):
            table.matrix()  # the matrix alone would fit
        # every worker holds its batch's node lists, which grow with the
        # rows of the batch, and one padded block buffer of at most 16 rows
        # here; the batches are one row each under a 1-byte node cap, else
        # one share of the 32 rows per CPU
        padded = width + math.ceil(table.level)
        row_bytes = table._maynard_batches(n)[2]
        assert weights_mod._BLOCK_BYTES // (8 * padded) == 16
        for cpus, node_cap, step, block in (
            (1, 1, 1, 1),
            (3, 1, 1, 1),
            (1, None, 32, 16),
            (2, None, 16, 16),
            (3, None, 11, 11),
        ):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            with monkeypatch.context() as m:
                if node_cap is not None:
                    m.setattr(weights_mod, "_NODE_BYTES", node_cap)
                assert table._maynard_batches(n)[0] == step
                cap = matrix_bytes + cpus * (step * row_bytes + 8 * block * padded)
                m.setattr(g.nt, "MAX_BYTES", cap - 1)
                with pytest.raises(MemoryError, match="build buffers"):
                    table.matrix()
                m.setattr(g.nt, "MAX_BYTES", cap)
                _, W, sums = fresh_table(small_partition).matrix()
            assert np.array_equal(W, W0)
            assert np.array_equal(sums, sums0)

    def test_rows_are_read_only_views_of_matrix(self, small_partition):
        _, W, sums = fresh_table(small_partition).matrix()
        row = W[1]
        assert row.base is not None and np.shares_memory(row, W)
        assert sums[1] == math.fsum(row.tolist())
        for array, i in ((row, 0), (sums, 1)):
            with pytest.raises(ValueError):
                array[i] = 5.0

    def test_every_row_is_followed_by_a_read_only_zero(self, small_partition):
        _, W, _ = fresh_table(small_partition).matrix()
        n, width = W.shape
        assert W.strides == (8 * (width + 1), 8)
        slots = with_zero_slots(W)[:, width]
        assert slots.shape == (n,) and np.array_equal(slots, np.zeros(n))
        assert np.signbit(slots).sum() == 0
        with pytest.raises(ValueError):
            slots[0] = 1.0

    def test_matrix_reassembles_rows(self, small_table):
        ps, W, sums = small_table.matrix()
        assert small_table.matrix()[1] is W  # cached
        assert ps.tolist() == small_table.partition.weighted_primes.tolist()
        assert W.shape == (ps.size, small_table.n_max - small_table.n_min + 1)
        assert sums.shape == (ps.size,)
        for i in range(ps.size):
            assert sums[i] == math.fsum(W[i].tolist())
        with pytest.raises(ValueError):
            W[0, 0] = 1.0


def fresh_table(partition):
    """A theta = 0.5 table whose rows are not built yet."""
    return build_weights(partition, first_primes_tuple(4), theta=0.5)


def above_grid_table():
    """The x = 200, y = 600, theta = 1.5 table: level 2828, grid 1201 wide."""
    part = g.build_partition(g.derive_parameters(200, y=600))
    return build_weights(part, first_primes_tuple(4), theta=1.5)


def parent_builds(monkeypatch):
    """The batches (lists of primes) built in this process, not in workers."""
    calls = []
    build = g.WeightTable._maynard_rows

    def counted(table, ps, W, sums, padded):
        calls.append(ps)
        return build(table, ps, W, sums, padded)

    monkeypatch.setattr(g.WeightTable, "_maynard_rows", counted)
    return calls


def no_fork(*args):
    raise AssertionError("os.fork was called")


def matrix_in_daemon_worker(partition):
    os.fork = no_fork  # a fork_map that forked would fail here, not fall back
    calls = []
    build = g.WeightTable._maynard_rows
    g.WeightTable._maynard_rows = lambda *args: calls.append(args[1]) or build(*args)
    _, W, sums = fresh_table(partition).matrix()
    return W.tobytes(), sums.tobytes(), len(calls)


class TestParallelRowBuild:
    @pytest.fixture(autouse=True)
    def five_row_batches(self, small_partition, monkeypatch):
        # a node cap of five rows' lists builds the 32 rows of the small
        # table in 7 batches, split unevenly over 3 workers; forked workers
        # inherit the setting
        row_bytes = fresh_table(small_partition)._maynard_batches(1)[2]
        monkeypatch.setattr(weights_mod, "_NODE_BYTES", 5 * row_bytes)

    @pytest.fixture
    def serial(self, small_partition, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(_fork, "usable_cpus", lambda: 1)
            _, W, sums = fresh_table(small_partition).matrix()
        return W.tobytes(), sums.tobytes()

    def test_matrix_does_not_depend_on_the_cpus(
        self, small_partition, small_table, serial, monkeypatch, forked
    ):
        # the batches give the one-batch table's rows bit for bit
        assert serial == (
            small_table.matrix()[1].tobytes(), small_table.matrix()[2].tobytes()
        )
        calls = parent_builds(monkeypatch)
        for cpus in (1, _fork.usable_cpus(), 3):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            calls.clear()
            forked.clear()
            table = fresh_table(small_partition)
            _, W, sums = table.matrix()
            assert (W.tobytes(), sums.tobytes()) == serial
            # one CPU builds every batch here; more build a share here and
            # fork one worker fewer than the CPUs, which write straight
            # into the matrix
            assert len(forked) == cpus - 1
            assert len(calls) <= 7 and (cpus > 1 or len(calls) == 7)
            # the shared matrix, each of its rows and the sums are read-only
            for array in (W[11], W, sums):
                with pytest.raises(ValueError):
                    array[0] = 5.0

    def test_gather_threads_are_joined_before_a_fork(
        self, small_partition, small_table, serial, monkeypatch, forked
    ):
        # the contract gathers run on threads; every thread is joined when
        # they return, so the next row build still forks its workers
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)
        before = threading.active_count()
        weight_contract_report(small_table)
        assert threading.active_count() == before == 1
        _, W, sums = fresh_table(small_partition).matrix()
        assert (W.tobytes(), sums.tobytes()) == serial
        assert len(forked) == 2

    def test_daemonic_worker_builds_here(self, small_partition, serial):
        # pool workers are daemonic and may not start processes of their own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            job = pool.apply_async(matrix_in_daemon_worker, (small_partition,))
            W, sums, calls = job.get(timeout=60)
        assert (W, sums) == serial
        assert calls == 7

    def test_other_fallbacks_build_here(
        self, small_partition, serial, monkeypatch, forked
    ):
        calls = parent_builds(monkeypatch)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)

        def no_processes(*args):
            raise OSError("no processes left")

        def built_here():
            calls.clear()
            _, W, sums = fresh_table(small_partition).matrix()
            assert (W.tobytes(), sums.tobytes()) == serial
            return len(calls)

        for name in ("fork", "pipe"):
            with monkeypatch.context() as m:
                m.setattr(os, name, no_processes)
                assert built_here() == 7
        with monkeypatch.context() as m:  # a platform with no fork
            m.delattr(os, "fork")
            assert built_here() == 7
        # forking while another thread runs can deadlock the child
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert built_here() == 7
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        forked.clear()
        assert built_here() <= 7
        assert len(forked) == 2


class TestDrawShift:
    def test_sampler_frequencies(self):
        # 1.0 on the four shifts 48..51 of a grid that starts at -5
        row = np.zeros(60)
        row[53:57] = 1.0
        rng = derive_rng(0, "sampler-freq")
        draws = [draw_shift(row, -5, rng) for _ in range(20_000)]
        assert all(type(n) is int for n in draws)
        values, counts = np.unique(draws, return_counts=True)
        assert values.tolist() == [48, 49, 50, 51]
        slack = 4 * math.sqrt(20_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 5_000) <= slack)

    def test_zero_row_fails_loudly(self):
        with pytest.raises(ValueError, match="no shift to draw"):
            draw_shift(np.zeros(60), -5, derive_rng(0, "zero-row"))


class TestAllZeroTable:
    def zero_table(self, partition):
        """A table whose matrix is swapped, before its rows are built, for
        zero rows and sums in the same layout: each row and one zero slot."""
        table = fresh_table(partition)
        ps = partition.weighted_primes.astype(np.int64)
        width = table.n_max - table.n_min + 1
        zeros = np.zeros((ps.size, width + 1))[:, :width]
        table._matrix = (ps, zeros, np.zeros(ps.size))
        return table

    def test_contracts_are_refused(self, small_partition):
        with pytest.raises(ValueError, match="every weight row is zero"):
            weight_contract_report(self.zero_table(small_partition))

    def test_construction_draws_no_shift_from_a_zero_row(self, small_partition):
        run = g.run_construction(self.zero_table(small_partition), seed=0)
        assert run.zero_rows == small_partition.weighted_primes.tolist()
        assert set(run.chosen_offsets.values()) == {0}


class TestContractReport:
    def test_report_matches_direct_recomputation(self, small_table):
        report = weight_contract_report(small_table)
        ps, W, sums = small_table.matrix()
        q0 = int(small_table.partition.target_primes[17])

        def gathered(h):
            return sum(
                weight_at(small_table, p, q0 - h * p) / s
                for p, s in zip(ps.tolist(), sums.tolist())
            )

        # the on-tuple sums at q0, against the oracle's weights
        on_vals = [gathered(h) for h in small_table.tuple.offsets]
        q_arr = small_table.partition.target_primes.astype(np.int64)
        rows = np.arange(ps.size)
        offs = small_table.tuple.offsets
        on_sums = gathered_sums(W, sums, rows, ps, q_arr, offs, small_table.n_min).T
        on_q0 = on_sums[q_arr.tolist().index(q0)]
        assert on_q0 == pytest.approx(on_vals, rel=1e-9)
        # two off-tuple shifts the report scores, gathered at q0 alone
        assert {4, 23} <= set(report.off_offsets)
        off_q0 = gathered_sums(
            W, sums, np.arange(ps.size), ps, np.array([q0]), [4, 23],
            small_table.n_min,
        )
        assert off_q0[:, 0] == pytest.approx([gathered(4), gathered(23)], rel=1e-9)
        assert report.on_mean == pytest.approx(on_sums.mean(), rel=1e-12)
        assert report.empirical_coverage == pytest.approx(
            4 * report.on_mean, rel=1e-12
        )
        # every shift is scored at every q: the mean of the means is the mean
        off = gathered_sums(
            W, sums, rows, ps, q_arr, report.off_offsets, small_table.n_min
        )
        off_mean = np.mean([t.mean() for t in off])
        assert report.off_mean == pytest.approx(off_mean, rel=1e-9)
        assert report.off_on_pair_ratio == pytest.approx(
            report.off_mean / report.on_mean, rel=1e-9
        )
        assert report.off_on_aggregate_ratio == pytest.approx(
            report.off_on_pair_ratio / 4, rel=1e-9
        )

    def test_scalar_summaries(self, small_table):
        report = weight_contract_report(small_table)
        _, W, sums = small_table.matrix()
        assert report.row_sum_ratio == pytest.approx(sums.max() / sums.min())
        assert report.zero_rows == 0
        targets = small_table.partition.target_primes.tolist()
        assert report.n_q == len(targets) and targets == sorted(targets)
        point = max(W[i].max() / sums[i] for i in range(sums.size))
        assert report.max_point_mass == pytest.approx(point, rel=1e-12)
        assert not set(report.off_offsets) & set(small_table.tuple.offsets)
        assert report.off_offsets == sorted(report.off_offsets)
        summary = report.summary()
        assert "kind" not in summary and summary["r"] == 4
        assert summary["n_q"] == len(targets)


class TestExactRowSums:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(A=_matrices(), rows_per_chunk=st.sampled_from([1, 2, 3, None]))
    def test_equals_fsum_bit_for_bit(self, A, rows_per_chunk):
        # rows_per_chunk None puts the whole matrix in one chunk
        chunk = 8 * A.shape[1] * (rows_per_chunk or A.shape[0])
        with mock.patch.object(weights_mod, "_SUM_BYTES", chunk):
            got = exact_row_sums(A)
        want = fsum_rows(A)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "A",
        [
            np.zeros((3, 5)),
            np.full((2, 4), 5e-324),  # the smallest subnormal
            np.array([[1e-300, 1e300, 1e-300, 3.0]]),
            np.array([[0.1]]),
            np.array([[0.1], [1e300], [0.0]]),
            np.array([[-0.0, 0.0, 2.0, -0.0]]),
            np.zeros((2, 0)),
            np.zeros((0, 3)),
        ],
    )
    def test_edge_shapes_and_values(self, A):
        got = exact_row_sums(A)
        assert got.shape == (A.shape[0],)
        assert np.array_equal(got.view(np.int64), fsum_rows(A).view(np.int64))

    def test_table_rows_span_several_chunks(self, small_table):
        _, W, sums = small_table.matrix()
        width = W.shape[1]
        with mock.patch.object(weights_mod, "_SUM_BYTES", 8 * width * 3):
            got = exact_row_sums(W)
        assert np.array_equal(got.view(np.int64), fsum_rows(W).view(np.int64))
        assert np.array_equal(got, sums)

    def test_column_views_and_one_row_views(self):
        rng = derive_rng(0, "exact-row-sums-views")
        A = rng.random((6, 50)) ** 8
        for view in (A[:, ::3], A[::2], A[2:3], A.T):
            got = exact_row_sums(view)
            assert np.array_equal(got.view(np.int64), fsum_rows(view).view(np.int64))

    @pytest.mark.parametrize(
        "bad, fault",
        [
            (-1e-300, "negative"),
            (-5.0, "negative"),
            (math.nan, "NaN or infinite"),
            (math.inf, "NaN or infinite"),
            (-math.inf, "NaN or infinite"),
        ],
    )
    def test_rejects_entries_outside_the_domain(self, bad, fault):
        A = np.ones((4, 6))
        A[3, 5] = bad
        with mock.patch.object(weights_mod, "_SUM_BYTES", 8 * 6):
            with pytest.raises(ValueError, match=fault):
                exact_row_sums(A)  # the bad entry sits in the last chunk

    def test_rejects_rows_of_2_to_the_26_entries(self):
        # a zero-strided view: no memory behind the long row
        long_row = np.broadcast_to(np.float64(1.0), (1, 1 << 26))
        with pytest.raises(ValueError, match="2\\*\\*26"):
            exact_row_sums(long_row)
        short = np.broadcast_to(np.float64(1.0), (1, (1 << 26) - 1))
        assert weights_mod._MAX_ROW_TERMS == short.shape[1] + 1
        with pytest.raises(ValueError, match="2-D float64"):
            exact_row_sums(np.ones(3))
        with pytest.raises(ValueError, match="2-D float64"):
            exact_row_sums(np.ones((2, 2), dtype=np.float32))


class TestThreadMap:
    def test_results_come_back_in_item_order(self, monkeypatch):
        here = threading.get_ident()
        for cpus, shared in ((1, False), (3, True)):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            idents = {}

            def work(state, item):
                idents[item] = threading.get_ident()
                return state * item

            assert _fork.thread_map(work, range(7), 10) == [10 * i for i in range(7)]
            assert threading.active_count() == 1  # every thread is joined
            # the first item runs here; with one CPU every item does
            assert idents[0] == here
            assert (set(idents.values()) != {here}) == shared
        assert _fork.thread_map(work, [], 10) == []

    def test_error_in_a_worker_thread_is_raised_here(self, monkeypatch):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)
        here = threading.get_ident()

        def work(state, item):
            if item in (2, 4):
                raise ValueError(item, threading.get_ident())
            return item

        with pytest.raises(ValueError) as err:
            _fork.thread_map(work, range(6), None)
        item, ident = err.value.args
        assert item == 2 and ident != here  # the first error in item order


class TestGatheredSums:
    @pytest.fixture(scope="class")
    def normalized(self, small_table):
        # the test-only normalized copy that the oracle gathers from
        ps, W, sums = small_table.matrix()
        M = W / sums[:, None]
        q = small_table.partition.target_primes.astype(np.int64)
        return M, ps, q

    @pytest.mark.parametrize(
        "h, on_grid",
        [(0, "all"), (5, "all"), (13, "all"), (30, "some"), (-5, "some"),
         (100, "none"), (-100, "none")],
    )
    def test_padded_gather_equals_masked_oracle(
        self, small_table, normalized, h, on_grid
    ):
        M, p, q = normalized
        _, W, sums = small_table.matrix()
        idx = q[:, None] - h * p[None, :] - small_table.n_min
        inside = (idx >= 0) & (idx < M.shape[1])
        assert {"all": inside.all(), "none": not inside.any(),
                "some": inside.any() and not inside.all()}[on_grid]
        rows = np.arange(p.size)
        got = gathered_sums(W, sums, rows, p, q, [h], small_table.n_min)
        want = masked_gather(M, p, q, h, small_table.n_min)
        assert got.shape == (1, q.size)
        got = got[0]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if on_grid == "none":
            assert not got.any()

    def test_masked_subset_gather_equals_oracle(self, small_table, normalized):
        # a subset of rows, each masked, over its unmasked sum: the terms
        # of the construction's conditional laws; one call takes every
        # offset through the same buffers
        _, p, q = normalized
        ps, W, sums = small_table.matrix()
        n, width = W.shape
        rng = derive_rng(0, "gather-mask")
        mask_buf = np.zeros((n, width + 1), dtype=bool)
        mask_buf[:, :width] = rng.random((n, width)) < 0.3
        mask = mask_buf[:, :width]
        rows = np.array([0, 3, 4, 17, 31])
        Z = W[rows] * mask[rows] / sums[rows, None]
        offsets = [0, 13, 100, 30, -5]
        got = gathered_sums(
            W, sums, rows, ps[rows], q, offsets, small_table.n_min, mask
        )
        assert got.shape == (len(offsets), q.size)
        for h, row in zip(offsets, got):
            want = masked_gather(Z, ps[rows], q, h, small_table.n_min)
            assert np.array_equal(row.view(np.int64), want.view(np.int64))

    def test_zero_rows_gather_zero(self, small_table, normalized):
        _, p, q = normalized
        _, W, _ = small_table.matrix()
        sums = np.zeros(p.size)
        zero_W = np.zeros((p.size, W.shape[1] + 1))[:, :-1]
        rows = np.arange(p.size)
        with np.errstate(all="raise"):
            got = gathered_sums(zero_W, sums, rows, p, q, [0], small_table.n_min)
        assert not got.any()

    def test_gathers_do_not_depend_on_the_cpus(self, small_table, monkeypatch):
        # the contract call (every row, the tuple's offsets) and the masked
        # coverage call (a subset of rows, off-tuple offsets too), over
        # every target, over 2 targets (3 CPUs leave a thread no block)
        # and over 1
        ps, W, sums = small_table.matrix()
        n, width = W.shape
        n_min = small_table.n_min
        mask_buf = np.zeros((n, width + 1), dtype=bool)
        mask_buf[:, :width] = derive_rng(1, "gather-mask").random((n, width)) < 0.5
        rows = np.array([0, 3, 4, 17, 31])
        offsets = list(small_table.tuple.offsets)
        q_all = small_table.partition.target_primes.astype(np.int64)
        mid = q_all.size // 2
        real = _fork.usable_cpus()
        for q in (q_all, q_all[mid : mid + 2], q_all[mid : mid + 1]):
            calls = [
                (W, sums, np.arange(n), ps, q, offsets, n_min),
                (W, sums, rows, ps[rows], q, offsets + [-3, 2], n_min,
                 mask_buf[:, :width]),
            ]
            got = {}
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # threads swap often mid-block
            try:
                for cpus in (1, real, 3):
                    monkeypatch.setattr(_fork, "usable_cpus", lambda c=cpus: c)
                    got[cpus] = [gathered_sums(*call) for call in calls]
            finally:
                sys.setswitchinterval(interval)
            for sums_by_call in got.values():
                for a, b in zip(sums_by_call, got[1]):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert all(s.any() for s in got[1])

    def test_refuses_rows_without_zero_slots(self, small_table, normalized):
        _, p, q = normalized
        _, W, sums = small_table.matrix()
        rows = np.arange(p.size)
        with pytest.raises(ValueError, match="one zero slot"):
            gathered_sums(np.ascontiguousarray(W), sums, rows, p, q, [0], 0)
        ones = np.ones((p.size, W.shape[1] + 1))
        with pytest.raises(ValueError, match="one zero slot"):
            gathered_sums(ones[:, :-1], sums, rows, p, q, [0], 0)
        for bad in ([0, p.size], [-1, 0]):
            with pytest.raises(IndexError):
                gathered_sums(W, sums, np.array(bad), p[:2], q, [0], 0)

    def test_contract_report_uses_the_padded_gather(self, small_table, normalized):
        M, p, q = normalized
        report = weight_contract_report(small_table)
        ps, W, sums = small_table.matrix()
        rows = np.arange(ps.size)

        def gathered(offsets):
            return gathered_sums(W, sums, rows, ps, q, offsets, small_table.n_min)

        want = np.stack(
            [masked_gather(M, p, q, h, small_table.n_min)
             for h in small_table.tuple.offsets],
            axis=1,
        )
        assert np.array_equal(gathered(small_table.tuple.offsets).T, want)
        assert report.on_mean == float(want.mean())
        off = np.stack(
            [masked_gather(M, p, q, h, small_table.n_min) for h in report.off_offsets]
        )
        assert np.array_equal(gathered(report.off_offsets), off)
        assert report.off_mean == float(off.ravel().mean())
        assert report.off_max_mean == max(float(t.mean()) for t in off)
        assert report.max_point_mass == float(M.max())

    def test_reports_make_no_matrix_sized_copy(self, small_table):
        # numpy reports its buffers to tracemalloc; the shared mapping
        # under the matrix is built before tracing starts
        _, W, _ = small_table.matrix()
        run = g.run_construction(small_table, seed=0, eta=0.1)
        assert run.stable_primes
        target = small_table.partition.coverage_target
        for report in (
            lambda: weight_contract_report(small_table),
            lambda: g.target_coverage_report(run, target),
        ):
            tracemalloc.start()
            try:
                report()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < W.nbytes / 2
