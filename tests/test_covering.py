"""Synthetic covering instances and the m-round nibble leftover law."""

import math
import tracemalloc

import numpy as np
import pytest

import gapchain as g
from gapchain import covering
from gapchain.covering import (
    CoveringInstance,
    CoverResult,
    nibble_cover,
    subset_leftover,
    synth_instance,
)
from gapchain.seeds import derive_rng


def make_instance(**overrides):
    base = dict(n_elements=1_000, n_covers=100, coverage=2 * math.log(5))
    base.update(overrides)
    return CoveringInstance(**base)


def split_edges(values, sizes):
    """The concatenated edges of a block draw, one array each."""
    return np.split(values, np.cumsum(sizes)[:-1])


def nibble_estimate(instance, m, monkeypatch):
    """The byte count that nibble_cover checks against the cap."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(covering, "check_bytes", lambda what, n: seen.append(n))
        nibble_cover(instance, m, derive_rng(0, "estimate"))
    return seen[0]


class TestInstanceValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_elements=9),
            dict(n_covers=0),
            dict(n_covers=-1),
            dict(n_covers=100, coverage=150.0),  # inclusion prob > 1
            dict(n_elements=10, n_covers=1, coverage=1.0 + 1e-12),  # just over 1
            dict(coverage=-0.0),
            dict(coverage=0.0),
            dict(coverage=float("-inf")),
            dict(n_elements=-1_000),
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(ValueError):
            make_instance(**overrides)

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (
                dict(n_covers=100, coverage=150.0),
                "inclusion probability 1.5 exceeds 1",
            ),
            (dict(coverage=float("nan")), "coverage nan"),
            (dict(coverage=float("inf")), "coverage inf"),
            (dict(coverage=-1.0), "coverage -1.0"),
            # a 931 GiB alive array and a 7.28 TiB permutation used to end
            # in MemoryError tracebacks; the nibble's estimate refuses both
            (
                dict(n_elements=10**12),
                "n_elements = 1000000000000 and n_covers = 100 would need",
            ),
            (dict(n_covers=10**12), "n_covers = 1000000000000 would need"),
        ],
    )
    def test_rejection_names_the_value(self, overrides, named):
        # coverage nan used to give a nan inclusion probability
        with pytest.raises(ValueError, match=named):
            nibble_cover(make_instance(**overrides), 2, derive_rng(0, "refused"))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_nibble_is_refused_one_byte_under_its_estimate(self, m, monkeypatch):
        # the instance allocates nothing; the nibble counts its arrays
        # before it draws the permutation
        inst = synth_instance(2_000, 200, m)
        estimate = nibble_estimate(inst, m, monkeypatch)
        monkeypatch.setattr(g.nt, "MAX_BYTES", estimate - 1)
        rng = derive_rng(0, "at-the-cap")
        state = rng.bit_generator.state
        named = "nibble over n_elements = 2000 and n_covers = 200 would need"
        with pytest.raises(MemoryError, match=named):
            nibble_cover(inst, m, rng)
        assert rng.bit_generator.state == state
        monkeypatch.setattr(g.nt, "MAX_BYTES", estimate)
        nibble_cover(inst, m, rng)  # runs at exactly its estimate

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_traced_peak_is_within_the_estimate(self, m, monkeypatch):
        n = 2**16
        inst = synth_instance(n, n // 10, m)
        estimate = nibble_estimate(inst, m, monkeypatch)
        rng = derive_rng(m, "traced")
        tracemalloc.start()
        try:
            nibble_cover(inst, m, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate

    def test_synth_guards(self):
        with pytest.raises(ValueError, match="cannot fill"):
            synth_instance(100, 1, m=2)
        with pytest.raises(ValueError, match="at least 1"):
            synth_instance(100, 5, m=0)

    def test_synthesized_scaling(self):
        inst = synth_instance(20_000, 2_000, m=3)
        assert inst.coverage == pytest.approx(3 * math.log(5))
        assert inst.inclusion_prob == pytest.approx(inst.coverage / 2_000)


class TestEdgeDrawing:
    def test_edges_are_sorted_distinct(self):
        inst = make_instance()
        rng = derive_rng(0, "edges")
        for p in range(20):
            edge = inst.draw_edge(p, rng)
            assert np.all(np.diff(edge) > 0)
            assert edge.size == 0 or (0 <= edge.min() and edge.max() < 1_000)

    @pytest.mark.parametrize(
        "coverage", [30.0, 39.0], ids=["poisson", "near-whole-set"]
    )
    def test_block_edges_are_sorted_distinct(self, coverage):
        # 20 elements and edges of about 15 force many redraws of repeats;
        # at coverage 39 most edges are the whole ground set
        inst = CoveringInstance(n_elements=20, n_covers=40, coverage=coverage)
        values, sizes = inst.draw_edges(np.arange(40), derive_rng(0, "block-edges"))
        assert sizes.sum() == values.size
        for edge in split_edges(values, sizes):
            assert np.all(np.diff(edge) > 0)
            assert edge.size == 0 or (0 <= edge.min() and edge.max() < 20)

    def test_block_draw_is_uniform_over_elements(self):
        inst = CoveringInstance(n_elements=20, n_covers=4, coverage=3.0)
        assert inst.inclusion_prob == 0.75
        values, sizes = inst.draw_edges(
            np.zeros(4_000, dtype=np.int64), derive_rng(0, "uniform")
        )
        # 0.75**20 of the edges are the whole ground set, drawn without
        # a subset draw; the rest are uniform subsets of their size
        assert (sizes == 20).any() and (sizes < 20).any()
        # so each element lies in an edge with probability 3/4
        freq = np.bincount(values, minlength=20) / 4_000
        se = math.sqrt(0.75 * 0.25 / 4_000)
        assert np.abs(freq - 0.75).max() < 5 * se

    def test_poisson_sizes_are_binomial(self):
        inst = make_instance()
        n, p = inst.n_elements, inst.inclusion_prob
        ids = np.tile(np.arange(inst.n_covers), 40)
        _, sizes = inst.draw_edges(ids, derive_rng(0, "sizes"))
        mean, var = n * p, n * p * (1 - p)
        assert abs(sizes.mean() - mean) < 5 * math.sqrt(var / sizes.size)
        assert abs(sizes.var(ddof=1) / var - 1) < 5 * math.sqrt(2 / sizes.size)

    def test_saturated_inclusion_takes_everything(self):
        # coverage equal to n_covers: every element enters every edge
        inst = CoveringInstance(n_elements=10, n_covers=3, coverage=3.0)
        assert inst.draw_edge(0, derive_rng(0, "full")).tolist() == list(range(10))
        rng = derive_rng(0, "full-block")
        sizes_only = derive_rng(0, "full-block")
        sizes_only.binomial(10, 1.0, size=3)
        values, sizes = inst.draw_edges(np.zeros(3, dtype=np.int64), rng)
        assert values.tolist() == list(range(10)) * 3
        assert sizes.tolist() == [10, 10, 10]
        # the sizes are the only draw: no element is drawn
        assert rng.bit_generator.state == sizes_only.bit_generator.state
        result = nibble_cover(inst, m=1, rng=derive_rng(0, "full-cover"))
        assert result.leftover.size == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(coverage=30.0),  # edges of about 300 of 1000
            dict(n_elements=10, n_covers=1, coverage=1.0),  # the whole set
            dict(n_elements=10, n_covers=10, coverage=9.5),  # often the whole set
            dict(coverage=0.01),  # mostly empty
        ],
    )
    def test_draw_edge_is_the_one_edge_block_draw(self, overrides):
        inst = make_instance(**overrides)
        for seed in range(3):
            one = derive_rng(seed, "one-edge")
            block = derive_rng(seed, "one-edge")
            edge = inst.draw_edge(5, one)
            values, sizes = inst.draw_edges(np.array([5]), block)
            assert np.array_equal(edge, values)
            assert sizes.tolist() == [edge.size]
            assert one.bit_generator.state == block.bit_generator.state


class TestNibbleCover:
    def test_bitwise_reproducible(self):
        inst = make_instance()
        a = nibble_cover(inst, m=3, rng=derive_rng(5, "nibble"))
        b = nibble_cover(inst, m=3, rng=derive_rng(5, "nibble"))
        c = nibble_cover(inst, m=3, rng=derive_rng(6, "nibble"))
        assert np.array_equal(a.leftover, b.leftover)
        assert not np.array_equal(a.leftover, c.leftover)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_leftover_is_what_no_drawn_edge_contains(self, m, monkeypatch):
        # chunks of a few edges, so each round spans several chunks: the
        # edges redrawn on the same stream, block by block and chunk by
        # chunk, must cover exactly the complement of the leftover
        monkeypatch.setattr(covering, "_CHUNK_BYTES", 8 * 32 * 4)
        inst = make_instance(coverage=m * math.log(5))
        result = nibble_cover(inst, m=m, rng=derive_rng(7, "rounds"))
        rng = derive_rng(7, "rounds")
        blocks = np.array_split(rng.permutation(inst.n_covers), m)
        edge_bytes = 8 * inst.n_elements * inst.inclusion_prob
        chunk = int(covering._CHUNK_BYTES // edge_bytes)
        covered = np.zeros(inst.n_elements, dtype=bool)
        chunks = 0
        for block in blocks:
            for lo in range(0, block.size, chunk):
                values, _ = inst.draw_edges(block[lo : lo + chunk], rng)
                covered[values] = True
                chunks += 1
        assert chunks > m
        assert result.leftover_fraction == result.leftover.size / inst.n_elements
        assert np.array_equal(np.flatnonzero(~covered), result.leftover)

    def test_schedule_guards(self):
        inst = make_instance(n_covers=3, coverage=1.5)
        with pytest.raises(ValueError):
            nibble_cover(inst, m=0, rng=derive_rng(0, "bad"))
        with pytest.raises(ValueError):
            nibble_cover(inst, m=4, rng=derive_rng(0, "bad"))

    def test_leftover_law_single_seed_smoke(self):
        # per-round coverage log 5 should leave about 5**-2 of the ground set
        inst = synth_instance(50_000, 2_000, m=2)
        result = nibble_cover(inst, m=2, rng=derive_rng(0, "law-smoke"))
        assert result.leftover_fraction == pytest.approx(5**-2, rel=0.25)

    def test_m1_leaves_more_than_m3(self):
        inst1 = synth_instance(20_000, 600, m=1)
        inst3 = synth_instance(20_000, 600, m=3)
        f1 = nibble_cover(inst1, m=1, rng=derive_rng(0, "mono")).leftover_fraction
        f3 = nibble_cover(inst3, m=3, rng=derive_rng(0, "mono")).leftover_fraction
        assert f3 < f1


class TestSubsetLeftover:
    def test_matches_set_arithmetic(self):
        inst = make_instance()
        result = nibble_cover(inst, m=2, rng=derive_rng(4, "subset"))
        left = set(result.leftover.tolist())
        rng = derive_rng(0, "subset-pick")
        subset = rng.choice(1_000, size=200, replace=False).tolist()
        subset += result.leftover[:3].tolist()  # guarantee some hits
        assert subset_leftover(result, subset) == len(set(subset) & left)
        assert subset_leftover(result, []) == 0

    @pytest.mark.parametrize(
        "as_input", [list, set, np.array, lambda xs: (x for x in xs)],
        ids=["list", "set", "ndarray", "generator"],
    )
    def test_every_iterable_counts_distinct_members(self, as_input):
        inst = make_instance()
        result = nibble_cover(inst, m=2, rng=derive_rng(4, "subset"))
        left = set(result.leftover.tolist())
        rng = derive_rng(1, "subset-dupes")
        # with repeats, and with the ends of the ground set
        picks = rng.integers(0, inst.n_elements, size=400).tolist()
        picks += result.leftover[:5].tolist() * 3 + [0, inst.n_elements - 1]
        assert len(picks) > len(set(picks))
        want = len(set(picks) & left)
        assert want > 0
        assert subset_leftover(result, as_input(picks)) == want
        assert subset_leftover(result, as_input([])) == 0
        for bad in ([5, -1, 5], [inst.n_elements, 0]):
            with pytest.raises(ValueError):
                subset_leftover(result, as_input(bad))

    def test_empty_leftover(self):
        empty = np.empty(0, dtype=np.int64)
        result = CoverResult(n_elements=10, m=1, leftover=empty)
        assert subset_leftover(result, [0, 9, 9]) == 0

    def test_range_guard(self):
        result = CoverResult(n_elements=100, m=1, leftover=np.arange(3))
        with pytest.raises(ValueError):
            subset_leftover(result, [-1])
        with pytest.raises(ValueError):
            subset_leftover(result, [100])
