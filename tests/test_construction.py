"""Randomized residue-class runs: masses, stability, coverage accounting."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import gapchain as g
from gapchain import (
    run_construction,
    sample_classes,
    select_stable_primes,
    target_coverage_report,
)
from gapchain.construction import survival_mask
from gapchain.seeds import derive_rng, derive_seed
from gapchain.sieving import ResidueSystem, sift_interval

from oracles import correlation_probability, sifted_membership, weight_at


class TestSmallClassSampling:
    def test_ranges_and_determinism(self, small_partition):
        primes = small_partition.small_primes.tolist()
        a = sample_classes(primes, derive_rng(3, "classes"))
        b = sample_classes(primes, derive_rng(3, "classes"))
        c = sample_classes(primes, derive_rng(4, "classes"))
        assert a.entries == b.entries
        assert a.entries != c.entries
        assert sorted(a.entries) == primes
        assert all(0 <= v < s for s, v in a.entries.items())

    def test_draws_in_ascending_order_and_skips_the_excluded_prime(self):
        # a random chain frame's classes: one draw per prime up to x but b0
        got = sample_classes([13, 2, 7, 3, 11, 5], derive_rng(3, "classes"), excluded=7)
        rng = derive_rng(3, "classes")
        want = {p: int(rng.integers(0, p)) for p in (2, 3, 5, 11, 13)}
        assert got.entries == want and got.excluded == 7


class TestCorrelationProbability:
    def test_hand_cases(self):
        assert correlation_probability([0], [3]) == Fraction(2, 3)
        assert correlation_probability([0, 1], [3]) == Fraction(1, 3)
        assert correlation_probability([0, 3], [3]) == Fraction(2, 3)
        assert correlation_probability([0, 1, 2], [3]) == 0
        assert correlation_probability([0, 1], [3, 5]) == Fraction(1, 3) * Fraction(3, 5)

    def test_against_joint_enumeration(self):
        # walk the entire joint class space; the product formula must match
        rng = random.Random(derive_seed(0, "corr-enum"))
        for _ in range(50):
            primes = rng.sample([3, 5, 7, 11], rng.randint(1, 3))
            points = rng.sample(range(-20, 60), rng.randint(1, 5))
            total = 0
            space = 0
            for classes in itertools.product(*(range(s) for s in primes)):
                space += 1
                ok = all(
                    n % s != a
                    for s, a in zip(primes, classes)
                    for n in points
                )
                total += ok
            assert correlation_probability(points, primes) == Fraction(
                total, space
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            correlation_probability([], [3])
        with pytest.raises(ValueError):
            correlation_probability([4, 4], [3])


class TestSurvival:
    def test_mask_matches_scalar_membership(self, small_table):
        classes = ResidueSystem(
            {int(s): (i * 5) % int(s) for i, s in enumerate(
                small_table.partition.small_primes
            )}
        )
        p = 307
        width = small_table.matrix()[1].shape[1]
        mask = survival_mask(small_table, p, classes)
        assert mask.shape == (width,)
        rng = random.Random(derive_seed(0, "mask-check"))
        for j in rng.sample(range(width), 300):
            n = small_table.n_min + j
            want = all(
                sifted_membership(n + h * p, classes)
                for h in small_table.tuple.offsets
            )
            assert bool(mask[j]) == want

    def test_mass_matches_direct_quotient(self, small_table, pinned_run):
        # each run's survival mass is the fsum of its row over the shifts
        # whose translates are all sifted, over the row sum, bit for bit
        small_run = run_construction(small_table, seed=9, eta=0.1)
        for run, primes in (
            (small_run, (211, 307, 397)),
            (pinned_run, pinned_run.partition.weighted_primes[:3].tolist()),
        ):
            table = run.table
            ps, W, sums = table.matrix()
            for p in primes:
                i = ps.tolist().index(p)
                # translate h's mask: the sifted bitmap over the shift grid
                # moved by h p
                sifted = np.ones(table.n_max - table.n_min + 1, dtype=bool)
                for h in table.tuple.offsets:
                    lo, hi = table.n_min + h * p - 1, table.n_max + h * p
                    sifted &= sift_interval(lo, hi, run.small_classes).bitmap
                want = math.fsum(W[i][sifted].tolist()) / sums[i]
                assert run.survival_mass[p] == want
                assert want == pytest.approx(
                    float(W[i][sifted].sum() / sums[i]), rel=1e-12
                )

    def test_stable_selection(self):
        mass = {2: 1.0, 3: 1.05, 5: 1.2, 7: 0.95, 11: 0.7}
        assert select_stable_primes(mass, 1.0, 0.1) == [2, 3, 7]
        assert select_stable_primes(mass, 1.0, 0.5) == [2, 3, 5, 7, 11]
        with pytest.raises(ValueError):
            select_stable_primes(mass, 0.0, 0.1)


class TestConstructionRun:
    def test_reproducible_and_seed_sensitive(self, pinned_table, pinned_run):
        again = run_construction(pinned_table, seed=11, eta=0.1)
        assert again.chosen_offsets == pinned_run.chosen_offsets
        assert again.stable_primes == pinned_run.stable_primes
        assert again.small_classes.entries == pinned_run.small_classes.entries
        other = run_construction(pinned_table, seed=12, eta=0.1)
        assert other.small_classes.entries != pinned_run.small_classes.entries

    def test_negative_eta_is_refused_by_name(self, pinned_table):
        # it used to select no stable primes, which hid the cause
        with pytest.raises(ValueError, match="eta = -1 must be nonnegative"):
            run_construction(pinned_table, seed=11, eta=-1.0)

    def test_run_invariants(self, pinned_table, pinned_run):
        run = pinned_run
        part = run.partition
        weighted = part.weighted_primes.tolist()
        assert sorted(run.chosen_offsets) == weighted
        assert run.sigma_r == float(part.sigma**4)
        assert len(run.zero_rows) == 0
        assert run.n_unstable == len(run.survival_mass) - len(run.stable_primes)
        assert run.normalization_max_rel_err <= 1e-12
        stable = set(run.stable_primes)
        assert stable, "pinned run lost every prime; fixture is miscalibrated"
        for p in weighted:
            n = run.chosen_offsets[p]
            if p not in stable:
                assert n == 0
                continue
            assert all(
                sifted_membership(n + h * p, run.small_classes)
                for h in pinned_table.tuple.offsets
            )
            assert weight_at(pinned_table, p, n) > 0.0
        for p, xp in run.survival_mass.items():
            if p in stable:
                assert abs(xp / run.sigma_r - 1) <= run.eta
            else:
                assert abs(xp / run.sigma_r - 1) > run.eta

    def test_masses_match_standalone_function(self, pinned_table, pinned_run):
        # the run's masses agree with the public survival_mask, summed apart
        ps, W, sums = pinned_table.matrix()
        for p in list(pinned_run.survival_mass)[:3]:
            i = ps.tolist().index(p)
            mask = survival_mask(pinned_table, p, pinned_run.small_classes)
            want = math.fsum(W[i][mask].tolist()) / float(sums[i])
            assert pinned_run.survival_mass[p] == want

    def test_summary_consistent(self, pinned_run):
        s = pinned_run.summary()
        xs = list(pinned_run.survival_mass.values())
        assert s["n_stable"] == len(pinned_run.stable_primes)
        assert s["n_weighted"] == len(xs)
        assert s["survival_mass_mean"] == pytest.approx(np.mean(xs))
        assert s["survival_mass_min"] == min(xs)
        assert s["survival_mass_max"] == max(xs)


def scored_targets(run, max_q):
    """The targets target_coverage_report scores, every stride-th sifted
    target with stride chosen so at most max_q are scored, and the number
    of sifted targets."""
    targets = run.partition.target_primes.tolist()
    sifted = [q for q in targets if sifted_membership(q, run.small_classes)]
    stride = max(1, math.ceil(len(sifted) / max_q))
    return sifted[::stride], len(sifted)


class TestTargetCoverage:
    def test_bookkeeping(self, pinned_run):
        ct = pinned_run.partition.coverage_target
        report = target_coverage_report(pinned_run, ct, max_q=128)
        assert report.coverage_target == ct
        assert report.n_stable == len(pinned_run.stable_primes)
        scored, n_sifted = scored_targets(pinned_run, 128)
        assert report.n_q_sampled == len(scored) <= 128
        assert report.n_sifted_targets == n_sifted
        targets = set(pinned_run.partition.target_primes.tolist())
        for q in scored:
            assert q in targets
            assert sifted_membership(q, pinned_run.small_classes)
        assert report.main_min <= report.main_mean <= report.main_max
        assert 0.0 <= report.frac_error_above_tenth_main <= 1.0
        h_window = math.floor(
            pinned_run.partition.y / pinned_run.partition.x
        )
        assert report.error_offsets == [
            h
            for h in range(-h_window, h_window + 1)
            if h not in pinned_run.table.tuple.offsets
        ]
        assert set(report.summary()) >= {
            "coverage_target",
            "main_mean",
            "error_mean",
            "n_q_sampled",
        }

    def test_max_q_below_one_is_refused_by_name(self, pinned_run):
        # 0 used to raise ZeroDivisionError, and a negative value scored
        # every target
        ct = pinned_run.partition.coverage_target
        for max_q in (0, -3):
            with pytest.raises(ValueError, match=f"max_q = {max_q} must be at least 1"):
                target_coverage_report(pinned_run, ct, max_q=max_q)

    def test_single_target_oracle(self, pinned_run):
        # max_q = 1 pins the sample to exactly one sifted target, small
        # enough to recompute its incoming mass by hand
        ct = pinned_run.partition.coverage_target
        report = target_coverage_report(pinned_run, ct, max_q=1)
        assert report.n_q_sampled == 1
        [q], _ = scored_targets(pinned_run, 1)
        table = pinned_run.table
        ps, W, sums = table.matrix()
        stable = set(pinned_run.stable_primes)
        main = 0.0
        for h in table.tuple.offsets:
            for i, p in enumerate(ps.tolist()):
                if p not in stable:
                    continue
                j = q - h * p - table.n_min
                if 0 <= j < W.shape[1] and pinned_run.mask_matrix[i, j]:
                    main += float(W[i, j] / sums[i])
        main /= pinned_run.sigma_r
        assert report.main_mean == pytest.approx(main, rel=1e-9)
        assert report.main_min == report.main_max == report.main_mean
        assert report.mean_abs_rel_dev == pytest.approx(
            abs(main - ct) / ct, rel=1e-9
        )

    def test_full_system_integration(self, pinned_run):
        # the run's draws feed straight into a complete residue system
        part = pinned_run.partition
        system = g.assemble_full_system(
            pinned_run.small_classes, pinned_run.chosen_offsets, part
        )
        sieved = g.sift_interval(
            math.floor(part.x), math.floor(part.y), system
        )
        assert sieved.count > 0
        for q in sieved.members().tolist():
            assert sifted_membership(q, pinned_run.small_classes)
            for p, n in pinned_run.chosen_offsets.items():
                assert q % p != n % p
