"""Parameter derivation and the three-way prime split it induces."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gapchain as g
from gapchain.nt import is_prime
from gapchain.partition import MIN_X


class TestDeriveParameters:
    def test_desk_defaults(self):
        params = g.derive_parameters(1_400)
        assert (params.x, params.y, params.z) == (1_400.0, 21_000.0, 80.0)
        assert (params.small_low, params.small_high) == (32.0, 80.0)
        assert params.u == math.log(21_000.0) / math.log(80.0)

    def test_min_x_floor(self):
        g.derive_parameters(MIN_X)
        with pytest.raises(ValueError, match="below the minimum 100"):
            g.derive_parameters(99.0, y=200.0)

    def test_overrides_replace_defaults(self):
        p = g.derive_parameters(1_400, y=30_000.0, z=60.0, small_low=40.0)
        assert (p.y, p.z, p.small_low) == (30_000.0, 60.0, 40.0)
        assert p.u == math.log(30_000.0) / math.log(60.0)
        # small_high follows z unless it is set
        assert p.small_high == 60.0
        assert g.derive_parameters(1_400, z=60.0, small_high=70.0).small_high == 70.0

    def test_y_alone_keeps_the_desk_small_window(self):
        # the formula fallback took small_low = (log 400)**20 here, and the
        # partition had no small primes (sigma = 1), with only a warning
        params = g.derive_parameters(400, y=6_000.0)
        assert params.z == 80.0
        assert (params.small_low, params.small_high) == (32.0, 80.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            part = g.build_partition(params)
        assert part.small_primes.tolist() == [
            37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79
        ]
        assert part.sigma < 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(y=1e7),  # y must exceed x, not equal it
            dict(y=2e7, small_low=50.0, small_high=40.0),
            dict(y=90.0),
            dict(y=2e7, z=1.0),
            dict(y=2e7, z=0.5),
            # every small window is checked, a defaulted end too
            dict(z=30.0),  # small_high = z falls below small_low = 32
            dict(small_high=20.0),
            dict(small_low=80.0),  # (80, 80] is empty
        ],
    )
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ValueError):
            g.derive_parameters(1e7, **kwargs)


class TestBuildPartition:
    def toy_params(self, **overrides):
        base = dict(y=6_000.0, z=80.0, small_low=32.0)
        base.update(overrides)
        return g.derive_parameters(400, **base)

    def test_window_membership_exact(self):
        params = g.derive_parameters(1_400, y=21_000.0, z=80.0, small_low=32.0)
        part = g.build_partition(params)

        def window(lo, hi):
            return [
                n
                for n in range(math.floor(lo) + 1, math.floor(hi) + 1)
                if is_prime(n)
            ]

        assert part.small_primes.tolist() == window(32, 80)
        assert part.weighted_primes.tolist() == window(700, 1_400)
        assert part.target_primes.tolist() == window(1_400, 21_000)
        assert part.counts == (
            part.small_primes.size,
            part.weighted_primes.size,
            part.target_primes.size,
        )
        assert isinstance(part.sigma, Fraction)
        assert part.sigma == g.mertens_density(part.small_primes.tolist())
        assert part.coverage_target == pytest.approx(
            (params.u / float(part.sigma)) * (part.x / (2 * part.y))
        )

    def test_excluded_prime_removed_and_density_adjusted(self):
        params = self.toy_params()
        base = g.build_partition(params)
        part = g.build_partition(params, excluded_prime=37)
        assert part.excluded_prime == 37
        assert 37 in base.small_primes
        assert 37 not in part.small_primes
        assert part.sigma * Fraction(36, 37) == base.sigma
        with pytest.raises(ValueError, match="1 or a prime"):
            g.build_partition(params, excluded_prime=6)
        # 409 is a target prime above x = 400: excluding it would drop it
        # from the targets without a word, so it is refused like a frame's
        with pytest.raises(ValueError, match="exceeds x"):
            g.build_partition(params, excluded_prime=409)
        g.build_partition(params, excluded_prime=397)  # the largest prime <= x

    def test_overridden_empty_small_window_raises(self):
        with pytest.raises(ValueError, match="small window"):
            g.derive_parameters(400, y=6_000.0, small_low=50.0, small_high=40.0)
        # one overridden end is enough: the default low end 32 exceeds 30
        with pytest.raises(ValueError, match="small window"):
            g.derive_parameters(400, y=6_000.0, small_high=30.0)

    def test_inverted_hand_built_window_is_refused(self):
        params = g.Params(
            x=400.0, y=6_000.0, z=80.0, u=math.log(6_000.0) / math.log(80.0),
            small_low=50.0, small_high=40.0,
        )
        with pytest.raises(ValueError, match=r"small window \(50.0, 40.0\] is empty"):
            g.build_partition(params)

    def test_small_window_may_not_reach_the_weighted_window(self):
        # (32, 300] is a valid window, so derive_parameters accepts it
        params = g.derive_parameters(
            400, y=6_000.0, small_low=32.0, small_high=300.0
        )
        with pytest.raises(ValueError, match="exceeds x/2"):
            g.build_partition(params)  # 300 > x/2 = 200

    def test_overridden_primeless_window_warns_but_builds(self):
        params = g.derive_parameters(400, y=6_000.0, small_low=24.0, small_high=28.0)
        with pytest.warns(UserWarning):
            part = g.build_partition(params)
        assert part.small_primes.size == 0

    def test_no_target_primes_raises(self):
        params = g.derive_parameters(114, y=126.0, z=5.0, small_low=1.0)
        with pytest.raises(ValueError):
            g.build_partition(params)

    def test_partition_invariants_enforced(self):
        params = self.toy_params()
        part = g.build_partition(params)
        fields = dict(
            x=part.x,
            y=part.y,
            small_low=part.small_low,
            small_high=part.small_high,
            excluded_prime=1,
            small_primes=part.small_primes,
            weighted_primes=part.weighted_primes,
            target_primes=part.target_primes,
            sigma=part.sigma,
            coverage_target=part.coverage_target,
            params=params,
        )
        with pytest.raises(AssertionError):
            g.PrimePartition(**{**fields, "small_primes": np.array([7])})
        with pytest.raises(AssertionError):
            g.PrimePartition(**{**fields, "excluded_prime": 409})

    def test_pinned_fixture_geometry(self, toy_partition):
        # the desk-scale run shared across the suite
        part = toy_partition
        assert (part.x, part.y) == (1_400.0, 21_000.0)
        assert part.small_primes.min() > 32 and part.small_primes.max() <= 80
        assert part.counts[1] > 0 and part.counts[2] > 0
