"""Number-theory kernel, checked against trial division and direct loops."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import gapchain as g
from gapchain.nt import (
    DETERMINISTIC_MR_LIMIT,
    LogDomainError,
    bpsw,
    derived_mr_bases,
    factorize,
    iter_prime_segments,
    log_iterates,
    mr_composite_witness,
    primes_after,
    smooth_count,
    strong_lucas,
)

# OEIS A001262 and A217255 below 10**5
BASE2_STRONG_PSEUDOPRIMES = (
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
    74665, 80581, 85489, 88357, 90751,
)
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    75077, 97439,
)


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def sieve_mask(limit: int) -> np.ndarray:
    """m[n] true iff n is prime, for 0 <= n <= limit, from sieve_primes."""
    mask = np.zeros(limit + 1, dtype=bool)
    mask[g.sieve_primes(limit)] = True
    return mask


def brute_smooth_count(y: int, z: int) -> int:
    count = 0
    for n in range(1, y + 1):
        m = n
        for p in range(2, z + 1):
            while m % p == 0:
                m //= p
        if m == 1:
            count += 1
    return count


class TestPrimeSieves:
    def test_mask_matches_trial_division(self):
        mask = sieve_mask(500)
        for n in range(501):
            assert bool(mask[n]) == brute_is_prime(n)

    def test_degenerate_limits(self):
        for limit in (-3, 0, 1):
            assert g.sieve_primes(limit).size == 0
        assert g.sieve_primes(2).tolist() == [2]

    def test_segment_iteration_equals_one_shot(self):
        full = g.sieve_primes(100_000).tolist()
        segs = list(iter_prime_segments(100_000, segment_size=1 << 10))
        flat = np.concatenate(segs)
        assert flat.tolist() == full
        assert (np.diff(flat) > 0).all()

    def test_segment_size_must_be_positive(self):
        for size in (0, -1):
            with pytest.raises(ValueError):
                next(iter_prime_segments(10, segment_size=size))

    def test_prime_count_anchors(self):
        assert g.prime_count(100) == 25
        assert g.prime_count(10_000) == 1229

    def test_primes_in_range_half_open(self):
        # the window is (lo, hi]: lo excluded, hi included
        assert g.primes_in_range(2, 7).tolist() == [3, 5, 7]
        assert g.primes_in_range(10, 11).tolist() == [11]
        assert g.primes_in_range(11, 11).size == 0
        assert g.primes_in_range(-5, 2).tolist() == [2]

    def test_primes_in_range_random_windows(self):
        rng = random.Random(1)
        windows = []
        for _ in range(200):
            lo = rng.randrange(0, 4_000)
            windows.append((lo, lo + rng.randrange(0, 900)))
        # windows that straddle base primes (lo < sqrt(hi)): the sieve
        # strikes every multiple of each base prime and must restore the
        # base primes that lie in the window
        for _ in range(50):
            hi = rng.randrange(4, 5_000)
            windows.append((rng.randrange(-2, math.isqrt(hi)), hi))
        for lo, hi in windows:
            got = g.primes_in_range(lo, hi).tolist()
            want = [n for n in range(lo + 1, hi + 1) if brute_is_prime(n)]
            assert got == want

    def test_window_over_the_byte_cap_is_refused(self):
        # one byte per integer, at most 2**30 of them; a huge window, or a
        # short one whose base primes would need a huge sieve, is refused
        # before any allocation
        with pytest.raises(ValueError, match=r"\(0, 1\.07374e\+09\] is over the"):
            g.primes_in_range(0, 2**30 + 2)
        with pytest.raises(ValueError, match=r"\(1, 1e\+150\] is over the 1 GiB"):
            g.primes_in_range(10**300 - 10, 10**300)
        with pytest.raises(ValueError, match=r"\(0, ~2\*\*1329\] is over the"):
            g.primes_in_range(0, 10**400)

    def test_primes_after(self):
        assert primes_after(4, 4) == (5, 7, 11, 13)
        assert primes_after(1, 3) == (2, 3, 5)
        assert primes_after(100, 0) == ()
        with pytest.raises(ValueError):
            primes_after(10, -1)


class TestFactorization:
    def test_factorize_round_trip(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randrange(1, 100_000)
            fac = factorize(n)
            back = 1
            for p, e in fac.items():
                assert brute_is_prime(p) and e >= 1
                back *= p**e
            assert back == n

    def test_factorize_without_table(self):
        assert factorize(1) == {}
        assert factorize(2**5 * 3**2 * 97) == {2: 5, 3: 2, 97: 1}
        assert factorize(10**12 + 39) == {10**12 + 39: 1}
        with pytest.raises(ValueError):
            factorize(0)


class TestPrimality:
    def test_small_values_match_brute_force(self):
        for n in range(-3, 2_000):
            assert bool(g.is_prime(n)) == brute_is_prime(n)

    def test_verdicts_and_witnesses(self):
        res = g.is_prime(91)
        assert res.verdict == "composite"
        assert res.witness == 7 and 91 % res.witness == 0
        assert g.is_prime(1).verdict == "composite"
        assert g.is_prime(2).verdict == "prime"
        # both factors above the trial cut, still below the proven range
        res = g.is_prime(1009 * 1013)
        assert res.verdict == "composite" and res.method == "miller_rabin"
        res = g.is_prime(1_000_003)
        assert res.verdict == "prime" and res.method == "miller_rabin"

    def test_probable_prime_above_deterministic_limit(self):
        m89 = 2**89 - 1  # Mersenne prime, far above the proven range
        res = g.is_prime(m89, rounds=16)
        assert res.verdict == "probable_prime"
        assert res.rounds == 16
        assert res.error_bound == 4.0**-16
        assert len(res.bases) == 16
        comp = g.is_prime(m89 * (2**61 - 1), rounds=16)
        assert comp.verdict == "composite"
        assert mr_composite_witness(m89 * (2**61 - 1), comp.witness)
        with pytest.raises(ValueError):
            g.is_prime(m89, rounds=0)

    def test_no_base_witnesses_a_true_prime(self):
        rng = random.Random(3)
        for p in (101, 10_007, 1_000_003, 2**31 - 1):
            for _ in range(20):
                a = rng.randrange(2, p - 1)
                assert not mr_composite_witness(p, a)

    def test_trivial_bases_never_witness(self):
        n = 3_215_031_751  # strong pseudoprime to bases 2, 3, 5, 7
        assert not mr_composite_witness(n, 1)
        assert not mr_composite_witness(n, n - 1)
        assert not mr_composite_witness(n, n)
        assert g.is_prime(n).verdict == "composite"

    def test_derived_bases_deterministic_in_range(self):
        n = 10**25 + 13
        b1 = derived_mr_bases(n, 12)
        assert b1 == derived_mr_bases(n, 12)
        assert len(b1) == 12
        assert all(2 <= a <= n - 2 for a in b1)
        assert derived_mr_bases(n + 2, 12) != b1


    def test_lazy_bases_match_eager_scan(self):
        # is_prime derives bases one at a time; its verdict, witness, rounds
        # and bases must equal a scan of the full derived_mr_bases list
        rng = random.Random(11)
        trial = math.prod(g.sieve_primes(1000).tolist())
        values = []
        while len(values) < 40:  # past trial division, into the MR path
            n = rng.randrange(DETERMINISTIC_MR_LIMIT, 2**300)
            if math.gcd(n, trial) == 1:
                values.append(n)
        values += [2**89 - 1, (2**89 - 1) * (2**61 - 1), 2**127 - 1]
        for n in values:
            for rounds in (1, 8, 48):
                bases = derived_mr_bases(n, rounds)
                witness = next(
                    (a for a in bases if mr_composite_witness(n, a)), None
                )
                res = g.is_prime(n, rounds)
                if witness is None:
                    want = ("probable_prime", None, rounds, tuple(bases))
                else:
                    want = ("composite", witness, rounds, ())
                assert (res.verdict, res.witness, res.rounds, res.bases) == want


class TestBpsw:
    def test_rejects_base2_strong_pseudoprimes(self):
        mask = sieve_mask(10**5)
        found = [n for n in range(3, 10**5, 2)
                 if not mask[n] and not mr_composite_witness(n, 2)]
        assert found == list(BASE2_STRONG_PSEUDOPRIMES)
        for n in BASE2_STRONG_PSEUDOPRIMES:
            assert not strong_lucas(n) and not bpsw(n)

    def test_rejects_strong_lucas_pseudoprimes_and_squares(self):
        # the strong Lucas test alone passes exactly these composites
        mask = sieve_mask(10**5)
        found = [n for n in range(3, 10**5, 2) if not mask[n] and strong_lucas(n)]
        assert found == list(STRONG_LUCAS_PSEUDOPRIMES)
        for n in STRONG_LUCAS_PSEUDOPRIMES:
            assert mr_composite_witness(n, 2) and not bpsw(n)
        for r in (3, 5, 7, 11, 101, 1009, 2**31 - 1, 2**89 - 1):
            assert not strong_lucas(r * r) and not bpsw(r * r)

    def test_agrees_with_sieve_below_a_million(self):
        mask = sieve_mask(10**6)
        assert [n for n in range(-3, 10**6) if bpsw(n) != mask[max(n, 0)]] == []

    def test_agrees_with_full_rounds_on_large_values(self):
        rng = random.Random(29)

        def next_prime(n):
            n |= 1
            while not g.is_prime(n, 48):
                n += 2
            return n

        values = [rng.randrange(2**299, 2**500) | 1 for _ in range(150)]
        for _ in range(6):
            p = next_prime(rng.randrange(2**150, 2**250))
            values += [p, p * next_prime(p + 2)]
        verdicts = [(bpsw(n), bool(g.is_prime(n, 48))) for n in values]
        assert all(a == b for a, b in verdicts)
        assert sum(a for a, _ in verdicts) >= 6


class TestCrt:
    def test_known_combination(self):
        assert g.crt_combine([(1, 2), (1, 3), (2, 5), (3, 7)]) == (157, 210)

    def test_random_systems_solve_every_congruence(self):
        rng = random.Random(4)
        pool = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        for _ in range(100):
            mods = rng.sample(pool, rng.randrange(1, 6))
            rs = [(rng.randrange(0, m), m) for m in mods]
            offset, modulus = g.crt_combine(rs)
            assert modulus == math.prod(mods)
            assert 0 <= offset < modulus
            for r, m in rs:
                assert offset % m == r

    def test_residues_reduced_first(self):
        offset, modulus = g.crt_combine([(-1, 5), (7, 3)])
        assert modulus == 15
        assert offset % 5 == 4 and offset % 3 == 1

    def test_noncoprime_pair_named(self):
        with pytest.raises(g.NonCoprimeModuliError) as exc:
            g.crt_combine([(0, 6), (1, 4)])
        assert exc.value.moduli == (6, 4)

    def test_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            g.crt_combine([(0, 0)])


class TestDensitiesAndLogs:
    def test_mertens_density_exact(self):
        assert g.mertens_density([2, 3, 5]) == Fraction(4, 15)
        assert g.mertens_density([]) == Fraction(1)
        with pytest.raises(ValueError):
            g.mertens_density([1])

    def test_log_iterates_values(self):
        x = 1e8
        l1, l2, l3 = log_iterates(x, 3)
        assert l1 == pytest.approx(math.log(x), rel=1e-15)
        assert l2 == pytest.approx(math.log(math.log(x)), rel=1e-15)
        assert l3 == pytest.approx(math.log(math.log(math.log(x))), rel=1e-15)

    def test_log_iterates_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x = 3.9e6
        vals = log_iterates(x, 3)
        cur = mpmath.mpf(x)
        for got in vals:
            cur = mpmath.log(cur)
            assert abs(got - float(cur)) < 1e-12

    def test_domain_error_names_the_iterate(self):
        with pytest.raises(LogDomainError) as exc:
            log_iterates(2.0, 3)  # log log 2 < 0
        assert exc.value.k == 2
        with pytest.raises(ValueError):
            log_iterates(-1.0, 1)
        with pytest.raises(ValueError):
            log_iterates(10.0, 0)


class TestSmoothCounts:
    def test_matches_direct_enumeration(self):
        for y, z in ((100, 5), (1_000, 7), (500, 2), (50, 50), (1, 3)):
            assert smooth_count(y, z) == brute_smooth_count(y, z)

    def test_degenerate(self):
        assert smooth_count(0, 10) == 0
        assert smooth_count(10, 1) == 1  # only n = 1 has no prime factor


class TestGapRecords:
    @staticmethod
    def brute_record(X: int, k: int) -> int:
        ps = [p for p in range(2, X + 1) if brute_is_prime(p)]
        gaps = [b - a for a, b in zip(ps, ps[1:])]
        return max(min(gaps[i : i + k]) for i in range(len(gaps) - k + 1))

    def test_matches_brute_force(self):
        for X in (10, 50, 200, 1_000):
            for k in (1, 2, 3):
                assert g.chain_gap_record(X, k) == self.brute_record(X, k)

    def test_known_records(self):
        assert g.chain_gap_record(100) == 8
        assert g.chain_gap_record(100, 2) == 6
        assert g.chain_gap_record(10_000) == 36

    def test_validation(self):
        with pytest.raises(ValueError):
            g.chain_gap_record(100, 0)
        with pytest.raises(ValueError):
            g.chain_gap_record(2)  # a single prime has no gaps
        with pytest.raises(ValueError):
            g.chain_gap_record(5, 5)  # two gaps cannot hold a run of five


class TestSeedDerivation:
    def test_label_sensitivity_and_stability(self):
        a = g.derive_seed(0, "alpha")
        assert a == g.derive_seed(0, "alpha")
        assert a != g.derive_seed(1, "alpha")
        assert a != g.derive_seed(0, "beta")
        # length prefixes keep concatenations apart
        assert g.derive_seed(0, "ab", "c") != g.derive_seed(0, "a", "bc")
        assert 0 <= a < 2**63

    def test_generators_reproduce(self):
        r1 = g.derive_rng(7, "x").integers(0, 1 << 30, size=5)
        r2 = g.derive_rng(7, "x").integers(0, 1 << 30, size=5)
        assert r1.tolist() == r2.tolist()
        s1 = g.derive_random(7, "x").randrange(1 << 100)
        s2 = g.derive_random(7, "x").randrange(1 << 100)
        assert s1 == s2
