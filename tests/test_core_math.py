"""Number-theory kernel, checked against trial division and direct loops."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gapchain as g
from gapchain import nt
from gapchain.nt import (
    DETERMINISTIC_MR_LIMIT,
    bpsw,
    derived_mr_bases,
    mr_composite_witness,
    strong_lucas,
)
from gapchain.maier import FrameWindow, assemble_frame
from gapchain.sieving import ResidueSystem
from oracles import factorize

# OEIS A001262 and A217255 below 10**5
BASE2_STRONG_PSEUDOPRIMES = (
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
    74665, 80581, 85489, 88357, 90751,
)
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    75077, 97439,
)
TRIAL_PRIMES = g.primes_in_range(1, 1000).tolist()  # is_prime's trial divisors


def strong_lucas_uv(n: int) -> bool:
    """The strong Lucas test on the U/V ladder with Q**k carried along.

    The ladder nt.strong_lucas replaced, kept as its oracle.
    """
    if n < 3 or n % 2 == 0:
        return n == 2
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = nt._jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def trial_division_loop(n: int):
    """is_prime's trial-division stage as the loop it replaced, kept as its
    oracle: (verdict, witness), or None when no prime below 1000 divides n."""
    for p in TRIAL_PRIMES:
        if n == p:
            return "prime", None
        if n % p == 0:
            return "composite", p
    return None


def next_prime(n: int) -> int:
    """The least (probable) prime >= n, by is_prime with 48 rounds."""
    n |= 1
    while not g.is_prime(n, 48):
        n += 2
    return n


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def sieve_mask(limit: int) -> np.ndarray:
    """m[n] true iff n is prime, for 0 <= n <= limit, from primes_in_range."""
    mask = np.zeros(limit + 1, dtype=bool)
    mask[g.primes_in_range(1, limit)] = True
    return mask


class TestPrimeSieves:
    def test_mask_matches_trial_division(self):
        mask = sieve_mask(500)
        for n in range(501):
            assert bool(mask[n]) == brute_is_prime(n)

    def test_degenerate_limits(self):
        for limit in (-3, 0, 1):
            assert g.primes_in_range(1, limit).size == 0
        assert g.primes_in_range(1, 2).tolist() == [2]

    def test_prime_count_anchors(self):
        assert g.primes_in_range(1, 100).size == 25
        assert g.primes_in_range(1, 10_000).size == 1229

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
        for (lo, hi), window, need in (
            ((0, 2**30 + 2), r"\(0, 1\.07374e\+09\]", r"1\.07374e\+09"),
            ((10**300 - 10, 10**300), r"\(1, 1e\+150\]", r"1e\+150"),
            ((0, 10**400), r"\(0, ~2\*\*1329\]", r"~2\*\*1329"),
        ):
            message = f"{window} would need {need} bytes, over the 1 GiB cap"
            with pytest.raises(g.nt.MatrixTooLarge, match=message):
                g.primes_in_range(lo, hi)


class TestByteCap:
    def test_each_site_is_refused_by_name_before_it_allocates(
        self, small_partition, monkeypatch
    ):
        # one patched cap: each site below would allocate 100 KB or more,
        # and is refused with less than 16 KiB traced
        t = g.first_primes_tuple(4)
        table = g.build_weights(small_partition, t, theta=0.5)
        instance = g.synth_instance(2**16, 2**12, 2)
        rng = g.derive_rng(0, "capped")
        system = g.ResidueSystem({3: 0})
        monkeypatch.setattr(nt, "MAX_BYTES", 1 << 12)
        for named, refused in (
            ("prime sieve window (0, 100000]", lambda: g.primes_in_range(0, 10**5)),
            (
                "class sieve window (0, 100000]",
                lambda: g.sift_interval(0, 10**5, system),
            ),
            (
                "divisor level x**theta = 400**2",  # a sieve of 160,000 bytes
                lambda: g.build_weights(small_partition, t, theta=2.0),
            ),
            ("dense weight matrix and its build buffers", table.matrix),
            (
                "nibble over n_elements = 65536 and n_covers = 4096",
                lambda: g.nibble_cover(instance, 2, rng),
            ),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(nt.MatrixTooLarge) as refusal:
                    refused()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(refusal.value).startswith(f"{named} would need")
            assert peak < 1 << 14, named


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
        assert (res.verdict, res.method, res.witness) == (
            "probable_prime", "miller_rabin", None
        )
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


    def test_trial_division_gcd_matches_loop(self):
        rng = random.Random(17)
        values = list(range(-3, 5000))
        values += [rng.getrandbits(bits) for bits in (40, 100, 254) for _ in range(400)]
        for n in values:
            res, want = g.is_prime(n), trial_division_loop(n)
            if n < 2:
                assert res.method == "convention"
            elif want is not None:
                assert (res.verdict, res.method, res.witness) == (
                    want[0], "trial_division", want[1]
                )
            else:
                assert res.method == ("trial_division" if n < 10**6 else "miller_rabin")

    def test_lazy_bases_match_eager_scan(self):
        # is_prime derives bases one at a time; its verdict and witness
        # must equal a scan of the full derived_mr_bases list
        rng = random.Random(11)
        trial = math.prod(g.primes_in_range(1, 1000).tolist())
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
                verdict = "probable_prime" if witness is None else "composite"
                assert res == g.PrimalityResult(verdict, "miller_rabin", witness)


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

    def test_strong_lucas_matches_uv_ladder(self):
        rng = random.Random(41)
        values = [
            rng.getrandbits(bits) | 1 << bits - 1 | 1
            for bits, count in ((64, 300), (254, 300), (600, 60))
            for _ in range(count)
        ]
        for bits in (32, 127, 254):
            for _ in range(4):
                p = next_prime(rng.getrandbits(bits))
                q = next_prime(p + 2)
                values += [p, q, p * q, p * p]
        verdicts = [(strong_lucas(n), strong_lucas_uv(n)) for n in values]
        assert all(a == b for a, b in verdicts)
        assert sum(a for a, _ in verdicts) >= 24  # the primes pass

    def test_selfridge_q_is_a_unit(self):
        # the Q = 1 ladder inverts Q mod n; before the ladder, the scan for
        # D has already returned on every n that shares a prime with Q
        for n in range(3, 10**5, 2):
            if math.isqrt(n) ** 2 == n:
                continue
            D = 5
            while (j := nt._jacobi(D, n)) != -1:
                if j == 0 and abs(D) != n:
                    break
                D = -D - 2 if D > 0 else -D + 2
            else:
                assert math.gcd((1 - D) // 4, n) == 1, n

    def test_agrees_with_sieve_below_a_million(self):
        mask = sieve_mask(10**6)
        assert [n for n in range(-3, 10**6) if bpsw(n) != mask[max(n, 0)]] == []

    def test_agrees_with_full_rounds_on_large_values(self):
        rng = random.Random(29)
        values = [rng.randrange(2**299, 2**500) | 1 for _ in range(150)]
        for _ in range(6):
            p = next_prime(rng.randrange(2**150, 2**250))
            values += [p, p * next_prime(p + 2)]
        verdicts = [(bpsw(n), bool(g.is_prime(n, 48))) for n in values]
        assert all(a == b for a, b in verdicts)
        assert sum(a for a, _ in verdicts) >= 6


class TestCrt:
    def test_known_combination(self):
        system = ResidueSystem({2: 1, 3: 2, 5: 3, 7: 4})
        frame = assemble_frame(system, FrameWindow(x=7.0, y=20.0))
        assert (frame.offset, frame.modulus) == (157, 210)

    def test_random_systems_solve_every_congruence(self):
        rng = random.Random(4)
        for _ in range(100):
            x = rng.randrange(3, 60)
            primes = g.primes_in_range(1, x).tolist()
            b0 = rng.choice([1, *primes])
            entries = {p: rng.randrange(p) for p in primes if p != b0}
            window = FrameWindow(x=float(x), y=float(2 * x), excluded_prime=b0)
            frame = assemble_frame(ResidueSystem(entries, excluded=b0), window)
            assert frame.modulus == math.prod(entries)
            assert 0 <= frame.offset < frame.modulus
            for p, a in entries.items():
                assert (frame.offset + a) % p == 0


class TestDensitiesAndLogs:
    def test_mertens_density_exact(self):
        assert g.mertens_density([2, 3, 5]) == Fraction(4, 15)
        assert g.mertens_density([]) == Fraction(1)
        with pytest.raises(ValueError):
            g.mertens_density([1])


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
        with pytest.raises(ValueError, match="^only 2 prime gaps below X=5; need a run of 5$"):
            g.chain_gap_record(5, 5)  # two gaps cannot hold a run of five
        with pytest.raises(ValueError, match="^only 1 prime gap below X=3; need a run of 2$"):
            g.chain_gap_record(3, 2)

    def test_runs_across_segment_boundaries(self):
        # three segments of 2**20 integers and a partial fourth
        X = 3 * 2**20 + 17
        gaps = np.diff(g.primes_in_range(1, X))
        for k in (1, 2, 3, 4):
            windows = np.lib.stride_tricks.sliding_window_view(gaps, k)
            assert g.chain_gap_record(X, k) == int(windows.min(axis=1).max())

    def test_memory_stays_near_one_segment(self):
        # the gaps below X were once concatenated: 69 MB traced at 5e7
        tracemalloc.start()
        try:
            g.chain_gap_record(50_000_000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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
