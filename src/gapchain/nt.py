"""Number-theoretic primitives: sieves, primality, CRT, iterated logs.

Everything downstream (interval sieving, weight systems, covering
experiments, certificate verification) is built on the functions here, so
they favour exactness and explicitness over raw speed.  Densities are
Fractions, primality verdicts carry their evidence, and the probabilistic
primality path derives its bases deterministically from the number under
test so that certificates can be re-checked bit for bit.  is_prime derives
each base only when the previous one failed to witness compositeness.

`bpsw` (a strong base-2 Miller-Rabin round plus a strong Lucas test) is
the cheap probable-prime test for search; it carries no evidence, so any
value that goes into a certificate is re-tested with `is_prime`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "strike_classes",
    "sieve_primes",
    "primes_in_range",
    "iter_prime_segments",
    "prime_count",
    "primes_after",
    "factorize",
    "PrimalityResult",
    "is_prime",
    "mr_composite_witness",
    "derived_mr_bases",
    "bpsw",
    "strong_lucas",
    "DETERMINISTIC_MR_LIMIT",
    "DETERMINISTIC_MR_BASES",
    "NonCoprimeModuliError",
    "crt_combine",
    "mertens_density",
    "LogDomainError",
    "log_iterates",
    "smooth_count",
    "chain_gap_record",
]


# ---------------------------------------------------------------------------
# sieves

# a prime sieve takes one byte per integer of its window: larger windows
# are refused, as weights refuses a matrix over the same 1 GiB
_SIEVE_MAX_BYTES = 1 << 30


def strike_classes(
    alive: np.ndarray, start: int, classes: Iterable[tuple[int, int]]
) -> None:
    """Clear alive[j] wherever start + j = a (mod p), for each (p, a)."""
    for p, a in classes:
        alive[(a - start) % p :: p] = False


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2)."""
    return primes_in_range(1, limit)


def iter_prime_segments(
    limit: int, segment_size: int = 1 << 20
) -> Iterator[np.ndarray]:
    """Yield consecutive nonempty arrays of primes <= limit, in order.

    Each chunk is primes_in_range over the next segment_size integers, so
    memory stays O(sqrt(limit) + segment).  segment_size must be positive.
    """
    limit, segment_size = int(limit), int(segment_size)
    if segment_size <= 0:
        raise ValueError(f"segment_size = {segment_size} must be positive")
    lo = 0
    while lo < limit:
        hi = min(lo + segment_size, limit)
        seg = primes_in_range(lo, hi)
        if seg.size:
            yield seg
        lo = hi


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes p with lo < p <= hi, as an int64 array.

    Strikes class 0 of every prime up to sqrt(hi), then restores those
    base primes that lie in the window themselves.  A window of more than
    2**30 integers is refused with ValueError.
    """
    lo, hi = int(lo), int(hi)
    if hi <= max(lo, 1):
        return np.empty(0, dtype=np.int64)
    start = max(lo + 1, 2)
    if hi - start >= _SIEVE_MAX_BYTES:  # before the base primes' own sieve
        a, b = (  # a bound past the float range is named by its bit length
            f"{v:.6g}" if v.bit_length() < 1000 else f"~2**{v.bit_length()}"
            for v in (lo, hi)
        )
        raise ValueError(f"prime sieve window ({a}, {b}] is over the 1 GiB cap")
    base = sieve_primes(math.isqrt(hi))
    alive = np.ones(hi - start + 1, dtype=bool)
    strike_classes(alive, start, ((p, 0) for p in base.tolist()))
    alive[base[base >= start] - start] = True
    return (np.nonzero(alive)[0] + start).astype(np.int64)


def prime_count(limit: int) -> int:
    """pi(limit): number of primes <= limit."""
    return sum(int(seg.size) for seg in iter_prime_segments(limit))


def primes_after(bound: int, count: int) -> tuple[int, ...]:
    """The first `count` primes strictly greater than `bound`."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    out: list[int] = []
    lo = max(int(bound), 1)
    span = max(64, 8 * count)
    while len(out) < count:
        hi = lo + span
        out.extend(int(p) for p in primes_in_range(lo, hi))
        lo = hi
        span *= 2
    return tuple(out[:count])


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 as {prime: exponent}, by trial division.

    Adequate for the modest sizes this package factors outside of
    certificates.
    """
    n = int(n)
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out[d] = e
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


# ---------------------------------------------------------------------------
# primality

# Below this bound the 12-base Miller-Rabin test is a proof, not a heuristic.
DETERMINISTIC_MR_LIMIT = 3_317_044_064_679_887_385_961_981
DETERMINISTIC_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_PRIMES = tuple(int(p) for p in sieve_primes(1000))


def mr_composite_witness(n: int, a: int) -> bool:
    """True iff base a witnesses that odd n >= 3 is composite.

    A True return is a deterministically checkable certificate of
    compositeness; False means n is a strong probable prime to base a.
    """
    n = int(n)
    a = int(a) % n
    if a in (0, 1, n - 1):
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _derived_mr_base(n: int, i: int) -> int:
    h = hashlib.sha256(f"{n}:{i}".encode()).digest()
    return 2 + int.from_bytes(h, "big") % (n - 3)


def derived_mr_bases(n: int, rounds: int) -> list[int]:
    """Deterministic pseudo-random Miller-Rabin bases for n.

    Base i is SHA-256(f"{n}:{i}") reduced into [2, n-2].  Deriving bases
    from n itself keeps certificates reproducible without shipping them.
    """
    return [_derived_mr_base(n, i) for i in range(rounds)]


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def strong_lucas(n: int) -> bool:
    """True iff odd n >= 3 is a strong Lucas probable prime.

    Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with
    Jacobi symbol (D/n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 =
    d * 2**s, n passes iff U_d = 0 or V_{d 2**r} = 0 (mod n) for some
    0 <= r < s.  Every prime passes; perfect squares have no such D and
    fail.
    """
    n = int(n)
    if n < 3 or n % 2 == 0:
        return n == 2
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False  # gcd(D, n) is a proper factor
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # left-to-right binary ladder over d from (U_1, V_1, Q^1), with P = 1:
    # U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k;
    # U_k+1 = (U_k + V_k)/2, V_k+1 = (D U_k + V_k)/2 (halved mod odd n)
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


def bpsw(n: int) -> bool:
    """Baillie-PSW probable-prime test: strong base-2 Miller-Rabin plus
    the strong Lucas test with Selfridge's parameters.

    No composite is known to pass (none below 2**64 does), and a prime
    costs about as much as four Miller-Rabin rounds.  The row search uses it
    to find candidates; values that go into a certificate are re-tested
    by is_prime with the full derived rounds.
    """
    n = int(n)
    if n < 3 or n % 2 == 0:
        return n == 2
    return not mr_composite_witness(n, 2) and strong_lucas(n)


@dataclass(frozen=True)
class PrimalityResult:
    """Primality verdict plus the evidence that produced it.

    verdict is one of "prime", "probable_prime", "composite".  For
    composites, `witness` is a prime factor when method is
    "trial_division", and a Miller-Rabin witness base when method is
    "miller_rabin".  error_bound is the standard 4**-rounds bound for
    probable primes and 0 for proven verdicts.
    """

    n: int
    verdict: str
    method: str
    witness: int | None = None
    rounds: int = 0
    error_bound: float = 0.0
    bases: tuple[int, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.verdict != "composite"


def is_prime(n: int, rounds: int = 64) -> PrimalityResult:
    """Test n for primality, returning the verdict with its evidence.

    Proven (verdict "prime"/"composite") below DETERMINISTIC_MR_LIMIT;
    above it, "probable_prime" with `rounds` derived bases.  n < 2 is
    composite by convention with no witness.
    """
    n = int(n)
    if n < 2:
        return PrimalityResult(n, "composite", "convention")
    for p in _TRIAL_PRIMES:
        if n == p:
            return PrimalityResult(n, "prime", "trial_division")
        if n % p == 0:
            return PrimalityResult(n, "composite", "trial_division", witness=p)
    if n < 1000 * 1000:
        # trial primes cover sqrt(n), so surviving them proves primality
        return PrimalityResult(n, "prime", "trial_division")
    if n < DETERMINISTIC_MR_LIMIT:
        for a in DETERMINISTIC_MR_BASES:
            if mr_composite_witness(n, a):
                return PrimalityResult(
                    n, "composite", "miller_rabin", witness=a,
                    bases=DETERMINISTIC_MR_BASES,
                )
        return PrimalityResult(
            n, "prime", "miller_rabin", bases=DETERMINISTIC_MR_BASES
        )
    if rounds < 1:
        raise ValueError("rounds must be positive for probabilistic testing")
    # bases are derived one at a time: most composites fall to the first
    bases: list[int] = []
    for i in range(rounds):
        a = _derived_mr_base(n, i)
        if mr_composite_witness(n, a):
            return PrimalityResult(
                n, "composite", "miller_rabin", witness=a, rounds=rounds
            )
        bases.append(a)
    return PrimalityResult(
        n,
        "probable_prime",
        "miller_rabin",
        rounds=rounds,
        error_bound=4.0 ** (-rounds),
        bases=tuple(bases),
    )


# ---------------------------------------------------------------------------
# CRT


class NonCoprimeModuliError(ValueError):
    """Raised when CRT moduli share a factor (combination is ill-posed)."""

    def __init__(self, m1: int, m2: int):
        self.moduli = (m1, m2)
        g = math.gcd(m1, m2)
        super().__init__(
            f"moduli {m1} and {m2} share the factor gcd={g}; "
            "residue systems must use pairwise coprime moduli"
        )


def crt_combine(congruences: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Solve n = r (mod m) simultaneously for pairwise coprime moduli.

    Returns (offset, modulus) with 0 <= offset < modulus = product of the
    moduli.  Incremental combination keeps intermediate values small and
    lets the coprimality check name the exact offending pair.
    """
    offset = 0
    modulus = 1
    seen: list[int] = []
    for r, m in congruences:
        m = int(m)
        if m < 1:
            raise ValueError(f"modulus {m} must be positive")
        if math.gcd(m, modulus) > 1:
            for m_prev in seen:
                if math.gcd(m, m_prev) > 1:
                    raise NonCoprimeModuliError(m_prev, m)
        r = int(r) % m
        if m > 1:
            inv = pow(modulus % m, -1, m)
            offset = offset + modulus * ((r - offset) % m * inv % m)
        modulus *= m
        seen.append(m)
    return offset % modulus, modulus


# ---------------------------------------------------------------------------
# densities and logs


def mertens_density(primes: Iterable[int]) -> Fraction:
    """Exact product of (1 - 1/p) over the given primes, as a Fraction."""
    out = Fraction(1)
    for p in primes:
        p = int(p)
        if p < 2:
            raise ValueError(f"{p} is not a valid prime for a density product")
        out *= Fraction(p - 1, p)
    return out


class LogDomainError(ValueError):
    """An iterated logarithm left the positive domain."""

    def __init__(self, k: int, value: float):
        self.k = k
        self.value = value
        super().__init__(
            f"iterate log_{k} = {value!r} is not positive; "
            "increase x or lower the iteration depth"
        )


def log_iterates(x: float, depth: int) -> tuple[float, ...]:
    """(log x, log log x, ...) to the given depth, all strictly positive.

    Downstream parameter formulas divide by these iterates, so any
    nonpositive value is rejected here with the iterate named rather than
    surfacing later as a cryptic ZeroDivisionError.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    x = float(x)
    if x <= 0:
        raise ValueError(f"x = {x!r} must be positive")
    vals: list[float] = []
    cur = x
    for k in range(1, depth + 1):
        cur = math.log(cur)
        if cur <= 0:
            raise LogDomainError(k, cur)
        vals.append(cur)
    return tuple(vals)


# ---------------------------------------------------------------------------
# smooth numbers


def smooth_count(y: float, z: float) -> int:
    """Count integers 1 <= n <= y whose prime factors are all <= z.

    Exhaustive depth-first enumeration over nondecreasing prime factor
    sequences; each smooth number is generated exactly once.  1 is smooth.
    """
    limit = math.floor(y)
    if limit < 1:
        return 0
    ps = [int(p) for p in sieve_primes(min(limit, math.floor(z)))]
    count = 0
    stack: list[tuple[int, int]] = [(1, 0)]
    while stack:
        val, idx = stack.pop()
        count += 1
        for j in range(idx, len(ps)):
            nv = val * ps[j]
            if nv > limit:
                break
            stack.append((nv, j))
    return count


# ---------------------------------------------------------------------------
# gap chains


def chain_gap_record(X: int, k: int = 1) -> int:
    """Largest L such that k consecutive prime gaps below X all reach L.

    Scans every run p_n < p_{n+1} < ... < p_{n+k} <= X and returns the
    maximum over runs of the smallest gap in the run.  k = 1 is the
    classical maximal prime gap below X.
    """
    X = int(X)
    if k < 1:
        raise ValueError("k must be at least 1")
    chunks: list[np.ndarray] = []
    prev: int | None = None
    for seg in iter_prime_segments(X):
        if prev is not None:
            chunks.append(np.array([int(seg[0]) - prev], dtype=np.int64))
        if seg.size > 1:
            chunks.append(np.diff(seg))
        prev = int(seg[-1])
    if not chunks:
        raise ValueError(f"no prime gaps exist below X={X}")
    gaps = np.concatenate(chunks)
    if gaps.size < k:
        raise ValueError(
            f"only {gaps.size} prime gaps below X={X}; need a run of {k}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(gaps, k)
    return int(windows.min(axis=1).max())
