"""Number-theoretic primitives: sieves, primality, Mertens products.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

__all__ = [
    "strike_classes",
    "primes_in_range",
    "MAX_BYTES",
    "MatrixTooLarge",
    "check_bytes",
    "check_sieve_window",
    "PrimalityResult",
    "is_prime",
    "mr_composite_witness",
    "derived_mr_bases",
    "bpsw",
    "strong_lucas",
    "DETERMINISTIC_MR_LIMIT",
    "DETERMINISTIC_MR_BASES",
    "mertens_density",
    "chain_gap_record",
]


# ---------------------------------------------------------------------------
# sieves

# the one byte budget: check_bytes counts each array a run sizes from its
# input (sieve windows, weight matrix, nibble) before allocating it
MAX_BYTES = 1 << 30


class MatrixTooLarge(MemoryError, ValueError):
    """A run refused before it allocates arrays over MAX_BYTES: lower its size."""


def _count(v: int) -> str:
    """v in 6 significant digits, or by its bit length past the float range."""
    return f"{v:.6g}" if v.bit_length() < 1000 else f"~2**{v.bit_length()}"


def check_bytes(what: str, n_bytes: int) -> None:
    """Refuse `what`, naming its n_bytes, past MAX_BYTES; call before allocating."""
    if n_bytes > MAX_BYTES:
        raise MatrixTooLarge(
            f"{what} would need {_count(n_bytes)} bytes, over the "
            f"{MAX_BYTES / 2**30:g} GiB cap"
        )


def strike_classes(
    alive: np.ndarray, start: int, classes: Iterable[tuple[int, int]]
) -> None:
    """Clear alive[j] wherever start + j = a (mod p), for each (p, a)."""
    for p, a in classes:
        alive[(a - start) % p :: p] = False


def check_sieve_window(kind: str, lo: int, hi: int, size: int) -> None:
    """check_bytes of a sieve of `size` one-byte integers over (lo, hi]."""
    check_bytes(f"{kind} window ({_count(lo)}, {_count(hi)}]", size)


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes p with lo < p <= hi, as an int64 array.

    Strikes class 0 of every prime up to sqrt(hi), then restores those
    base primes that lie in the window themselves.  A window of more than
    MAX_BYTES integers is refused with MatrixTooLarge.
    """
    lo, hi = int(lo), int(hi)
    if hi <= max(lo, 1):
        return np.empty(0, dtype=np.int64)
    start = max(lo + 1, 2)
    # before the base primes' own sieve
    check_sieve_window("prime sieve", lo, hi, hi - start + 1)
    base = primes_in_range(1, math.isqrt(hi))
    alive = np.ones(hi - start + 1, dtype=bool)
    strike_classes(alive, start, ((p, 0) for p in base.tolist()))
    alive[base[base >= start] - start] = True
    return (np.nonzero(alive)[0] + start).astype(np.int64)


# ---------------------------------------------------------------------------
# primality

# Below this bound the 12-base Miller-Rabin test is a proof, not a heuristic.
DETERMINISTIC_MR_LIMIT = 3_317_044_064_679_887_385_961_981
DETERMINISTIC_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_PRIMES = tuple(int(p) for p in primes_in_range(1, 1000))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


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

    The ladder runs on the Q = 1 sequence W_j = V_j(P', 1), P' = 1/Q - 2,
    which needs the unit condition gcd(Q, n) = 1.  The scan for D ensures
    it: a prime p dividing Q is odd and below |D|, so a composite n that
    p divides met D' = +-p (9 for p = 3) with (D'/n) = 0 and failed, and
    a prime n cannot divide Q, as D = 1 (mod n) makes (D/n) = 1.  With
    V_2j = Q**j W_j and d = 2k + 1, no power of Q is needed:
      U_d = 0  iff  W_k = W_{k+1}          (Q**(k+1) (W_{k+1} - W_k) = D U_d)
      V_d = 0  iff  W_k + W_{k+1} = 0      (Q**(k+1) (W_k + W_{k+1}) = V_d)
      V_{d 2**r} = 0  iff  W_{d 2**(r-1)} = 0, for r >= 1,
    with W_d = W_k W_{k+1} - P' and W_2j = W_j**2 - 2.  A Montgomery
    ladder over the bits of k gives (W_k, W_{k+1}) at two products a bit.
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
    Pw = (pow(Q, -1, n) - 2) % n
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    W, W1 = 2, Pw  # (W_m, W_{m+1}) from m = 0 up to k = d >> 1
    for bit in bin(d >> 1)[2:]:
        if bit == "1":
            W, W1 = (W * W1 - Pw) % n, (W1 * W1 - 2) % n
        else:
            W, W1 = (W * W - 2) % n, (W * W1 - Pw) % n
    if W == W1 or (W + W1) % n == 0:
        return True
    W = (W * W1 - Pw) % n  # W_d
    for _ in range(s - 1):
        if W == 0:
            return True
        W = (W * W - 2) % n
    return False


def bpsw(n: int) -> bool:
    """Baillie-PSW probable-prime test: strong base-2 Miller-Rabin plus
    the strong Lucas test with Selfridge's parameters.

    No composite is known to pass (none below 2**64 does), and a prime
    costs about as much as 3.5 Miller-Rabin rounds.  The row search uses it
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
    "miller_rabin".  A probable prime passed every derived round asked of
    it, a bound of 4**-rounds on its error.
    """

    verdict: str
    method: str
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.verdict != "composite"


def is_prime(n: int, rounds: int = 64) -> PrimalityResult:
    """Test n for primality, returning the verdict with its evidence.

    Proven (verdict "prime"/"composite") below DETERMINISTIC_MR_LIMIT;
    above it, "probable_prime" after `rounds` derived bases.  n < 2 is
    composite by convention with no witness.
    """
    n = int(n)
    res = settled(n)
    if res is not None:
        return res
    if rounds < 1:
        raise ValueError("rounds must be positive for probabilistic testing")
    return derived_verdict(derived_rounds(n, 0, rounds))


def settled(n: int) -> PrimalityResult | None:
    """is_prime's verdict on int n where it needs no derived rounds:
    n < 2, a trial factor, n < 10**6, or n below DETERMINISTIC_MR_LIMIT;
    None for the rest."""
    if n < 2:
        return PrimalityResult("composite", "convention")
    g = math.gcd(n, _TRIAL_PRODUCT)
    if g > 1:
        # the smallest trial prime dividing n: n itself when n is one
        p = next(p for p in _TRIAL_PRIMES if g % p == 0)
        if n == p:
            return PrimalityResult("prime", "trial_division")
        return PrimalityResult("composite", "trial_division", p)
    if n < 1000 * 1000:
        # trial primes cover sqrt(n), so surviving them proves primality
        return PrimalityResult("prime", "trial_division")
    if n < DETERMINISTIC_MR_LIMIT:
        for a in DETERMINISTIC_MR_BASES:
            if mr_composite_witness(n, a):
                return PrimalityResult("composite", "miller_rabin", a)
        return PrimalityResult("prime", "miller_rabin")
    return None


def derived_rounds(n: int, a: int, b: int) -> int | None:
    """The first of rounds a, ..., b - 1 of n's derived bases that
    witnesses n composite, or None.

    Bases are derived one at a time: most composites fall to the first.
    """
    for i in range(a, b):
        base = _derived_mr_base(n, i)
        if mr_composite_witness(n, base):
            return base
    return None


def derived_verdict(witness: int | None) -> PrimalityResult:
    """is_prime(n, rounds) once the derived rounds 0, ..., rounds - 1 of n
    gave their first witness, or None."""
    if witness is None:
        return PrimalityResult("probable_prime", "miller_rabin")
    return PrimalityResult("composite", "miller_rabin", witness)


# ---------------------------------------------------------------------------
# densities


def mertens_density(primes: Iterable[int]) -> Fraction:
    """Exact product of (1 - 1/p) over the given primes, as a Fraction."""
    out = Fraction(1)
    for p in primes:
        p = int(p)
        if p < 2:
            raise ValueError(f"{p} is not a valid prime for a density product")
        out *= Fraction(p - 1, p)
    return out


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
    # one window of 2**20 integers at a time, so memory stays
    # O(sqrt(X) + window): each is scanned with the last prime and the last
    # k - 1 gaps of the windows before it
    best = 0
    n_gaps = 0
    tail = np.empty(0, dtype=np.int64)
    prev: int | None = None
    for lo in range(0, X, 1 << 20):
        seg = primes_in_range(lo, min(lo + (1 << 20), X))
        if not seg.size:
            continue
        gaps = np.diff(seg) if prev is None else np.diff(seg, prepend=prev)
        prev = int(seg[-1])
        n_gaps += gaps.size
        gaps = np.concatenate((tail, gaps))
        if gaps.size >= k:
            windows = np.lib.stride_tricks.sliding_window_view(gaps, k)
            best = max(best, int(windows.min(axis=1).max()))
        tail = gaps[max(gaps.size - k + 1, 0) :]
    if n_gaps == 0:
        raise ValueError(f"no prime gaps exist below X={X}")
    if n_gaps < k:
        raise ValueError(
            f"only {n_gaps} prime gap{'s' if n_gaps > 1 else ''} below X={X}; "
            f"need a run of {k}"
        )
    return best
