"""Independent oracles that the tests check production outputs against.

Each one recomputes a quantity the package computes another way, written
for clarity over speed, and nothing in the package calls them:

  weight_at                one weight w(p, n) from the factored translates,
                           against the rows of WeightTable.matrix()
  sifted_membership        one integer against the small classes, against
                           the bitmap of sieving.sift_interval
  correlation_probability  the exact survival probability of a point set,
                           against a Monte Carlo estimate

and `factorize`, the trial division that weight_at factors with.
"""

import math
from fractions import Fraction
from typing import Iterable, Sequence


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 as {prime: exponent}, by trial division."""
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


def _maynard_point(table, p: int, n: int) -> float:
    r = table.tuple.r
    level = table.level
    log_level = math.log(level)
    b0 = table.partition.excluded_prime
    translates = [n + h * p for h in table.tuple.offsets]
    if any(v == 0 for v in translates):
        # zero is divisible by everything: every support prime counts
        zeros = sum(1 for v in translates if v == 0)
        counts = {}
        for s in table.support_primes:
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


def weight_at(table, p: int, n: int) -> float:
    """w(p, n) of a WeightTable, evaluated independently of its matrix."""
    p, n = int(p), int(n)
    if n < table.n_min or n > table.n_max:
        return 0.0
    return _maynard_point(table, p, n)


def sifted_membership(n: int, small_classes) -> bool:
    """True iff n avoids every class of the ResidueSystem small_classes."""
    n = int(n)
    return all(n % s != a for s, a in small_classes.entries.items())


def correlation_probability(
    points: Sequence[int], small_primes: Iterable[int]
) -> Fraction:
    """Exact probability that all the given points survive a uniform draw.

    Independence across moduli makes this a finite product: for each
    small prime s, the points occupy some number of distinct classes and
    survival means the uniform class avoids them all.
    """
    pts = [int(n) for n in points]
    if not pts:
        raise ValueError("need at least one point")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    out = Fraction(1)
    for s in small_primes:
        s = int(s)
        hit = len({n % s for n in pts})
        out *= Fraction(s - hit, s)
    return out
