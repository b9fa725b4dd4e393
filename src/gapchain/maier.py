"""Matrix translation of a sieved interval and gap-chain certificates.

Once a residue system over all primes up to x is fixed, the Chinese
remainder theorem produces one offset m modulo the primorial-style
modulus P (product of those primes, the excluded modulus left out) such
that translating the interval (x, y] by z*P + m, for any row index z,
sends exactly the sieve survivors to integers coprime to P.  Both halves
of that are proven, not sampled: `assemble_frame` checks that p divides
m + a_p for every class a_p, and each search's `_row_scan` refuses a
sieved set that differs from those classes at any t of the window.
Primes in a translated row can therefore only appear at survivor
offsets, and a row whose survivor translates contain k+1 primes with
every consecutive gap of length at least epsilon*y witnesses a chain of
k consecutive large prime gaps.

The translation holds for every z >= 1.  A search only samples rows,
some 10**4 at most, so both searches draw z uniformly from [1, R] with
R = row_index_bound(P) = min(P, 2**ROW_INDEX_BITS), the range the
verifier accepts: far more indices than any search visits, while a row
value stays below P * 2**65.  At x = 36 (a 38-bit P) z <= P keeps row
values below 2**76, where the Miller-Rabin proof applies.  A sampled
row's survivor translates are presieved by the primes in
(x, PRESIEVE_LIMIT] and the rest tested by BPSW (by the Miller-Rabin
proof below the deterministic limit).  `sample_rows` scans
its rows on every usable CPU and keeps only the count of primes in each;
the gap-chain search stops at its first certifying row, so it scans its
rows one at a time.  A successful row is packaged as a self-contained
certificate: its listed primes are re-tested with the full Miller-Rabin
rounds, and every integer strictly between them carries deterministically
checkable compositeness evidence (a shared factor with the modulus, an
explicit factor, or a Miller-Rabin witness base), so an independent
verifier needs no access to the search.  All the Miller-Rabin work on a
certificate runs in one map on every usable CPU (`_full_round_tests`):
the search's full rounds with the evidence tests of the survivors between
the listed primes, the verifier's with its checks of the witness bases.
The verifier applies its own minimum round count, MIN_MR_ROUNDS.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Sequence

import numpy as np

from . import __version__, _fork, nt
from .nt import (
    DETERMINISTIC_MR_LIMIT,
    PrimalityResult,
    bpsw,
    is_prime,
    mr_composite_witness,
    primes_in_range,
    strike_classes,
)
from .partition import PrimePartition, check_excluded_prime
from .sieving import ResidueSystem, SievedSet, sift_mismatches

__all__ = [
    "CERTIFICATE_VERSION",
    "FrameWindow",
    "MaierFrame",
    "row_index_bound",
    "assemble_frame",
    "RowStatistics",
    "sample_rows",
    "GapChainCertificate",
    "MissReport",
    "find_gap_chain",
    "VerificationOutcome",
    "verify_certificate",
]

CERTIFICATE_VERSION = "2"
DEFAULT_Z_BIT_BUDGET = 20_000
ROW_INDEX_BITS = 64  # searches draw z from [1, min(modulus, 2**this)]
PRESIEVE_LIMIT = 1 << 18  # row values are presieved by the primes in (x, this]
_LIMB_BITS = 30  # a scan folds modulus mod q in 30-bit limbs; products fit 64 bits
# round counts a certificate may ask of the verifier: the minimum is the
# search's count and the verifier's own policy, the cap bounds its work
MIN_MR_ROUNDS = 48
MAX_MR_ROUNDS = 1024
# rounds per item of the full-round map, measured on 2 CPUs at x = 150:
# blocks of 2 to 12 rounds verify a certificate in the same time, 16 in 5%
# more and 48, one item per value, in 50% more
ROUND_BLOCK = 8
ROW_SAMPLE_BYTES = 256  # a sampled row's z (44) and prime offsets (150-444)


@dataclass(frozen=True)
class FrameWindow:
    """Bare translation window for frames built without a full partition:
    every random-class frame of the chain mode (x = 36, 150 and 400, below
    the partition module's floor) is built from one.  A PrimePartition
    serves too, for its greedy and construction frames."""

    x: float
    y: float
    excluded_prime: int = 1

    def __post_init__(self) -> None:
        if not self.x >= 3:  # the verifier's floor
            raise ValueError(f"window start x = {self.x:g} is below 3")
        if not self.x < self.y < math.inf:  # an infinite y fails in math.floor
            raise ValueError(f"window end y = {self.y} must be finite and exceed x")
        # the primes up to x alone carry more than x bits
        if self.x > DEFAULT_Z_BIT_BUDGET:
            raise ValueError(f"x = {self.x:g} puts the modulus over the row budget")
        check_excluded_prime(self.excluded_prime, self.x)


@dataclass(frozen=True)
class MaierFrame:
    """Translation frame: row value at (z, a) is z*modulus + offset + a.

    offset is the CRT solution of offset = -a_p (mod p) over the whole
    residue system, reduced into [0, modulus); with all-zero classes this
    is plain 0.  The searches draw row indices z from
    [1, row_index_bound(modulus)].
    """

    x: int
    y: int
    excluded_prime: int
    modulus: int
    offset: int
    system: ResidueSystem = field(repr=False)

    def row_value(self, z: int, a: int) -> int:
        return z * self.modulus + self.offset + a


def row_index_bound(modulus: int) -> int:
    """The largest row index a search draws and the verifier accepts:
    min(modulus, 2**ROW_INDEX_BITS)."""
    return min(modulus, 1 << ROW_INDEX_BITS)


def _crt_offset(items: list[tuple[int, int]], modulus: int) -> int:
    """The m in [0, modulus) with m = -a_p (mod p) for each (p, a_p), for
    distinct primes p of product modulus: the sum over p of -a_p times
    the cofactor modulus/p times its inverse mod p."""
    return sum(
        modulus // p * (-a * pow(modulus // p, -1, p) % p) for p, a in items
    ) % modulus


def assemble_frame(
    system: ResidueSystem,
    window: FrameWindow | PrimePartition,
    D: int = 1,
) -> MaierFrame:
    """Solve the simultaneous congruences and check the translation exactly.

    The system must assign a class to every prime up to x except the
    excluded modulus, whose product must fit DEFAULT_Z_BIT_BUDGET bits.
    The returned frame satisfies, for every t in (x, y]: t fails the
    sieve  iff  gcd(offset + t, modulus) > 1.  modulus is the product of
    the system's primes, offset their CRT solution (`_crt_offset`), and
    the check is that p divides offset + a_p for every (p, a_p): then p
    divides offset + t iff t = a_p (mod p), for every t and every row z.
    D must be 1: frames have no row exponent.
    """
    if D != 1:
        raise ValueError(f"row exponent D = {D} is refused: frames take no D")
    x, y = math.floor(window.x), math.floor(window.y)
    b0 = window.excluded_prime

    expected = {int(p) for p in primes_in_range(1, x).tolist()} - {b0}
    got = set(system.entries)
    if got != expected:
        missing = sorted(expected - got)[:5]
        extra = sorted(got - expected)[:5]
        raise ValueError(
            f"system does not cover exactly the primes up to {x} minus the "
            f"excluded modulus (missing {missing}, extra {extra})"
        )

    items = sorted(system.entries.items())
    modulus = math.prod(p for p, _ in items)
    if modulus.bit_length() > DEFAULT_Z_BIT_BUDGET:
        raise ValueError(f"modulus needs {modulus.bit_length()} bits, over the "
                         f"budget of {DEFAULT_Z_BIT_BUDGET}; lower x")
    offset = _crt_offset(items, modulus)
    wrong = [p for p, a in items if (offset + a) % p]
    if wrong:
        raise AssertionError(
            f"translation invariant failed: p does not divide offset + a_p "
            f"for p in {wrong[:5]}"
        )
    return MaierFrame(
        x=x, y=y, excluded_prime=b0,
        modulus=modulus, offset=offset, system=system,
    )


@dataclass(frozen=True)
class _RowScan:
    """What `_row_primes` needs of a frame, computed once per search.

    offsets are the survivors of the window.  For each prime q in
    (x, PRESIEVE_LIMIT] it keeps, as uint64 arrays, q and the residues in
    (0, q] of -modulus and of -(modulus + offset + x + 1), the negated
    row-1 translate at mask slot 0.  Row z's first slot that q divides
    then costs two uint64 passes, for z - 1 mod q and for the sum: z - 1,
    as 2**64, the top row index, does not fit a uint64.
    """

    frame: MaierFrame
    offsets: np.ndarray
    qs: np.ndarray
    neg_modulus_mod: np.ndarray
    neg_start_mod: np.ndarray


def _residues(n: int, qs: np.ndarray) -> np.ndarray:
    """n mod q for every q <= PRESIEVE_LIMIT, by Horner's rule over n's limbs."""
    limb_mod, out = (1 << _LIMB_BITS) % qs, np.zeros_like(qs)
    for i in reversed(range(0, n.bit_length(), _LIMB_BITS)):
        out = (out * limb_mod + (n >> i & (1 << _LIMB_BITS) - 1)) % qs
    return out


def _row_scan(frame: MaierFrame, T: SievedSet) -> _RowScan:
    """The scan of the frame's rows, once T is its window's sieved set at
    every t (`sift_mismatches`)."""
    if (T.lo, T.hi) != (frame.x, frame.y):
        raise ValueError(
            f"sieved set covers ({T.lo}, {T.hi}] but the frame translates "
            f"({frame.x}, {frame.y}]"
        )
    for t in sift_mismatches(T, frame.system):
        kind = "a survivor in a class" if t in T else "struck but in no class"
        raise ValueError(f"sieved set does not match the frame at t = {t}: {kind}")
    qs = primes_in_range(frame.x, PRESIEVE_LIMIT).astype(np.uint64)
    slot0 = frame.modulus + frame.offset + frame.x + 1  # row 1, mask slot 0
    return _RowScan(
        frame=frame,
        offsets=T.members().astype(np.int64),
        qs=qs,
        neg_modulus_mod=qs - _residues(frame.modulus, qs),
        neg_start_mod=qs - _residues(slot0, qs),
    )


def _row_primes(scan: _RowScan, z: int) -> list[int]:
    """The survivor offsets a, ascending, whose row-z translate is prime.

    z lies in [1, 2**64].  Presieve: every translate with a prime factor
    q in (x, PRESIEVE_LIMIT] other than itself is struck on a window-wide
    mask, by `strike_classes` for q below the width and by one fancy
    assignment for the rest, which strike one slot at most; a translate
    that is q itself is then restored.  The rest are tested: below
    DETERMINISTIC_MR_LIMIT by the is_prime proof, above it by BPSW, so
    the verdicts above the limit are probable and carry no evidence.
    """
    frame, qs = scan.frame, scan.qs
    width = frame.y - frame.x
    start = frame.row_value(z, frame.x + 1)  # the translate at mask slot 0
    # the first slot whose translate q divides: -start mod q
    first = (np.uint64(z - 1) % qs * scan.neg_modulus_mod + scan.neg_start_mod) % qs
    alive = np.ones(width, dtype=bool)
    n_small = int(qs.searchsorted(np.uint64(width)))
    strike_classes(alive, 0, zip(qs[:n_small].tolist(), first[:n_small].tolist()))
    first = first[n_small:]
    alive[first[first < width]] = False
    if start <= PRESIEVE_LIMIT:
        # a translate equal to q is the prime q itself: restore its slot
        alive[qs[(qs >= start) & (qs < start + width)].astype(np.int64) - start] = True
    base = start - (frame.x + 1)
    out = []
    for a in scan.offsets[alive[scan.offsets - (frame.x + 1)]].tolist():
        value = base + a
        if bpsw(value) if value >= DETERMINISTIC_MR_LIMIT else is_prime(value):
            out.append(a)
    return out


def _scan_rows(scan: _RowScan, zs: list[int]) -> list[list[int]]:
    """`_row_primes(scan, z)` for every z, in the order of zs.

    The rows go in guided chunks (runs of consecutive rows that shrink
    as the rows run out) to `_fork.fork_map`'s processes, this one and
    forked workers, one per usable CPU, which inherit the scan: only the
    z go out and lists of offsets come back.
    """
    return _fork.fork_map(_row_primes, zs, scan)


@dataclass(frozen=True)
class RowStatistics:
    """The count of primes per row over sampled rows of the translation
    frame: its mean, its variance and its largest value."""

    trials: int
    mean_primes: float
    var_primes: float
    best_prime_count: int

    def summary(self) -> dict:
        return asdict(self)


def _check_row_sample(trials: int, name: str = "trials") -> None:
    if trials < 1:
        raise ValueError(f"{name} = {trials} must be at least 1")
    nt.check_bytes(f"a sample of {name} = {trials} rows", trials * ROW_SAMPLE_BYTES)


def sample_rows(
    frame: MaierFrame,
    T: SievedSet,
    trials: int,
    rng: random.Random,
) -> RowStatistics:
    """Count primes among survivor translates for `trials` random rows.

    T must be the frame's own sieved set (`_row_scan`), and a sample over
    nt.MAX_BYTES at ROW_SAMPLE_BYTES a row is refused before any draw.
    Uses the stdlib Random generator because row indices are arbitrary
    precision: all `trials` row indices are drawn first, in the order a
    row-by-row loop would draw them.  The rows are scanned by
    `_row_primes` (presieve, then BPSW above the deterministic limit) in
    one process per usable CPU, this one and forked workers, which take
    them in guided chunks, and only each row's count of primes is kept;
    the counts come back in draw order, so the statistics do not depend
    on the CPU count.  The whole scan stays here wherever
    `_fork.fork_map` cannot fork.
    """
    _check_row_sample(trials)
    scan = _row_scan(frame, T)
    Z = row_index_bound(frame.modulus)
    zs = [rng.randrange(1, Z + 1) for _ in range(trials)]
    counts = [len(row_primes) for row_primes in _scan_rows(scan, zs)]
    mean = sum(counts) / trials
    var = sum(n * n for n in counts) / trials - mean * mean
    return RowStatistics(trials, mean, max(var, 0.0), max(counts))


@dataclass(frozen=True)
class GapChainCertificate:
    """Self-contained, independently checkable record of one found row.

    All big integers are decimal strings so the JSON form is lossless and
    byte-stable.  The evidence list covers every integer offset strictly
    between consecutive listed primes; each item is one of

      gcd_with_modulus      witness g: 1 < g < value, g | value, g | modulus
      explicit_factor       witness f: 1 < f < value, f | value
      miller_rabin_witness  witness b: b is a strong compositeness witness

    The policy records the Miller-Rabin round count for values above the
    deterministic limit; listed primes above that limit are probable
    primes with union-bounded error 4**-rounds per value.
    """

    version: str
    library_version: str
    x: int
    y: int
    excluded_prime: int
    modulus_str: str
    offset_str: str
    z_str: str
    k: int
    epsilon: float
    prime_offsets: list[int]
    min_gap: int
    evidence: list[dict[str, Any]]
    seed: int | None
    policy: dict[str, Any]
    trials_used: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "GapChainCertificate":
        """Parse `to_json` text; ValueError names what is malformed.

        Only the shape is checked here, a JSON object of this
        CERTIFICATE_VERSION with exactly the certificate's keys; judging
        the values is the verifier's job.
        """
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"certificate is not JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ValueError("certificate is not a JSON object")
        if raw.get("version") != CERTIFICATE_VERSION:
            raise ValueError(
                f"unsupported certificate version {raw.get('version')!r}"
            )
        names = {f.name for f in fields(cls)}
        missing, extra = sorted(names - raw.keys()), sorted(raw.keys() - names)
        if missing or extra:
            raise ValueError(
                f"certificate keys: missing {missing}, unexpected {extra}"
            )
        return cls(**raw)


@dataclass(frozen=True)
class MissReport:
    """Search budget exhausted; records the best row encountered."""

    trials: int
    k: int
    epsilon: float
    best_z_str: str
    best_prime_count: int
    best_min_gap: int | None


def _check_search(k: int, epsilon: float, trials: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")


def find_gap_chain(
    frame: MaierFrame,
    T: SievedSet,
    k: int,
    epsilon: float,
    trials: int,
    rng: random.Random,
    *,
    seed: int | None = None,
) -> GapChainCertificate | MissReport:
    """Sample rows until one certifies k consecutive gaps of size >= eps*y.

    T must be the frame's own sieved set (`_row_scan`).  A row certifies
    when its survivor translates contain at least k+1 primes and every
    consecutive gap between the listed primes reaches epsilon * y, and
    still does once its primes get the full rounds.  Those rounds and the
    evidence tests of the survivors between the listed primes run in one
    map (`_full_round_tests`); the certificate's evidence is built from
    their results.  Failure returns a structured miss report with the
    best row seen.
    """
    _check_search(k, epsilon, trials)
    scan = _row_scan(frame, T)
    Z = row_index_bound(frame.modulus)
    survivors = scan.offsets.tolist()
    gap_demand = epsilon * frame.y

    def min_gap_of(ps: list[int]) -> int | None:
        return min((b - a for a, b in zip(ps, ps[1:])), default=None)

    def certifies(ps: list[int]) -> bool:
        return len(ps) >= k + 1 and min_gap_of(ps) >= gap_demand

    best: tuple[int, int, int | None] = (0, 0, None)  # count, z, min_gap
    for trial in range(1, trials + 1):
        z = rng.randrange(1, Z + 1)
        row_primes = _row_primes(scan, z)
        if certifies(row_primes):
            # the full rounds of the listed values, not BPSW, and the
            # evidence tests of the survivors between them, in one map;
            # the rounds only drop values, so a row that still certifies
            # has a verdict for every survivor in its span (a dropped
            # value's is its blocks' merged is_prime result)
            between = [a for a in survivors if row_primes[0] < a < row_primes[-1]
                       and a not in row_primes]
            tests, others = _full_round_tests(
                [frame.row_value(z, a) for a in row_primes], MIN_MR_ROUNDS,
                [(is_prime, frame.row_value(z, a), MIN_MR_ROUNDS) for a in between],
            )
            verdicts = dict(zip(row_primes + between, tests + others))
            row_primes = [a for a, res in zip(row_primes, tests) if res]
        min_gap = min_gap_of(row_primes)
        if len(row_primes) > best[0]:
            best = (len(row_primes), z, min_gap)
        if certifies(row_primes):
            evidence = _build_evidence(frame, row_primes, verdicts)
            return GapChainCertificate(
                version=CERTIFICATE_VERSION,
                library_version=__version__,
                x=frame.x,
                y=frame.y,
                excluded_prime=frame.excluded_prime,
                modulus_str=str(frame.modulus),
                offset_str=str(frame.offset),
                z_str=str(z),
                k=k,
                epsilon=epsilon,
                prime_offsets=row_primes,
                min_gap=min_gap,
                evidence=evidence,
                seed=seed,
                policy={
                    "mr_rounds": MIN_MR_ROUNDS,
                    "deterministic_limit": str(DETERMINISTIC_MR_LIMIT),
                },
                trials_used=trial,
            )
    return MissReport(
        trials=trials,
        k=k,
        epsilon=epsilon,
        best_z_str=str(best[1]),
        best_prime_count=best[0],
        best_min_gap=best[2],
    )


def _full_round_tests(
    values: list[int], rounds: int, calls: Sequence[tuple] = ()
) -> tuple[list[PrimalityResult], list[Any]]:
    """([is_prime(value, rounds) for value in values],
    [function(*args) for function, *args in calls]), in one map.

    The derived rounds of each value at or above DETERMINISTIC_MR_LIMIT
    with no trial factor go out in blocks of ROUND_BLOCK (some 0.9 ms
    each at 253 bits), the calls (the search's evidence tests and the
    verifier's witness checks, some 0.13 ms each) last, where the chunks
    are smallest.  A value's blocks merge into exactly is_prime's
    result, the first witness in round order.  A map with no blocks runs
    here and never forks.
    """
    results = [nt.settled(value) for value in values]
    blocks = [
        (nt.derived_rounds, value, a, min(a + ROUND_BLOCK, rounds))
        for value, res in zip(values, results) if res is None
        for a in range(0, rounds, ROUND_BLOCK)
    ]
    items = blocks + list(calls)
    out = iter(_fork.fork_map(_call, items, None) if blocks
               else [_call(None, item) for item in items])
    for i, res in enumerate(results):
        if res is None:
            parts = [next(out) for _ in range(0, rounds, ROUND_BLOCK)]
            witness = next((w for w in parts if w is not None), None)
            results[i] = nt.derived_verdict(witness)
    return results, list(out)


def _call(state: None, item: tuple) -> Any:
    """A map item (function, *args) runs as function(*args)."""
    return item[0](*item[1:])


def _build_evidence(
    frame: MaierFrame,
    row_primes: list[int],
    verdicts: dict[int, PrimalityResult],
) -> list[dict[str, Any]]:
    """The evidence of every offset strictly between the listed primes:
    a shared factor with the modulus where the sieve struck it, and the
    verdict of `_full_round_tests`' map on the survivors, which this reads
    and does not repeat."""
    evidence: list[dict[str, Any]] = []
    listed = set(row_primes)
    for a in range(row_primes[0] + 1, row_primes[-1]):
        if a in listed:
            continue
        if a not in verdicts:
            g = math.gcd(frame.offset + a, frame.modulus)
            if g <= 1:
                raise AssertionError(
                    f"offset {a} escaped the sieve yet shares no factor with "
                    "the modulus; the sieved set does not match the frame"
                )
            evidence.append(
                {"offset": a, "kind": "gcd_with_modulus", "witness": str(g)}
            )
            continue
        res = verdicts[a]
        if res.verdict != "composite":
            raise AssertionError(
                f"survivor translate at offset {a} is prime but was not "
                "listed; row enumeration bug"
            )
        kind = (
            "explicit_factor"
            if res.method == "trial_division"
            else "miller_rabin_witness"
        )
        evidence.append({"offset": a, "kind": kind, "witness": str(res.witness)})
    return evidence


@dataclass(frozen=True)
class VerificationOutcome:
    accepted: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _decimal(text: Any) -> int | None:
    """The value of a string of ASCII digits; None for anything else."""
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def _layout_failure(cert: GapChainCertificate) -> str | None:
    """The first failure of the verifier's checks that test no primality,
    on listed offsets already in order inside the window: the gap floor,
    then the evidence offsets, walked in the certificate's own length and
    never over the whole window."""
    ps = cert.prime_offsets
    gap = min(b - a for a, b in zip(ps, ps[1:]))
    if gap != cert.min_gap:
        return f"recorded min_gap {cert.min_gap} differs from recomputed {gap}"
    if cert.min_gap < cert.epsilon * cert.y:
        return (
            f"min gap {cert.min_gap} below the demand "
            f"{cert.epsilon * cert.y:.6g}"
        )
    listed = set(ps)
    covered = {e["offset"] for e in cert.evidence}
    if len(covered) != len(cert.evidence):
        return "duplicate evidence offsets"
    for a in sorted(covered):
        if not ps[0] < a < ps[-1] or a in listed:
            return f"evidence for offset {a} outside the window"
    if len(covered) + len(ps) != ps[-1] - ps[0] + 1:
        a = ps[0] + 1
        while a in listed or a in covered:
            a += 1
        return f"no compositeness evidence for offset {a}"
    return None


def verify_certificate(cert: GapChainCertificate) -> VerificationOutcome:
    """Re-check a certificate from scratch; accept only if every step holds.

    Checks every field's type, recomputes the modulus from
    (x, excluded_prime), revalidates ranges and the listed offsets'
    order, and accepts only a policy of mr_rounds and its own
    deterministic_limit.  Then it runs the checks that test no primality
    (`_layout_failure`: the gap floor, and evidence that covers exactly
    the non-listed integers between the first and last listed primes)
    and keeps their first failure.  One map (`_full_round_tests`) then
    re-tests every listed prime with the certificate's round count (at
    least MIN_MR_ROUNDS, at most MAX_MR_ROUNDS) and, if no check failed,
    every Miller-Rabin witness base of the evidence.  It rejects, in this
    order, the first composite in listed order, the kept failure, and
    the first evidence item that does not hold, in evidence order.
    Rejections name the first failure of that order; the work is bounded
    by the modulus budget, the round cap and the certificate's own length.
    """

    def reject(reason: str) -> VerificationOutcome:
        return VerificationOutcome(False, reason)

    if cert.version != CERTIFICATE_VERSION:
        return reject(f"unsupported certificate version {cert.version!r}")
    for name in ("x", "y", "excluded_prime", "k", "min_gap"):
        value = getattr(cert, name)
        if type(value) is not int:
            return reject(f"{name} = {value!r} is not an integer")
    if type(cert.epsilon) not in (int, float):
        return reject(f"gap fraction epsilon = {cert.epsilon!r} is not a number")
    if not (isinstance(cert.prime_offsets, list)
            and all(type(a) is int for a in cert.prime_offsets)):
        return reject("listed prime offsets are not a list of integers")
    if not (isinstance(cert.evidence, list)
            and all(isinstance(e, dict) and type(e.get("offset")) is int
                    for e in cert.evidence)):
        return reject("evidence is not a list of items with integer offsets")
    # the ranges find_gap_chain enforces on its own inputs
    if cert.k < 1:
        return reject(f"chain length k = {cert.k} is below 1")
    if not 0 < cert.epsilon < 1:
        return reject(f"gap fraction epsilon = {cert.epsilon} outside (0, 1)")
    # the search holds y as a float and demands gaps of epsilon * y in
    # floats; a larger y would overflow that product
    if cert.y > sys.float_info.max:
        return reject(
            f"window end y has {cert.y.bit_length()} bits, beyond a float"
        )
    policy = cert.policy if isinstance(cert.policy, dict) else {}
    if "mr_rounds" not in policy:
        return reject("policy states no mr_rounds")
    rounds = policy["mr_rounds"]
    if type(rounds) is not int:
        return reject(f"policy mr_rounds = {rounds!r} is not an integer")
    if not MIN_MR_ROUNDS <= rounds <= MAX_MR_ROUNDS:
        return reject(
            f"policy mr_rounds = {rounds} outside "
            f"[{MIN_MR_ROUNDS}, {MAX_MR_ROUNDS}]"
        )
    # the rest of the policy is the verifier's own, stated and not trusted
    if set(policy) != {"mr_rounds", "deterministic_limit"}:
        return reject("policy keys are not exactly mr_rounds and deterministic_limit")
    if policy["deterministic_limit"] != str(DETERMINISTIC_MR_LIMIT):
        return reject(
            f"policy deterministic_limit is not the verifier's {DETERMINISTIC_MR_LIMIT}"
        )
    if cert.x < 3:  # FrameWindow's floor
        return reject(f"window start x = {cert.x} is below 3")
    # the primes up to x alone carry more than x bits
    if cert.x > DEFAULT_Z_BIT_BUDGET:
        return reject(f"x = {cert.x} puts the modulus over the row budget")

    # a prime above x never meets the modulus recomputation, and testing
    # an arbitrarily long one would be unbounded work
    if cert.excluded_prime != 1 and not 2 <= cert.excluded_prime <= cert.x:
        return reject(
            f"excluded modulus of {cert.excluded_prime.bit_length()} bits is "
            f"neither 1 nor in [2, x = {cert.x}]"
        )
    if cert.excluded_prime != 1 and not is_prime(cert.excluded_prime):
        return reject(f"excluded modulus {cert.excluded_prime} is not 1 or prime")
    modulus = 1
    for p in primes_in_range(1, cert.x).tolist():
        if p != cert.excluded_prime:
            modulus *= int(p)
    if str(modulus) != cert.modulus_str:
        return reject("modulus does not match the primes up to x")
    if modulus.bit_length() > DEFAULT_Z_BIT_BUDGET:
        return reject(f"modulus needs {modulus.bit_length()} bits, over the "
                      f"budget of {DEFAULT_Z_BIT_BUDGET}")
    offset = _decimal(cert.offset_str)
    if offset is None:
        return reject(f"offset {cert.offset_str!r} is not a decimal integer")
    if not 0 <= offset < modulus:
        return reject("offset outside [0, modulus)")
    z = _decimal(cert.z_str)
    if z is None:
        return reject(f"row index {cert.z_str!r} is not a decimal integer")
    if not 1 <= z <= row_index_bound(modulus):
        return reject(f"row index outside [1, min(modulus, 2**{ROW_INDEX_BITS})]")

    ps = cert.prime_offsets
    if len(ps) < cert.k + 1:
        return reject(f"only {len(ps)} listed primes; k={cert.k} needs {cert.k + 1}")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        return reject("listed prime offsets are not strictly increasing")
    if ps[0] <= cert.x or ps[-1] > cert.y:
        return reject("listed prime offsets leave the window (x, y]")

    failure = _layout_failure(cert)
    bases = {}  # evidence offset: the map's check of its base
    for e in cert.evidence if failure is None else ():
        if e.get("kind") == "miller_rabin_witness":
            witness = _decimal(e.get("witness"))
            if witness is not None:
                value = z * modulus + offset + e["offset"]
                bases[e["offset"]] = (mr_composite_witness, value, witness)
    values = [z * modulus + offset + a for a in ps]
    tests, verdicts = _full_round_tests(values, rounds, list(bases.values()))
    for a, res in zip(ps, tests):
        if res.verdict == "composite":
            return reject(f"listed offset {a} is composite (witness {res.witness})")
    if failure is not None:
        return reject(failure)

    witnessed = dict(zip(bases, verdicts))
    for e in cert.evidence:
        a = e["offset"]
        value = z * modulus + offset + a
        kind = e.get("kind")
        witness = _decimal(e.get("witness"))
        if witness is None:
            return reject(
                f"witness {e.get('witness')!r} at offset {a} is not a "
                "decimal integer"
            )
        if kind == "gcd_with_modulus":
            if not (1 < witness < value and value % witness == 0
                    and modulus % witness == 0):
                return reject(f"bad shared-factor evidence at offset {a}")
        elif kind == "explicit_factor":
            if not (1 < witness < value and value % witness == 0):
                return reject(f"bad factor evidence at offset {a}")
        elif kind == "miller_rabin_witness":
            if value < 3 or value % 2 == 0:
                return reject(f"evidence value at offset {a} is trivially even")
            if not witnessed[a]:
                return reject(f"base {witness} does not witness offset {a}")
        else:
            return reject(f"unknown evidence kind {kind!r} at offset {a}")

    return VerificationOutcome(True)
