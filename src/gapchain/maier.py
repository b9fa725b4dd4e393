"""Matrix translation of a sieved interval and gap-chain certificates.

Once a residue system over all primes up to x is fixed, the Chinese
remainder theorem produces one offset m modulo the primorial-style
modulus P (product of those primes, the excluded modulus left out) such
that translating the interval (x, y] by z*P + m, for any row index z,
sends exactly the sieve survivors to integers coprime to P.  Primes in a
translated row can therefore only appear at survivor offsets, and a row
whose survivor translates contain k+1 primes with every consecutive gap
of length at least epsilon*y witnesses a chain of k consecutive large
prime gaps.

The translation holds for every z in [1, P**D], the row space that the
counting argument needs.  A search only samples rows, some 10**4 at most,
so it draws z uniformly from [1, R] with R the smaller of P**D and
2**ROW_INDEX_BITS: still far more indices than any search visits, and a
row value stays below P * 2**65 rather than near P**(D+1), so every
primality test on it works on fewer bits.  Nothing here scans the full
row space.  A sampled row's survivor translates are presieved by the
primes in (x, PRESIEVE_LIMIT] and the rest tested by BPSW (by the
Miller-Rabin proof below the deterministic limit).  Rows are independent,
so `sample_rows` draws all of its row indices first, hands them one at a
time to forked worker processes, one per usable CPU, and aggregates them
in draw order: the statistics are the same bytes as a one-by-one scan.
The gap-chain search stops at its first certifying row, so it scans its
rows one at a time.  A successful row is packaged as a self-contained
certificate: its listed primes are first re-tested with the full
Miller-Rabin rounds, and every integer strictly between them carries
deterministically checkable compositeness evidence (a shared factor with
the modulus, an explicit factor, or a Miller-Rabin witness base), so an
independent verifier needs no access to the search.  The verifier
applies its own minimum round count, MIN_MR_ROUNDS.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from . import __version__, _fork
from .nt import (
    DETERMINISTIC_MR_LIMIT,
    bpsw,
    crt_combine,
    is_prime,
    mr_composite_witness,
    primes_in_range,
)
from .partition import PrimePartition, check_excluded_prime
from .sieving import ResidueSystem, SievedSet

__all__ = [
    "CERTIFICATE_VERSION",
    "FrameWindow",
    "MaierFrame",
    "assemble_frame",
    "RowStatistics",
    "sample_rows",
    "GapChainCertificate",
    "MissReport",
    "find_gap_chain",
    "VerificationOutcome",
    "verify_certificate",
]

CERTIFICATE_VERSION = "1"
DEFAULT_Z_BIT_BUDGET = 20_000
SPOT_CHECKS = 64  # window values re-checked against the frame both ways
PAIR_SAMPLE = 8  # survivor pairs drawn for the pair statistics
ROW_INDEX_BITS = 64  # searches draw z from [1, min(modulus**D, 2**this)]
PRESIEVE_LIMIT = 1 << 18  # row values are presieved by the primes in (x, this]
_LIMB_BITS = 30  # z mod q is folded in 30-bit limbs, so products fit in int64
# round counts a certificate may ask of the verifier: the minimum is the
# verifier's own policy, the cap bounds its work
MIN_MR_ROUNDS = 48
MAX_MR_ROUNDS = 1024


@dataclass(frozen=True)
class FrameWindow:
    """Bare translation window for frames built without a full partition.

    The translation machinery only needs the interval endpoints and the
    excluded modulus, so tiny demonstration frames (x well below the
    partition module's floor) use this directly.
    """

    x: float
    y: float
    excluded_prime: int = 1

    def __post_init__(self) -> None:
        if not self.x > 2:
            raise ValueError("window start must exceed 2")
        if not self.y > self.x:
            raise ValueError("window end must exceed its start")
        # the primes up to x alone carry more than x bits
        if self.x > DEFAULT_Z_BIT_BUDGET:
            raise ValueError(f"x = {self.x:g} puts the modulus over the row budget")
        check_excluded_prime(self.excluded_prime, self.x)


@dataclass(frozen=True)
class MaierFrame:
    """Translation frame: row value at (z, a) is z*modulus + offset + a.

    offset is the CRT solution of offset = -a_p (mod p) over the whole
    residue system, reduced into [0, modulus); with all-zero classes this
    is plain 0.  Row indices z live in [1, modulus**D]; the searches draw
    them from [1, row_index_bound()].
    """

    x: int
    y: int
    excluded_prime: int
    D: int
    modulus: int
    offset: int
    system: ResidueSystem = field(repr=False)

    def row_value(self, z: int, a: int) -> int:
        return z * self.modulus + self.offset + a

    def row_space(self) -> int:
        return self.modulus**self.D

    def row_space_bits(self) -> int:
        return self.modulus.bit_length() * self.D

    def row_index_bound(self) -> int:
        """The largest row index a search draws, 2**ROW_INDEX_BITS at most."""
        return min(self.row_space(), 1 << ROW_INDEX_BITS)


def assemble_frame(
    system: ResidueSystem,
    window: FrameWindow | PrimePartition,
    D: int = 1,
) -> MaierFrame:
    """Solve the simultaneous congruences and spot-check the translation.

    The system must assign a class to every prime up to x except the
    excluded modulus.  The returned frame satisfies, for every t in
    (x, y]: t fails the sieve  iff  gcd(offset + t, modulus) > 1; the
    first SPOT_CHECKS values of t are verified both ways.
    """
    if D < 1:
        raise ValueError("D must be at least 1")
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
    # moduli are distinct primes, so the combination cannot collide
    offset, modulus = crt_combine(((-a) % p, p) for p, a in items)

    frame = MaierFrame(
        x=x, y=y, excluded_prime=b0, D=D,
        modulus=modulus, offset=offset, system=system,
    )
    checked = 0
    for t in range(x + 1, y + 1):
        if checked >= SPOT_CHECKS:
            break
        sieved_out = any(t % p == a for p, a in items)
        shares_factor = math.gcd(offset + t, modulus) > 1
        if sieved_out != shares_factor:
            raise AssertionError(
                f"translation invariant failed at t={t}: sieved_out="
                f"{sieved_out} but gcd(offset+t, modulus)>1 is {shares_factor}"
            )
        checked += 1
    return frame


def _check_row_space(frame: MaierFrame) -> int:
    if frame.row_space_bits() > DEFAULT_Z_BIT_BUDGET:
        raise ValueError(
            f"row space needs about {frame.row_space_bits()} bits, over the "
            f"budget of {DEFAULT_Z_BIT_BUDGET}; lower x or D"
        )
    return frame.row_index_bound()


def _check_window(frame: MaierFrame, T: SievedSet) -> None:
    if (T.lo, T.hi) != (frame.x, frame.y):
        raise ValueError(
            f"sieved set covers ({T.lo}, {T.hi}] but the frame translates "
            f"({frame.x}, {frame.y}]"
        )


@dataclass(frozen=True)
class _RowScan:
    """What `_row_primes` needs of a frame, computed once per search.

    offsets are the survivors of the window; for each prime q in
    (x, PRESIEVE_LIMIT] it keeps modulus mod q, offset mod q and
    2**_LIMB_BITS mod q, so a row's residues mod every q cost one numpy
    pass per limb of z.
    """

    frame: MaierFrame
    offsets: np.ndarray
    qs: np.ndarray
    modulus_mod: np.ndarray
    offset_mod: np.ndarray
    limb_mod: np.ndarray


def _residues(n: int, qs: np.ndarray, limb_mod: np.ndarray) -> np.ndarray:
    """n mod q for every q <= PRESIEVE_LIMIT, by Horner's rule over n's limbs."""
    limbs = []
    while n:
        limbs.append(n & ((1 << _LIMB_BITS) - 1))
        n >>= _LIMB_BITS
    out = np.zeros_like(qs)
    for limb in reversed(limbs):
        out = (out * limb_mod + limb) % qs
    return out


def _row_scan(frame: MaierFrame, T: SievedSet) -> _RowScan:
    qs = primes_in_range(frame.x, PRESIEVE_LIMIT)
    limb_mod = (1 << _LIMB_BITS) % qs
    return _RowScan(
        frame=frame,
        offsets=T.members().astype(np.int64),
        qs=qs,
        modulus_mod=_residues(frame.modulus, qs, limb_mod),
        offset_mod=_residues(frame.offset, qs, limb_mod),
        limb_mod=limb_mod,
    )


def _row_primes(scan: _RowScan, z: int) -> list[int]:
    """The survivor offsets a, ascending, whose row-z translate is prime.

    Presieve: every translate with a prime factor q in (x, PRESIEVE_LIMIT]
    other than itself is struck on a window-wide mask.  The rest are
    tested: below DETERMINISTIC_MR_LIMIT by the is_prime proof, above it
    by BPSW, so the verdicts above the limit are probable and carry no
    evidence.
    """
    frame, qs = scan.frame, scan.qs
    width = frame.y - frame.x
    start = frame.row_value(z, frame.x + 1)  # the translate at mask slot 0
    r = (
        _residues(z, qs, scan.limb_mod) * scan.modulus_mod
        + scan.offset_mod + (frame.x + 1)
    ) % qs
    first = -r % qs  # first slot whose translate q divides
    if start <= PRESIEVE_LIMIT:
        # a translate equal to q is the prime q itself: skip to q's next multiple
        first = np.where(start + first == qs, first + qs, first)
    hit = first < width
    q, first = qs[hit], first[hit]
    # the slots first, first + q, ... below width, for every q in one pass
    counts = (width - 1 - first) // q + 1
    group_start = np.cumsum(counts) - counts
    slots = np.repeat(first - group_start * q, counts) + np.arange(
        int(counts.sum())
    ) * np.repeat(q, counts)
    alive = np.ones(width, dtype=bool)
    alive[slots] = False
    base = start - (frame.x + 1)
    out = []
    for a in scan.offsets[alive[scan.offsets - (frame.x + 1)]].tolist():
        value = base + a
        if bpsw(value) if value >= DETERMINISTIC_MR_LIMIT else is_prime(value):
            out.append(a)
    return out


def _scan_rows(scan: _RowScan, zs: list[int]) -> list[list[int]]:
    """`_row_primes(scan, z)` for every z, in the order of zs.

    The rows go one at a time to `_fork.fork_map`'s workers, one per
    usable CPU, which inherit the scan: only z goes out and lists of
    offsets come back.
    """
    return _fork.fork_map(_row_primes, zs, scan)


@dataclass(frozen=True)
class RowStatistics:
    """Primality statistics over sampled rows of the translation frame."""

    trials: int
    mean_primes: float
    var_primes: float
    hit_counts: dict[int, int]
    pair_counts: dict[tuple[int, int], int]
    best_z: int
    best_prime_offsets: list[int]

    def summary(self) -> dict:
        return {
            "trials": self.trials,
            "mean_primes": self.mean_primes,
            "var_primes": self.var_primes,
            "best_prime_count": len(self.best_prime_offsets),
        }


def sample_rows(
    frame: MaierFrame,
    T: SievedSet,
    trials: int,
    rng: random.Random,
) -> RowStatistics:
    """Count primes among survivor translates for `trials` random rows.

    Uses the stdlib Random generator because row indices are arbitrary
    precision.  Pair statistics cover PAIR_SAMPLE random survivor pairs,
    chosen up front from the same generator; then all `trials` row
    indices are drawn, in the order a row-by-row loop would draw them.
    The rows are scanned by `_row_primes` (presieve, then BPSW above the
    deterministic limit) in forked workers, one per usable CPU, and
    aggregated in draw order, so the statistics do not depend on the
    worker count.  The scan stays in this process wherever
    `_fork.fork_map` cannot fork.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_window(frame, T)
    Z = _check_row_space(frame)
    scan = _row_scan(frame, T)
    offsets = scan.offsets.tolist()

    pairs: list[tuple[int, int]] = []
    if len(offsets) >= 2:
        seen = set()
        for _ in range(PAIR_SAMPLE):
            a, b = rng.sample(offsets, 2)
            pair = (min(a, b), max(a, b))
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)

    hit_counts = {a: 0 for a in offsets}
    pair_counts = {pair: 0 for pair in pairs}
    total = 0
    total_sq = 0
    best: tuple[int, int, list[int]] = (-1, 0, [])
    zs = [rng.randrange(1, Z + 1) for _ in range(trials)]
    for z, row_primes in zip(zs, _scan_rows(scan, zs)):
        for a in row_primes:
            hit_counts[a] += 1
        hit_set = set(row_primes)
        for pair in pairs:
            if pair[0] in hit_set and pair[1] in hit_set:
                pair_counts[pair] += 1
        n = len(row_primes)
        total += n
        total_sq += n * n
        if n > best[0]:
            best = (n, z, row_primes)
    mean = total / trials
    var = total_sq / trials - mean * mean
    return RowStatistics(
        trials=trials,
        mean_primes=mean,
        var_primes=max(var, 0.0),
        hit_counts=hit_counts,
        pair_counts=pair_counts,
        best_z=best[1],
        best_prime_offsets=best[2],
    )


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
    D: int
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

        Only the shape is checked here, a JSON object with exactly the
        certificate's keys; judging the values is the verifier's job.
        """
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"certificate is not JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ValueError("certificate is not a JSON object")
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


def find_gap_chain(
    frame: MaierFrame,
    T: SievedSet,
    k: int,
    epsilon: float,
    trials: int,
    rng: random.Random,
    *,
    mr_rounds: int = 48,
    seed: int | None = None,
) -> GapChainCertificate | MissReport:
    """Sample rows until one certifies k consecutive gaps of size >= eps*y.

    A row certifies when its survivor translates contain at least k+1
    primes and every consecutive gap between the listed primes reaches
    epsilon * y.  Success builds the full certificate, including the
    compositeness evidence for all intermediate offsets; failure returns
    a structured miss report with the best row seen.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not MIN_MR_ROUNDS <= mr_rounds <= MAX_MR_ROUNDS:
        raise ValueError(
            f"mr_rounds = {mr_rounds} outside [{MIN_MR_ROUNDS}, {MAX_MR_ROUNDS}], "
            "the range the verifier accepts"
        )
    _check_window(frame, T)
    Z = _check_row_space(frame)
    scan = _row_scan(frame, T)
    survivor_set = set(scan.offsets.tolist())
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
            # the values a certificate lists get the full rounds, not BPSW
            row_primes = [
                a for a in row_primes
                if is_prime(frame.row_value(z, a), mr_rounds)
            ]
        min_gap = min_gap_of(row_primes)
        if len(row_primes) > best[0]:
            best = (len(row_primes), z, min_gap)
        if certifies(row_primes):
            evidence = _build_evidence(
                frame, z, row_primes, survivor_set, mr_rounds
            )
            return GapChainCertificate(
                version=CERTIFICATE_VERSION,
                library_version=__version__,
                x=frame.x,
                y=frame.y,
                excluded_prime=frame.excluded_prime,
                D=frame.D,
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
                    "mr_rounds": mr_rounds,
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


def _build_evidence(
    frame: MaierFrame,
    z: int,
    row_primes: list[int],
    survivor_set: set[int],
    mr_rounds: int,
) -> list[dict[str, Any]]:
    evidence: list[dict[str, Any]] = []
    listed = set(row_primes)
    for a in range(row_primes[0] + 1, row_primes[-1]):
        if a in listed:
            continue
        value = frame.row_value(z, a)
        if a not in survivor_set:
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
        res = is_prime(value, mr_rounds)
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


def verify_certificate(cert: GapChainCertificate) -> VerificationOutcome:
    """Re-check a certificate from scratch; accept only if every step holds.

    Checks every field's type, recomputes the modulus from
    (x, excluded_prime), revalidates ranges, re-tests every listed prime
    with the certificate's round count (at least MIN_MR_ROUNDS, at most
    MAX_MR_ROUNDS), recomputes the gap floor, and re-checks each evidence
    item, requiring the evidence to cover exactly the non-listed integers
    between the first and last listed primes.  Rejections name the first
    failure; the work is bounded by the row budget, the round cap and the
    certificate's own length.
    """

    def reject(reason: str) -> VerificationOutcome:
        return VerificationOutcome(False, reason)

    if cert.version != CERTIFICATE_VERSION:
        return reject(f"unsupported certificate version {cert.version!r}")
    for name in ("x", "y", "excluded_prime", "D", "k", "min_gap"):
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
    if cert.D < 1:
        return reject(f"row exponent D = {cert.D} is below 1")
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
    if modulus.bit_length() * cert.D > DEFAULT_Z_BIT_BUDGET:
        return reject(
            f"row space needs about {modulus.bit_length() * cert.D} bits, "
            f"over the budget of {DEFAULT_Z_BIT_BUDGET}"
        )
    offset = _decimal(cert.offset_str)
    if offset is None:
        return reject(f"offset {cert.offset_str!r} is not a decimal integer")
    if not 0 <= offset < modulus:
        return reject("offset outside [0, modulus)")
    z = _decimal(cert.z_str)
    if z is None:
        return reject(f"row index {cert.z_str!r} is not a decimal integer")
    if not 1 <= z <= modulus**cert.D:
        return reject("row index outside [1, modulus**D]")

    ps = cert.prime_offsets
    if len(ps) < cert.k + 1:
        return reject(f"only {len(ps)} listed primes; k={cert.k} needs {cert.k + 1}")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        return reject("listed prime offsets are not strictly increasing")
    if ps[0] <= cert.x or ps[-1] > cert.y:
        return reject("listed prime offsets leave the window (x, y]")

    for a in ps:
        value = z * modulus + offset + a
        res = is_prime(value, rounds)
        if res.verdict == "composite":
            return reject(f"listed offset {a} is composite (witness {res.witness})")

    gaps = [b - a for a, b in zip(ps, ps[1:])]
    if min(gaps) != cert.min_gap:
        return reject(
            f"recorded min_gap {cert.min_gap} differs from recomputed {min(gaps)}"
        )
    if cert.min_gap < cert.epsilon * cert.y:
        return reject(
            f"min gap {cert.min_gap} below the demand "
            f"{cert.epsilon * cert.y:.6g}"
        )

    # walked in the certificate's own length, never over the whole window
    listed = set(ps)
    covered = {e["offset"] for e in cert.evidence}
    if len(covered) != len(cert.evidence):
        return reject("duplicate evidence offsets")
    for a in sorted(covered):
        if not ps[0] < a < ps[-1] or a in listed:
            return reject(f"evidence for offset {a} outside the window")
    if len(covered) + len(ps) != ps[-1] - ps[0] + 1:
        a = ps[0] + 1
        while a in listed or a in covered:
            a += 1
        return reject(f"no compositeness evidence for offset {a}")

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
            if not mr_composite_witness(value, witness):
                return reject(f"base {witness} does not witness offset {a}")
        else:
            return reject(f"unknown evidence kind {kind!r} at offset {a}")

    return VerificationOutcome(True)
