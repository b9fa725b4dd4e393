"""End-to-end acceptance checks, one test per stated deliverable.

Each test prints a single PASS/FAIL verdict line (visible under -v -s or
in captured output) and then asserts, so the suite doubles as a report.
"""

import hashlib
import json
import math
import random
import statistics
from fractions import Fraction

import numpy as np

import gapchain as g
from gapchain.harness import ExperimentConfig, run_experiment
from gapchain.maier import GapChainCertificate, verify_certificate
from gapchain.seeds import derive_rng, derive_seed
from gapchain.weights import gathered_sums

from oracles import correlation_probability


def _verdict(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{tail}")
    assert passed, f"{name} failed: {detail}"


def test_acceptance_sieve_vs_naive_thousand_cases():
    rng = random.Random(derive_seed(0, "accept-sieve"))
    pool = g.primes_in_range(1, 60).tolist()
    bad = 0
    for _ in range(1_000):
        moduli = rng.sample(pool, rng.randint(1, 8))
        entries = {p: rng.randrange(p) for p in moduli}
        lo = rng.randrange(0, 5_000)
        hi = lo + rng.randint(1, 250)
        got = g.sift_interval(lo, hi, g.ResidueSystem(entries)).members().tolist()
        want = [
            n
            for n in range(lo + 1, hi + 1)
            if all(n % p != a for p, a in entries.items())
        ]
        bad += got != want
    _verdict(
        "sieve_vs_naive",
        bad == 0,
        f"{1_000 - bad}/1000 random systems match the naive filter",
    )


def test_acceptance_exact_anchors():
    crt = g.assemble_frame(
        g.ResidueSystem({2: 1, 3: 2, 5: 3, 7: 4}), g.FrameWindow(x=7.0, y=20.0)
    )
    checks = [
        ("pi(10^6)", g.primes_in_range(1, 1_000_000).size, 78_498),
        ("pi(10^4)", g.primes_in_range(1, 10_000).size, 1_229),
        ("pi(100)", g.primes_in_range(1, 100).size, 25),
        ("G1(10^6)", g.chain_gap_record(1_000_000, 1), 114),
        ("G1(10^4)", g.chain_gap_record(10_000, 1), 36),
        ("G1(100)", g.chain_gap_record(100, 1), 8),
        ("G2(100)", g.chain_gap_record(100, 2), 6),
        ("crt", (crt.offset, crt.modulus), (157, 210)),
        ("density(2,3,5)", g.mertens_density([2, 3, 5]), Fraction(4, 15)),
    ]
    wrong = [(n, got, want) for n, got, want in checks if got != want]
    _verdict(
        "exact_anchors",
        not wrong,
        "all 9 anchors exact" if not wrong else f"mismatches: {wrong}",
    )


def test_acceptance_correlation_monte_carlo(small_partition):
    rng = derive_rng(0, "accept-corr")
    pick = random.Random(derive_seed(0, "accept-corr-cases"))
    n_draws = 100_000
    failures = []
    for case in range(20):
        primes = pick.sample([3, 5, 7, 11, 13], pick.randint(1, 4))
        points = pick.sample(range(-30, 90), 3)
        exact = float(correlation_probability(points, primes))
        survive = np.ones(n_draws, dtype=bool)
        for s in primes:
            banned = np.unique(np.array([n % s for n in points]))
            survive &= ~np.isin(rng.integers(0, s, size=n_draws), banned)
        estimate = float(survive.mean())
        slack = 4 * math.sqrt(max(exact * (1 - exact), 1e-12) / n_draws) + 1e-12
        if abs(estimate - exact) > slack:
            failures.append((primes, points, exact, estimate))
    # degenerate single-point case: the survival product is the density
    small = small_partition.small_primes.tolist()
    single_ok = all(
        correlation_probability([int(q)], small) == small_partition.sigma
        for q in small_partition.target_primes[:5].tolist()
    )
    _verdict(
        "correlation_monte_carlo",
        not failures and single_ok,
        "20/20 point triples within 4 standard errors over 1e5 draws; "
        "single-point product equals the exact density"
        if not failures
        else f"outliers: {failures}",
    )


def test_acceptance_normalization_cross_check(pinned_table, pinned_run):
    # identity 1: each conditional law sums to exactly the survival mass
    ps, W, sums = pinned_table.matrix()
    mass_err = 0.0
    for i, p in enumerate(ps.tolist()):
        law_total = float((W[i] * pinned_run.mask_matrix[i]).sum() / sums[i])
        xp = pinned_run.survival_mass[p]
        mass_err = max(mass_err, abs(law_total - xp) / xp)
    # identity 2: stored row sums equal a from-scratch compensated total
    row_err = max(
        abs(math.fsum(row.tolist()) - s) / s for row, s in zip(W, sums.tolist())
    )
    ok = mass_err <= 1e-12 and row_err <= 1e-12
    _verdict(
        "normalization_cross_check",
        ok,
        f"conditional-law totals match survival masses to {mass_err:.2e}; "
        f"row sums match recomputation to {row_err:.2e}",
    )


def test_acceptance_cover_leftover_medians():
    n_elements, n_sets = 100_000, 10_000
    medians = {}
    runs = {}
    for m in (1, 2, 3):
        inst = g.synth_instance(n_elements, n_sets, m)
        ratios = []
        for seed in range(9):
            result = g.nibble_cover(
                inst, m, derive_rng(seed, "cover-acceptance", str(m))
            )
            ratios.append(result.leftover_fraction / 5.0**-m)
            runs[(m, seed)] = result
        medians[m] = statistics.median(ratios)
    law_ok = all(abs(r - 1.0) <= 0.15 for r in medians.values())

    chosen = runs[(2, 3)]
    sub_size = n_elements // 10
    sub = derive_rng(3, "cover-subset").choice(n_elements, size=sub_size, replace=False)
    sub_frac = g.subset_leftover(chosen, sub) / sub_size
    sub_ratio = sub_frac / chosen.leftover_fraction
    subset_ok = abs(sub_ratio - 1.0) <= 0.20
    _verdict(
        "cover_leftover_medians",
        law_ok and subset_ok,
        "median/5^-m = "
        + ", ".join(f"m={m}: {r:.3f}" for m, r in medians.items())
        + f"; random-subset ratio {sub_ratio:.3f}",
    )


def test_acceptance_weight_contracts(pinned_table):
    report = g.weight_contract_report(pinned_table)
    ok = (
        report.row_sum_ratio <= 1.1
        and report.off_on_aggregate_ratio <= 0.1
        and report.max_point_mass <= 1e-2
        and report.zero_rows == 0
    )
    _verdict(
        "weight_contracts",
        ok,
        f"row ratio {report.row_sum_ratio:.5f} <= 1.1, "
        f"off/on {report.off_on_aggregate_ratio:.4f} <= 0.1, "
        f"point mass {report.max_point_mass:.2e} <= 1e-2",
    )


def test_acceptance_translation_certificate():
    cfg = ExperimentConfig(mode="chain", seed=5)
    report = run_experiment(cfg)
    found = report.all_passed and "certificate" in report.metrics
    tampers_caught = 0
    if found:
        cert_raw = report.metrics["certificate"]

        def tampered(edit):
            raw = json.loads(json.dumps(cert_raw))
            edit(raw)
            cert = GapChainCertificate.from_json(json.dumps(raw))
            return not verify_certificate(cert)

        def promote_composite(raw):
            a = int(raw["evidence"][0]["offset"])
            raw["prime_offsets"] = sorted(set(raw["prime_offsets"]) | {a})

        def drop_evidence(raw):
            del raw["evidence"][0]

        def stretch_gap(raw):
            raw["min_gap"] += 1

        tampers_caught = sum(
            tampered(edit)
            for edit in (promote_composite, drop_evidence, stretch_gap)
        )
    _verdict(
        "translation_certificate",
        found and tampers_caught == 3,
        f"chain found, verified, and {tampers_caught}/3 tampers rejected",
    )


# sha256 of json.dumps(payload, sort_keys=True, indent=1) for each pinned
# result, and of the raw float64 bytes for "rows" (the pinned table's
# weight matrix followed by its row sums) and "on_sums" (the per-q
# on-tuple gathered sums S(q, i) that the contract report's statistics,
# and so the summary digest, average away).  A refactor that shifts one
# float or one random draw changes a digest.  Captured with numpy 2.4; a numpy build that rounds a reduction
# differently would change them too.  The chain digests include the
# certificate's library_version, which is gapchain.__version__; chain and
# chain150 draw random classes, chain_greedy and chain_construction the
# two partition sources at x=150, y=600 and [partition] small_high = 60.
GOLDEN_DIGESTS = {
    "gk": "497381957cc9ca7bf29b85434529e0929d161c0bc72e611491a64b6bd2be22b1",
    "chain": "806f849959bc0f2a7ed9eb5da68d0de74ea4bbf89136f412d9ac668aa43b9299",
    "chain150": "108b242728587f8cc5a5f6bdd46590860268d5cb4a5fe93a3ef959f464cd96a7",
    "chain_greedy": "c5d906e4157d88e2bb501b6e24a3c09f7b12cdfbaeb081a3cd2a583fa9887785",
    "chain_construction": (
        "b638fd3a82b6abfe26341910f36e50c16d76b52875882454b220a9a27ac63f96"
    ),
    "cover": "89d336bb1c9ca3e18f20a85922b61531ca80fbb3a5e2c0bb4b2fa86e25c8f024",
    "contracts": "60363359958c27888e3beeef44a444fc9e7568cf563a02be1f20f87b7662eeff",
    "construction": "55d58261e8d5943f19c48cd6b27662728dc8ccc2373c681f680bde5426d40783",
    "rows": "1ab238b16860be2d07656df65368a2da18f5c0abe1e50b7cb0575487a7ce444f",
    "on_sums": "705a13891f90351632dd10479d5f991896a3f3a176bab8e283d905dcc453c0bc",
}


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, indent=1)
    return hashlib.sha256(text.encode()).hexdigest()


def test_acceptance_reproducible_metrics(toy_partition, pinned_table, pinned_run):
    def run_gk():
        cfg = ExperimentConfig(mode="gk")
        cfg.set("gk", "limit", 10_000)
        cfg.set("gk", "k", 1)
        return run_experiment(cfg)

    gk_a, gk_b = run_gk(), run_gk()
    def run_chain(seed, **chain):
        cfg = ExperimentConfig(mode="chain", seed=seed)
        for key, value in chain.items():
            cfg.set("chain", key, value)
        if chain.get("classes", "random") != "random":
            cfg.set("partition", "small_high", 60)
        return run_experiment(cfg)

    chain_a, chain_b = run_chain(5), run_chain(5)
    cover_a = run_experiment(ExperimentConfig(mode="cover", seed=2))
    cover_b = run_experiment(ExperimentConfig(mode="cover", seed=2))
    gk_ok = gk_a.metrics_json() == gk_b.metrics_json()
    chain_ok = chain_a.metrics_json() == chain_b.metrics_json()
    cover_ok = cover_a.metrics_json() == cover_b.metrics_json()
    anchor_ok = gk_a.metrics["record"] == 36

    reports = {
        "gk": gk_a,
        "chain": chain_a,
        "chain150": run_chain(5, x=150.0, y=600.0),
        "chain_greedy": run_chain(5, x=150.0, y=600.0, classes="greedy"),
        "chain_construction": run_chain(
            11, x=150.0, y=600.0, classes="construction"
        ),
        "cover": cover_a,
    }
    got = {
        name: _digest({"metrics": rep.metrics, "checks": rep.checks})
        for name, rep in reports.items()
    }
    contracts = g.weight_contract_report(pinned_table)
    got["contracts"] = _digest(contracts.summary())
    _, W, sums = pinned_table.matrix()
    got["rows"] = hashlib.sha256(W.tobytes() + sums.tobytes()).hexdigest()
    ps, W, sums = pinned_table.matrix()
    on_sums = gathered_sums(
        W, sums, np.arange(ps.size), ps,
        pinned_table.partition.target_primes.astype(np.int64),
        pinned_table.tuple.offsets, pinned_table.n_min,
    ).T  # one row of S(q, i) per target q, as the report gathered them
    got["on_sums"] = hashlib.sha256(on_sums.tobytes()).hexdigest()
    coverage = g.target_coverage_report(
        pinned_run, toy_partition.coverage_target, max_q=512
    )
    got["construction"] = _digest(
        {"construction": pinned_run.summary(), "coverage": coverage.summary()}
    )
    drifted = sorted(name for name, want in GOLDEN_DIGESTS.items() if got[name] != want)
    _verdict(
        "reproducible_metrics",
        gk_ok and chain_ok and cover_ok and anchor_ok and not drifted,
        "gk, chain and cover reports byte-identical across reruns; "
        f"gk record {gk_a.metrics['record']}; "
        + (
            f"digests drifted: {drifted}"
            if drifted
            else f"{len(got)}/{len(GOLDEN_DIGESTS)} golden digests match"
        ),
    )
