"""Translation frames, row sampling, and gap-chain certificates.

The verifier tests work by mutating a genuine certificate's JSON form one
field at a time and asserting both the rejection and the named reason.
"""

import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import gapchain as g
from gapchain import (
    FrameWindow,
    GapChainCertificate,
    MissReport,
    ResidueSystem,
    assemble_frame,
    find_gap_chain,
    sample_rows,
    sift_interval,
    verify_certificate,
)
from gapchain import _fork, maier
from gapchain.maier import (
    CERTIFICATE_VERSION,
    MAX_MR_ROUNDS,
    MIN_MR_ROUNDS,
    PAIR_SAMPLE,
    PRESIEVE_LIMIT,
    ROW_INDEX_BITS,
    _row_primes,
    _row_scan,
    _scan_rows,
)
from gapchain.nt import DETERMINISTIC_MR_LIMIT, primes_in_range
from gapchain.sieving import SievedSet
from gapchain.seeds import derive_random, derive_rng


def zero_system(x, excluded=1):
    entries = {
        int(p): 0 for p in primes_in_range(1, x).tolist() if p != excluded
    }
    return ResidueSystem(entries, excluded=excluded)


@pytest.fixture(scope="module")
def toy_frame():
    return assemble_frame(zero_system(36), FrameWindow(x=36.0, y=120.0))


@pytest.fixture(scope="module")
def toy_sieved(toy_frame):
    return sift_interval(36, 120, toy_frame.system)


@pytest.fixture(scope="module")
def toy_certificate(toy_frame, toy_sieved):
    found = find_gap_chain(
        toy_frame,
        toy_sieved,
        k=2,
        epsilon=0.01,
        trials=400,
        rng=derive_random(5, "maier-search"),
        seed=5,
    )
    assert isinstance(found, GapChainCertificate)
    return found


def mutated(cert, edit):
    raw = json.loads(cert.to_json())
    edit(raw)
    return GapChainCertificate.from_json(json.dumps(raw))


def rejects(cert, needle):
    outcome = verify_certificate(cert)
    assert not outcome
    assert needle in outcome.reason


class TestFrameAssembly:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            FrameWindow(x=2.0, y=10.0)
        with pytest.raises(ValueError):
            FrameWindow(x=10.0, y=10.0)
        with pytest.raises(ValueError):
            FrameWindow(x=10.0, y=20.0, excluded_prime=4)
        # a prime above x divides no modulus, so no frame may name it
        with pytest.raises(ValueError, match="exceeds x"):
            FrameWindow(x=10.0, y=20.0, excluded_prime=11)
        FrameWindow(x=10.0, y=20.0, excluded_prime=7)
        # the primes up to x carry more than x bits: refused before any class
        # is drawn, as the verifier refuses such a certificate
        with pytest.raises(ValueError, match="x = 20001 puts the modulus over"):
            FrameWindow(x=20001.0, y=30000.0)

    def test_tiny_frame_translation_invariant(self):
        frame = assemble_frame(zero_system(13), FrameWindow(x=13.0, y=60.0))
        assert frame.modulus == 2 * 3 * 5 * 7 * 11 * 13  # 30030
        assert frame.modulus.bit_length() == 15
        assert frame.offset == 0
        assert frame.row_value(4, 7) == 4 * 30030 + 7
        for t in range(14, 61):
            sieved_out = any(t % p == 0 for p in (2, 3, 5, 7, 11, 13))
            assert sieved_out == (math.gcd(frame.offset + t, frame.modulus) > 1)

    def test_excluded_modulus_left_out(self):
        frame = assemble_frame(
            zero_system(13, excluded=5),
            FrameWindow(x=13.0, y=60.0, excluded_prime=5),
        )
        assert frame.modulus == 30030 // 5
        assert frame.excluded_prime == 5

    def test_random_classes_solve_every_congruence(self):
        window = FrameWindow(x=20.0, y=80.0)
        for seed in range(20):
            rng = derive_rng(seed, "frame-classes")
            entries = {
                int(p): int(rng.integers(0, int(p)))
                for p in primes_in_range(1, 20).tolist()
            }
            frame = assemble_frame(
                ResidueSystem(entries), window
            )
            assert 0 <= frame.offset < frame.modulus
            for p, a in entries.items():
                assert (frame.offset + a) % p == 0

    def test_system_coverage_enforced(self):
        window = FrameWindow(x=13.0, y=60.0)
        short = zero_system(13).entries.copy()
        short.pop(7)
        with pytest.raises(ValueError, match="missing"):
            assemble_frame(ResidueSystem(short), window)
        extra = zero_system(13).entries.copy()
        extra[17] = 0
        with pytest.raises(ValueError, match="extra"):
            assemble_frame(ResidueSystem(extra), window)
        with pytest.raises(ValueError):
            assemble_frame(zero_system(13), window, D=0)

    def test_partition_serves_as_window(self, small_partition):
        frame = assemble_frame(zero_system(400), small_partition, D=3)
        assert (frame.x, frame.y) == (400, 6_000)
        assert frame.D == 3
        assert frame.row_space() == frame.modulus**3
        assert frame.row_space_bits() == frame.modulus.bit_length() * 3

    def test_toy_frame_anatomy(self, toy_frame, toy_sieved):
        assert toy_frame.modulus == 200560490130
        assert toy_frame.row_space_bits() == 38
        # the all-zero sieve leaves exactly the primes of the window
        survivors = toy_sieved.members().tolist()
        assert survivors == primes_in_range(36, 120).tolist()
        assert len(survivors) == 19


class TestRowSampling:
    def test_statistics_bookkeeping(self, toy_frame, toy_sieved):
        stats = sample_rows(
            toy_frame, toy_sieved, trials=200, rng=derive_random(0, "maier-rows")
        )
        offsets = toy_sieved.members().tolist()
        assert sorted(stats.hit_counts) == offsets
        total = sum(stats.hit_counts.values())
        assert stats.mean_primes == pytest.approx(total / 200)
        assert stats.var_primes >= 0.0
        # the density heuristic puts a couple of primes in a typical row
        assert 1.2 <= stats.mean_primes <= 3.5
        for (a, b), c in stats.pair_counts.items():
            assert a in stats.hit_counts and b in stats.hit_counts
            assert c <= min(stats.hit_counts[a], stats.hit_counts[b])
        recomputed = [
            a
            for a in offsets
            if g.is_prime(toy_frame.row_value(stats.best_z, a), 48)
        ]
        assert recomputed == stats.best_prime_offsets
        assert stats.summary()["best_prime_count"] == len(recomputed)

    def test_reproducible(self, toy_frame, toy_sieved):
        a = sample_rows(
            toy_frame, toy_sieved, trials=40, rng=derive_random(7, "maier-rows")
        )
        b = sample_rows(
            toy_frame, toy_sieved, trials=40, rng=derive_random(7, "maier-rows")
        )
        assert a == b

    def test_guards(self, toy_frame, toy_sieved):
        rng = derive_random(0, "maier-guards")
        with pytest.raises(ValueError):
            sample_rows(toy_frame, toy_sieved, trials=0, rng=rng)
        # 38 bits per row index times D = 600 is 22,800 bits, over budget
        deep = assemble_frame(toy_frame.system, FrameWindow(x=36.0, y=120.0), D=600)
        with pytest.raises(ValueError, match="bits"):
            sample_rows(deep, toy_sieved, trials=1, rng=rng)
        with pytest.raises(ValueError, match="bits"):
            find_gap_chain(deep, toy_sieved, k=2, epsilon=0.01, trials=1, rng=rng)
        off_window = sift_interval(36, 119, toy_frame.system)
        with pytest.raises(ValueError, match="translates"):
            sample_rows(toy_frame, off_window, trials=1, rng=rng)


def random_system(x, seed):
    rng = derive_rng(seed, "maier-classes")
    entries = {
        int(p): int(rng.integers(0, int(p))) for p in primes_in_range(1, x).tolist()
    }
    return ResidueSystem(entries)


def oracle_row(frame, T, z):
    return [
        a for a in T.members().tolist() if g.is_prime(frame.row_value(z, a), 48)
    ]


class TestRowScan:
    def test_presieve_keeps_row_values_equal_to_their_prime(self):
        # rows of these frames hold values below PRESIEVE_LIMIT, some of them
        # primes in (x, PRESIEVE_LIMIT]; only their proper multiples may go.
        # Modulus 30: all 30 rows; modulus 30030: the later rows cross it.
        for x, y, rows in ((5.5, 40.0, range(1, 31)), (13.0, 60.0, range(1, 13))):
            for seed in (None, 1, 2, 3):
                system = zero_system(x) if seed is None else random_system(x, seed)
                frame = assemble_frame(system, FrameWindow(x=x, y=y))
                everything = SievedSet(
                    lo=frame.x, hi=frame.y,
                    bitmap=np.ones(frame.y - frame.x, dtype=bool),
                )
                for T in (sift_interval(frame.x, frame.y, system), everything):
                    scan = _row_scan(frame, T)
                    assert frame.row_value(1, frame.y) < PRESIEVE_LIMIT
                    for z in rows:
                        assert _row_primes(scan, z) == oracle_row(frame, T, z)

    @pytest.mark.parametrize("x, y, seed", [(36.0, 120.0, 5), (150.0, 600.0, 5)])
    def test_row_primes_match_is_prime(self, x, y, seed, monkeypatch):
        system = random_system(x, seed)
        frame = assemble_frame(system, FrameWindow(x=x, y=y))
        T = sift_interval(frame.x, frame.y, system)
        scan = _row_scan(frame, T)
        rng = derive_random(seed, "row-scan-oracle")
        # the range the searches draw from: 2**64 at x=150, where a z of
        # up to 65 bits still spans three 30-bit limbs
        rows = [rng.randrange(1, frame.row_index_bound() + 1) for _ in range(6)]
        for z in rows:
            assert _row_primes(scan, z) == oracle_row(frame, T, z)

        # exactly the translates with no prime factor in (x, PRESIEVE_LIMIT]
        # reach a primality test: the proof at x=36, BPSW at x=150
        tested = []
        for name in ("is_prime", "bpsw"):
            test = getattr(maier, name)
            monkeypatch.setattr(
                maier, name, lambda n, test=test: tested.append(n) or test(n)
            )
        presieve = math.prod(primes_in_range(frame.x, PRESIEVE_LIMIT).tolist())
        for z in rows:
            tested.clear()
            _row_primes(scan, z)
            values = [frame.row_value(z, a) for a in T.members().tolist()]
            assert tested == [v for v in values if math.gcd(v, presieve) == 1]
            assert len(tested) < 0.6 * len(values)
            over = [v > DETERMINISTIC_MR_LIMIT for v in values]
            assert all(over) if x == 150.0 else not any(over)


def drawn_rows(monkeypatch):
    """Record every z that the searches hand to the row scan.

    sample_rows hands all of its rows to `_scan_rows` at once, whose
    forked workers call `_row_primes`, so a spy there alone would record
    in the workers; find_gap_chain calls `_row_primes` here, row by row.
    The `_scan_rows` spy scans its rows in this process.
    """
    seen = []
    scan_row = maier._row_primes
    monkeypatch.setattr(
        maier, "_scan_rows",
        lambda scan, zs: seen.extend(zs) or [scan_row(scan, z) for z in zs],
    )
    monkeypatch.setattr(
        maier, "_row_primes", lambda scan, z: seen.append(z) or scan_row(scan, z)
    )
    return seen


class TestShortRows:
    def test_row_index_bound(self, toy_frame):
        assert ROW_INDEX_BITS == 64
        # 38-bit modulus: the whole row space is drawn from
        assert toy_frame.row_index_bound() == toy_frame.row_space()
        deep = assemble_frame(toy_frame.system, FrameWindow(x=36.0, y=120.0), D=2)
        assert deep.row_space_bits() == 76
        assert deep.row_index_bound() == 2**64

    @pytest.mark.parametrize("x, y, bound", [
        (36.0, 120.0, 200560490130),  # the whole row space: the old stream
        (150.0, 600.0, 2**64),  # a 190-bit row space, capped
    ])
    def test_searches_draw_from_the_bound(self, x, y, bound, monkeypatch):
        system = random_system(x, 5)
        frame = assemble_frame(system, FrameWindow(x=x, y=y))
        T = sift_interval(frame.x, frame.y, system)
        assert frame.row_index_bound() == bound
        seen = drawn_rows(monkeypatch)
        sample_rows(frame, T, trials=12, rng=derive_random(5, "maier-rows"))
        find_gap_chain(frame, T, k=40, epsilon=0.01, trials=12,
                       rng=derive_random(5, "maier-search"))
        # sample_rows draws its survivor pairs first, then one z per row
        rng = derive_random(5, "maier-rows")
        for _ in range(PAIR_SAMPLE):
            rng.sample(T.members().tolist(), 2)
        want = [rng.randrange(1, bound + 1) for _ in range(12)]
        rng = derive_random(5, "maier-search")
        want += [rng.randrange(1, bound + 1) for _ in range(12)]
        assert seen == want
        assert all(1 <= z <= bound for z in seen)
        assert max(seen) > bound >> 4  # spread over the range, not a corner


def random_frame(x, y):
    system = random_system(x, 5)
    frame = assemble_frame(system, FrameWindow(x=x, y=y))
    return frame, sift_interval(frame.x, frame.y, system)


def parent_scans(monkeypatch):
    """Count the `_row_primes` calls made in this process, not in workers."""
    calls = []
    scan_row = maier._row_primes
    monkeypatch.setattr(
        maier, "_row_primes", lambda scan, z: calls.append(z) or scan_row(scan, z)
    )
    return calls


def stats_in_daemon_worker(x, y, trials):
    frame, T = random_frame(x, y)
    calls = []
    scan_row = maier._row_primes
    maier._row_primes = lambda scan, z: calls.append(z) or scan_row(scan, z)
    stats = sample_rows(frame, T, trials, derive_random(5, "maier-rows"))
    return stats, len(calls)


class TestParallelRowScan:
    @pytest.mark.parametrize("x, y", [(36.0, 120.0), (150.0, 600.0)])
    def test_blocks_come_back_in_row_order(self, x, y, monkeypatch):
        frame, T = random_frame(x, y)
        scan = _row_scan(frame, T)
        rng = derive_random(9, "parallel-scan")
        zs = [rng.randrange(1, frame.row_index_bound() + 1) for _ in range(25)]
        want = [_row_primes(scan, z) for z in zs]
        calls = parent_scans(monkeypatch)
        # 3 workers share 25 rows, on any number of CPUs
        for cpus in (1, _fork.usable_cpus(), 3):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            calls.clear()
            assert _scan_rows(scan, zs) == want
            # one CPU scans here; more fork workers and scan nothing here
            assert len(calls) == (len(zs) if cpus == 1 else 0)

    @pytest.mark.parametrize("x, y, trials", [(36.0, 120.0, 200), (150.0, 600.0, 48)])
    def test_statistics_do_not_depend_on_the_cpus(self, x, y, trials, monkeypatch):
        frame, T = random_frame(x, y)
        got = {}
        for cpus in (1, _fork.usable_cpus(), 3):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            got[cpus] = sample_rows(frame, T, trials, derive_random(5, "maier-rows"))
        serial = got.pop(1)
        for stats in got.values():
            for f in dataclasses.fields(stats):
                assert getattr(stats, f.name) == getattr(serial, f.name), f.name

    def test_daemonic_worker_scans_serially(self):
        x, y, trials = 36.0, 120.0, 40
        frame, T = random_frame(x, y)
        want = sample_rows(frame, T, trials, derive_random(5, "maier-rows"))
        # pool workers are daemonic and may not start processes of their own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            job = pool.apply_async(stats_in_daemon_worker, (x, y, trials))
            stats, calls = job.get(timeout=60)
        assert stats == want
        assert calls == trials

    def test_other_fallbacks_scan_serially(self, monkeypatch):
        frame, T = random_frame(36.0, 120.0)
        scan = _row_scan(frame, T)
        zs = list(range(1, 13))
        want = [_row_primes(scan, z) for z in zs]
        calls = parent_scans(monkeypatch)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)

        def no_pool(*args, **kwargs):
            raise OSError("no processes left")

        with monkeypatch.context() as m:
            m.setattr(multiprocessing.context.ForkContext, "Process", no_pool)
            assert _scan_rows(scan, zs) == want
        assert calls == zs
        calls.clear()
        # a fork that fails after one worker started: that worker is
        # stopped and the rows are scanned here
        started = []
        fork_process = multiprocessing.context.ForkProcess

        def second_fork_fails(ctx, *args, **kwargs):
            if started:
                raise OSError("no processes left")
            started.append(fork_process(*args, **kwargs))
            return started[0]

        with monkeypatch.context() as m:
            m.setattr(multiprocessing.context.ForkContext, "Process", second_fork_fails)
            assert _scan_rows(scan, zs) == want
        assert calls == zs
        assert len(started) == 1 and started[0].exitcode is not None
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
            assert _scan_rows(scan, zs) == want
        assert calls == zs
        calls.clear()
        # forking while another thread runs can deadlock the child
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert _scan_rows(scan, zs) == want
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert calls == zs
        calls.clear()
        assert _scan_rows(scan, zs) == want
        assert calls == []

    def test_a_dying_worker_raises_and_leaves_no_child(self):
        # nothing finishes the item a killed worker held, so a pool that
        # missed the death would wait forever: a child process with a
        # timeout turns such a hang into a failure
        code = textwrap.dedent(
            """
            import multiprocessing, os, signal
            from concurrent.futures.process import BrokenProcessPool
            from gapchain import _fork

            _fork.usable_cpus = lambda: 2

            def item_3_kills_its_worker(state, item):
                if item == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                return state * item

            try:
                _fork.fork_map(item_3_kills_its_worker, list(range(8)), 10)
            except BrokenProcessPool:
                print("raised", len(multiprocessing.active_children()))
            print(_fork.fork_map(item_3_kills_its_worker, [1, 2], 10))
            """
        )
        src = str(Path(g.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # no child left running, and the next map still runs
        assert proc.stdout.splitlines() == ["raised 0", "[10, 20]"]


class TestGapChainSearch:
    def test_library_version_is_the_package_version(self, toy_certificate):
        # one version source: an installed and a checked-out gapchain must
        # write the same certificate bytes
        assert toy_certificate.library_version == g.__version__

    def test_certificate_contents(self, toy_frame, toy_certificate):
        cert = toy_certificate
        assert cert.version == CERTIFICATE_VERSION
        assert (cert.x, cert.y) == (36, 120)
        assert cert.modulus_str == "200560490130"
        assert cert.offset_str == "0"
        assert cert.k == 2 and cert.epsilon == 0.01
        assert cert.seed == 5
        assert 1 <= cert.trials_used <= 400
        ps = cert.prime_offsets
        assert len(ps) >= 3
        assert all(b > a for a, b in zip(ps, ps[1:]))
        assert 36 < ps[0] and ps[-1] <= 120
        gaps = [b - a for a, b in zip(ps, ps[1:])]
        assert cert.min_gap == min(gaps)
        assert cert.min_gap >= 0.01 * 120
        z = int(cert.z_str)
        for a in ps:
            assert g.is_prime(z * 200560490130 + a, 48)
        covered = sorted(int(e["offset"]) for e in cert.evidence)
        assert covered == [
            a for a in range(ps[0] + 1, ps[-1]) if a not in set(ps)
        ]
        kinds = {e["kind"] for e in cert.evidence}
        assert kinds <= {
            "gcd_with_modulus",
            "explicit_factor",
            "miller_rabin_witness",
        }
        assert "gcd_with_modulus" in kinds
        assert cert.policy["mr_rounds"] == 48

    def test_verifier_accepts_and_roundtrips(self, toy_certificate):
        assert verify_certificate(toy_certificate)
        text = toy_certificate.to_json()
        assert text == toy_certificate.to_json()  # byte-stable
        again = GapChainCertificate.from_json(text)
        assert again == toy_certificate
        assert verify_certificate(again)

    def test_from_json_leaves_values_to_the_verifier(self, toy_certificate):
        # the parser checks the key set only (see the CLI tests); a value
        # of the wrong type reaches the verifier and is rejected there
        raw = json.loads(toy_certificate.to_json())
        raw["prime_offsets"] = "37"
        rejects(GapChainCertificate.from_json(json.dumps(raw)),
                "not a list of integers")

    def test_search_reproducible(self, toy_frame, toy_sieved, toy_certificate):
        again = find_gap_chain(
            toy_frame,
            toy_sieved,
            k=2,
            epsilon=0.01,
            trials=400,
            rng=derive_random(5, "maier-search"),
            seed=5,
        )
        assert again == toy_certificate

    def test_miss_report(self, toy_frame, toy_sieved):
        # nineteen simultaneous prime translates will not happen in 3 rows
        out = find_gap_chain(
            toy_frame,
            toy_sieved,
            k=18,
            epsilon=0.01,
            trials=3,
            rng=derive_random(1, "maier-miss"),
        )
        assert isinstance(out, MissReport)
        assert out.trials == 3 and out.k == 18
        assert 0 <= out.best_prime_count < 19
        int(out.best_z_str)  # decimal string

    def test_listed_primes_get_the_full_rounds(self, monkeypatch):
        # with a search-time test that calls every presieve survivor prime,
        # only the full-round confirmation keeps composites off the list
        system = random_system(150.0, 5)
        frame = assemble_frame(system, FrameWindow(x=150.0, y=600.0))
        T = sift_interval(frame.x, frame.y, system)

        def search():
            return find_gap_chain(
                frame, T, k=3, epsilon=0.001, trials=400,
                rng=derive_random(5, "maier-search"), seed=5,
            )

        honest = search()
        assert isinstance(honest, GapChainCertificate)
        monkeypatch.setattr(maier, "bpsw", lambda n: True)
        assert search() == honest
        assert verify_certificate(honest)
        z = int(honest.z_str)
        for a in honest.prime_offsets:
            res = g.is_prime(frame.row_value(z, a), 48)
            assert res.verdict == "probable_prime" and res.rounds == 48

    def test_search_validation(self, toy_frame, toy_sieved):
        rng = derive_random(0, "maier-bad")
        for rounds in (0, MIN_MR_ROUNDS - 1, MAX_MR_ROUNDS + 1):
            with pytest.raises(ValueError, match="mr_rounds"):
                find_gap_chain(toy_frame, toy_sieved, k=2, epsilon=0.01,
                               trials=1, rng=rng, mr_rounds=rounds)
        with pytest.raises(ValueError):
            find_gap_chain(toy_frame, toy_sieved, k=0, epsilon=0.01, trials=1, rng=rng)
        with pytest.raises(ValueError):
            find_gap_chain(toy_frame, toy_sieved, k=2, epsilon=1.0, trials=1, rng=rng)
        with pytest.raises(ValueError):
            find_gap_chain(toy_frame, toy_sieved, k=2, epsilon=0.0, trials=1, rng=rng)
        for trials in (0, -3):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                find_gap_chain(toy_frame, toy_sieved, k=2, epsilon=0.01,
                               trials=trials, rng=rng)


class TestVerifierRejections:
    def evidence_item(self, cert, want):
        z = int(cert.z_str)
        modulus = int(cert.modulus_str)
        offset = int(cert.offset_str)
        for i, e in enumerate(cert.evidence):
            value = z * modulus + offset + int(e["offset"])
            if want(int(e["offset"]), value, e):
                return i, value
        raise AssertionError("certificate lacks the evidence shape needed")

    def test_version(self, toy_certificate):
        bad = mutated(toy_certificate, lambda r: r.update(version="2"))
        rejects(bad, "unsupported certificate version")

    def test_excluded_modulus(self, toy_certificate):
        bad = mutated(toy_certificate, lambda r: r.update(excluded_prime=4))
        rejects(bad, "not 1 or prime")
        # a prime below x shrinks the recomputed primorial product
        wrong = mutated(toy_certificate, lambda r: r.update(excluded_prime=31))
        rejects(wrong, "modulus does not match")
        # primes above x never meet the modulus recomputation: rejected by
        # range before any primality test, however long they are
        for prime in (37, 2**4253 - 1):  # the next prime after x; a Mersenne prime
            above = mutated(toy_certificate, lambda r: r.update(excluded_prime=prime))
            t0 = time.perf_counter()
            rejects(above, "neither 1 nor in [2, x = 36]")
            assert time.perf_counter() - t0 < 0.1

    def test_modulus_and_offset_ranges(self, toy_certificate):
        bad = mutated(
            toy_certificate, lambda r: r.update(modulus_str="200560490131")
        )
        rejects(bad, "modulus does not match")
        m = toy_certificate.modulus_str
        bad = mutated(toy_certificate, lambda r: r.update(offset_str=m))
        rejects(bad, "offset outside")
        bad = mutated(toy_certificate, lambda r: r.update(z_str="0"))
        rejects(bad, "row index outside")

    def test_listed_prime_shape(self, toy_certificate):
        def truncate(r):
            r["prime_offsets"] = r["prime_offsets"][: r["k"]]

        rejects(mutated(toy_certificate, truncate), "listed primes")

        def swap(r):
            ps = r["prime_offsets"]
            ps[0], ps[1] = ps[1], ps[0]

        rejects(mutated(toy_certificate, swap), "not strictly increasing")

        def leave_window(r):
            r["prime_offsets"][0] = 20

        rejects(mutated(toy_certificate, leave_window), "leave the window")
        for k in (0, -1):
            bad = mutated(toy_certificate, lambda r: r.update(k=k))
            rejects(bad, "k = ")

    def test_composite_listed_as_prime(self, toy_certificate):
        # promoting any evidenced offset to the prime list must be caught
        a = int(toy_certificate.evidence[0]["offset"])

        def promote(r):
            r["prime_offsets"] = sorted(set(r["prime_offsets"]) | {a})

        rejects(mutated(toy_certificate, promote), "is composite")

    def test_gap_bookkeeping(self, toy_certificate):
        bad = mutated(
            toy_certificate,
            lambda r: r.update(min_gap=toy_certificate.min_gap + 1),
        )
        rejects(bad, "differs from recomputed")
        greedy = mutated(toy_certificate, lambda r: r.update(epsilon=0.9))
        rejects(greedy, "below the demand")
        for eps in (-1.0, 0.0, 1.0):
            bad = mutated(toy_certificate, lambda r: r.update(epsilon=eps))
            rejects(bad, "outside (0, 1)")

    def test_evidence_coverage(self, toy_certificate):
        def duplicate(r):
            r["evidence"].append(dict(r["evidence"][0]))

        rejects(mutated(toy_certificate, duplicate), "duplicate evidence")

        def drop(r):
            del r["evidence"][0]

        rejects(mutated(toy_certificate, drop), "no compositeness evidence")

        def stray(r):
            top = r["prime_offsets"][-1]
            r["evidence"].append(
                {"offset": top + 1, "kind": "explicit_factor", "witness": "2"}
            )

        rejects(mutated(toy_certificate, stray), "outside the window")

    def test_bad_shared_factor(self, toy_certificate):
        i, _ = self.evidence_item(
            toy_certificate, lambda a, v, e: e["kind"] == "gcd_with_modulus"
        )

        def weaken(r):
            r["evidence"][i]["witness"] = "4"  # modulus is squarefree

        rejects(mutated(toy_certificate, weaken), "bad shared-factor evidence")

    def test_bad_explicit_factor(self, toy_certificate):
        i, _ = self.evidence_item(toy_certificate, lambda a, v, e: v % 2 == 1)

        def fake(r):
            r["evidence"][i]["kind"] = "explicit_factor"
            r["evidence"][i]["witness"] = "6"  # cannot divide an odd value

        rejects(mutated(toy_certificate, fake), "bad factor evidence")

    def test_mr_base_that_witnesses_nothing(self, toy_certificate):
        i, value = self.evidence_item(
            toy_certificate, lambda a, v, e: v % 2 == 1
        )

        def lie(r):
            r["evidence"][i]["kind"] = "miller_rabin_witness"
            r["evidence"][i]["witness"] = str(value - 1)  # always passes

        rejects(mutated(toy_certificate, lie), "does not witness")

    def test_mr_on_even_value(self, toy_certificate):
        i, _ = self.evidence_item(toy_certificate, lambda a, v, e: v % 2 == 0)

        def evenness(r):
            r["evidence"][i]["kind"] = "miller_rabin_witness"

        rejects(mutated(toy_certificate, evenness), "trivially even")

    def test_unknown_kind(self, toy_certificate):
        def rename(r):
            r["evidence"][0]["kind"] = "oracle"

        rejects(mutated(toy_certificate, rename), "unknown evidence kind")

    def test_round_policy(self, toy_certificate):
        def policy(**kw):
            return mutated(toy_certificate, lambda r: r.update(policy=kw))

        rejects(policy(), "policy states no mr_rounds")
        rejects(mutated(toy_certificate, lambda r: r.update(policy=[48])),
                "policy states no mr_rounds")
        for rounds in ("48", 48.0, True, None):
            rejects(policy(mr_rounds=rounds), "is not an integer")
        for rounds in (0, 1, MIN_MR_ROUNDS - 1, MAX_MR_ROUNDS + 1):
            rejects(policy(mr_rounds=rounds), f"mr_rounds = {rounds} outside")
        # a certificate may raise the round count, never lower it
        for rounds in (MIN_MR_ROUNDS + 16, MAX_MR_ROUNDS):
            assert verify_certificate(policy(mr_rounds=rounds))

    def test_field_types(self, toy_certificate):
        replace = dataclasses.replace
        for name, value in (("x", "36"), ("y", 120.0), ("D", "1"), ("k", None),
                            ("excluded_prime", 1.0), ("min_gap", "7")):
            rejects(replace(toy_certificate, **{name: value}),
                    f"{name} = {value!r} is not an integer")
        rejects(replace(toy_certificate, epsilon="0.01"), "is not a number")
        rejects(replace(toy_certificate, prime_offsets=["37"]),
                "not a list of integers")
        rejects(replace(toy_certificate, evidence=[{"kind": "explicit_factor"}]),
                "integer offsets")
        rejects(replace(toy_certificate, offset_str="0x0"), "not a decimal integer")
        rejects(replace(toy_certificate, z_str="-1"), "not a decimal integer")
        for witness in ("not-a-number", "", "1e3", 7, None):
            def edit(r, witness=witness):
                r["evidence"][0]["witness"] = witness

            rejects(mutated(toy_certificate, edit), "is not a decimal integer")

    def test_gap_demand(self, toy_certificate):
        # epsilon * y as a float product overflowed for y beyond 1e308
        huge = dataclasses.replace(toy_certificate, y=10**400)
        rejects(huge, "window end y has 1329 bits, beyond a float")
        # the demand is the search's float product: 0.01 * 100 g rounds to
        # g, although the binary 0.01 times 100 g exceeds g
        g = toy_certificate.min_gap
        assert 0.01 * (100 * g) == g
        at_demand = dataclasses.replace(toy_certificate, y=100 * g)
        assert verify_certificate(at_demand)

    def test_row_budget(self, toy_certificate):
        replace = dataclasses.replace
        rejects(replace(toy_certificate, D=0), "D = 0 is below 1")
        # 38 bits per row index times D = 600 is 22,800 bits
        rejects(replace(toy_certificate, D=600), "over the budget")
        rejects(replace(toy_certificate, x=10**9), "over the row budget")
