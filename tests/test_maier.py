"""Translation frames, row sampling, and gap-chain certificates.

The verifier tests work by mutating a genuine certificate's JSON form one
field at a time and asserting both the rejection and the named reason.
"""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle
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
from gapchain import _fork, maier, nt
from gapchain.maier import (
    CERTIFICATE_VERSION,
    MAX_MR_ROUNDS,
    MIN_MR_ROUNDS,
    PRESIEVE_LIMIT,
    ROUND_BLOCK,
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
        # the verifier's floor: a frame at 2 < x < 3 found a chain whose
        # certificate the verifier rejected
        with pytest.raises(ValueError, match="window start x = 2.5 is below 3"):
            FrameWindow(x=2.5, y=10.0)
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

    def test_non_finite_window_end_is_refused(self):
        # assemble_frame used to fail later with an OverflowError from
        # math.floor; the CLI's getfloat guarded only its own options
        for y in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"window end y = {y} must be finite"):
                FrameWindow(x=36.0, y=y)

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

    def test_offset_wrong_modulo_one_prime_is_refused(self, monkeypatch):
        # moved by the CRT unit of 149 (1 mod 149, 0 mod every other prime
        # of the system), the offset is wrong modulo 149 alone; the two
        # residues of 149 it confuses both miss the first 64 window values,
        # so a sampled check of those values accepted it
        system = random_system(150.0, 5)
        crt_offset = maier._crt_offset

        def off_by_149(items, modulus):
            cofactor = modulus // 149
            unit = cofactor * pow(cofactor, -1, 149)
            return (crt_offset(items, modulus) + unit) % modulus

        monkeypatch.setattr(maier, "_crt_offset", off_by_149)
        with pytest.raises(AssertionError, match=r"offset \+ a_p for p in \[149\]"):
            assemble_frame(system, FrameWindow(x=150.0, y=600.0))

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

    def test_row_exponent_is_refused(self):
        # frames have no row exponent; a third argument of 1 still builds
        window = FrameWindow(x=13.0, y=60.0)
        assert assemble_frame(zero_system(13), window, 1).modulus == 30030
        for D in (0, 2):
            with pytest.raises(ValueError, match=f"row exponent D = {D} is refused"):
                assemble_frame(zero_system(13), window, D=D)

    def test_modulus_over_the_budget_is_refused(self, toy_frame, monkeypatch):
        # the frame that builds the modulus checks its bits, once
        monkeypatch.setattr(maier, "DEFAULT_Z_BIT_BUDGET", 37)
        window = FrameWindow(x=36.0, y=120.0)  # x itself is within 37
        with pytest.raises(ValueError, match="needs 38 bits, over the budget of 37"):
            assemble_frame(toy_frame.system, window)

    def test_partition_serves_as_window(self, small_partition):
        frame = assemble_frame(zero_system(400), small_partition)
        assert (frame.x, frame.y) == (400, 6_000)
        assert frame.modulus == math.prod(primes_in_range(1, 400).tolist())
        assert maier.row_index_bound(frame.modulus) == 2**64

    def test_toy_frame_anatomy(self, toy_frame, toy_sieved):
        assert toy_frame.modulus == 200560490130
        assert toy_frame.modulus.bit_length() == 38
        # the all-zero sieve leaves exactly the primes of the window
        survivors = toy_sieved.members().tolist()
        assert survivors == primes_in_range(36, 120).tolist()
        assert len(survivors) == 19


class TestRowSampling:
    def test_statistics_bookkeeping(self, toy_frame, toy_sieved, monkeypatch):
        # the statistics are those of the prime counts of exactly the rows
        # z = rng.randrange(1, Z + 1) drawn trials times, and nothing else
        trials, Z = 200, maier.row_index_bound(toy_frame.modulus)
        rng = derive_random(0, "maier-rows")
        zs = [rng.randrange(1, Z + 1) for _ in range(trials)]
        scan = _row_scan(toy_frame, toy_sieved)
        counts = [len(_row_primes(scan, z)) for z in zs]
        mean = sum(counts) / trials
        want = {
            "trials": trials,
            "mean_primes": mean,
            "var_primes": sum(n * n for n in counts) / trials - mean * mean,
            "best_prime_count": max(counts),
        }
        for cpus in (1, 2):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            drawn = derive_random(0, "maier-rows")
            stats = sample_rows(toy_frame, toy_sieved, trials, drawn)
            assert stats.summary() == want
            assert drawn.getstate() == rng.getstate()  # the rows and no more
        assert want["var_primes"] > 0
        # the density heuristic puts a couple of primes in a typical row
        assert 1.2 <= stats.mean_primes <= 3.5

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
        off_window = sift_interval(36, 119, toy_frame.system)
        with pytest.raises(ValueError, match="translates"):
            sample_rows(toy_frame, off_window, trials=1, rng=rng)

    def test_a_sample_over_the_byte_cap_is_refused_before_the_draw(
        self, toy_frame, toy_sieved, monkeypatch
    ):
        # 10**9 rows used to be drawn into one list of ints first
        rng = derive_random(0, "maier-rows")
        state = rng.getstate()
        with pytest.raises(
            nt.MatrixTooLarge,
            match=r"a sample of trials = 1000000000 rows would need 2\.56e\+11 bytes",
        ):
            sample_rows(toy_frame, toy_sieved, trials=10**9, rng=rng)
        assert rng.getstate() == state
        # at a row size of a 40th of the cap, 40 rows fit and 41 do not
        monkeypatch.setattr(maier, "ROW_SAMPLE_BYTES", nt.MAX_BYTES // 40)
        assert sample_rows(toy_frame, toy_sieved, trials=40, rng=rng).trials == 40
        with pytest.raises(nt.MatrixTooLarge, match="a sample of trials = 41 rows"):
            sample_rows(toy_frame, toy_sieved, trials=41, rng=rng)


def random_system(x, seed):
    rng = derive_rng(seed, "maier-classes")
    entries = {
        int(p): int(rng.integers(0, int(p))) for p in primes_in_range(1, x).tolist()
    }
    return ResidueSystem(entries)


def oracle_row(scan, z):
    return [
        a for a in scan.offsets.tolist()
        if g.is_prime(scan.frame.row_value(z, a), 48)
    ]


def every_offset(scan):
    """`scan` over every t of its window, survivor or not: `_row_scan`
    refuses any set but the frame's own, so the offsets are swapped in."""
    x, y = scan.frame.x, scan.frame.y
    return dataclasses.replace(scan, offsets=np.arange(x + 1, y + 1, dtype=np.int64))


class TestRowScan:
    def test_presieve_keeps_row_values_equal_to_their_prime(self):
        # rows of these frames hold values below PRESIEVE_LIMIT, some of them
        # primes in (x, PRESIEVE_LIMIT]; only their proper multiples may go.
        # Modulus 30: all 30 rows; modulus 30030: the later rows cross it.
        for x, y, rows in ((5.5, 40.0, range(1, 31)), (13.0, 60.0, range(1, 13))):
            for seed in (None, 1, 2, 3):
                system = zero_system(x) if seed is None else random_system(x, seed)
                frame = assemble_frame(system, FrameWindow(x=x, y=y))
                survivors = _row_scan(frame, sift_interval(frame.x, frame.y, system))
                for scan in (survivors, every_offset(survivors)):
                    assert frame.row_value(1, frame.y) < PRESIEVE_LIMIT
                    for z in rows:
                        assert _row_primes(scan, z) == oracle_row(scan, z)

    @pytest.mark.parametrize("x, y, seed", [(36.0, 120.0, 5), (150.0, 600.0, 5)])
    def test_row_primes_match_is_prime(self, x, y, seed, monkeypatch):
        frame, T = random_frame(x, y, seed)
        rng = derive_random(seed, "row-scan-oracle")
        # the range the searches draw from: 2**64 at x=150
        rows = [rng.randrange(1, maier.row_index_bound(frame.modulus) + 1)
                for _ in range(6)]
        assert_rows_match_oracle(_row_scan(frame, T), rows, monkeypatch)

    def test_edge_row_indices(self, monkeypatch):
        # 2**64, the top row index at x=150, is the one drawable z that
        # does not fit a uint64; the second pass scans every slot, the
        # last one (offset y) included
        frame, T = random_frame(150.0, 600.0, 5)
        assert maier.row_index_bound(frame.modulus) == 2**64
        survivors = _row_scan(frame, T)
        for scan in (survivors, every_offset(survivors)):
            assert_rows_match_oracle(scan, [1, 2**64 - 1, 2**64], monkeypatch)


def assert_rows_match_oracle(scan, rows, monkeypatch):
    """`_row_primes` equals `oracle_row` on every row, and exactly the
    translates with no prime factor in (x, PRESIEVE_LIMIT] reach a
    primality test, in order: the proof at x=36, BPSW at x=150."""
    frame = scan.frame
    for z in rows:
        assert _row_primes(scan, z) == oracle_row(scan, z)
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
        values = [frame.row_value(z, a) for a in scan.offsets.tolist()]
        assert tested == [v for v in values if math.gcd(v, presieve) == 1]
        assert len(tested) < 0.6 * len(values)
        over = [v > DETERMINISTIC_MR_LIMIT for v in values]
        assert all(over) if frame.x == 150 else not any(over)


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
        # 38-bit modulus: z <= P, so x = 36 row values stay below 2**76
        assert maier.row_index_bound(toy_frame.modulus) == toy_frame.modulus
        assert toy_frame.row_value(toy_frame.modulus, 120) < DETERMINISTIC_MR_LIMIT
        for modulus in (2**64 - 1, 2**64, 2**64 + 1, 2**190):
            assert maier.row_index_bound(modulus) == min(modulus, 2**64)

    @pytest.mark.parametrize("x, y, bound", [
        (36.0, 120.0, 200560490130),  # z <= P: the x = 36 stream
        (150.0, 600.0, 2**64),  # a 190-bit modulus, capped
    ])
    def test_searches_draw_from_the_bound(self, x, y, bound, monkeypatch):
        system = random_system(x, 5)
        frame = assemble_frame(system, FrameWindow(x=x, y=y))
        T = sift_interval(frame.x, frame.y, system)
        assert maier.row_index_bound(frame.modulus) == bound
        seen = drawn_rows(monkeypatch)
        sample_rows(frame, T, trials=12, rng=derive_random(5, "maier-rows"))
        find_gap_chain(frame, T, k=40, epsilon=0.01, trials=12,
                       rng=derive_random(5, "maier-search"))
        # each search draws one z per row and nothing else
        rng = derive_random(5, "maier-rows")
        want = [rng.randrange(1, bound + 1) for _ in range(12)]
        rng = derive_random(5, "maier-search")
        want += [rng.randrange(1, bound + 1) for _ in range(12)]
        assert seen == want
        assert all(1 <= z <= bound for z in seen)
        assert max(seen) > bound >> 4  # spread over the range, not a corner


def random_frame(x, y, seed=5):
    system = random_system(x, seed)
    frame = assemble_frame(system, FrameWindow(x=x, y=y))
    return frame, sift_interval(frame.x, frame.y, system)


class TestSievedSetCheck:
    @pytest.mark.parametrize("x, y", [(36.0, 120.0), (150.0, 600.0), (400.0, 2000.0)])
    def test_both_searches_refuse_a_set_of_other_classes(self, x, y):
        # the seed-6 set on the seed-5 x=36 frame used to be searched to
        # a miss report, and its row sample read a mean of 0.0 primes
        frame, T = random_frame(x, y, 5)
        alive, dead = np.flatnonzero(T.bitmap), np.flatnonzero(~T.bitmap)
        bad_sets = [sift_interval(frame.x, frame.y, random_system(x, 6))]
        for i in (alive[alive.size // 2], dead[dead.size // 2]):  # each way
            bitmap = T.bitmap.copy()
            bitmap[i] ^= True
            bad_sets.append(SievedSet(lo=T.lo, hi=T.hi, bitmap=bitmap))
        for bad in bad_sets:
            window = range(frame.x + 1, frame.y + 1)
            t = next(t for t in window if (t in bad) != (t in T))
            kind = "a survivor in a class" if t in bad else "struck but in no class"
            named = f"does not match the frame at t = {t}: {kind}"
            rng = derive_random(5, "maier-rows")
            state = rng.getstate()
            with pytest.raises(ValueError, match=named):
                sample_rows(frame, bad, trials=1, rng=rng)
            with pytest.raises(ValueError, match=named):
                find_gap_chain(frame, bad, k=2, epsilon=0.01, trials=1, rng=rng)
            assert rng.getstate() == state  # refused before any row is drawn


def parent_scans(monkeypatch):
    """Count the `_row_primes` calls made in this process, not in workers."""
    calls = []
    scan_row = maier._row_primes
    monkeypatch.setattr(
        maier, "_row_primes", lambda scan, z: calls.append(z) or scan_row(scan, z)
    )
    return calls


def no_fork(*args):
    raise AssertionError("os.fork was called")


def stats_in_daemon_worker(x, y, trials):
    frame, T = random_frame(x, y)
    os.fork = no_fork  # a fork_map that forked would fail here, not fall back
    calls = []
    scan_row = maier._row_primes
    maier._row_primes = lambda scan, z: calls.append(z) or scan_row(scan, z)
    stats = sample_rows(frame, T, trials, derive_random(5, "maier-rows"))
    return stats, len(calls)


class TestParallelRowScan:
    @pytest.mark.parametrize("x, y", [(36.0, 120.0), (150.0, 600.0)])
    def test_blocks_come_back_in_row_order(self, x, y, monkeypatch, forked):
        frame, T = random_frame(x, y)
        scan = _row_scan(frame, T)
        rng = derive_random(9, "parallel-scan")
        zs = [rng.randrange(1, maier.row_index_bound(frame.modulus) + 1)
              for _ in range(25)]
        want = [_row_primes(scan, z) for z in zs]
        calls = parent_scans(monkeypatch)
        # 3 processes share 25 rows, on any number of CPUs
        for cpus in (1, _fork.usable_cpus(), 3):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            calls.clear()
            forked.clear()
            assert _scan_rows(scan, zs) == want
            # one CPU scans every row here; more scan some here and fork
            # one worker fewer than the CPUs
            assert len(forked) == cpus - 1
            assert len(calls) <= len(zs) and (cpus > 1 or calls == zs)

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

    def test_other_fallbacks_scan_serially(self, monkeypatch, forked):
        frame, T = random_frame(36.0, 120.0)
        scan = _row_scan(frame, T)
        zs = list(range(1, 13))
        want = [_row_primes(scan, z) for z in zs]
        calls = parent_scans(monkeypatch)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)

        def no_processes(*args):
            raise OSError("no processes left")

        for name in ("fork", "pipe"):
            with monkeypatch.context() as m:
                m.setattr(os, name, no_processes)
                assert _scan_rows(scan, zs) == want
            assert calls == zs
            calls.clear()
        # a fork that fails after one worker started: that worker is
        # killed and reaped, and the rows are scanned here
        started = []
        fork = os.fork

        def second_fork_fails():
            if started:
                raise OSError("no processes left")
            pid = fork()
            if pid:
                started.append(pid)
            return pid

        with monkeypatch.context() as m:
            m.setattr(os, "fork", second_fork_fails)
            assert _scan_rows(scan, zs) == want
        assert calls == zs
        assert len(started) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(started[0], os.WNOHANG)
        calls.clear()
        with monkeypatch.context() as m:  # a platform with no fork
            m.delattr(os, "fork")
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
        forked.clear()
        assert _scan_rows(scan, zs) == want
        assert len(forked) == 2

    def test_a_dying_worker_raises_and_leaves_no_child(self):
        # nothing finishes the items a killed worker held, so a map that
        # missed the death would wait forever: a child process with a
        # timeout turns such a hang into a failure
        code = textwrap.dedent(
            """
            import os, signal, time
            from gapchain import _fork

            _fork.usable_cpus = lambda: 2
            parent = os.getpid()

            def worker_dies(state, item):
                # the first item a forked worker takes kills it; here each
                # takes 10 ms, so the worker gets a chunk
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(0.01)
                return state * item

            try:
                _fork.fork_map(worker_dies, list(range(40)), 10)
            except _fork.WorkerLost:
                try:
                    print("raised, child left", os.waitpid(-1, os.WNOHANG))
                except ChildProcessError:  # every worker was reaped
                    print("raised")
            print(_fork.fork_map(lambda state, item: state * item, [1, 2], 10))
            """
        )
        src = str(Path(g.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # no child left running, and the next map still runs
        assert proc.stdout.splitlines() == ["raised", "[10, 20]"]

    def test_two_hundred_rows_in_guided_chunks(self, monkeypatch):
        # the benchmark's row sample: 200 rows at x = 150 go to 2 workers
        # as 16 chunks and give the statistics of a serial scan
        frame, T = random_frame(150.0, 600.0)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        serial = sample_rows(frame, T, 200, derive_random(5, "maier-rows"))
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        sent = fork_chunks(monkeypatch)
        assert sample_rows(frame, T, 200, derive_random(5, "maier-rows")) == serial
        assert [len(c) for c in sent] == [
            50, 38, 28, 21, 16, 12, 9, 7, 5, 4, 3, 2, 2, 1, 1, 1
        ]


def fork_chunks(monkeypatch):
    """The chunks of item indices that `fork_map` hands its workers, in order."""
    sent = []
    chunks_of = _fork._guided_chunks

    def recorded(n, workers):
        chunks = chunks_of(n, workers)
        sent.extend(list(range(a, b)) for a, b in chunks)
        return chunks

    monkeypatch.setattr(_fork, "_guided_chunks", recorded)
    return sent


class TestForkMap:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_guided_chunks_come_back_in_item_order(self, cpus, monkeypatch, forked):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        sent = fork_chunks(monkeypatch)

        def work(state, item):  # list results, some empty: none is flattened
            return [state * item] * (item % 3)

        for n in (0, 1, 2, 3, 4, 5, 9, 97, 200):
            items = list(range(n))
            sent.clear()
            forked.clear()
            assert _fork.fork_map(work, items, 10) == [work(10, i) for i in items]
            workers = min(cpus, n)
            assert len(forked) == max(workers - 1, 0)
            if workers < 2:
                assert sent == []  # run here
                continue
            # contiguous runs over every item, ceil(remaining / (2 workers))
            # long at most, ending in single items
            assert [i for chunk in sent for i in chunk] == items
            left = n
            for chunk in sent:
                assert 1 <= len(chunk) <= -(-left // (2 * workers))
                left -= len(chunk)
            assert len(sent[-1]) == 1
            if n == 200:
                assert len(sent) == {2: 16, 3: 23}[cpus]
            # each chunk runs in one process: this one or a worker
            sent.clear()
            forked.clear()
            pids = _fork.fork_map(lambda state, item: os.getpid(), items, None)
            assert all(len({pids[i] for i in chunk}) == 1 for chunk in sent)
            assert set(pids) <= {os.getpid(), *forked}

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_this_process_takes_a_share(self, cpus, monkeypatch, forked):
        # a worker sleeps on each item it takes, so this process takes the
        # chunks that come free meanwhile
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        parent = os.getpid()

        def work(state, item):
            if os.getpid() != parent:
                time.sleep(0.05)
            return os.getpid()

        pids = _fork.fork_map(work, list(range(4 * cpus)), None)
        assert len(forked) == cpus - 1
        assert parent in pids and set(pids) <= {parent, *forked}
        assert not _fork._in_worker

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_error_in_item_order_is_raised(self, cpus, monkeypatch):
        # at 2 workers item 5 sits in the first chunk (items 0-9) and item
        # 30 in the fifth (28-30); item 30 fails first, item 5's is raised
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)

        def work(state, item):
            if item == 5:
                time.sleep(0.3)
            if item in (5, 30):
                raise ValueError(item)
            return item

        with pytest.raises(ValueError) as err:
            _fork.fork_map(work, list(range(40)), None)
        assert err.value.args == (5,)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_results_larger_than_a_pipe_buffer_come_back_whole(self, cpus, monkeypatch):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)

        def mebibyte(state, item):  # 16 pipe buffers of 64 KiB each
            return bytes((item + i) % 256 for i in range(256)) * 4096

        got = _fork.fork_map(mebibyte, [1, 2, 3], None)
        assert got == [mebibyte(None, item) for item in (1, 2, 3)]

    def test_a_result_it_cannot_pickle_raises_and_leaves_no_child(self, monkeypatch):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        lock = threading.Lock()
        with pytest.raises(TypeError):
            pickle.dumps(lock)
        parent = os.getpid()

        def work(state, item):
            # a worker's results would need pickling; here each item
            # takes 10 ms, so the worker gets a chunk
            if os.getpid() != parent:
                return lock
            time.sleep(0.01)
            return item

        with pytest.raises(_fork.WorkerLost):
            _fork.fork_map(work, list(range(8)), None)
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
    def test_no_pipe_is_left_open(self, monkeypatch):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        parent = os.getpid()
        lock = threading.Lock()

        def work(state, item):
            if state == "error" and item == 5:
                raise ValueError(item)
            if state == "lost" and os.getpid() != parent:
                return lock  # a worker cannot send it back
            time.sleep(0.01)
            return item

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        assert _fork.fork_map(work, list(range(8)), None) == list(range(8))
        assert open_fds() == before
        with pytest.raises(ValueError):
            _fork.fork_map(work, list(range(8)), "error")
        assert open_fds() == before
        with pytest.raises(_fork.WorkerLost):
            _fork.fork_map(work, list(range(8)), "lost")
        assert open_fds() == before

    def test_an_interrupt_in_this_process_leaves_no_child(self, monkeypatch, forked):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)
        parent = os.getpid()

        def work(state, item):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(0.05)
            return item

        with pytest.raises(KeyboardInterrupt):
            _fork.fork_map(work, list(range(12)), None)
        assert len(forked) == 2 and not _fork._in_worker
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_map_inside_a_worker_runs_in_that_worker(self, monkeypatch):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)

        def inner_pids(state, item):
            return os.getpid(), _fork.fork_map(
                lambda state, item: os.getpid(), [1, 2, 3], None
            )

        got = _fork.fork_map(inner_pids, [1, 2, 3, 4], None)
        # this process runs its share like a worker, and is one again after
        assert all(inner == [outer] * 3 for outer, inner in got)
        assert not _fork._in_worker


def seed5_search(frame, T):
    # the search of `gapchain maier --seed 5` on its frame
    return find_gap_chain(frame, T, k=2, epsilon=0.01, trials=400,
                          rng=derive_random(5, "maier-search"), seed=5)


@pytest.fixture(scope="module")
def certificate150():
    found = seed5_search(*random_frame(150.0, 600.0, 5))
    assert isinstance(found, GapChainCertificate)
    assert len(found.prime_offsets) >= 2  # so the full rounds fork
    return found


class TestListedPrimeTests:
    def blocks_here(self, monkeypatch):
        """The values of the blocks of derived rounds run in this process."""
        calls = []
        rounds = nt.derived_rounds
        monkeypatch.setattr(
            nt, "derived_rounds", lambda n, a, b: calls.append(n) or rounds(n, a, b)
        )
        return calls

    def test_certificate_bytes_do_not_depend_on_the_cpus(self, monkeypatch):
        # sha256 of to_json(): the seed-5 certificates of the maier mode at
        # x = 36 and x = 150, and a k = 3 search on the benchmark's certify
        # frame of op seed 1000, which certifies on its fifth row
        toy, frame150 = random_frame(36.0, 120.0, 5), random_frame(150.0, 600.0, 5)
        certify = random_frame(150.0, 600.0, 1000)
        searches = {
            "a8b2bc181e4a22b155c57755bee8ef3ac1d3aceb69980123647f1aa0f2413295":
                lambda: seed5_search(*toy),
            "f1e575c7688451061a50181e66b3ef1d1c426ddd8750d0a735249e1ad9a7ba06":
                lambda: seed5_search(*frame150),
            "a5641994b05a3bec22a54c4b34bec1bcac0b6664679af6b7c186f05bf2977f3f":
                lambda: find_gap_chain(*certify, k=3, epsilon=0.01, trials=2000,
                                       rng=derive_random(1000, "maier-search"),
                                       seed=1000),
        }
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            for digest, search in searches.items():
                cert = search()
                assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest
        assert cert.trials_used == 5

    @pytest.mark.parametrize("x, y", [(36.0, 120.0), (150.0, 600.0)])
    def test_evidence_tests_run_in_the_full_round_map(self, x, y, monkeypatch):
        # every primality test behind the evidence is an is_prime call of
        # the map that gives the listed values their full rounds, and
        # _build_evidence, which only reads the map's results, tests nothing
        frame, T = random_frame(x, y, 5)
        want = seed5_search(frame, T)
        maps = []
        full_round_tests = maier._full_round_tests

        def recorded(values, rounds, calls=()):
            tests, out = full_round_tests(values, rounds, calls)
            maps.append((values, calls, out))
            return tests, out

        building = []
        build_evidence = maier._build_evidence

        def building_evidence(*args):
            building.append(True)
            try:
                return build_evidence(*args)
            finally:
                building.pop()

        def guarded(test):
            def run(*args):
                assert not building, f"{test.__name__} in _build_evidence"
                return test(*args)
            return run

        monkeypatch.setattr(maier, "_full_round_tests", recorded)
        monkeypatch.setattr(maier, "_build_evidence", building_evidence)
        for module in (maier, nt):
            for name in ("is_prime", "bpsw", "mr_composite_witness"):
                monkeypatch.setattr(module, name, guarded(getattr(module, name)))
        for name in ("settled", "derived_rounds", "strong_lucas"):
            monkeypatch.setattr(nt, name, guarded(getattr(nt, name)))
        assert seed5_search(frame, T) == want
        (values, calls, out), = maps  # the first row certifies
        z = int(want.z_str)
        assert values == [frame.row_value(z, a) for a in want.prime_offsets]
        tested = {call[1]: res for call, res in zip(calls, out)}
        assert all(call[2] == MIN_MR_ROUNDS for call in calls)
        for e in want.evidence:
            value = frame.row_value(z, e["offset"])
            if e["kind"] == "gcd_with_modulus":
                assert value not in tested
            else:
                assert e["witness"] == str(tested.pop(value).witness)
        assert not tested  # no test the evidence does not use

    def test_a_listed_value_the_full_rounds_drop_keeps_its_blocks_verdict(
        self, certificate150, monkeypatch, forked
    ):
        # BPSW lists one composite survivor of the seed-5 x = 150 row, and
        # its derived bases witness nothing before round 19: the full
        # rounds drop it, and its evidence is its blocks' merged verdict,
        # the witness of round 19, with no test of its own
        cert = certificate150
        frame, T = random_frame(150.0, 600.0, 5)
        z, ps = int(cert.z_str), cert.prime_offsets
        with monkeypatch.context() as m:
            m.setattr(maier, "bpsw", lambda n: True)
            presieved = _row_primes(_row_scan(frame, T), z)
        # a survivor the presieve keeps, whose listing keeps every gap >= 6
        moved = next(
            a for a in presieved if a not in ps and ps[0] < a < ps[-1]
            and min(abs(a - b) for b in ps) >= 0.01 * 600
        )
        target = frame.row_value(z, moved)
        derived, bpsw = nt._derived_mr_base, maier.bpsw
        monkeypatch.setattr(
            nt, "_derived_mr_base",
            lambda n, i: 1 if n == target and i < 19 else derived(n, i),
        )
        monkeypatch.setattr(maier, "bpsw", lambda n: n == target or bpsw(n))
        maps = []
        full_round_tests = maier._full_round_tests
        monkeypatch.setattr(
            maier, "_full_round_tests",
            lambda values, rounds, calls=(): maps.append((values, calls))
            or full_round_tests(values, rounds, calls),
        )
        witness = derived(target, 19)
        assert nt.mr_composite_witness(target, witness)
        evidence = [dict(e, witness=str(witness)) if e["offset"] == moved else e
                    for e in cert.evidence]
        assert dict(kind="miller_rabin_witness", offset=moved,
                    witness=str(witness)) in evidence
        for cpus in (1, 2):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            maps.clear()
            forked.clear()
            found = seed5_search(frame, T)
            assert found == dataclasses.replace(cert, evidence=evidence)
            assert len(forked) == cpus - 1
            (values, calls), = maps
            assert target in values
            assert target not in [call[1] for call in calls]
            assert verify_certificate(found)

    def test_verdicts_do_not_depend_on_the_cpus(
        self, certificate150, monkeypatch, forked
    ):
        cert = certificate150
        z, modulus = int(cert.z_str), int(cert.modulus_str)
        offset = int(cert.offset_str)
        # a composite survivor inside the chain: one the evidence proves by
        # a Miller-Rabin witness
        moved = next(e["offset"] for e in cert.evidence
                     if e["kind"] == "miller_rabin_witness")
        i = next(i for i, a in enumerate(cert.prime_offsets) if a > moved)
        witness = g.is_prime(z * modulus + offset + moved, MIN_MR_ROUNDS).witness

        def edit(raw):
            raw["prime_offsets"][i] = moved

        tampered = mutated(cert, edit)
        calls = self.blocks_here(monkeypatch)
        outcomes = {}
        for cpus in (1, 2):
            monkeypatch.setattr(_fork, "usable_cpus", lambda cpus=cpus: cpus)
            calls.clear()
            forked.clear()
            outcomes[cpus] = (verify_certificate(cert), verify_certificate(tampered))
            # one CPU runs every block of rounds here, six for each listed
            # value; two fork one worker for each verification's map
            blocks = 2 * len(cert.prime_offsets) * MIN_MR_ROUNDS // ROUND_BLOCK
            assert len(forked) == (0 if cpus == 1 else 2)
            assert len(calls) <= blocks and (cpus > 1 or len(calls) == blocks)
        assert outcomes[1] == outcomes[2]
        genuine, rejection = outcomes[2]
        assert genuine.accepted
        assert rejection.reason == (
            f"listed offset {moved} is composite (witness {witness})"
        )

    def test_proven_values_never_fork(self, toy_frame, toy_sieved, monkeypatch):
        # at x = 36 every listed value lies below DETERMINISTIC_MR_LIMIT
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", no_fork)
        cert = seed5_search(toy_frame, toy_sieved)
        assert isinstance(cert, GapChainCertificate)
        z = int(cert.z_str)
        assert all(toy_frame.row_value(z, a) < DETERMINISTIC_MR_LIMIT
                   for a in cert.prime_offsets)
        assert verify_certificate(cert)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("rounds", [MIN_MR_ROUNDS, 50, MAX_MR_ROUNDS])
    def test_round_blocks_merge_into_the_is_prime_result(
        self, rounds, cpus, monkeypatch
    ):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        primes = [p for p in range(2**253 + 1, 2**253 + 2000, 2) if nt.bpsw(p)][:2]
        assert all(p.bit_length() == 254 for p in primes) and len(primes) == 2
        values = [
            *primes,
            3 * primes[0],  # a trial factor: settled before any round
            primes[0] * primes[1],  # falls to its first derived base
            1_000_003, 2**61 - 1,  # proven without derived rounds
        ]
        tests, verdicts = maier._full_round_tests(
            values, rounds,
            [(nt.mr_composite_witness, values[3], 2), (nt.mr_composite_witness, primes[0], 2)],
        )
        assert tests == [g.is_prime(v, rounds) for v in values]
        assert [t.verdict for t in tests] == [
            "probable_prime", "probable_prime", "composite", "composite",
            "prime", "prime",
        ]
        assert [t.witness for t in tests] == [
            None, None, 3, nt.derived_mr_bases(values[3], 1)[0], None, None
        ]
        assert verdicts == [True, False]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_witness_in_a_later_block_is_the_one_reported(self, cpus, monkeypatch):
        # bases 1 witness nothing, so the first witness is in round 19,
        # the fourth round of the third block
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        derived = nt._derived_mr_base
        monkeypatch.setattr(
            nt, "_derived_mr_base", lambda n, i: 1 if i < 19 else derived(n, i)
        )
        p, q = (next(v for v in range(lo, lo + 2000, 2) if nt.bpsw(v))
                for lo in (2**127 + 1, 2**126 + 1))
        tests, _ = maier._full_round_tests([p * q, p], MIN_MR_ROUNDS)
        assert tests == [g.is_prime(p * q, MIN_MR_ROUNDS), g.is_prime(p, MIN_MR_ROUNDS)]
        assert tests[0].witness == derived(p * q, 19)
        assert tests[1] == g.PrimalityResult("probable_prime", "miller_rabin")

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_rejection_reasons_do_not_depend_on_the_cpus(
        self, certificate150, cpus, monkeypatch
    ):
        # the reasons of the verifier that ran its checks in one sequence,
        # before the one that keeps the failure of those that test no
        # primality and checks the witness bases in the rounds' map
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        listed_209 = (
            "listed offset 209 is composite (witness 78335897266221057467540956"
            "8503038231283545597473936822153848427281483035332)"
        )
        want = {
            "min_gap_plus_1": "recorded min_gap 45 differs from recomputed 44",
            "z_plus_1": "listed offset 179 is composite (witness 281)",
            "drop_first_evidence": "no compositeness evidence for offset 180",
            "k_zero": "chain length k = 0 is below 1",
            "epsilon_negative": "gap fraction epsilon = -1.0 outside (0, 1)",
            "mr_rounds_zero": "policy mr_rounds = 0 outside [48, 1024]",
            "witness_non_numeric":
                "witness 'not-a-number' at offset 180 is not a decimal integer",
            "x_string": "x = '150' is not an integer",
            "listed_on_composite": listed_209,
            "factor_off_by_one": "bad factor evidence at offset 269",
            "mr_base_one": "base 1 does not witness offset 209",
            "listed_on_composite_and_min_gap": listed_209,
            "mr_base_one_and_duplicate": "duplicate evidence offsets",
            # the search's certificates verified with any of these policies
            "deterministic_limit_7":
                "policy deterministic_limit is not the verifier's "
                "3317044064679887385961981",
            "no_deterministic_limit":
                "policy keys are not exactly mr_rounds and deterministic_limit",
            "deterministic_limit_x_and_extra_key":
                "policy keys are not exactly mr_rounds and deterministic_limit",
            "genuine": None,
        }
        got = {name: verify_certificate(bad).reason
               for name, bad in tampered(certificate150).items()}
        assert got == want


def tampered(cert):
    """Tampered copies of a certificate, by name: the benchmark's eight
    tamper probes, then single faults and pairs whose reported reason the
    verifier's check order fixes."""
    replace = dataclasses.replace
    ev, ps = cert.evidence, cert.prime_offsets

    def edited(i, **change):
        items = [dict(e) for e in ev]
        items[i].update(change)
        return items

    mr = next(i for i, e in enumerate(ev) if e["kind"] == "miller_rabin_witness")
    factor = next(i for i, e in enumerate(ev) if e["kind"] == "explicit_factor")
    # a listed offset moved onto the composite survivor that ev[mr] covers
    i = next(i for i, a in enumerate(ps) if a > ev[mr]["offset"])
    moved = [*ps[:i], ev[mr]["offset"], *ps[i + 1:]]
    return {
        "min_gap_plus_1": replace(cert, min_gap=cert.min_gap + 1),
        "z_plus_1": replace(cert, z_str=str(int(cert.z_str) + 1)),
        "drop_first_evidence": replace(cert, evidence=ev[1:]),
        "k_zero": replace(cert, k=0),
        "epsilon_negative": replace(cert, epsilon=-1.0),
        "mr_rounds_zero": replace(cert, policy={**cert.policy, "mr_rounds": 0}),
        "witness_non_numeric": replace(
            cert, evidence=edited(0, witness="not-a-number")),
        "x_string": replace(cert, x=str(cert.x)),
        "listed_on_composite": replace(cert, prime_offsets=moved),
        "factor_off_by_one": replace(cert, evidence=edited(
            factor, witness=str(int(ev[factor]["witness"]) + 1))),
        "mr_base_one": replace(cert, evidence=edited(mr, witness="1")),
        "listed_on_composite_and_min_gap": replace(
            cert, prime_offsets=moved, min_gap=cert.min_gap + 1),
        "mr_base_one_and_duplicate": replace(
            cert, evidence=edited(mr, witness="1") + [ev[0]]),
        "deterministic_limit_7": replace(
            cert, policy={**cert.policy, "deterministic_limit": "7"}),
        "no_deterministic_limit": replace(
            cert, policy={"mr_rounds": cert.policy["mr_rounds"]}),
        "deterministic_limit_x_and_extra_key": replace(
            cert, policy={**cert.policy, "deterministic_limit": "x", "note": 1}),
        "genuine": cert,
    }


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
            assert (res.verdict, res.witness) == ("probable_prime", None)

    def test_search_validation(self, toy_frame, toy_sieved):
        rng = derive_random(0, "maier-bad")
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
        assert CERTIFICATE_VERSION == "2"
        for version in ("1", "3", 2, None):
            rejects(dataclasses.replace(toy_certificate, version=version),
                    f"unsupported certificate version {version!r}")
            with pytest.raises(
                ValueError, match=f"unsupported certificate version {version!r}"
            ):
                mutated(toy_certificate, lambda r: r.update(version=version))

    def test_a_version_1_certificate_is_named_by_its_version(self):
        # the certificate.json of `gapchain maier --seed 5` before the row
        # exponent went: today's bytes plus "D": 1, at version "1"
        raw = json.loads(seed5_search(*random_frame(36.0, 120.0, 5)).to_json())
        raw.update(D=1, version="1")
        v1 = json.dumps(raw, sort_keys=True, indent=1) + "\n"
        assert hashlib.sha256(v1.encode()).hexdigest() == (
            "471086cbaa240e40c2c4d4c2634375810a60f6308c1f1cd0d64b5fd456fdd955"
        )
        with pytest.raises(ValueError, match=r"^unsupported certificate version '1'$"):
            GapChainCertificate.from_json(v1)

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

    @pytest.mark.parametrize("x", [36, 150])
    def test_row_index_bound(self, x, request):
        # the range both searches draw from: [1, P] at x = 36 and
        # [1, 2**64] at x = 150, where [1, P**D] accepted 2**64 + 1
        cert = request.getfixturevalue(
            "toy_certificate" if x == 36 else "certificate150"
        )
        modulus = int(cert.modulus_str)
        bound = modulus if x == 36 else 2**64
        assert maier.row_index_bound(modulus) == bound
        rejects(dataclasses.replace(cert, z_str=str(bound + 1)),
                "row index outside [1, min(modulus, 2**64)]")
        outcome = verify_certificate(dataclasses.replace(cert, z_str=str(bound)))
        assert "row index" not in (outcome.reason or "")

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
            limit = {"deterministic_limit": str(DETERMINISTIC_MR_LIMIT)}
            return mutated(toy_certificate, lambda r: r.update(policy={**limit, **kw}))

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
        for name, value in (("x", "36"), ("y", 120.0), ("k", None),
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

    def test_window_start_below_three(self, toy_certificate):
        # FrameWindow refuses x < 3; this hand-made certificate, whose
        # empty modulus puts the primes 2 and 3 at offsets 1 and 2, was
        # accepted
        handmade = dataclasses.replace(
            toy_certificate, x=-5, y=100, modulus_str="1", offset_str="0",
            z_str="1", k=1, prime_offsets=[1, 2], min_gap=1, evidence=[],
        )
        rejects(handmade, "window start x = -5 is below 3")
        rejects(dataclasses.replace(toy_certificate, x=2), "x = 2 is below 3")

    def test_row_budget(self, toy_certificate, monkeypatch):
        replace = dataclasses.replace
        with monkeypatch.context() as m:
            m.setattr(maier, "DEFAULT_Z_BIT_BUDGET", 37)  # x = 36 is within it
            rejects(toy_certificate, "modulus needs 38 bits, over the budget of 37")
        rejects(replace(toy_certificate, x=10**9), "over the row budget")
