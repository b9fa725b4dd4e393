"""Residue systems, sifted intervals, and the systems a chain run sieves by."""

import random

import numpy as np
import pytest

import gapchain as g
from gapchain import (
    ResidueSystem,
    SievedSet,
    assemble_full_system,
    greedy_rankin,
    sift_interval,
    sift_mismatches,
)
from gapchain.nt import primes_in_range
from gapchain.seeds import derive_seed

from oracles import sifted_membership


def brute_sift(lo, hi, entries):
    return [
        n
        for n in range(lo + 1, hi + 1)
        if all(n % p != a for p, a in entries.items())
    ]


class TestResidueSystem:
    def test_validation(self):
        sys_ok = ResidueSystem({3: 1, 5: 4, 11: 0})
        assert sys_ok.entries == {3: 1, 5: 4, 11: 0}
        with pytest.raises(ValueError):
            ResidueSystem({3: 1, 5: 4}, excluded=5)
        with pytest.raises(ValueError):
            ResidueSystem({5: 5})
        with pytest.raises(ValueError):
            ResidueSystem({5: -1})
        with pytest.raises(ValueError):
            ResidueSystem({6: 1})

    def test_big_modulus_primality_path(self):
        ResidueSystem({100_000_007: 3})
        with pytest.raises(ValueError):
            ResidueSystem({100_000_001: 3})  # 17 * 5882353


class TestSiftInterval:
    def test_against_brute_force(self):
        rng = random.Random(derive_seed(0, "sift-brute"))
        pool = primes_in_range(1, 50).tolist()
        for _ in range(100):
            chosen = rng.sample(pool, rng.randint(1, len(pool)))
            entries = {p: rng.randrange(p) for p in chosen}
            lo = rng.randrange(0, 1_000)
            hi = lo + rng.randint(1, 400)
            sieved = sift_interval(lo, hi, ResidueSystem(entries))
            expect = brute_sift(lo, hi, entries)
            assert sieved.members().tolist() == expect
            assert sieved.count == len(expect)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            sift_interval(10, 10, ResidueSystem({3: 0}))

    def test_window_over_the_byte_cap_is_refused(self, monkeypatch):
        # one byte per integer, as the prime sieve: a chain window of
        # (36, 1e12] used to end in a 931 GiB MemoryError
        system = ResidueSystem({3: 0})
        message = (
            r"class sieve window \(36, 1e\+12\] would need 1e\+12 bytes, "
            "over the 1 GiB cap"
        )
        with pytest.raises(ValueError, match=message):
            sift_interval(36, 10**12, system)
        # both sides of the cap, scaled down
        monkeypatch.setattr(g.nt, "MAX_BYTES", 100)
        assert sift_interval(5, 105, system).count == 66
        with pytest.raises(ValueError, match=r"\(5, 106\] would need 101 "):
            sift_interval(5, 106, system)


class TestSiftMismatches:
    # a window over one block boundary of the check (2**16 values)
    lo, hi = 1000, 1000 + (1 << 16) + 300

    def system(self, seed):
        rng = random.Random(derive_seed(seed, "mismatches"))
        return ResidueSystem(
            {p: rng.randrange(p) for p in primes_in_range(1, 40).tolist()}
        )

    def test_a_set_from_its_own_classes_has_none(self):
        for seed, (lo, hi) in enumerate([(0, 50), (36, 120), (self.lo, self.hi)]):
            system = self.system(seed)
            assert list(sift_mismatches(sift_interval(lo, hi, system), system)) == []

    def test_every_flipped_slot_is_named_in_order(self, monkeypatch):
        system = self.system(7)
        T = sift_interval(self.lo, self.hi, system)
        alive, dead = np.flatnonzero(T.bitmap), np.flatnonzero(~T.bitmap)
        block = 1 << 16
        # a survivor and a struck slot flipped, each side of the boundary
        flips = sorted(int(i) for i in (
            alive[0], dead[0], alive[alive >= block][0], dead[dead >= block][0]
        ))
        bitmap = T.bitmap.copy()
        bitmap[flips] ^= True
        bad = SievedSet(lo=self.lo, hi=self.hi, bitmap=bitmap)
        brute = set(brute_sift(self.lo, self.hi, system.entries))
        window = range(self.lo + 1, self.hi + 1)
        want = [t for t in window if (t in bad) != (t in brute)]
        assert want == [self.lo + 1 + i for i in flips]
        # the check reads the classes by `%`, not through the sieve's kernel
        monkeypatch.setattr(g.sieving, "strike_classes", None)
        assert list(sift_mismatches(bad, system)) == want

    def test_another_class_draw_disagrees(self):
        T = sift_interval(36, 120, self.system(1))
        other = self.system(2)
        brute = set(brute_sift(36, 120, other.entries))
        want = [t for t in range(37, 121) if (t in T) != (t in brute)]
        assert want and list(sift_mismatches(T, other)) == want


class TestSievedSet:
    def fixture(self):
        return sift_interval(100, 200, ResidueSystem({2: 0, 3: 0, 5: 0}))

    def test_membership_and_bounds(self):
        s = self.fixture()
        members = set(s.members().tolist())
        for n in range(90, 210):
            assert (n in s) == (n in members)

    def test_bitmap_is_frozen(self):
        s = self.fixture()
        with pytest.raises(ValueError):
            s.bitmap[0] = False

    def test_construction_guards(self):
        with pytest.raises(ValueError):
            SievedSet(lo=5, hi=5, bitmap=np.ones(0, dtype=bool))
        with pytest.raises(ValueError):
            SievedSet(lo=0, hi=4, bitmap=np.ones(3, dtype=bool))


class TestSmallClassVector:
    """The small classes of a construction are a ResidueSystem too."""

    def test_membership_scalar_vs_vector(self):
        rng = random.Random(derive_seed(0, "small-classes"))
        classes = ResidueSystem(
            {p: rng.randrange(p) for p in (37, 41, 43, 47)}
        )
        assert sorted(classes.entries) == [37, 41, 43, 47]
        values = np.arange(1, 4_000, dtype=np.int64)
        mask = sift_interval(0, values[-1], classes).bitmap
        scalars = np.array(
            [sifted_membership(int(n), classes) for n in values]
        )
        assert np.array_equal(mask, scalars)

    def test_reduced_classes_only(self):
        with pytest.raises(ValueError):
            ResidueSystem({37: 37})


class TestAssembleFullSystem:
    def test_every_prime_below_x_is_assigned(self, small_partition):
        part = small_partition
        small = {int(p): (i * 3) % int(p) for i, p in enumerate(part.small_primes)}
        offsets = {int(p): 7 * int(p) + 3 for p in part.weighted_primes}
        system = assemble_full_system(ResidueSystem(small), offsets, part)
        everyone = primes_in_range(1, 400).tolist()
        assert sorted(system.entries) == everyone
        assert system.excluded == 1
        for p in everyone:
            if p in small:
                assert system.entries[p] == small[p]
            elif p in offsets:
                assert system.entries[p] == offsets[p] % p
            else:
                assert system.entries[p] == 0

    def test_excluded_prime_left_out(self, small_partition):
        params = small_partition.params
        part = g.build_partition(params, excluded_prime=37)
        small = {int(p): 0 for p in part.small_primes}
        offsets = {int(p): 0 for p in part.weighted_primes}
        system = assemble_full_system(ResidueSystem(small), offsets, part)
        assert 37 not in system.entries
        assert system.excluded == 37

    def test_wrong_small_set_rejected(self, small_partition):
        part = small_partition
        offsets = {int(p): 0 for p in part.weighted_primes}
        small = {int(p): 0 for p in part.small_primes}
        short = dict(small)
        short.pop(int(part.small_primes[0]))
        with pytest.raises(ValueError):
            assemble_full_system(ResidueSystem(short), offsets, part)
        extra = dict(small)
        extra[31] = 0
        with pytest.raises(ValueError):
            assemble_full_system(ResidueSystem(extra), offsets, part)

    def test_missing_offsets_rejected(self, small_partition):
        part = small_partition
        small = {int(p): 0 for p in part.small_primes}
        offsets = {int(p): 0 for p in part.weighted_primes}
        offsets.pop(int(part.weighted_primes[-1]))
        with pytest.raises(ValueError):
            assemble_full_system(ResidueSystem(small), offsets, part)


class TestGreedyRankin:
    def test_deterministic_and_total(self, small_partition):
        part = small_partition
        a = greedy_rankin(part, [97, 101])
        b = greedy_rankin(part, [101, 97])
        assert a.entries == b.entries
        assert sorted(a.entries) == primes_in_range(1, 400).tolist()

    def test_first_choice_is_the_argmax(self, small_partition):
        part = small_partition
        system = greedy_rankin(part, [97])
        lo, hi = 400, 6_000
        start = lo + 1
        alive = np.ones(hi - lo, dtype=bool)
        processed = sorted([97] + part.weighted_primes.tolist())
        for p in primes_in_range(1, lo).tolist():
            if p in processed:
                continue
            alive[(system.entries[p] - start) % p :: p] = False
        counts = np.bincount((np.nonzero(alive)[0] + start) % 97, minlength=97)
        assert system.entries[97] == int(np.argmax(counts))
        # and greedy must do at least as well as any class, first pick included
        assert counts[system.entries[97]] == counts.max()

    def test_clashing_medium_primes_rejected(self, small_partition):
        part = small_partition
        with pytest.raises(ValueError):
            greedy_rankin(part, [37])  # small prime
        with pytest.raises(ValueError):
            greedy_rankin(part, [int(part.weighted_primes[0])])
        with pytest.raises(ValueError):
            greedy_rankin(part, [15])  # not prime
        excl = g.build_partition(small_partition.params, excluded_prime=37)
        with pytest.raises(ValueError):
            greedy_rankin(excl, [37])

    def test_greedy_beats_the_all_zero_baseline(self, small_partition):
        part = small_partition
        medium = [97, 101, 103]
        system = greedy_rankin(part, medium)
        survivors = sift_interval(400, 6_000, system).count
        zero_entries = dict(system.entries)
        for p in medium + part.weighted_primes.tolist():
            zero_entries[p] = 0
        baseline = sift_interval(400, 6_000, ResidueSystem(zero_entries)).count
        assert survivors <= baseline
