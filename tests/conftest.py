"""Shared fixtures: the two partition scales used across the suite, and
a record of the processes a test forks.

The pinned desk-scale run (x = 1400, window 15x wide, small primes in
(32, 80]) is expensive enough to build once per session; the miniature
scale (x = 400 with divisor level 20) keeps brute-force oracles cheap.
"""

import os

import pytest

import gapchain as g


@pytest.fixture(scope="session")
def toy_partition():
    params = g.derive_parameters(1400, y=21000, z=80, small_low=32)
    return g.build_partition(params)


@pytest.fixture(scope="session")
def pinned_table(toy_partition):
    return g.build_weights(toy_partition, g.first_primes_tuple(4), theta=1.0)


@pytest.fixture(scope="session")
def pinned_run(pinned_table):
    return g.run_construction(pinned_table, seed=11, eta=0.1)


@pytest.fixture(scope="session")
def small_partition():
    params = g.derive_parameters(400, y=6000, z=80, small_low=32)
    return g.build_partition(params)


@pytest.fixture(scope="session")
def small_table(small_partition):
    # level 400**0.5 = 20: divisor products draw on {5, 7, 11, 13, 17, 19}
    return g.build_weights(small_partition, g.first_primes_tuple(4), theta=0.5)


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers os.fork starts in this process, in order.

    A fork_map runs items here too, so the items run here do not tell
    whether it forked; this does.
    """
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids
