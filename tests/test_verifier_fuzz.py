"""Fuzz of the certificate verifier: any field value gives a verdict.

Each example takes the genuine x = 36 certificate, replaces one to three
fields (or parts of the listed primes, the evidence or the policy's round
count and deterministic limit) with values of the wrong type, huge or
negative integers, non-ASCII strings or long lists, and hands the result
straight to `verify_certificate`.  The verifier must return a
`VerificationOutcome`, never raise, and finish each example within the
deadline.  The examples are derandomized, so a run is reproducible and
its cost is fixed.
"""

import dataclasses
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapchain import (
    FrameWindow,
    GapChainCertificate,
    ResidueSystem,
    assemble_frame,
    find_gap_chain,
    sift_interval,
    verify_certificate,
)
from gapchain.maier import MAX_MR_ROUNDS, MIN_MR_ROUNDS, VerificationOutcome
from gapchain.nt import primes_in_range
from gapchain.seeds import derive_random

FIELDS = [f.name for f in dataclasses.fields(GapChainCertificate)]


@pytest.fixture(scope="module")
def genuine():
    system = ResidueSystem({int(p): 0 for p in primes_in_range(1, 36).tolist()})
    frame = assemble_frame(system, FrameWindow(x=36.0, y=120.0))
    found = find_gap_chain(
        frame,
        sift_interval(36, 120, frame.system),
        k=2,
        epsilon=0.01,
        trials=400,
        rng=derive_random(5, "maier-search"),
        seed=5,
    )
    assert isinstance(found, GapChainCertificate)
    return found


huge = st.integers(min_value=2**64, max_value=10**1500)
ints = st.integers() | huge | huge.map(lambda v: -v)
digit_strings = (
    st.text(alphabet="0123456789", min_size=1, max_size=40)
    | huge.map(str)
    | st.just("9" * 5000)  # beyond int()'s default digit limit
    | st.text(alphabet="0123456789٣１-+. e", max_size=12)
)
scalars = (
    st.none()
    | st.booleans()
    | ints
    | st.floats()
    | st.text(max_size=30)
    | digit_strings
)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
long_lists = st.lists(st.integers(-(10**6), 10**6), min_size=50, max_size=2_000)
evidence_items = st.fixed_dictionaries(
    {
        "offset": ints | junk,
        "kind": st.sampled_from(
            ["gcd_with_modulus", "explicit_factor", "miller_rabin_witness"]
        )
        | junk,
        "witness": digit_strings | junk,
    }
)
window_offsets = st.lists(st.integers(30, 130), max_size=30)


@st.composite
def mutations(draw, cert):
    """One to three field replacements, some inside the nested fields."""
    changes = {}
    for name in draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3)):
        value = getattr(cert, name)
        choice = draw(st.integers(0, 2))
        if name == "prime_offsets" and choice == 0:
            value = draw(window_offsets | long_lists)
        elif name == "evidence" and choice == 0:
            items = list(value)
            i = draw(st.integers(0, len(items) - 1))
            items[i] = draw(evidence_items)
            value = items + draw(st.lists(evidence_items, max_size=3))
        elif name == "policy" and choice == 0:
            value = {
                **value,
                "mr_rounds": draw(
                    st.integers(MIN_MR_ROUNDS - 2, MAX_MR_ROUNDS + 2) | junk
                ),
            }
            if draw(st.booleans()):  # the limit is the verifier's own
                value["deterministic_limit"] = draw(digit_strings | junk)
        elif choice == 1:
            value = draw(st.lists(scalars, min_size=1, max_size=200))
        else:
            value = draw(junk)
        changes[name] = value
    return changes


@settings(
    max_examples=150,
    deadline=timedelta(seconds=2),
    derandomize=True,
    database=None,
)
@given(data=st.data())
def test_verifier_is_total_on_mutated_fields(genuine, data):
    changes = data.draw(mutations(genuine))
    outcome = verify_certificate(dataclasses.replace(genuine, **changes))
    assert isinstance(outcome, VerificationOutcome)
    assert outcome.accepted or isinstance(outcome.reason, str)
