"""Format 2 of a transcript record: the published sets as one label per position.

Random blocks are partitioned by ``sample_partition`` or by ``partition``
and published for a random selection.  ``decode_sets`` of the record's
label string must give back the four published arrays, and sets that
overlap or leave [1, n] must be refused when the record is built.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adder_spir.bits import BitString
from adder_spir.channel import classify_indices
from adder_spir.model import ProtocolParams
from adder_spir.protocol import (
    SelectionSets,
    Transcript,
    build_selection_sets,
    decode_sets,
    partition,
    sample_partition,
)


def record_labels(n: int, sets: SelectionSets) -> str:
    """The ``sets`` field of a completed session's record with these sets."""
    params = ProtocolParams(n=n, t_exponent=0.4, alpha=0.5, ell1=0, ell2=0)
    empty = BitString.zeros(0)
    transcript = Transcript(params, False, None, np.zeros(n, dtype=np.uint8), sets, empty, empty, empty, empty)
    return transcript.to_record()["sets"]


@st.composite
def published_sets(draw) -> tuple[int, SelectionSets]:
    n = draw(st.integers(1, 64), label="n")
    good, bad = classify_indices(np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.uint8))
    m = min(good.size, bad.size)
    ell1 = draw(st.integers(0, m), label="ell1")
    ell2 = draw(st.integers(0, m - ell1), label="ell2")
    alpha = ell1 / m if m else 0.5
    if draw(st.booleans(), label="random partition"):
        stream = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        part = sample_partition(good, bad, alpha, ell1, ell2, stream)
    else:
        part = partition(good, bad, alpha, ell1, ell2)
    z1, z2 = draw(st.integers(1, 2), label="z1"), draw(st.integers(1, 2), label="z2")
    return n, build_selection_sets(z1, z2, part)


@settings(max_examples=150, deadline=None)
@given(published_sets())
def test_labels_decode_to_the_published_sets(case):
    n, sets = case
    labels = record_labels(n, sets)
    assert isinstance(labels, str) and len(labels) == n
    for got, want in zip(astuple(decode_sets(labels)), astuple(sets)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(published_sets(), st.data())
def test_overlapping_or_out_of_range_sets_are_refused(case, data):
    n, sets = case
    shares = list(astuple(sets))
    target = data.draw(st.integers(0, 3), label="set to extend")
    used = np.concatenate(shares)
    if used.size and data.draw(st.booleans(), label="overlap"):
        # A position of any published set, this one included, listed again.
        extra = data.draw(st.sampled_from(used.tolist()), label="repeated position")
    else:
        extra = data.draw(st.sampled_from([0, -1, n + 1, 2 * n + 5]), label="outside position")
    shares[target] = np.sort(np.append(shares[target], extra))
    with pytest.raises(ValueError):
        record_labels(n, SelectionSets(*shares))


@pytest.mark.parametrize("labels", ["ab.e", "..A.", "a b", "abé"])
def test_decode_rejects_unknown_labels(labels):
    with pytest.raises(ValueError):
        decode_sets(labels)
