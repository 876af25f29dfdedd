"""The int64-array index sets against the tuple reference in ``brute_force.py``.

On random blocks and share requests the array path must give the same sets,
raise the same errors, and leave the client's stream in the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adder_spir.channel import classify_indices
from adder_spir.model import CapacityShortfall, party_stream
from adder_spir.protocol import sample_partition
from brute_force import tuple_classify_indices, tuple_sample_partition

SETS = ("good", "bad", "g1", "g2", "b1", "b2")


def _outcome(fn, *args):
    """(result, None), or (None, the type of the guard's exception)."""
    try:
        return fn(*args), None
    except (CapacityShortfall, ValueError) as exc:
        return None, type(exc)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 64),
    ell1=st.integers(0, 20),
    ell2=st.integers(0, 20),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    bad_symbol=st.booleans(),
)
def test_array_path_matches_tuple_reference(n, ell1, ell2, alpha, seed, bad_symbol):
    y = np.random.default_rng(seed).integers(0, 3, size=n)
    if bad_symbol and n:
        y[seed % n] = 3
    sets, error = _outcome(classify_indices, y)
    ref_sets, ref_error = _outcome(tuple_classify_indices, y)
    assert error is ref_error
    if error is None:
        assert [s.tolist() for s in sets] == [list(s) for s in ref_sets]

    # sample_partition classifies y itself, so a malformed y fails there too.
    stream, ref_stream = party_stream(seed, (3, 1)), party_stream(seed, (3, 1))
    part, error = _outcome(sample_partition, y, alpha, ell1, ell2, stream)
    if ref_error is None:
        ref_part, ref_error = _outcome(tuple_sample_partition, *ref_sets, alpha, ell1, ell2, ref_stream)
    assert error is ref_error
    if error is None:
        assert [getattr(part, f).tolist() for f in SETS] == [list(getattr(ref_part, f)) for f in SETS]
        assert part.m == ref_part.m
    assert stream.integers(2**63) == ref_stream.integers(2**63)
