import numpy as np
import pytest

from adder_spir.bits import BitString
from adder_spir.channel import (
    classify_indices,
    string_to_ternary,
    ternary_to_string,
    transmit,
)


def test_truth_table():
    for a in (0, 1):
        for b in (0, 1):
            out = transmit(BitString.from_bits([a]), BitString.from_bits([b]))
            assert out.y.tolist() == [a + b]


def test_transmit_block():
    x1 = BitString.from_bits([0, 0, 1, 1])
    x2 = BitString.from_bits([0, 1, 0, 1])
    assert transmit(x1, x2).y.tolist() == [0, 1, 1, 2]


def test_transmit_length_mismatch():
    with pytest.raises(ValueError):
        transmit(BitString.zeros(3), BitString.zeros(4))


def test_classify_indices():
    good, bad = classify_indices([1, 0, 2, 0, 1, 2, 0, 1, 1, 2, 1, 1])
    assert tuple(good) == (2, 3, 4, 6, 7, 10)
    assert tuple(bad) == (1, 5, 8, 9, 11, 12)


def _tuples(sets):
    return tuple(tuple(s.tolist()) for s in sets)


def test_classify_empty_and_extremes():
    assert _tuples(classify_indices([])) == ((), ())
    assert _tuples(classify_indices([0, 2])) == ((1, 2), ())
    assert _tuples(classify_indices([1, 1])) == ((), (1, 2))


def test_classify_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_indices([0, 3])
    with pytest.raises(ValueError):
        classify_indices(np.array([1, 3, 0], dtype=np.uint8))
    for negative in ([0, -1, 2], np.array([2, -1], dtype=np.int64), np.array([-3], dtype=np.int8)):
        with pytest.raises(ValueError):
            classify_indices(negative)


def test_ternary_string_roundtrip():
    y = np.array([1, 0, 2, 2, 1, 0], dtype=np.uint8)
    assert ternary_to_string(y) == "102210"
    assert string_to_ternary("102210").tolist() == y.tolist()


def test_string_to_ternary_rejects_bad_digit():
    with pytest.raises(ValueError):
        string_to_ternary("0123")


def test_decodable_positions_pin_inputs():
    # At outputs 0 and 2 both inputs are determined; at 1 they are swapped
    # complements, so the pair is ambiguous.
    x1 = BitString.from_bits([0, 1, 0, 1])
    x2 = BitString.from_bits([0, 1, 1, 0])
    y = transmit(x1, x2).y
    good, bad = classify_indices(y)
    for i in good:
        assert x1.bit(i) == x2.bit(i) == y[i - 1] // 2
    for i in bad:
        assert x1.bit(i) != x2.bit(i)
