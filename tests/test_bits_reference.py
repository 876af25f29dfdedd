"""BitString against a plain list-of-bits reference, on lengths 0..80."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adder_spir.bits import BitString, sample_uniform
from adder_spir.model import party_stream

MAX_LEN = 80

bit_lists = st.lists(st.integers(0, 1), max_size=MAX_LEN)


def same_length_pair():
    return st.integers(0, MAX_LEN).flatmap(
        lambda n: st.tuples(*(st.lists(st.integers(0, 1), min_size=n, max_size=n) for _ in range(2)))
    )


def ref_int(bits):
    return int("".join(map(str, bits)), 2) if bits else 0


def ref_packed(bits):
    padded = list(bits) + [0] * (-len(bits) % 8)
    return bytes(ref_int(padded[i : i + 8]) for i in range(0, len(padded), 8))


def constructed(bits):
    """The same value from every public constructor."""
    n = len(bits)
    return [
        BitString.from_bits(bits),
        BitString.from_array(np.array(bits, dtype=np.uint8)),
        BitString.from_int(ref_int(bits), n),
        BitString.from_hex(ref_packed(bits).hex(), n),
        BitString(ref_packed(bits), n),
    ]


@given(bit_lists)
def test_constructors_and_views_agree_with_reference(bits):
    values = constructed(bits)
    first = values[0]
    for v in values:
        assert v == first and hash(v) == hash(first)
        assert len(v) == len(bits)
        assert v.bits.tolist() == bits
        assert v.to_int() == ref_int(bits)
        assert v.to_hex() == ref_packed(bits).hex()
        assert v.packed == ref_packed(bits)
        assert repr(v) == repr(first)
    assert len({*values}) == 1


@given(bit_lists)
def test_zeros_ones(bits):
    n = len(bits)
    assert BitString.zeros(n).bits.tolist() == [0] * n
    assert BitString.ones(n).bits.tolist() == [1] * n
    assert BitString.ones(n).to_int() == (1 << n) - 1
    assert BitString.zeros(n) == BitString.from_bits([0] * n)


@given(bit_lists)
def test_numpy_integer_lengths(bits):
    n, wide = len(bits), np.int64(len(bits))
    assert BitString.ones(wide) == BitString.ones(n)
    assert BitString.zeros(wide) == BitString.zeros(n)
    assert BitString.from_int(ref_int(bits), wide) == BitString.from_bits(bits)
    assert BitString(ref_packed(bits), wide) == BitString.from_bits(bits)
    assert sample_uniform(wide, party_stream(3, (1, 1))) == sample_uniform(n, party_stream(3, (1, 1)))


@given(same_length_pair())
def test_xor_matches_reference(pair):
    xs, ys = pair
    a, b = BitString.from_bits(xs), BitString.from_bits(ys)
    assert (a ^ b).bits.tolist() == [x ^ y for x, y in zip(xs, ys)]
    assert a ^ b == BitString.from_bits([x ^ y for x, y in zip(xs, ys)])
    with pytest.raises(ValueError, match="length mismatch in xor"):
        a ^ BitString.from_bits(ys + [0])


@given(bit_lists, bit_lists)
def test_concat_matches_reference(xs, ys):
    joined = BitString.from_bits(xs).concat(BitString.from_bits(ys))
    assert joined == BitString.from_bits(xs + ys)
    assert joined.bits.tolist() == xs + ys


@given(st.integers(1, 8), st.integers(0, 10), st.data())
def test_split_join_match_reference(count, part_length, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=count * part_length, max_size=count * part_length))
    a = BitString.from_bits(bits)
    parts = a.split(count)
    assert [p.bits.tolist() for p in parts] == [
        bits[i * part_length : (i + 1) * part_length] for i in range(count)
    ]
    assert BitString.join(parts) == a
    assert BitString.join([]) == BitString(b"", 0)
    with pytest.raises(ValueError, match="count must be positive"):
        a.split(0)
    if count > 1:
        with pytest.raises(ValueError, match="not divisible"):
            BitString.from_bits(bits + [1]).split(count)


@given(bit_lists)
def test_bit_matches_reference(bits):
    a = BitString.from_bits(bits)
    assert [a.bit(i) for i in range(1, len(bits) + 1)] == bits
    for bad in (0, len(bits) + 1):
        with pytest.raises(IndexError, match="out of range"):
            a.bit(bad)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=MAX_LEN), st.data())
def test_subselect_matches_reference(bits, data):
    n = len(bits)
    a = BitString.from_bits(bits)
    indices = data.draw(st.lists(st.integers(1, n), max_size=2 * n))
    expected = [bits[i - 1] for i in sorted(indices)]
    for form in (tuple(indices), list(indices), np.array(indices, dtype=np.int64)):
        assert a.subselect(form) == BitString.from_bits(expected)
    bad = data.draw(st.sampled_from([0, -1, n + 1]))
    with pytest.raises(IndexError, match="indices must lie in"):
        a.subselect(tuple(indices) + (bad,))


@given(st.integers(0, MAX_LEN), st.data())
def test_equal_values_hash_alike_and_differ_by_length(n, data):
    value = data.draw(st.integers(0, 2**n - 1 if n else 0))
    a = BitString.from_int(value, n)
    b = BitString.from_bits([int(c) for c in format(value, f"0{n}b")] if n else [])
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != BitString.from_int(value, n + 1)
    if n:
        assert a != BitString.from_int(value ^ 1, n)


@given(bit_lists)
def test_bits_view_cannot_change_the_value(bits):
    a = BitString.from_bits(bits)
    before = (a.to_int(), a.packed, hash(a))
    view = a.bits
    assert not view.flags.writeable
    if len(bits):
        with pytest.raises(ValueError, match="read-only"):
            view[0] ^= 1
    assert a.bits is view and a.bits.tolist() == bits
    assert (a.to_int(), a.packed, hash(a)) == before


@given(st.integers(0, MAX_LEN), st.integers(0, 2**32))
def test_sample_uniform_matches_stream_bytes(n, seed):
    drawn = sample_uniform(n, party_stream(seed, (1, 1)))
    raw = np.frombuffer(party_stream(seed, (1, 1)).bytes((n + 7) // 8), dtype=np.uint8)
    assert drawn.bits.tolist() == np.unpackbits(raw)[:n].tolist()
