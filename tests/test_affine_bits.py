"""AffineBits, the oracle's symbolic bit strings, against concrete BitStrings.

A random chain of ``^``, ``split`` and ``join`` runs once on AffineBits and
once on the concrete values at each of a few assignments of the free bits;
every intermediate value must evaluate to its concrete counterpart.
``subselect`` and the channel's ``transmit`` (in both argument orders) are
checked the same way, and their remembered results against a fresh copy's.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adder_spir.bits import AffineBits, BitString
from adder_spir.channel import transmit
from adder_spir.model import ProtocolParams
from adder_spir.oracle import _bitstrings, _Layout

MAX_FREE = 6
LENGTHS = (0, 1, 2, 3, 4, 6, 12)


def evaluate(v, assignment):
    """The concrete value of ``v`` with free bit j set to bit j of ``assignment``."""
    if not isinstance(v, AffineBits):
        return v
    value = v._cols[0]
    for j, col in enumerate(v._cols[1:]):
        if assignment >> j & 1:
            value ^= col
    return BitString.from_int(value, len(v))


def random_affine(data, free, length):
    value = st.integers(0, 2**length - 1)
    return AffineBits(tuple(data.draw(st.lists(value, min_size=free + 1, max_size=free + 1))), length)


@given(st.data())
def test_op_chains_match_concrete_values(data):
    free = data.draw(st.integers(0, MAX_FREE), label="free bits")
    assignments = data.draw(st.lists(st.integers(0, 2**free - 1), min_size=1, max_size=4))
    pool = [random_affine(data, free, data.draw(st.sampled_from(LENGTHS))) for _ in range(3)]
    concrete = [[evaluate(v, a) for a in assignments] for v in pool]

    def pick(length=None):
        choices = [i for i, v in enumerate(pool) if length is None or len(v) == length]
        return data.draw(st.sampled_from(choices))

    for _step in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["xor", "const", "split", "join"]))
        i = pick()
        if op == "xor":
            j = pick(len(pool[i]))
            results = [(pool[i] ^ pool[j], [u ^ v for u, v in zip(concrete[i], concrete[j])])]
        elif op == "const":
            c = BitString.from_int(data.draw(st.integers(0, 2 ** len(pool[i]) - 1)), len(pool[i]))
            out = c ^ pool[i] if data.draw(st.booleans()) else pool[i] ^ c
            results = [(out, [u ^ c for u in concrete[i]])]
        elif op == "split":
            n = len(pool[i])
            count = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0] or [1]))
            pieces = pool[i].split(count)
            per_assignment = [u.split(count) for u in concrete[i]]
            results = [(p, [s[k] for s in per_assignment]) for k, p in enumerate(pieces)]
        else:
            idx = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=3))
            joined = type(pool[idx[0]]).join([pool[k] for k in idx])
            results = [(joined, [BitString.join([concrete[k][a] for k in idx]) for a in range(len(assignments))])]
        for value, expected in results:
            assert type(value) is AffineBits
            assert [evaluate(value, a) for a in assignments] == expected
            assert len(value) == len(expected[0])
            pool.append(value)
            concrete.append(expected)

    # == answers only for values that differ by a constant.
    i = pick()
    j = pick(len(pool[i]))
    differences = {evaluate(pool[i] ^ pool[j], a) for a in range(2**free)}
    if len(differences) == 1:
        assert (pool[i] == pool[j]) == (differences.pop() == BitString.zeros(len(pool[i])))
    else:
        with pytest.raises(TypeError):
            pool[i] == pool[j]
    assert pool[i] ^ pool[i] == BitString.zeros(len(pool[i]))
    assert pool[i] != BitString.zeros(len(pool[i]) + 1)


@given(st.data())
def test_subselect_matches_concrete_values(data):
    free = data.draw(st.integers(0, MAX_FREE), label="free bits")
    length = data.draw(st.sampled_from(LENGTHS[1:]), label="length")
    v = random_affine(data, free, length)
    # Sorted, unsorted and repeated indices alike.
    indices = data.draw(st.lists(st.integers(1, length), max_size=2 * length), label="indices")
    picked = v.subselect(indices)
    assert type(picked) is AffineBits and len(picked) == len(indices)
    for a in data.draw(st.lists(st.integers(0, 2**free - 1), min_size=1, max_size=4)):
        assert evaluate(picked, a) == evaluate(v, a).subselect(indices)
    for outside in (0, length + 1):
        with pytest.raises(IndexError):
            v.subselect([*indices, outside])


def constant_sum_pair(data, free, length, concrete_x2=False):
    """x1 and x2 whose sum does not depend on the free bits: x1 ^ x2 is a
    constant d, and x1 has free columns only where d is 1 (nowhere if x2
    is to be a concrete BitString)."""
    d = data.draw(st.integers(0, 2**length - 1), label="x1 ^ x2")
    x1 = random_affine(data, free, length)
    x1 = AffineBits((x1._cols[0], *(0 if concrete_x2 else c & d for c in x1._cols[1:])), length)
    x2 = x1 ^ BitString.from_int(d, length)
    return x1, evaluate(x2, 0) if concrete_x2 else x2


@given(st.data())
def test_transmit_matches_concrete_sums(data):
    free = data.draw(st.integers(0, MAX_FREE), label="free bits")
    length = data.draw(st.sampled_from(LENGTHS[1:]), label="length")
    x1, x2 = constant_sum_pair(data, free, length, data.draw(st.booleans(), label="concrete x2"))
    assignments = data.draw(st.lists(st.integers(0, 2**free - 1), min_size=1, max_size=4))
    # Either argument may be the concrete one.
    for first, second in ((x1, x2), (x2, x1)):
        y = transmit(first, second).y
        assert y.dtype == "uint8"
        for a in assignments:
            assert y.tolist() == transmit(evaluate(first, a), evaluate(second, a)).y.tolist()


@given(st.data())
def test_transmit_rejects_sums_that_depend_on_free_bits(data):
    free = data.draw(st.integers(1, MAX_FREE), label="free bits")
    length = data.draw(st.sampled_from(LENGTHS[1:]), label="length")
    x1, x2 = constant_sum_pair(data, free, length, data.draw(st.booleans(), label="concrete x2"))
    # One free bit enters one input at one position, or both inputs at a
    # position where they are equal (the sum is then 0 or 2).
    equal = [p for p in range(length) if not (evaluate(x1 ^ x2, 0).to_int() >> p & 1)]
    target = data.draw(st.sampled_from(["x1", "x2", "both"] if equal else ["x1", "x2"]), label="bumped")
    shift = data.draw(st.sampled_from(equal if target == "both" else range(length)), label="position")
    j = data.draw(st.integers(1, free), label="column")
    bump = AffineBits((0, *(1 << shift if k == j else 0 for k in range(1, free + 1))), length)
    x1, x2 = (x1 ^ bump if target != "x2" else x1), (x2 ^ bump if target != "x1" else x2)
    # Twice: a failed sum is not remembered.
    for first, second in ((x1, x2), (x2, x1)) * 2:
        with pytest.raises(TypeError):
            transmit(first, second)


def twin(v):
    """A fresh copy of ``v``, with nothing remembered."""
    if isinstance(v, AffineBits):
        return AffineBits(v._cols, len(v))
    return BitString.from_int(v.to_int(), len(v))


@given(st.data())
def test_remembered_subselect_matches_a_fresh_twin(data):
    free = data.draw(st.integers(0, MAX_FREE), label="free bits")
    length = data.draw(st.sampled_from(LENGTHS[1:]), label="length")
    v = random_affine(data, free, length)
    # Sorted, unsorted and repeated indices, each set asked for more than
    # once and as a list or an int64 array.
    index_sets = data.draw(st.lists(st.lists(st.integers(1, length), max_size=2 * length), min_size=1, max_size=4))
    for indices in index_sets * 2:
        form = data.draw(st.sampled_from([list, lambda i: np.array(i, dtype=np.int64)]))
        picked = v.subselect(form(indices))
        fresh = twin(v).subselect(indices)
        assert (picked._cols, len(picked)) == (fresh._cols, len(fresh))


@given(st.data())
def test_remembered_sums_match_a_fresh_twin(data):
    free = data.draw(st.integers(0, MAX_FREE), label="free bits")
    length = data.draw(st.sampled_from(LENGTHS[1:]), label="length")
    x1, x2 = constant_sum_pair(data, free, length, data.draw(st.booleans(), label="concrete x2"))
    d = evaluate(x1 ^ x2, 0).to_int()
    # More partners of x1, each built afresh and dropped after its call: a
    # sum is remembered with the operand itself, never with a reused id.
    wider = data.draw(st.lists(st.integers(0, 2**length - 1), max_size=4), label="partners")
    for _ in range(2):
        for first, second in ((x1, x2), (x2, x1)):
            y = transmit(first, second).y
            assert y.tolist() == transmit(twin(first), twin(second)).y.tolist()
            assert not y.flags.writeable
        for extra in wider:
            partner = x1 ^ BitString.from_int(d | extra, length)
            expected = transmit(twin(x1), twin(partner)).y.tolist()
            assert transmit(x1, partner).y.tolist() == expected


def test_remembered_sums_are_read_only():
    x1 = AffineBits((0b01, 0b10), 2)
    x2 = x1 ^ BitString.from_int(0b10, 2)
    y = transmit(x1, x2).y
    with pytest.raises(ValueError):
        y[0] = 2
    assert transmit(x1, x2).y is y and y.tolist() == [1, 2]


def test_concrete_views_raise_type_error():
    v = AffineBits((1, 2, 0), 2)
    for view in (v.to_int, lambda: v.bits, lambda: v.packed,
                 lambda: v.bit(1), lambda: v.concat(v), v.to_hex, lambda: hash(v)):
        with pytest.raises(TypeError):
            view()
    with pytest.raises(ValueError):
        v ^ BitString.zeros(3)


@pytest.mark.parametrize(
    "params",
    [
        ProtocolParams(n=4, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1),
        ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=2, ell1=1, ell2=0),
        ProtocolParams(n=2, t_exponent=0.4, alpha=0.5, L1=4, L2=3, ell1=1, ell2=1),
    ],
)
def test_symbols_take_their_bits_from_the_packed_assignment(params):
    # At assignment a, each symbolic file and mask is the field of a that
    # the oracle decodes it from.  Both sides are linear in a, so zero and
    # the single bits decide it; all ones is a spot check.
    lay = _Layout(params)
    files1, files2, masks1, masks2 = lay.symbols()
    symbolic = (files1.files, files2.files, sum(masks1, ()), sum(masks2, ()))
    for a in [0, *(1 << j for j in range(lay.free_bits)), 2**lay.free_bits - 1]:
        fields = [_bitstrings(code, *shape) for code, shape in zip(lay.split(a), lay.fields)]
        assert [tuple(evaluate(v, a) for v in group) for group in symbolic] == fields


@pytest.mark.parametrize("wide, narrow", [
    (AffineBits((0, 1, 2), 2), AffineBits((0, 1), 2)),
    (AffineBits((3, 0, 0), 2), AffineBits((3, 0), 2)),
])
def test_column_count_mismatch_raises(wide, narrow):
    # Values over different numbers of free bits cannot be combined: the
    # extra column must not be dropped.
    for a, b in ((wide, narrow), (narrow, wide)):
        with pytest.raises(ValueError):
            a ^ b
        with pytest.raises(ValueError):
            a == b
        with pytest.raises(ValueError):
            AffineBits.join([a, b])
        with pytest.raises(ValueError):
            transmit(a, b)
