"""AffineBits, the oracle's symbolic bit strings, against concrete BitStrings.

A random chain of ``^``, ``split`` and ``join`` runs once on AffineBits and
once on the concrete values at each of a few assignments of the free bits;
every intermediate value must evaluate to its concrete counterpart, and a
value or a join past 64 bits must raise ``ValueError``.
``subselect`` is checked the same way, and its remembered results against
a fresh copy's.  ``transmit`` on concrete values must give their
per-position sums.  The oracle's symbolic round openings must transmit, at
every assignment of their free bits, to the y they carry, which is the
read-only y remembered for their canonical pair.  A session on symbolic
inputs returns its transcript even when its recovery depends on a free bit;
only reading ``recovery_ok`` compares the symbolic values.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adder_spir.bits import AffineBits, BitString
from adder_spir.channel import transmit
from adder_spir.model import ProtocolParams, Selection
from adder_spir.multifile import execute_multifile, plan_multifile
from adder_spir.oracle import _bitstrings, _Enumeration, _Layout

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
            if sum(len(pool[k]) for k in idx) > 64:
                with pytest.raises(ValueError):
                    type(pool[idx[0]]).join([pool[k] for k in idx])
                continue
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


@pytest.mark.parametrize("length", [65, 70, 128])
def test_values_past_64_bits_raise(length):
    # A value holds at most 64 bits: building a longer one, or joining
    # values into one, raises, while 64 bits still build and join.
    with pytest.raises(ValueError, match="at most 64 bits"):
        AffineBits((0, 1), length)
    half = AffineBits((0, 1), length // 2)
    with pytest.raises(ValueError, match="at most 64 bits"):
        AffineBits.join([half, AffineBits((0, 1), length - length // 2)])
    full = AffineBits.join([AffineBits((1, 2), 32), AffineBits((3, 4), 32)])
    assert len(full) == 64 and full._cols == (1 << 32 | 3, 2 << 32 | 4)
    assert len(AffineBits((0, 1), 64)) == 64


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


@functools.cache
def enumeration(params: ProtocolParams, classes: bool = False) -> tuple:
    """The oracle's enumeration of ``params`` (by share classes with
    ``classes``, else on the trivial group) and its list of sequences."""
    e = _Enumeration(params, False, None, classes)
    return e, list(e.sequences())


# (params, classes): the trivial group and the share classes on one
# position per share; the share classes on shares of two positions, at
# n = 5 for (2, 0) and n = 6 for (2, 1).
OPENING_CASES = {
    "n2": (ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, ell1=1, ell2=0), False),
    "n3": (ProtocolParams(n=3, t_exponent=0.4, alpha=1.0, ell1=1, ell2=0), False),
    "L3x2-n2": (ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=2, ell1=1, ell2=0), False),
    "classes-n3": (ProtocolParams(n=3, t_exponent=0.4, alpha=1.0, ell1=1, ell2=0), True),
    "classes-L3x2-n2": (ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=2, ell1=1, ell2=0), True),
    "classes-ell20-n5": (ProtocolParams(n=5, t_exponent=0.4, alpha=1, ell1=2, ell2=0), True),
    "classes-ell21-n6": (ProtocolParams(n=6, t_exponent=0.4, alpha=Fraction(2, 3), ell1=2, ell2=1), True),
}


@pytest.mark.parametrize("case", sorted(OPENING_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_symbolic_openings_transmit_to_their_y(case, data):
    # A sequence's rounds are opened once, symbolically, with the y of their
    # kept opening's concrete canonical pair; every assignment of the free
    # bits must transmit to that y.
    e, sequences = enumeration(*OPENING_CASES[case])
    rounds, _combos, _size = data.draw(st.sampled_from(sequences), label="sequence")
    opened, _columns, free = e.openings(rounds)
    assert len(opened) == len(rounds) and free == sum(bin(v1 ^ v2).count("1") for (v1, v2), *_kept in rounds)
    bits = e.layout.free_bits + free
    for a in data.draw(st.lists(st.integers(0, 2**bits - 1), min_size=1, max_size=4), label="assignments"):
        for (_pair, verdict, *_counts), o in zip(rounds, opened):
            assert o.y is verdict.y and o.abort_reason == verdict.abort_reason and o.partition is verdict.partition
            assert transmit(evaluate(o.x1, a), evaluate(o.x2, a)).y.tolist() == o.y.tolist()


@given(st.data())
def test_transmit_matches_concrete_sums(data):
    length = data.draw(st.sampled_from(LENGTHS[1:]), label="length")
    v1, v2 = (data.draw(st.integers(0, 2**length - 1)) for _ in range(2))
    x1, x2 = BitString.from_int(v1, length), BitString.from_int(v2, length)
    sums = [(v1 >> p & 1) + (v2 >> p & 1) for p in reversed(range(length))]
    for first, second in ((x1, x2), (x2, x1)):
        y = transmit(first, second).y
        assert y.dtype == "uint8" and y.tolist() == sums


def test_remembered_sums_are_read_only():
    # The oracle remembers one y per kept opening and every symbolic
    # opening of it shares it, so no caller may write to it: under the
    # trivial group and under the share classes.
    for case in ("n2", "classes-n3", "classes-ell20-n5"):
        e, sequences = enumeration(*OPENING_CASES[case])
        for _pair, verdict, _size, _choices in e.verdicts:
            with pytest.raises(ValueError):
                verdict.y[0] = 2
        for rounds, _combos, _size in sequences:
            opened, _columns, _free = e.openings(rounds)
            assert all(o.y is verdict.y for (_pair, verdict, *_counts), o in zip(rounds, opened))


def test_symbolic_recovery_is_compared_only_when_read():
    # Under reuse-pad server 1 pads its second message with its inputs on
    # the first published set, which is hidden for z1 = 2, so the recovered
    # file depends on a channel bit.  The session still returns every
    # transcript; reading recovery_ok raises, or is None on abort.
    params = ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, ell1=1, ell2=0)
    e = _Enumeration(params, False, "reuse-pad")
    files1, files2, masks1, masks2 = e.symbols  # _Layout.symbols with every channel bit
    plan = plan_multifile(params, files1, files2, Selection(2, 1), masks1, masks2, mutation="reuse-pad")
    aborts = set()
    for rounds, _combos, _size in e.sequences():
        mt = execute_multifile(plan, e.openings(rounds)[0])
        aborts.add(mt.aborted)
        if mt.aborted:
            assert mt.recovery_ok is None and mt.transcripts[0].recovery_ok is None
            continue
        for transcript in (mt, mt.transcripts[0]):
            with pytest.raises(TypeError):
                transcript.recovery_ok
    assert aborts == {False, True}


def test_concrete_views_raise_type_error():
    v = AffineBits((1, 2, 0), 2)
    for view in (v.to_int, lambda: v.bits, lambda: v.packed, lambda: transmit(v, v),
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
