"""Fast paths of the session answers and of the oracle's server keys,
against per-row Python references.

A partition's decoded inputs must be exactly the bits a per-position loop
reads off y at its decodable shares, and ``client_recover`` must unmask
them, for concrete and symbolic (:class:`AffineBits`) messages.  A server view's key ends with one
digit per round of its channel inputs (``_PairKeys._digits``); on random
words and random published sets, including aborted and unexecuted rounds,
each digit must be what a per-row loop computes from the definition.  The
transcripts the sessions build must stay frozen and keep working with
``dataclasses.replace``.
"""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adder_spir import oracle
from adder_spir.bits import AffineBits, BitString
from adder_spir.model import PartyRandomness, ProtocolParams, Selection, party_stream, sample_filestore, session_streams
from adder_spir.multifile import run_multifile
from adder_spir.channel import classify_indices
from adder_spir.protocol import _index_partition, client_recover

# ---------------------------------------------------------------------------
# client_recover


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_client_recover_matches_per_position_reference(data):
    n = data.draw(st.integers(1, 40), label="n")
    y = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.uint8)
    good, bad = classify_indices(y)
    picked = data.draw(st.permutations(good.tolist()), label="decodable order")
    split = data.draw(st.integers(0, len(picked)), label="g1 size")
    picked = picked[: data.draw(st.integers(split, len(picked)), label="shares size")]
    g1, g2 = (np.array(sorted(share), dtype=np.int64) for share in (picked[:split], picked[split:]))
    empty = np.zeros(0, dtype=np.int64)
    part = _index_partition(y, good, bad, g1, g2, empty, empty, 0)

    for share, decoded in ((g1, part.decoded1), (g2, part.decoded2)):
        width = len(share)
        halves = 0
        for p in share.tolist():
            halves = halves << 1 | int(y[p - 1]) // 2
        assert type(decoded) is BitString and len(decoded) == width and decoded.to_int() == halves
        word = st.integers(0, 2**width - 1)
        if data.draw(st.booleans(), label="symbolic"):
            free = data.draw(st.integers(0, 4), label="free bits")
            cols = tuple(data.draw(st.lists(word, min_size=free + 1, max_size=free + 1)))
            message = AffineBits(cols, width)
        else:
            message = BitString.from_int(data.draw(word), width)
        got = client_recover(decoded, message)
        assert len(got) == width
        if isinstance(message, AffineBits):
            assert isinstance(got, AffineBits)
            assert got._cols == (message._cols[0] ^ halves, *message._cols[1:])
        else:
            assert type(got) is BitString and got.to_int() == halves ^ message.to_int()


# ---------------------------------------------------------------------------
# server-view digits

_ALPHA = {
    (1, 1): Fraction(1, 2), (1, 0): Fraction(1), (0, 1): Fraction(0), (0, 0): Fraction(1, 2),
    (2, 0): Fraction(1), (0, 2): Fraction(0), (2, 1): Fraction(2, 3), (1, 2): Fraction(1, 3),
}


def _reference_digit(word: int, entry, n: int) -> int:
    """One round's digit from its definition: the bits of ``word`` (bit 1 of
    the round is its highest) at every position of the published sets, in
    a, b, c, d order and rank order inside each set, most significant first,
    times n - S + 1, plus the ones at the other positions; an aborted round
    publishes no set."""
    aborted, _reason, sets = entry
    positions = [] if aborted else [p for share in sets for p in sorted(share)]
    bits = [word >> (n - p) & 1 for p in positions]
    value = 0
    for b in bits:
        value = value << 1 | b
    ones = bin(word).count("1") - sum(bits)
    return value * (n - len(positions) + 1) + ones if positions else ones


@st.composite
def _digit_cases(draw):
    n = draw(st.integers(1, 6), label="n")
    L1, L2 = draw(st.sampled_from([(2, 2), (3, 2), (2, 3)]), label="L")
    ell = draw(st.sampled_from(sorted(_ALPHA)), label="ell")
    params = ProtocolParams(n=n, t_exponent=0.4, alpha=_ALPHA[ell], L1=L1, L2=L2, ell1=ell[0], ell2=ell[1])
    # The digits do not depend on the position group, which only sizes the
    # ids above them; the share classes keep the multi-file enumerations small.
    enumeration = oracle._Enumeration(params, True, None, classes=True)
    keys = oracle._PairKeys(enumeration)
    S = keys.published
    # Live rounds exist only when some opened pair goes on and S positions fit.
    live = keys.executed == enumeration.layout.K and n >= S
    skeletons = []
    for _ in range(draw(st.integers(1, 6), label="skeletons")):
        executed = draw(st.integers(1, keys.executed))
        value = []
        for r in range(executed):
            if not live or (r == executed - 1 and draw(st.booleans())):
                value.append((True, draw(st.sampled_from(["size-deviation", "capacity-shortfall"])), None))
                break
            chosen = iter(draw(st.permutations(range(1, n + 1)))[:S])
            shares = [tuple(sorted(itertools.islice(chosen, size))) for size in (ell[0], ell[0], ell[1], ell[1])]
            value.append((False, None, tuple(shares)))
        words = draw(st.lists(st.integers(0, 2 ** (len(value) * n) - 1), min_size=1, max_size=4))
        skeletons.append((tuple(value), words))
    return enumeration, keys, skeletons


@settings(max_examples=150, deadline=None)
@given(_digit_cases())
def test_server_digits_match_per_row_reference(case):
    enumeration, keys, skeletons = case
    n = enumeration.layout.n
    interned = enumeration.interned["sets"]
    table = np.zeros((len(skeletons), len(oracle._SKELETON)), dtype=np.int64)
    column = {name: i for i, name in enumerate(oracle._SKELETON)}
    skel, x1, x2 = [], [], []
    for s, (value, words) in enumerate(skeletons):
        table[s, column["sets"]] = interned.setdefault(value, len(interned))
        table[s, column["executed"]] = len(value)
        table[s, column["abort"]] = int(value[-1][0])
        skel += [s] * len(words)
        x1 += words
        x2 += [w ^ (2 ** (len(value) * n) - 1) for w in words]
    rows = len(skel)
    columns = {name: np.zeros(rows, dtype=np.int64) for name in keys.widths}
    columns.update(x1=np.array(x1, dtype=np.int64), x2=np.array(x2, dtype=np.int64))
    chunk = oracle._Chunk(table=table, weights=np.ones(len(skeletons), dtype=np.int64),
                          skel=np.array(skel, dtype=np.int64), columns=columns, rows=rows, states=rows)
    low = (1 << keys.executed * keys.digit_bits) - 1
    for view, codes in ((oracle.SERVER1_VIEW, x1), (oracle.SERVER2_VIEW, x2)):
        got = (keys.key(view, chunk) & low).tolist()
        expected = []
        for s, word in zip(skel, codes):
            value = skeletons[s][0]
            digits = 0
            for r in range(keys.executed):
                digit = 0
                if r < len(value):
                    digit = _reference_digit(word >> (len(value) - 1 - r) * n & (2**n - 1), value[r], n)
                digits = digits << keys.digit_bits | digit
            expected.append(digits)
        assert got == expected


# ---------------------------------------------------------------------------
# transcripts


def test_transcripts_stay_frozen_and_replaceable():
    params = ProtocolParams(n=64, t_exponent=0.4, alpha=Fraction(1, 2), L1=3, L2=3, ell1=2, ell2=2)
    rnd = PartyRandomness(11, 12, 13)
    files1 = sample_filestore(1, 3, 4, party_stream(12, (0,)))
    files2 = sample_filestore(2, 3, 4, party_stream(13, (0,)))
    mt = run_multifile(params, files1, files2, Selection(2, 3), session_streams(rnd, 3, 3), abort_disabled=True)
    assert not mt.aborted and mt.recovery_ok
    for t in (mt, *mt.transcripts):
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.aborted = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            del t.recovered
        changed = dataclasses.replace(t, aborted=True)
        assert type(changed) is type(t) and changed.aborted and not t.aborted
        for field in dataclasses.fields(t):
            if field.name != "aborted":
                assert getattr(changed, field.name) is getattr(t, field.name)
        assert changed.to_record() != t.to_record()
    assert [f.name for f in dataclasses.fields(mt.transcripts[0])] == [
        "params", "aborted", "abort_reason", "y", "selection_sets", "m11", "m12", "m21", "m22",
        "recovered", "requested", "leaked_selection",
    ]
