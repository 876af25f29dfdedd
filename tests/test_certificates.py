"""Pairs settled from GF(2) ranks against the tally path.

``audit`` replays every skeleton before it expands any row, and reads from
the replayed affine outputs the failure mass and the three pairs whose
secret is file bits (``files2``, ``files1``, ``unsel``); only the two
selection pairs, and a pair the ranks do not settle, are tallied.  With
``_settle`` made to settle no pair, every pair goes through the tally, so
the digests of ``tests/test_audit_matrix.py``, recorded before the ranks
settled any pair, must come out of both paths.  With S the skeletons, M_s
the columns of the client's messages and N_s those of the unselected
files, the client's leakage is I = sum_s p(s) (rank M_s + rank N_s -
rank [M_s; N_s]); a skeleton's rows that recover the requested files hold
2^-rank of its mass, or none.  ``_settle`` takes each rank once per pattern
of what it reads; ``brute_force.joint_pattern_settle``, which ranks every
output once per joint pattern, is its reference.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adder_spir import oracle
from adder_spir.model import ProtocolParams
from brute_force import information, joint_pattern_settle
from test_audit_matrix import (
    DIGEST, INSTANCES, LIVE_SETS, LIVE_SETS_DIGEST, WIDE_SETS, WIDE_SETS_DIGEST, cases_digest, matrix_digest,
)

FILE_PAIRS = ("server2_vs_server1", "server1_vs_server2", "servers_vs_client")
SELECTION_PAIRS = ["client_privacy_s1", "client_privacy_s2"]
N4 = ProtocolParams(n=4, t_exponent=0.4, alpha=Fraction(1, 2), ell1=1, ell2=1)
L32 = ProtocolParams(n=2, t_exponent=0.4, alpha=Fraction(1), L1=3, L2=2, ell1=1, ell2=0)


def _tally_every_pair(monkeypatch) -> None:
    """Make every audit tally all five pairs: the ranks settle no pair."""
    settle = oracle._settle
    monkeypatch.setattr(oracle, "_settle", lambda *args: (*settle(*args)[:2], {}))


@pytest.mark.parametrize(
    "digest, expected",
    [
        pytest.param(lambda: matrix_digest(INSTANCES), DIGEST, id="matrix"),
        pytest.param(lambda: matrix_digest(LIVE_SETS), LIVE_SETS_DIGEST, id="live-sets"),
        pytest.param(lambda: cases_digest(WIDE_SETS), WIDE_SETS_DIGEST, id="wide-sets"),
    ],
)
def test_tallying_every_pair_prints_the_certified_records(monkeypatch, digest, expected):
    # Every mutation, both conditionings, the abort rule on and off: the
    # records the ranks settle (pinned by test_audit_matrix.py) are the
    # tally path's, byte for byte.
    _tally_every_pair(monkeypatch)
    assert digest() == expected


@pytest.mark.parametrize("params, condition", [(N4, True), (L32, False)], ids=["n4", "L3x2"])
def test_honest_audits_tally_only_the_selection_pairs(params, condition):
    report = oracle.audit(params, condition_nonabort=condition)
    assert [name for name, _pairs in report.tallied] == SELECTION_PAIRS
    assert report.view_pairs == max(pairs for _name, pairs in report.tallied)
    assert report.all_zero()


@pytest.mark.parametrize("params, condition, mutation", [
    (N4, True, None), (L32, False, None), (L32, False, "reuse-pad"), (N4, False, "unmasked-messages"),
], ids=["n4", "L3x2", "L3x2-reuse-pad", "n4-unmasked-messages"])
def test_audits_expand_only_what_the_selection_pairs_read(monkeypatch, params, condition, mutation):
    # No audit asks its chunks for miss (the failure mass comes from ranks)
    # or for the unselected files (the client pair is settled from ranks).
    # A server whose messages are certified as an affine map of its files,
    # masks, published inputs, verdicts and leak is keyed by its channel
    # inputs, sets and leak, so only the channel bits are expanded: server 1
    # under reuse-pad and unmasked-messages as well as the honest servers.
    asked = []
    chunks = oracle._Enumeration.chunks

    def spy(self, replayed=None, live_only=False, outputs=oracle._AFFINE, bits=None):
        asked.append((outputs, bits))
        return chunks(self, replayed, live_only, outputs, bits)

    monkeypatch.setattr(oracle._Enumeration, "chunks", spy)
    oracle.audit(params, condition_nonabort=condition, mutation=mutation)
    assert asked == [(("x1", "x2"), ())]


@pytest.mark.parametrize("mutation, leak", [("reuse-pad", 0.25), ("unmasked-messages", 2 / 3)],
                         ids=["reuse-pad", "unmasked-messages"])
def test_a_leaking_client_pair_is_settled_from_ranks(monkeypatch, mutation, leak):
    # The client's view reads the unselected files, and its leakage is read
    # from ranks all the same, equal to the tally path's.
    report = oracle.audit(L32, mutation=mutation)
    assert [name for name, _pairs in report.tallied] == SELECTION_PAIRS
    assert report.servers_vs_client == leak
    _tally_every_pair(monkeypatch)
    tallied = oracle.audit(L32, mutation=mutation)
    assert [name for name, _pairs in tallied.tallied] == list(tallied.leakages)
    assert tallied.to_record() | {"wall_time_s": 0} == report.to_record() | {"wall_time_s": 0}


def test_ranks_leave_a_pair_open_where_they_cannot_settle_it():
    # A server channel input that reads one of the other server's file bits,
    # or unselected files of less than full rank, leaves that pair open.
    enumeration = oracle._Enumeration(N4, False, None, classes=True)
    lay = enumeration.layout
    replayed = enumeration.replay_all()
    skeletons, affine, table = replayed
    assert oracle._settle(enumeration, replayed, False)[2] == dict.fromkeys(FILE_PAIRS, 0.0)
    x1, unsel = oracle._AFFINE.index("x1"), oracle._AFFINE.index("unsel")
    # The column of files2's lowest free bit, after the offset: files1's
    # field holds the highest file and mask bits, files2's the next.
    files2 = 1 + lay.free_bits - lay.widths["files1"] - lay.widths["files2"]
    reading = affine.copy()
    reading[0, x1, files2] = 1
    assert set(oracle._settle(enumeration, oracle._Replayed(skeletons, reading, table), False)[2]) == set(
        FILE_PAIRS) - {"server2_vs_server1"}
    short = affine.copy()
    short[-1, unsel, 1:] = 0
    assert set(oracle._settle(enumeration, oracle._Replayed(skeletons, short, table), False)[2]) == set(FILE_PAIRS) - {
        "servers_vs_client"}


def rank_terms(params: ProtocolParams, mutation) -> list:
    """Per skeleton: the skeleton, p(s) (the mass of its rows) and
    rank M_s + rank N_s - rank [M_s; N_s]."""
    enumeration = oracle._Enumeration(params, False, mutation, classes=True)
    lay = enumeration.layout
    replayed = enumeration.replay_all()
    msgs1, msgs2, unsel = (oracle._AFFINE.index(v) for v in ("msgs1", "msgs2", "unsel"))
    terms = []
    for skeleton, words in zip(replayed.skeletons, replayed.affine.tolist()):
        _direct, _values, (free, executed, combos), size = skeleton
        rows = 2 ** (2 * lay.n * (lay.K - executed)) * enumeration.lcm // combos * size << (lay.free_bits + free)
        # Columns, one per free bit: the rank of a matrix is that of its columns.
        M = [a << 64 | b for a, b in zip(words[msgs1][1:], words[msgs2][1:])]
        N = words[unsel][1:]
        bits = oracle._rank(M) + oracle._rank(N) - oracle._rank([m << 64 | c for m, c in zip(M, N)])
        terms.append((skeleton, Fraction(rows, enumeration.denominator), bits))
    return terms


def closed_form(params: ProtocolParams, mutation, condition: bool = False) -> Fraction:
    """sum_s p(s) (rank M_s + rank N_s - rank [M_s; N_s]) over the skeletons
    the audit counts (with ``condition``, those that did not abort)."""
    terms = [(mass, bits) for skeleton, mass, bits in rank_terms(params, mutation) if not (condition and skeleton[0][2])]
    return sum(mass * bits for mass, bits in terms) / sum(mass for mass, _bits in terms)


@pytest.mark.parametrize(
    "params, mutation, expected",
    [
        (N4, "reuse-pad", Fraction(3, 16)),
        (N4, "unmasked-messages", Fraction(3, 8)),
        (L32, "reuse-pad", Fraction(1, 4)),
        (L32, "unmasked-messages", Fraction(2, 3)),
        (N4, None, 0),
    ],
)
def test_client_leakage_is_its_rank_closed_form(params, mutation, expected):
    # The client's view fixes its skeleton, and the unselected files are
    # uniform in every skeleton, so its leakage is the mean over skeletons
    # of I(M u; N u) = rank M + rank N - rank [M; N].
    assert closed_form(params, mutation) == expected
    assert oracle.audit(params, mutation=mutation).servers_vs_client == float(expected)


def _apply(columns: list, u: int, offset: int = 0) -> int:
    """C u + offset, with ``columns`` C's column at each free bit."""
    value = offset
    for j, column in enumerate(columns):
        if u >> j & 1:
            value ^= column
    return value


def _counted_information(view: list, secret: list, free: int, offsets=(0, 0)) -> float:
    """I(M u + m; N u + n) in bits for uniform u, from the joint counts of
    every assignment u of ``free`` bits."""
    joint = Counter((_apply(view, u, offsets[0]), _apply(secret, u, offsets[1])) for u in range(2**free))
    views, secrets = Counter(), Counter()
    for (v, s), count in joint.items():
        views[v] += count
        secrets[s] += count
    return math.fsum(c / 2**free * math.log2(c * 2**free / (views[v] * secrets[s])) for (v, s), c in joint.items())


_COLUMNS = st.integers(1, 7).flatmap(lambda free: st.tuples(
    st.just(free),
    st.lists(st.integers(0, 15), min_size=free, max_size=free),
    st.lists(st.integers(0, 7), min_size=free, max_size=free),
    st.integers(0, 15),
    st.integers(0, 7),
))


@settings(max_examples=200, deadline=None)
@given(_COLUMNS)
# Free bits (f, m): a message bit f XOR m (bit 0) beside the mask m (bit 1)
# against the file bit f: the view knows its mask, so the pad hides nothing.
@example((2, [0b01, 0b11], [1, 0], 0, 0))
def test_rank_formula_is_mutual_information(case):
    # For uniform u, I(M u + m; N u + n) = rank M + rank N - rank [M; N],
    # whatever the offsets, counted over every assignment.
    free, view, secret, m, n = case
    assert information(view, secret) == pytest.approx(
        _counted_information(view, secret, free, (m, n)), abs=1e-9)


def test_a_known_mask_does_not_hide_a_file_bit():
    # Free bits (f, m): a message bit f XOR m pads f, unless the view also
    # holds m, as a server's view holds its own masks.
    message, mask, file_bit = [1, 1], [0, 1], [1, 0]
    assert information(message, file_bit) == 0
    assert information([a << 1 | b for a, b in zip(message, mask)], file_bit) == 1
    assert oracle._rank([0b011, 0b101, 0b110]) == 2 and oracle._rank([]) == 0


@settings(max_examples=200, deadline=None)
@given(_COLUMNS)
def test_zeros_of_an_affine_map_by_rank(case):
    # C u + c is zero at 2^(F - rank C) assignments when c lies in the span
    # of C's columns, and at none otherwise.
    free, columns, _secret, offset, _n = case
    zeros = sum(_apply(columns, u, offset) == 0 for u in range(2**free))
    rank = oracle._solved(columns, offset)
    assert zeros == (0 if rank is None else 2 ** (free - rank))


def test_aborting_rounds_keep_their_earlier_messages():
    # Skeletons that abort at their second round still carry the first
    # round's messages: leaving their rank terms out reads 1/2 bit where
    # the audit reads 2/3, and on their own they leak.
    terms = rank_terms(L32, "unmasked-messages")
    late = [i for i, (skeleton, _mass, _bits) in enumerate(terms) if skeleton[0][2] and skeleton[2][1] > 1]
    assert late
    total = sum(mass for _skeleton, mass, _bits in terms)
    assert sum(mass * bits for i, (_s, mass, bits) in enumerate(terms) if i not in late) / total == Fraction(1, 2)
    assert sum(mass * bits for _s, mass, bits in terms) / total == Fraction(2, 3)
    enumeration = oracle._Enumeration(L32, False, "unmasked-messages", classes=True)
    replayed = enumeration.replay_all()
    aborting = oracle._Replayed([replayed.skeletons[i] for i in late], replayed.affine[late], replayed.table[late])
    nonabort, fail, settled = oracle._settle(enumeration, aborting, False)
    assert (nonabort, fail) == (0, 0)
    assert settled["servers_vs_client"] > 0
    assert settled["server2_vs_server1"] == settled["server1_vs_server2"] == 0.0


def test_every_file_pair_certified_on_honest_slices():
    # Honest audits of the matrix settle every file pair at 0.0 and recover
    # on every live row, with and without the abort rule and conditioning.
    for (L1, L2, n, ell1, ell2, alpha, t), condition, no_abort in itertools.product(
        INSTANCES[10:16], (False, True), (False, True)
    ):
        params = ProtocolParams(n=n, t_exponent=t, alpha=alpha, L1=L1, L2=L2, ell1=ell1, ell2=ell2)
        enumeration = oracle._Enumeration(params, no_abort, None, classes=True)
        _nonabort, fail, settled = oracle._settle(enumeration, enumeration.replay_all(), condition)
        assert settled == dict.fromkeys(FILE_PAIRS, 0.0) and fail == 0


@pytest.mark.parametrize("params, mutation", [(N4, None), (N4, "reuse-pad"), (L32, "reuse-pad")])
def test_masses_from_ranks_match_the_expanded_rows(params, mutation):
    # The non-abort and failure masses read from the skeleton table and the
    # ranks of miss equal those counted over every expanded row's ok.
    enumeration = oracle._Enumeration(params, False, mutation, classes=True)
    replayed = enumeration.replay_all()
    abort, ok = oracle.VARIABLES.index("abort"), oracle.VARIABLES.index("ok")
    nonabort = fail = 0
    for chunk in enumeration.chunks(replayed):
        codes, weights = enumeration.codes(chunk), chunk.weights[chunk.skel]
        nonabort += int(weights[codes[:, abort] == 0].sum())
        fail += int(weights[codes[:, ok] == 0].sum())
    assert oracle._settle(enumeration, replayed, False)[:2] == (nonabort, fail)


@functools.cache
def _replayed(params: ProtocolParams, mutation) -> tuple:
    enumeration = oracle._Enumeration(params, False, mutation, classes=True)
    return enumeration, enumeration.replay_all()


def _words(draw, free: int, bits: int) -> list:
    """One output's offset and ``free`` columns of ``bits`` bits, many of
    them zero: columns often depend on each other (rank-deficient unsel)
    and offsets often leave their span."""
    word = st.one_of(st.just(0), st.integers(0, 2**bits - 1))
    return draw(st.lists(word, min_size=free + 1, max_size=free + 1))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(N4, None), (N4, "reuse-pad"), (L32, None), (L32, "unmasked-messages")]), st.booleans(),
       st.data())
def test_ranks_per_output_match_the_joint_pattern_reference(instance, live_only, data):
    # Random skeleton tables over a real enumeration's skeletons: each row
    # draws its msgs1, msgs2, unsel and miss words from small pools, so
    # that each pattern meets several patterns of the other outputs, as
    # one selection's unselected files meet every sequence's messages.  A
    # pool entry is a real skeleton's words or small random ones.  The
    # masses and every settled pair equal the reference's.
    enumeration, (skeletons, affine, skeleton_table) = _replayed(*instance)
    lay = enumeration.layout
    free = affine.shape[2] - 1
    real = st.integers(0, len(skeletons) - 1)
    bits = {**lay.widths, "miss": lay.len1 + lay.len2}

    def pool(name: str) -> list:
        picks = data.draw(st.lists(st.one_of(real, st.just(None)), min_size=1, max_size=3), label=name)
        output = oracle._AFFINE.index(name)
        return [affine[i, output].tolist() if i is not None else _words(data.draw, free, bits[name]) for i in picks]

    outputs = {name: pool(name) for name in ("msgs1", "msgs2", "unsel", "miss")}
    rows = data.draw(st.lists(st.tuples(real, *(st.integers(0, 2) for _ in outputs)), min_size=1, max_size=24),
                     label="rows")
    table = affine[[i for i, *_picks in rows]].copy()
    for r, (_i, *picks) in enumerate(rows):
        for (name, words), pick in zip(outputs.items(), picks):
            table[r, oracle._AFFINE.index(name)] = words[pick % len(words)]
    picked = [i for i, *_picks in rows]
    replayed = oracle._Replayed([skeletons[i] for i in picked], table, skeleton_table[picked])
    assert oracle._settle(enumeration, replayed, live_only) == joint_pattern_settle(enumeration, replayed, live_only)


@pytest.mark.parametrize("params, mutation", [(N4, None), (N4, "reuse-pad"), (L32, "reuse-pad"),
                                              (L32, "unmasked-messages"), (L32, "leak-selection")])
def test_ranks_per_output_match_the_reference_on_whole_tables(params, mutation):
    enumeration, replayed = _replayed(params, mutation)
    for live_only in (False, True):
        assert oracle._settle(enumeration, replayed, live_only) == joint_pattern_settle(
            enumeration, replayed, live_only)


# The mutated audits whose client pair leaks, with the leakage each prints:
# ``audit`` flags as params and mutation, and the printed value.
LEAKING_CLIENT = {
    "four-round-reuse-pad": (ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=3, ell1=1, ell2=0), "reuse-pad",
                             "0.3125"),
    "n3-reuse-pad": (ProtocolParams(n=3, t_exponent=0.4, alpha=1.0, ell1=1, ell2=0), "reuse-pad", "0.375"),
    "n4-reuse-pad": (ProtocolParams(n=4, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1), "reuse-pad", "0.1875"),
    "n4-unmasked-messages": (ProtocolParams(n=4, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1), "unmasked-messages",
                             "0.375"),
    "L3x2-n4-unmasked-messages": (ProtocolParams(n=4, t_exponent=0.4, alpha=1.0, L1=3, L2=2, ell1=1, ell2=0),
                                  "unmasked-messages", "1.6041666666666667"),
}


@pytest.mark.parametrize("name", sorted(LEAKING_CLIENT))
def test_leaking_client_pairs_print_their_pinned_floats(name):
    # 5/16, 3/8, 3/16, 3/8 and 77/48 bits, printed as recorded before the
    # ranks were taken per output; the reference reads the same masses and
    # pairs from the same skeletons.
    params, mutation, printed = LEAKING_CLIENT[name]
    assert oracle.audit(params, mutation=mutation).to_record()["servers_vs_client"] == printed
    enumeration = oracle._Enumeration(params, False, mutation, classes=True)
    replayed = enumeration.replay_all()
    assert oracle._settle(enumeration, replayed, False) == joint_pattern_settle(enumeration, replayed, False)
