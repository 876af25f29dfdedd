"""Rank certificates against the tally path.

``audit`` settles each pair whose secret is file bits (``files2``,
``files1``, ``unsel``) by a GF(2) rank certificate when one holds, and
tallies only the other pairs.  ``_AUDIT_CERTIFICATES = False`` sends every
pair through the tally, so the digests of ``tests/test_audit_matrix.py``,
recorded before the certificates existed, must come out of both paths.
Where a certificate fails the pair is tallied, and the client's leakage
then has a closed form in the same ranks: with S the skeletons, M_s the
columns of the client's messages and N_s those of the unselected files,
I = sum_s p(s) (rank M_s + rank N_s - rank [M_s; N_s]).
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adder_spir import oracle
from adder_spir.model import ProtocolParams
from test_audit_matrix import (
    DIGEST, INSTANCES, LIVE_SETS, LIVE_SETS_DIGEST, WIDE_SETS, WIDE_SETS_DIGEST, cases_digest, matrix_digest,
)

FILE_PAIRS = ("server2_vs_server1", "server1_vs_server2", "servers_vs_client")
N4 = ProtocolParams(n=4, t_exponent=0.4, alpha=Fraction(1, 2), ell1=1, ell2=1)
L32 = ProtocolParams(n=2, t_exponent=0.4, alpha=Fraction(1), L1=3, L2=2, ell1=1, ell2=0)


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
    # records the certificates print (pinned by test_audit_matrix.py) are
    # the tally path's, byte for byte.
    monkeypatch.setattr(oracle, "_AUDIT_CERTIFICATES", False)
    assert digest() == expected


@pytest.mark.parametrize("params, condition", [(N4, True), (L32, False)], ids=["n4", "L3x2"])
def test_honest_audits_tally_only_the_selection_pairs(params, condition):
    report = oracle.audit(params, condition_nonabort=condition)
    assert [name for name, _pairs in report.tallied] == ["client_privacy_s1", "client_privacy_s2"]
    assert report.view_pairs == max(pairs for _name, pairs in report.tallied)
    assert report.all_zero()


@pytest.mark.parametrize("mutation, leak", [("reuse-pad", 0.25), ("unmasked-messages", 2 / 3)])
def test_a_failed_client_certificate_is_tallied(monkeypatch, mutation, leak):
    report = oracle.audit(L32, mutation=mutation)
    assert [name for name, _pairs in report.tallied] == ["client_privacy_s1", "client_privacy_s2", "servers_vs_client"]
    assert report.servers_vs_client == leak
    monkeypatch.setattr(oracle, "_AUDIT_CERTIFICATES", False)
    tallied = oracle.audit(L32, mutation=mutation)
    assert [name for name, _pairs in tallied.tallied] == list(tallied.leakages)
    assert tallied.to_record() | {"wall_time_s": 0} == report.to_record() | {"wall_time_s": 0}


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


def _independent_by_counting(view: list, secret: list, free: int) -> bool:
    """Whether M u and N u are independent for uniform u, from the joint
    counts of every assignment u of ``free`` bits."""
    def apply(columns, u):
        value = 0
        for j, column in enumerate(columns):
            if u >> j & 1:
                value ^= column
        return value

    pairs = {(tuple(apply(c, u) for c in view), apply(secret, u)) for u in range(2**free)}
    return len(pairs) == len({v for v, _s in pairs}) * len({s for _v, s in pairs})


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda free: st.tuples(
    st.just(free),
    st.lists(st.lists(st.integers(0, 7), min_size=free, max_size=free), min_size=1, max_size=3),
    st.permutations(range(free)),
    st.integers(0, free),
)))
def test_span_test_is_independence(case):
    # With N distinct unit rows (the secret is w of the free bits), the
    # columns of M at the secret's bits lie in the span of M's other
    # columns exactly when M u and N u are independent.
    free, view, order, w = case
    secret = [0] * free
    for row, j in enumerate(order[:w]):
        secret[j] = 1 << row
    assert oracle._spanned(view, secret) == _independent_by_counting(view, secret, free)


def test_a_known_mask_does_not_hide_a_file_bit():
    # Free bits (f, m): a message bit f XOR m pads f, unless the view also
    # holds m, as a server's view holds its own masks.
    message, mask, file_bit = [1, 1], [0, 1], [1, 0]
    assert oracle._spanned([message], file_bit)
    assert not oracle._spanned([message, mask], file_bit)
    assert oracle._rank([0b011, 0b101, 0b110]) == 2 and oracle._rank([]) == 0


def test_aborting_rounds_keep_their_earlier_messages():
    # Skeletons that abort at their second round still carry the first
    # round's messages: leaving their rank terms out reads 1/2 bit where
    # the audit reads 2/3, and on their own they fail the client's
    # certificate.
    terms = rank_terms(L32, "unmasked-messages")
    late = [i for i, (skeleton, _mass, _bits) in enumerate(terms) if skeleton[0][2] and skeleton[2][1] > 1]
    assert late
    total = sum(mass for _skeleton, mass, _bits in terms)
    assert sum(mass * bits for i, (_s, mass, bits) in enumerate(terms) if i not in late) / total == Fraction(1, 2)
    assert sum(mass * bits for _s, mass, bits in terms) / total == Fraction(2, 3)
    enumeration = oracle._Enumeration(L32, False, "unmasked-messages", classes=True)
    replayed = enumeration.replay_all()
    aborting = oracle._Replayed([replayed.skeletons[i] for i in late], replayed.affine[late])
    assert oracle._certified(enumeration.layout, aborting, False) == {"server2_vs_server1", "server1_vs_server2"}


def test_every_file_pair_certified_on_honest_slices():
    # Honest audits of the matrix certify every file pair, with and without
    # the abort rule and conditioning.
    for (L1, L2, n, ell1, ell2, alpha, t), condition, no_abort in itertools.product(
        INSTANCES[10:16], (False, True), (False, True)
    ):
        params = ProtocolParams(n=n, t_exponent=t, alpha=alpha, L1=L1, L2=L2, ell1=ell1, ell2=ell2)
        enumeration = oracle._Enumeration(params, no_abort, None, classes=True)
        assert oracle._certified(enumeration.layout, enumeration.replay_all(), condition) == set(FILE_PAIRS)
