"""The selection pairs keyed without a server's own messages, files and masks.

``oracle._own_parts`` certifies, by one GF(2) solve per value V of the
round verdicts and the leak, that a server's messages are one affine map
of its files and masks and of its channel inputs at the published
positions: the columns of every free bit and of the offset, over every
counted skeleton of the group, have the rank of their parts without the
messages.  Where the solve passes, ``audit`` keys the server's
``client_privacy_s*`` pair by its verdicts, leak and channel-input digits
alone and expands only the channel bits; elsewhere the server keeps its
full view.  Either way the records must be the full view's, byte for byte:
the digests of ``tests/test_audit_matrix.py`` were recorded before any
view was reduced.  The solve knows nothing of the message format, so it
reduces the mutations that change it (``reuse-pad``,
``unmasked-messages``), and refuses a message that reads the other
server's input or [y_p = 2], which no map of what the key keeps computes
unless the leak names the selection.
"""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

from adder_spir import multifile, oracle
from adder_spir.bits import BitString
from adder_spir.model import ProtocolParams
from adder_spir.protocol import MUTATIONS
from test_audit_matrix import (
    DIGEST, INSTANCES, LIVE_SETS, LIVE_SETS_DIGEST, WIDE_SETS, WIDE_SETS_DIGEST, cases_digest, matrix_digest,
)

N4 = ProtocolParams(n=4, t_exponent=0.4, alpha=Fraction(1, 2), ell1=1, ell2=1)
L32 = ProtocolParams(n=2, t_exponent=0.4, alpha=Fraction(1), L1=3, L2=2, ell1=1, ell2=0)
DROPPED = "own messages, files and masks dropped"
BROKEN = "full view (msgs1 is no affine map of its files, masks, published inputs, verdicts and leak)"
# Four rounds, where server 1's reused pad once kept its full view.
REUSE_PAD_L33 = ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=3, ell1=1, ell2=0)


def _full_views(monkeypatch) -> None:
    """Make every audit keep both servers' full views."""
    monkeypatch.setattr(oracle, "_own_parts", lambda *_args: {name: "forced" for name in oracle._REDUCED})


def _record(report) -> dict:
    return report.to_record() | {"wall_time_s": 0}


@pytest.mark.parametrize(
    "digest, expected",
    [
        pytest.param(lambda: matrix_digest(INSTANCES), DIGEST, id="matrix"),
        pytest.param(lambda: matrix_digest(LIVE_SETS), LIVE_SETS_DIGEST, id="live-sets"),
        pytest.param(lambda: cases_digest(WIDE_SETS), WIDE_SETS_DIGEST, id="wide-sets"),
    ],
)
def test_full_views_print_the_reduced_records(monkeypatch, digest, expected):
    # Every mutation, both conditionings, the abort rule on and off: the
    # records of the reduced keys (pinned by test_audit_matrix.py) are the
    # full views', byte for byte.
    _full_views(monkeypatch)
    assert digest() == expected


@pytest.mark.parametrize("params, condition, rows", [(N4, True, 64), (L32, False, 306)], ids=["n4", "L3x2"])
def test_honest_servers_are_keyed_by_their_channel_inputs(params, condition, rows):
    # The benchmark's two audits: both servers follow the rule, and only
    # the channel bits of each skeleton are expanded, 2^-B of its rows.
    report = oracle.audit(params, condition_nonabort=condition)
    assert report.keyed == (("client_privacy_s1", DROPPED), ("client_privacy_s2", DROPPED))
    assert report.expanded_rows == rows


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("params", [N4, L32], ids=["n4", "L3x2"])
def test_mutated_servers_keep_their_full_view(monkeypatch, params, mutation):
    # Changed behaviour: reuse-pad pads server 1's second message with the
    # inputs of its first set, and unmasked-messages sends server 1's chain
    # values bare.  Both break the honest message format, yet stay one
    # affine map of server 1's files, masks and published inputs, so server
    # 1 is now reduced too, and its record is still its full view's.
    # leak-selection only publishes z1, which both reduced views keep.
    report = oracle.audit(params, mutation=mutation)
    assert report.keyed == (("client_privacy_s1", DROPPED), ("client_privacy_s2", DROPPED))
    _full_views(monkeypatch)
    assert _record(oracle.audit(params, mutation=mutation)) == _record(report)


def test_four_round_reuse_pad_expands_only_the_channel_bits():
    # Server 1 kept its full view here, and all 1,960,704 rows were
    # expanded over its file and mask bits; reduced, 7,659 rows stand for
    # them.
    report = oracle.audit(REUSE_PAD_L33, mutation="reuse-pad")
    assert report.keyed == (("client_privacy_s1", DROPPED), ("client_privacy_s2", DROPPED))
    assert (report.enumerated_rows, report.expanded_rows) == (1_960_704, 7_659)
    assert report.leakages == dict.fromkeys(oracle._PAIRS, 0.0) | {"servers_vs_client": 0.3125}
    assert report.reliability_error == 0.5


@pytest.mark.parametrize(
    "digest, expected",
    [
        pytest.param(lambda: matrix_digest(INSTANCES), DIGEST, id="matrix"),
        pytest.param(lambda: matrix_digest(LIVE_SETS), LIVE_SETS_DIGEST, id="live-sets"),
        pytest.param(lambda: cases_digest(WIDE_SETS), WIDE_SETS_DIGEST, id="wide-sets"),
    ],
)
def test_every_digest_audit_reduces_both_selection_pairs(monkeypatch, digest, expected):
    # Every mutation, both conditionings, the abort rule on and off: no
    # audit of the digest matrices keeps a full view.
    audit, keyed = oracle.audit, set()

    def spy(*args, **kwargs):
        report = audit(*args, **kwargs)
        keyed.add(report.keyed)
        return report

    monkeypatch.setattr(oracle, "audit", spy)
    assert digest() == expected
    assert keyed == {(("client_privacy_s1", DROPPED), ("client_privacy_s2", DROPPED))}


def test_certificate_columns_wider_than_a_word_keep_the_full_view(monkeypatch):
    # A column packs V, the server's files and masks, its published inputs,
    # the offset's 1 and its messages into one int64 word; where that takes
    # more than _COLUMN_BITS bits, the server keeps its full view and says
    # why, rather than let the word wrap.
    expected = _record(oracle.audit(L32))
    monkeypatch.setattr(oracle, "_COLUMN_BITS", 0)
    bits = {name: int(re.fullmatch(r"full view \(msgs\d's certificate needs (\d+)-bit columns\)", how)[1])
            for name, how in oracle.audit(L32).keyed}
    # Both hold V, 2 published positions in each of 2 rounds and the 1;
    # server 1 adds its files (3 bits), its mask (1) and 2 message bits per
    # round, and server 2 has empty files, no masks and no message bits.
    assert bits["client_privacy_s1"] - bits["client_privacy_s2"] == 3 + 1 + 2 * 2
    for name, width in bits.items():
        monkeypatch.setattr(oracle, "_COLUMN_BITS", width)
        report = oracle.audit(L32)
        assert dict(report.keyed)[name] == DROPPED
        assert _record(report) == expected
        monkeypatch.setattr(oracle, "_COLUMN_BITS", width - 1)
        report = oracle.audit(L32)
        assert dict(report.keyed)[name] == f"full view (msgs{name[-1]}'s certificate needs {width}-bit columns)"
        assert _record(report) == expected


def _patched_first_message(monkeypatch, reads: str) -> None:
    """Make server 1's first message of every round read, in place of its
    input at each position p of its first set, ``reads``: "x2", server 2's
    input at p (the complement of server 1's where p is hidden), or "y2",
    [y_p = 2] (server 1's input where p is decodable, 0 where it is hidden)."""
    execute_session = multifile.execute_session

    def patched(params, files1, files2, sel, opening, **kwargs):
        t = execute_session(params, files1, files2, sel, opening, **kwargs)
        if t.aborted:
            return t
        positions = t.selection_sets.s1_for_server1
        if reads == "x2":
            read = opening.x2.subselect(positions)
        else:
            read = BitString.from_array(np.asarray(opening.y)[np.asarray(positions) - 1] == 2)
        return dataclasses.replace(t, m11=read ^ files1.files[0])

    monkeypatch.setattr(multifile, "execute_session", patched)


@pytest.mark.parametrize("reads", ["x2", "y2"])
@pytest.mark.parametrize("params, condition", [(N4, True), (N4, False), (L32, False)], ids=["n4-live", "n4", "L3x2"])
def test_a_message_off_the_rule_keeps_the_full_view(monkeypatch, params, condition, reads):
    # Each patched message bit agrees with x1 at its position wherever the
    # position is decodable, and differs where it is hidden.  Within one
    # value of the verdicts and the leak some skeletons have the position
    # decodable and some hidden, so no one affine map of server 1's files,
    # masks and published inputs gives the message: server 1 keeps its full
    # view, and the record is the full views' record.  The message tells
    # server 1 whether its first set is hidden, so its pair leaks; dropping
    # its messages uncertified would print 0.0.
    _patched_first_message(monkeypatch, reads)
    report = oracle.audit(params, condition_nonabort=condition)
    assert report.keyed == (("client_privacy_s1", BROKEN), ("client_privacy_s2", DROPPED))
    _full_views(monkeypatch)
    assert _record(oracle.audit(params, condition_nonabort=condition)) == _record(report)
    monkeypatch.setattr(oracle, "_own_parts", lambda *_args: {})
    assert oracle.audit(params, condition_nonabort=condition).client_privacy_s1 == 0.0 < report.client_privacy_s1


@pytest.mark.parametrize("reads", ["x2", "y2"])
@pytest.mark.parametrize("params", [N4, L32], ids=["n4", "L3x2"])
def test_a_leaked_selection_certifies_the_patched_message(monkeypatch, params, reads):
    # Under leak-selection the leak names z1, and so which of server 1's
    # sets is decodable: the patched message is one map of each group's
    # view after all.  The certificate groups the skeletons by verdicts and
    # leak, not by raw sets, and passes here, with the full views' record.
    _patched_first_message(monkeypatch, reads)
    report = oracle.audit(params, mutation="leak-selection")
    assert report.keyed == (("client_privacy_s1", DROPPED), ("client_privacy_s2", DROPPED))
    _full_views(monkeypatch)
    assert _record(oracle.audit(params, mutation="leak-selection")) == _record(report)
