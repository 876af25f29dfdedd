"""The selection pairs keyed without a server's own messages, files and masks.

A server's messages are its channel inputs at the published sets XOR its
chain values, and its files and masks are uniform and independent of the
rest of its view and of the selection.  Where ``oracle._own_parts`` finds
every message bit following that rule, ``audit`` keys the server's
``client_privacy_s*`` pair by its sets, leak and channel inputs alone and
expands only the channel bits; elsewhere the server keeps its full view.
Either way the records must be the full view's, byte for byte: the digests
of ``tests/test_audit_matrix.py`` were recorded before any view was reduced.
"""

import dataclasses
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
BROKEN = "full view (msgs1 is not x1 at the published sets XOR the chain values)"


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
    # reuse-pad pads server 1's second message with the inputs of its first
    # set, and unmasked-messages sends server 1's chain values bare: server
    # 1 keeps its full view and server 2 is reduced.  leak-selection only
    # publishes z1, which both reduced views keep.
    report = oracle.audit(params, mutation=mutation)
    s1 = DROPPED if mutation == "leak-selection" else BROKEN
    assert report.keyed == (("client_privacy_s1", s1), ("client_privacy_s2", DROPPED))
    _full_views(monkeypatch)
    assert _record(oracle.audit(params, mutation=mutation)) == _record(report)


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
    # Each patched message bit agrees with the rule wherever its position
    # is decodable, and breaks it where the position is hidden: the check
    # compares offsets and columns, not values on some rows, so server 1
    # keeps its full view, and the record is the full views' record.  The
    # message tells server 1 whether its first set is hidden, so its pair
    # leaks; dropping its messages unchecked would print 0.0.
    _patched_first_message(monkeypatch, reads)
    report = oracle.audit(params, condition_nonabort=condition)
    assert report.keyed == (("client_privacy_s1", BROKEN), ("client_privacy_s2", DROPPED))
    _full_views(monkeypatch)
    assert _record(oracle.audit(params, condition_nonabort=condition)) == _record(report)
    monkeypatch.setattr(oracle, "_own_parts", lambda *_args: {})
    assert oracle.audit(params, condition_nonabort=condition).client_privacy_s1 == 0.0 < report.client_privacy_s1
