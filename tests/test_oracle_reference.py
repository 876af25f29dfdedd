"""Cross-checks of the vectorized oracle against the brute-force reference.

The reference (``brute_force.py``) replays the protocol once per assignment
and keys a dict by value tuples.  Every comparison requires the same decoded
table, state count and reliability error, leakages within 1e-12, and a
``required_states`` equal to the rows the enumerator generated.  On
the small tables the reference leakages come from the dict-based mutual
information the package used before it became array-backed.  The
brute-force n=4 and multi-file references each run once, because each takes
seconds.  The skeletons ``audit`` builds, some from runs its plans share,
are compared with a reference that replays every (sequence, selection)
through ``execute_multifile`` alone, on every audit of the digest matrices.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adder_spir import multifile, oracle
from adder_spir.model import ProtocolParams
from adder_spir.protocol import MUTATIONS, abort_check
from brute_force import _estimate_multifile, _estimate_two_file, reference_enumeration, replayed_skeletons
from test_audit_matrix import INSTANCES, LIVE_SETS, VARIANTS, WIDE_SETS

TINY = ProtocolParams(n=3, t_exponent=0.4, alpha=1.0, ell1=1, ell2=0)
N4 = ProtocolParams(n=4, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1)
MULTI = ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=2, ell1=1, ell2=0)

VIEWS = {
    "client_privacy_s1": (oracle.SERVER1_VIEW, ("z1", "z2")),
    "client_privacy_s2": (oracle.SERVER2_VIEW, ("z1", "z2")),
    "server2_vs_server1": (oracle.SERVER1_VIEW, ("files2",)),
    "server1_vs_server2": (oracle.SERVER2_VIEW, ("files1",)),
    "servers_vs_client": (oracle.CLIENT_VIEW, ("unsel",)),
}


def _dict_mi(table, group_a, group_b):
    ia = [oracle.VARIABLES.index(v) for v in group_a]
    ib = [oracle.VARIABLES.index(v) for v in group_b]
    joint, pa, pb = {}, {}, {}
    for key, w in table.items():
        if w == 0.0:
            continue
        a = tuple(key[i] for i in ia)
        b = tuple(key[i] for i in ib)
        joint[(a, b)] = joint.get((a, b), 0.0) + w
        pa[a] = pa.get(a, 0.0) + w
        pb[b] = pb.get(b, 0.0) + w
    return math.fsum(w * math.log2(w / (pa[a] * pb[b])) for (a, b), w in joint.items() if w > 0)


class _Reference:
    """A brute-force table and its audits, cached per conditioning.

    ``dict_mi`` computes leakages with the dict-based mutual information;
    otherwise the reference table's own (array-backed) distribution does,
    which is much faster on the larger tables.
    """

    def __init__(self, params, mode="two_file", *, dict_mi=True, **kwargs):
        self.dist = reference_enumeration(params, mode, **kwargs)
        self.table = dict(self.dist.table.items())
        self.dict_mi = dict_mi
        self._audits = {}

    def audit(self, condition_nonabort):
        """(reliability_error, leakages)."""
        if condition_nonabort not in self._audits:
            abort, ok = oracle.VARIABLES.index("abort"), oracle.VARIABLES.index("ok")
            work = {k: float(p) for k, p in self.table.items()}
            nonabort = math.fsum(p for k, p in work.items() if not k[abort])
            fail = math.fsum(p for k, p in work.items() if k[ok] is False)
            reliability = fail / nonabort if nonabort > 0 else 0.0
            if self.dict_mi:
                if condition_nonabort:
                    kept = {k: p for k, p in work.items() if k[abort] is False}
                    mass = math.fsum(kept.values())
                    work = {k: p / mass for k, p in kept.items()}
                leakages = {name: _dict_mi(work, a, b) for name, (a, b) in VIEWS.items()}
            else:
                dist = self.dist
                if condition_nonabort:
                    dist = dist.condition("abort", False)
                leakages = {name: dist.mutual_information(a, b) for name, (a, b) in VIEWS.items()}
            self._audits[condition_nonabort] = reliability, leakages
        return self._audits[condition_nonabort]


def _audit_and_table(params, dist=None, **kwargs):
    """Run ``audit``; return its report and the distribution
    ``enumerate_protocol`` gives for the same instance.

    A given ``dist`` stands in for the enumeration, which does not depend on
    the conditioning.  The streamed audit never builds the table, so its
    rows are counted against the enumerated one.
    """
    if dist is None:
        dist = oracle.enumerate_protocol(params, **{k: v for k, v in kwargs.items() if k != "condition_nonabort"})
    report = oracle.audit(params, **kwargs)
    assert report.required_states == report.state_count == len(dist)
    return report, dist


def _cross_check(params, reference, *, conditionings=(False, True), exact_reliability=True, exact=False, **kwargs):
    """Audit ``params`` under each conditioning against ``reference``, built
    with Fraction probabilities if ``exact`` (the oracle's are always exact)."""
    dist = None
    for condition_nonabort in conditionings:
        report, audited = _audit_and_table(params, dist, condition_nonabort=condition_nonabort, **kwargs)
        assert report.state_count == len(reference.table)
        if dist is None:
            dist = audited
            table = dict(dist.table.items())
            assert table.keys() == reference.table.keys()
            assert max(abs(float(table[k]) - float(p)) for k, p in reference.table.items()) <= 1e-15
            assert all(isinstance(p, Fraction) for p in table.values())
            if exact:
                assert table == reference.table
        reliability, leakages = reference.audit(condition_nonabort)
        if exact_reliability:
            assert report.reliability_error == reliability
        else:
            assert math.isclose(report.reliability_error, reliability, rel_tol=1e-12, abs_tol=1e-15)
        for name, value in leakages.items():
            assert abs(report.leakages[name] - value) <= 1e-12, name


@pytest.fixture(scope="module")
def n4_reference():
    return _Reference(N4, dict_mi=False)


@pytest.mark.parametrize("kwargs", [{}, {"exact": True}] + [{"mutation": m} for m in MUTATIONS])
def test_tiny_two_file_matches_reference(kwargs):
    _cross_check(TINY, _Reference(TINY, **kwargs), **kwargs)


def test_n4_two_file_matches_reference(n4_reference):
    _cross_check(N4, n4_reference)


def test_n4_abort_disabled_matches_reference(n4_reference):
    # At n=4, t=0.4 no decodable count fails the size check, so disabling it
    # leaves the distribution, and the brute-force reference, unchanged.
    assert all(abort_check(g, 4, 0.4) for g in range(5))
    _cross_check(N4, n4_reference, conditionings=(False,), abort_disabled=True)


def test_multifile_matches_reference():
    _cross_check(MULTI, _Reference(MULTI, "multifile", dict_mi=False), conditionings=(False,))


def test_recovery_of_another_file_matches_reference(monkeypatch):
    # The client reconstructs a file it did not request, so whether recovery
    # succeeded depends on the file bits: the oracle checks it row by row
    # and must report the reference's reliability error, exactly one half.
    reconstruct = multifile.reconstruct

    def misdirected(Z, L, chosen):
        return reconstruct(1 if Z > 1 else 2, L, chosen)

    monkeypatch.setattr(multifile, "reconstruct", misdirected)
    reference = _Reference(MULTI, "multifile", dict_mi=False)
    assert reference.audit(False)[0] == 0.5
    _cross_check(MULTI, reference, conditionings=(False,))


@st.composite
def _instances(draw):
    # (3, 3) has four rounds, too many for the brute force even at n = 1.
    L1, L2 = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    params = ProtocolParams(
        n=draw(st.integers(1, 3 if (L1, L2) == (2, 2) else 1)),
        t_exponent=draw(st.sampled_from([0.1, 0.25, 0.4])),
        alpha=draw(st.sampled_from([0.0, 1 / 3, 0.5, 1.0])),
        L1=L1,
        L2=L2,
        ell1=draw(st.integers(0, 1)),
        ell2=draw(st.integers(0, 1)),
    )
    mode = "two_file" if (L1, L2) == (2, 2) else "multifile"
    estimate = _estimate_two_file(params) if mode == "two_file" else _estimate_multifile(params)
    assume(estimate <= 2**11)
    kwargs = {
        "mutation": draw(st.sampled_from([None, *MUTATIONS])),
        "abort_disabled": draw(st.booleans()),
        "exact": draw(st.booleans()),
    }
    return params, mode, kwargs


@settings(max_examples=10, deadline=None)
@given(_instances())
def test_random_tiny_instances_match_reference(instance):
    params, mode, kwargs = instance
    reference = _Reference(params, mode, **kwargs)
    _cross_check(params, reference, conditionings=(False,), exact_reliability=False, **kwargs)


def test_skeletons_match_replaying_every_selection():
    # ``replay_all`` builds a skeleton that aborted from its plan's run of
    # the rounds before its last and the opening's y and verdict, wherever
    # the plan has run them, and shares answers, runs and interned values
    # between replays.  Its rows, affine words, table and interned values
    # equal the reference's, which replays every (sequence, selection)
    # alone, on the instances of the three digest matrices under every
    # mutation with the abort rule on and off (as ``WIDE_SETS`` lists them
    # there).  The conditioning is applied after the replays and does not
    # reach them, so this holds under both; the digests, recorded when
    # every skeleton was replayed, pin each audit under both.
    cases = {(instance, mutation, no_abort) for instance in INSTANCES + LIVE_SETS for mutation, _c, no_abort in VARIANTS}
    cases |= {(instance, mutation, no_abort) for instance, (mutation, _c, no_abort) in WIDE_SETS}
    aborted_in = set()
    for (L1, L2, n, ell1, ell2, alpha, t), mutation, no_abort in sorted(cases, key=repr):
        params = ProtocolParams(n=n, t_exponent=t, alpha=alpha, L1=L1, L2=L2, ell1=ell1, ell2=ell2)
        enumeration = oracle._Enumeration(params, no_abort, mutation, classes=True)
        skeletons, affine, table = enumeration.replay_all()
        rows, words, reference, interned = replayed_skeletons(oracle._Enumeration(params, no_abort, mutation, classes=True))
        assert skeletons == rows, (params, mutation, no_abort)
        assert np.array_equal(affine, words) and np.array_equal(table, reference)
        assert {name: list(ids) for name, ids in enumeration.interned.items()} == interned
        aborted_in |= {executed for (_z1, _z2, aborted), _values, (_free, executed, _combos), _size in rows if aborted}
    assert aborted_in == {1, 2}
