import math

import pytest

from adder_spir.infotheory import otp_lemma_check
from adder_spir.model import ProtocolParams
from adder_spir.oracle import (
    DEFAULT_STATE_BUDGET,
    StateBudgetExceeded,
    audit,
    enumerate_protocol,
    required_states,
)

_TINY = ProtocolParams(n=3, t_exponent=0.4, alpha=1.0, ell1=1, ell2=0)
# Smallest feasible multi-file instance: a three-file chain at server 1,
# zero-length per-round files at server 2.
_MULTI = ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=2, ell1=1, ell2=0)


def test_enumeration_channel_marginal():
    # Single channel use, no files: the sum takes values 0/1/2 with
    # probabilities 1/4, 1/2, 1/4.
    p = ProtocolParams(n=1, t_exponent=0.4, alpha=0.5, ell1=0, ell2=0)
    dist = enumerate_protocol(p)
    ym = dist.marginal(("y",))
    assert math.isclose(ym.table[(bytes([0]),)], 0.25)
    assert math.isclose(ym.table[(bytes([1]),)], 0.5)
    assert math.isclose(ym.table[(bytes([2]),)], 0.25)
    assert abs(float(dist.total_mass()) - 1.0) < 1e-12


def test_state_budget_guard():
    with pytest.raises(StateBudgetExceeded) as exc:
        enumerate_protocol(_TINY, state_budget=16)
    assert exc.value.required > exc.value.budget == 16


def test_required_states_counts_partition_choices():
    # 4 selections x 16 file assignments x (4,608 aborting channel-input pairs
    # + 6,881,280 (pair, partition) choices): over the default budget.
    params = ProtocolParams(n=8, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1)
    assert required_states(params) == 440_696_832 > DEFAULT_STATE_BUDGET
    with pytest.raises(StateBudgetExceeded):
        enumerate_protocol(params)


def test_honest_audit_is_exactly_private():
    report = audit(_TINY)
    assert report.all_zero(1e-9)
    assert report.reliability_error == 0.0
    assert report.conditioning == "unconditioned"


def test_honest_audit_conditioned():
    report = audit(_TINY, condition_nonabort=True)
    assert report.all_zero(1e-9)
    assert report.conditioning == "non-abort"


def test_exact_rational_matches_float():
    float_report = audit(_TINY)
    exact_report = audit(_TINY, exact=True)
    for name, v in float_report.leakages.items():
        assert abs(v - exact_report.leakages[name]) <= 1e-12


def test_leak_selection_mutation_detected():
    report = audit(_TINY, mutation="leak-selection", condition_nonabort=True)
    assert report.client_privacy_s1 >= 0.1
    assert report.client_privacy_s2 >= 0.1
    assert not report.all_zero(1e-9)


def test_reuse_pad_mutation_detected():
    report = audit(_TINY, mutation="reuse-pad", condition_nonabort=True)
    assert report.servers_vs_client >= 0.1


def test_unmasked_messages_mutation_detected():
    report = audit(_TINY, mutation="unmasked-messages", condition_nonabort=True)
    assert report.servers_vs_client >= 0.1


def test_multifile_honest_audit():
    report = audit(_MULTI)
    assert report.all_zero(1e-9)
    assert report.reliability_error == 0.0
    assert report.mode == "multifile"


def test_report_record_shape():
    report = audit(_TINY)
    rec = report.to_record()
    assert rec["record"] == "leakage-report"
    assert rec["mode"] == "two_file"
    assert set(report.leakages) <= set(rec)


def test_otp_lemma_width_one():
    report = otp_lemma_check(1)
    assert report.entries == 4096
    assert report.passed(1e-12)
    assert report.max_masking_slack == 0.0
    assert report.max_hiding_slack == 0.0


def test_otp_lemma_rejects_bad_width():
    with pytest.raises(ValueError):
        otp_lemma_check(0)
    with pytest.raises(ValueError):
        otp_lemma_check(4)
