import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adder_spir import multifile, oracle, protocol
from adder_spir.bits import BitString
from adder_spir.cli import main
from adder_spir.infotheory import otp_lemma_check
from adder_spir.model import ConfigurationError, ProtocolParams
from adder_spir.oracle import (
    DEFAULT_STATE_BUDGET,
    StateBudgetExceeded,
    audit,
    enumerate_protocol,
    required_states,
)
from brute_force import listed_counts

_TINY = ProtocolParams(n=3, t_exponent=0.4, alpha=1.0, ell1=1, ell2=0)
# Smallest feasible multi-file instance: a three-file chain at server 1,
# zero-length per-round files at server 2.
_MULTI = ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=2, ell1=1, ell2=0)
_N4 = ProtocolParams(n=4, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1)


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


def test_budget_counts_the_enumerated_rows():
    # The n=4 audit enumerates 3,904 rows standing for the full table's
    # 34,816: a budget between the two runs it, and the record keeps the
    # full count.  Two-bit files reduce by their share classes too: 3,904
    # rows standing for 16,384.
    report = audit(_N4, state_budget=3904)
    assert report.enumerated_rows == 3904 < report.state_count == report.required_states == 34816
    with pytest.raises(StateBudgetExceeded, match="needs 3904 rows standing for 34816, budget is 3903") as exc:
        audit(_N4, state_budget=3903)
    assert (exc.value.enumerated, exc.value.required, exc.value.budget) == (3904, 34816, 3903)
    ell2 = ProtocolParams(n=4, t_exponent=0.4, alpha=1.0, ell1=2, ell2=0)
    report = audit(ell2, state_budget=3904)
    assert report.enumerated_rows == 3904 < report.state_count == report.required_states == 16384
    with pytest.raises(StateBudgetExceeded, match="needs 3904 rows standing for 16384, budget is 3903") as exc:
        audit(ell2, state_budget=3903)
    assert (exc.value.enumerated, exc.value.required) == (3904, required_states(ell2))


@st.composite
def _class_instances(draw):
    """(n, (L1, L2), ell1, ell2): ell in {0, 1} at n <= 3 on every shape,
    or a two-position share at 2x2 and n <= 5."""
    if draw(st.booleans(), label="ell = 2"):
        ell1, ell2 = draw(st.sampled_from([(2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]), label="ell")
        return draw(st.integers(1, 5), label="n"), (2, 2), ell1, ell2
    n = draw(st.integers(1, 3), label="n")
    shape = draw(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]), label="L")
    return n, shape, draw(st.integers(0, 1), label="ell1"), draw(st.integers(0, 1), label="ell2")


@settings(max_examples=40, deadline=None)
@given(_class_instances(), st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3, 1.0]), st.booleans())
def test_orbits_stand_for_every_sequence(instance, alpha, abort_disabled):
    # The kept sequences' class sizes add up to the trivial group's
    # sequence count (counted from its openings, per round), the rows they
    # expand to are the rows counted before any replay, and their weighted
    # masses add up to the denominator and stand for every required row.
    n, (L1, L2), ell1, ell2 = instance
    assume(n < 3 or (L1, L2) != (3, 3))  # four rounds of 3 positions take too long to replay here
    params = ProtocolParams(n=n, t_exponent=0.4, alpha=alpha, L1=L1, L2=L2, ell1=ell1, ell2=ell2)
    full = oracle._Enumeration(params, abort_disabled, None)
    reduced = oracle._Enumeration(params, abort_disabled, None, classes=True)
    continuing = sum(v.partition is not None for _pair, v, *_counts in full.verdicts)
    aborting = len(full.verdicts) - continuing
    K = full.layout.K
    sequences = sum(continuing**k * aborting for k in range(K)) + continuing**K
    kept = list(reduced.sequences())
    assert sum(size for *_sequence, size in kept) == sequences
    assert reduced.lcm == full.lcm and reduced.denominator == full.denominator
    rows = mass = states = 0
    for chunk in reduced.chunks():
        rows += len(chunk.skel)
        mass += int(chunk.weights[chunk.skel].sum())
        states += chunk.states
    assert rows == reduced.rows and (states, mass) == (required_states(params, abort_disabled), reduced.denominator)


@settings(max_examples=60, deadline=None)
@given(_class_instances(), st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3, 1.0]), st.booleans(), st.booleans())
def test_closed_form_counts_match_the_listed_sequences(instance, alpha, abort_disabled, classes):
    # The skeletons and the lcm of the partition combinations are counted
    # from the kept openings that go on and that abort, before any sequence
    # is listed; listing every sequence, as the reference does, gives both.
    n, (L1, L2), ell1, ell2 = instance
    assume(classes or n < 3 or (L1, L2) == (2, 2))  # the trivial group lists too many sequences there
    params = ProtocolParams(n=n, t_exponent=0.4, alpha=alpha, L1=L1, L2=L2, ell1=ell1, ell2=ell2)
    enumeration = oracle._Enumeration(params, abort_disabled, None, classes)
    assert (enumeration.skeleton_count, enumeration.lcm) == listed_counts(enumeration)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3), st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]), st.integers(0, 1), st.integers(0, 1),
    st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([None, *protocol.MUTATIONS]), st.booleans(), st.randoms(),
)
# reuse-pad with ell = (1, 0) recovers a file through a channel bit, so
# whether its recovery succeeds differs between the rows of one skeleton.
@example(3, (2, 2), 1, 0, 1.0, "reuse-pad", False, random.Random(0))
@example(2, (3, 2), 1, 0, 1.0, "reuse-pad", False, random.Random(0))
@example(2, (3, 3), 1, 0, 1.0, "reuse-pad", False, random.Random(0))
def test_shared_openings_replay_like_one_sequence_alone(n, shape, ell1, ell2, alpha, mutation, abort_disabled, rng):
    # One enumeration shares each round opening between its sequences and
    # answers it once per plan; each sequence's skeletons equal those of a
    # fresh enumeration that replays that sequence alone, whose plans have
    # run none of its rounds.  There is one skeleton per (sequence,
    # selection), as counted before any replay.  Each one that went on is
    # replayed once, and one that aborted at most once; ``audit`` reports
    # both counters.
    L1, L2 = shape
    assume(n < 3 or shape == (2, 2))
    params = ProtocolParams(n=n, t_exponent=0.4, alpha=alpha, L1=L1, L2=L2, ell1=ell1, ell2=ell2)
    shared = oracle._Enumeration(params, abort_disabled, mutation, classes=True)
    sequences = list(shared.sequences())
    counted = shared.skeleton_count
    skeletons = []
    for sequence in sequences:
        shared.sequences = lambda sequence=sequence: iter([sequence])
        skeletons.append(list(shared.skeletons()))
    assert sum(len(rows) for (rows, _words), in skeletons) == shared.sequence_count * L1 * L2 == counted
    live = sum(verdict.partition is not None for (*_rounds, (_pair, verdict, *_counts)), _c, _s in sequences)
    assert live * L1 * L2 <= shared.replays <= counted
    for i in sorted(rng.sample(range(len(sequences)), min(len(sequences), 40))):
        alone = oracle._Enumeration(params, abort_disabled, mutation, classes=True)
        alone.sequences = lambda: iter([sequences[i]])
        assert list(alone.skeletons()) == skeletons[i]


def test_codes_wider_than_int64_are_a_configuration_error():
    # A packed channel input holds n K bits plus a round tag (3 bits at
    # K = 2): n = 29 fits the 62-bit code width, n = 30 does not.  The
    # check runs before any replay, whatever the budget.
    def shape(n):
        return ProtocolParams(n=n, t_exponent=0.4, alpha=0.5, L1=3, L2=2, ell1=0, ell2=0)

    oracle._Enumeration(shape(29), False, None)
    with pytest.raises(ConfigurationError, match="60 channel bits"):
        enumerate_protocol(shape(30), state_budget=required_states(shape(30)))


def test_honest_audit_is_exactly_private():
    report = audit(_TINY)
    assert report.all_zero()
    assert report.reliability_error == 0.0
    assert report.conditioning == "unconditioned"


def test_honest_audit_conditioned():
    report = audit(_TINY, condition_nonabort=True)
    assert report.all_zero()
    assert report.conditioning == "non-abort"


def test_exact_rational_flag_exits_two(tmp_path):
    # The flag had no effect (audits are always exact) and is gone: the
    # parser rejects it as an unknown argument.
    argv = ["audit", "--n", "3", "--alpha", "1.0", "--ell1", "1", "--exact-rational", "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_leak_selection_mutation_detected():
    report = audit(_TINY, mutation="leak-selection", condition_nonabort=True)
    assert report.client_privacy_s1 >= 0.1
    assert report.client_privacy_s2 >= 0.1
    assert not report.all_zero()


def test_reuse_pad_mutation_detected():
    report = audit(_TINY, mutation="reuse-pad", condition_nonabort=True)
    assert report.servers_vs_client >= 0.1


def test_unmasked_messages_mutation_detected():
    report = audit(_TINY, mutation="unmasked-messages", condition_nonabort=True)
    assert report.servers_vs_client >= 0.1


def test_multifile_honest_audit():
    report = audit(_MULTI)
    assert report.all_zero()
    assert report.reliability_error == 0.0
    assert report.mode == "multifile"


@pytest.mark.parametrize("params", [_N4, _MULTI], ids=["n4", "L3x2"])
def test_oracle_rows_are_distinct(params):
    # Every row carries every free input, so no two rows share their codes
    # and the distribution never merges rows.
    dist = enumerate_protocol(params)
    assert len(dist) == required_states(params)
    assert len(np.unique(dist._codes, axis=0)) == len(dist)


def test_report_record_shape():
    report = audit(_TINY)
    rec = report.to_record()
    assert rec["record"] == "leakage-report"
    assert rec["mode"] == "two_file"
    assert set(report.leakages) <= set(rec)


def test_nonaffine_message_is_rejected(monkeypatch):
    # Server 1's first message carries the AND of its two file bits: the
    # outputs stop being affine in the file bits, so no expansion may run.
    server_mask = protocol.server_mask

    def and_mask(x, sets, f1, f2):
        m1, m2 = server_mask(x, sets, f1, f2)
        if len(f1) == 0:
            return m1, m2
        product = f1.bit(1) & f2.bit(1)
        return m1 ^ BitString.from_int(product << (len(f1) - 1), len(f1)), m2

    monkeypatch.setattr(protocol, "server_mask", and_mask)
    with pytest.raises(TypeError):
        enumerate_protocol(_TINY)


def test_file_dependent_leak_is_rejected(monkeypatch):
    # The published leak is read from a file's value, so a public output
    # depends on the file bits and the skeleton would not be constant.
    execute_session = multifile.execute_session

    def leaky(params, files1, *args, **kwargs):
        t = execute_session(params, files1, *args, **kwargs)
        return t if t.aborted else dataclasses.replace(t, leaked_selection=files1.file(1).to_int())

    monkeypatch.setattr(multifile, "execute_session", leaky)
    with pytest.raises(TypeError):
        enumerate_protocol(_TINY)


def test_file_dependent_abort_is_rejected(monkeypatch):
    # The session aborts when server 1's first file is all zeros, so the
    # abort flag depends on the file bits.
    execute_session = multifile.execute_session

    def picky(params, files1, *args, **kwargs):
        t = execute_session(params, files1, *args, **kwargs)
        if t.aborted or files1.file(1) != BitString.zeros(files1.file_length):
            return t
        return dataclasses.replace(t, aborted=True, abort_reason="size-deviation", selection_sets=None)

    monkeypatch.setattr(multifile, "execute_session", picky)
    with pytest.raises(TypeError):
        enumerate_protocol(_TINY)


@pytest.mark.parametrize("params", [_TINY, _MULTI], ids=["two-file", "L3x2"])
def test_wrong_recovery_is_reported(monkeypatch, params):
    # Every recovered file comes back complemented: recovery fails on every
    # session that does not abort.
    reconstruct = multifile.reconstruct

    def complemented(Z, L, chosen):
        value = reconstruct(Z, L, chosen)
        return value ^ BitString.ones(len(value))

    monkeypatch.setattr(multifile, "reconstruct", complemented)
    assert audit(params).reliability_error == 1.0


@pytest.mark.parametrize(
    "params, skeletons, replays",
    [(ProtocolParams(n=4, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1), 64, 16), (_MULTI, 96, 36)],
    ids=["n4-two-file", "L3x2"],
)
def test_one_replay_per_skeleton_row(monkeypatch, params, skeletons, replays):
    # A skeleton fixes the sums, not the channel inputs, and the audit
    # keeps one skeleton per class of the position group: one skeleton per
    # selection stands for 16 of the 153 sequences of canonical pairs at
    # n=4 (544 input pairs), and for 16 of 41 at L=3x2 (136).  Only the
    # skeletons that went on are all replayed, one execute_multifile run
    # each: 4 of the 16 sequences at n = 4, and 4 at L=3x2.  A skeleton that
    # aborted is replayed only where its plan has not yet run the rounds
    # before its last: never for the 12 + 4 sequences that abort in round
    # 1, and at L=3x2 once per plan (6) and live first round (2) for the 8
    # that abort in round 2.
    # One plan is built per selection, whatever the free channel bits, on
    # files and masks chained once for every plan.
    calls, plans, chains = [], [], []
    execute_multifile, plan_selection, chain_multifile = (
        oracle.execute_multifile, oracle.plan_selection, oracle.chain_multifile)

    def counted(*args, **kwargs):
        calls.append(1)
        return execute_multifile(*args, **kwargs)

    def planned(*args, **kwargs):
        plans.append(1)
        return plan_selection(*args, **kwargs)

    def chained(*args, **kwargs):
        chains.append(1)
        return chain_multifile(*args, **kwargs)

    monkeypatch.setattr(oracle, "execute_multifile", counted)
    monkeypatch.setattr(oracle, "plan_selection", planned)
    monkeypatch.setattr(oracle, "chain_multifile", chained)
    report = audit(params)
    assert len(calls) == replays == report.replays
    assert skeletons == report.skeletons == report.orbit_sequences * params.L1 * params.L2
    assert len(plans) == params.L1 * params.L2
    assert len(chains) == 1


@pytest.mark.parametrize(
    "params, conditioned, replays, rounds, pairs",
    [(_N4, True, 16, 16, 16), (_MULTI, False, 36, 17, 6)],
    ids=["n4-two-file", "L3x2"],
)
def test_transmits_once_per_canonical_pair(monkeypatch, params, conditioned, replays, rounds, pairs):
    # The benchmark's two audits: each shared round opening that went on
    # is answered once per round index and branch choices, which the plans
    # of the selections that agree there share, and one that aborted once
    # per round index, whatever the plan (33 of the 88 rounds the 52
    # replays run).  At L=3x2 the sequences share their first rounds, its
    # 6 selections make 4 branch choices per round, and each round's 2 live
    # openings take 8 answers; the aborted opening that the 12 replays of
    # sequences aborting in round 2 reach takes one.  The channel
    # transmits only while the kept openings are opened, each on its own
    # pair: one per count of 0-, 2- and hidden positions whose rounds
    # abort, and one per class of the others.  At n = 4 the 2 + 2 split of
    # (one 0 and one 2, two hidden) keeps classes (0, 2) and (2, 0) of the
    # decodable shares' sums: 12 + 4 openings, against C(4 + 2, 2) = 15
    # count triples.
    transmitted, sessions = [], []
    transmit, execute_session = protocol.transmit, multifile.execute_session

    def counted_transmit(x1, x2):
        transmitted.append((x1.to_int(), x2.to_int()))
        return transmit(x1, x2)

    def counted_session(*args, **kwargs):
        sessions.append(1)
        return execute_session(*args, **kwargs)

    monkeypatch.setattr(protocol, "transmit", counted_transmit)
    monkeypatch.setattr(multifile, "execute_session", counted_session)
    report = audit(params, condition_nonabort=conditioned)
    assert report.replays == replays
    assert len(sessions) == rounds == report.answered_rounds
    assert len(transmitted) == len(set(transmitted)) == pairs



@pytest.mark.parametrize(
    "params, conditioned, mutation",
    [
        (_N4, True, None),
        (_MULTI, False, None),
        (ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=3, ell1=1, ell2=0), False, "reuse-pad"),
    ],
    ids=["n4-two-file", "L3x2", "L3x3-reuse-pad"],
)
def test_published_sets_copied_from_the_partition_audit_alike(monkeypatch, params, conditioned, mutation):
    # The replays read each answer's published sets as tuples, taking the
    # tuple of a partition's share where a set is that very array and
    # converting any other.  Sets built from copies of the shares take the
    # conversion for every set: the benchmark's two audits and the
    # four-round reuse-pad audit must print the same record and counts.
    def counts(report):
        return (report.to_record() | {"wall_time_s": 0}, report.skeletons, report.replays, report.answered_rounds,
                report.expanded_rows, report.tallied, report.keyed)

    expected = counts(audit(params, condition_nonabort=conditioned, mutation=mutation))
    build, copied = protocol.build_selection_sets, []

    def copies(z1, z2, part):
        sets = build(z1, z2, part)
        copied.append(sets)
        return protocol.SelectionSets(*(getattr(sets, f.name).copy() for f in dataclasses.fields(sets)))

    monkeypatch.setattr(protocol, "build_selection_sets", copies)
    assert counts(audit(params, condition_nonabort=conditioned, mutation=mutation)) == expected
    assert copied


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
