"""The benchmark's per-layer tracer still finds every binding it rebinds,
and its count hooks still see the calls they count; and the benchmark
audits partition, and decode the client's inputs for, only the openings
that go on."""

import importlib.util
from pathlib import Path

import pytest

from adder_spir import cli, oracle, protocol

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# The benchmark's two audits.
_AUDITS = (
    ("--n", "4", "--ell1", "1", "--ell2", "1", "--condition-nonabort"),
    ("--n", "2", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0"),
)


def _new_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


@pytest.fixture
def tracer():
    tracer = _new_tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.uninstall()


def test_tracer_installs_and_uninstalls():
    original = cli.run_session_adaptive
    tracer = _new_tracer()
    try:
        tracer.install()
        assert cli.run_session_adaptive is not original
    finally:
        tracer.uninstall()
    assert cli.run_session_adaptive is original


def test_traced_audits_count_replays_rounds_and_transmits(tracer, tmp_path, capsys):
    # The channel transmits only while the 16 + 6 kept openings (one per
    # class of the position group) are opened, each on its own pair:
    # 16 * 4 + 6 * 2 = 76 positions.  Of the 64 + 96 skeletons, the 52
    # replays (execute_multifile runs) are those that went on, 16 + 24,
    # and at L=3x2 the 12 that abort in round 2 on a plan that had not yet
    # run round 1: a skeleton that aborted is otherwise built from its
    # plan's earlier rounds and the opening's y and verdict.  The replays
    # run 16 + 72 rounds, but each shared opening that went on is
    # answered once per round index and branch choices, and one that
    # aborted once per round index: 16 two-file rounds (one round, whose
    # branch choices are the selection), and 17 at L=3x2 (4 of the 6
    # selections' branch choices differ in each of its two rounds).
    for flags in _AUDITS:
        assert cli.main(["audit", *flags, "--seed", "1", "--out", str(tmp_path / "a.jsonl")]) == 0
    counts = tracer.counts
    assert counts["oracle.replays"] == 52
    assert counts["multifile.rounds"] == 88
    assert counts["protocol.execute_session.calls"] == 33
    assert counts["channel.positions"] == 76
    summary = capsys.readouterr().err
    assert "64 skeletons, 16 replays answering 16 rounds" in summary
    assert "96 skeletons, 36 replays answering 17 rounds" in summary


def test_traced_run_counts_rounds_and_masked_bits(tracer, tmp_path):
    # Each trial makes a fresh plan and fresh openings, so every round run
    # is answered.
    argv = ["run", "--n", "64", "--L1", "3", "--L2", "3", "--ell1", "2", "--ell2", "2", "--trials", "3", "--seed", "1"]
    assert cli.main([*argv, "--out", str(tmp_path / "r.jsonl")]) == 0
    counts = tracer.counts
    assert counts["protocol.execute_session.calls"] == counts["multifile.rounds"] > 0
    assert counts["protocol.masked_bits"] > 0


def test_audits_decode_once_per_live_opening_and_never_partition_an_aborted_one(monkeypatch, tmp_path, capsys):
    # The two audits keep 16 + 6 openings, one per class.  The 12 + 4 that
    # abort do so on capacity, decided from y's counts before any
    # partitioner runs.  Each of the 4 + 2 that go on is partitioned once,
    # and its partition decodes the client's inputs at g1 and g2 once: 12
    # decodes, which every selection's answers share.
    opened, partitioned, built = [], [], []
    open_round, partition, index_partition = oracle.open_round, oracle.partition, protocol._index_partition
    monkeypatch.setattr(oracle, "open_round", lambda *args, **kw: opened.append(open_round(*args, **kw)) or opened[-1])
    monkeypatch.setattr(oracle, "partition", lambda *args: partitioned.append(args) or partition(*args))
    monkeypatch.setattr(protocol, "_index_partition", lambda *args: built.append(args) or index_partition(*args))
    for flags in _AUDITS:
        assert cli.main(["audit", *flags, "--seed", "1", "--out", str(tmp_path / "a.jsonl")]) == 0
    capsys.readouterr()
    assert len(opened) == 22
    assert [o.abort_reason for o in opened].count("capacity-shortfall") == 16
    assert len(partitioned) == 6 == sum(o.abort_reason is None for o in opened)
    assert 2 * len(built) == 12
