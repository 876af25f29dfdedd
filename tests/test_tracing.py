"""The benchmark's per-layer tracer still finds every binding it rebinds,
and its count hooks still see the calls they count."""

import importlib.util
from pathlib import Path

import pytest

from adder_spir import cli

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
