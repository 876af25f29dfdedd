import json
import sys

import numpy as np
import pytest

import adder_spir
from adder_spir import cli
from adder_spir.cli import main
from adder_spir.model import PartyRandomness, ProtocolParams
from adder_spir.oracle import required_states


def _read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_run_two_file(tmp_path):
    out = tmp_path / "run.jsonl"
    code = main(
        [
            "run",
            "--n", "64", "--ell1", "4", "--ell2", "4",
            "--trials", "3", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 0
    records = _read_records(out)
    assert records[0]["record"] == "header"
    assert records[0]["format"] == cli.FORMAT_VERSION == "adder-spir/2"
    # Seeded bytes rest on numpy's PCG64, so the header names the versions; not the worker count.
    assert records[0]["env"] == {
        "adder_spir": adder_spir.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
    }
    trials = [r for r in records if r["record"] == "transcript"]
    assert len(trials) == 3
    for r in trials:
        if not r["aborted"]:
            assert r["recovery_ok"]
            assert r["download_bits_per_file_bit"] == [2.0, 2.0]
            assert r["region_ok"]


def test_run_multifile(tmp_path):
    out = tmp_path / "mf.jsonl"
    code = main(
        [
            "run",
            "--n", "64", "--L1", "3", "--L2", "2",
            "--ell1", "3", "--ell2", "3",
            "--trials", "2", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    records = _read_records(out)
    rounds = [r for r in records if r["record"] == "multifile-transcript"]
    assert len(rounds) == 2
    for r in rounds:
        if not r["aborted"]:
            assert r["recovery_ok"]
            assert r["download_bits_per_file_bit"] == [
                2.0 * (3 - 1),
                2.0 * (2 - 1),
            ]


def test_run_byte_deterministic(tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    args = ["run", "--n", "64", "--ell1", "4", "--ell2", "4", "--trials", "4", "--seed", "5"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    # The header's timestamp is the only permitted difference.
    body_a = out_a.read_text().splitlines()[1:]
    body_b = out_b.read_text().splitlines()[1:]
    assert body_a == body_b


@pytest.mark.parametrize(
    "shape",
    [
        ("--n", "256", "--ell1", "20", "--ell2", "20", "--trials", "6", "--seed", "3"),
        ("--n", "64", "--L1", "3", "--L2", "3", "--ell1", "2", "--ell2", "2", "--trials", "5", "--seed", "4"),
    ],
    ids=["two-file", "multi-file"],
)
def test_run_workers_match_serial(tmp_path, shape):
    bodies = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.jsonl"
        assert main(["run", *shape, "--workers", workers, "--out", str(out)]) == 0
        bodies.append(out.read_text().splitlines()[1:])
    assert len(bodies[0]) == int(shape[shape.index("--trials") + 1])
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize(
    "shape",
    [
        ("--n", "64", "--ell1", "4", "--ell2", "3", "--trials", "4", "--seed", "1"),
        ("--n", "64", "--L1", "3", "--L2", "4", "--ell1", "3", "--ell2", "2", "--trials", "3", "--seed", "7"),
    ],
    ids=["two-file", "multi-file"],
)
def test_run_sets_are_one_label_per_position(tmp_path, shape):
    out = tmp_path / "run.jsonl"
    assert main(["run", *shape, "--out", str(out)]) == 0
    n, ell1, ell2 = (int(shape[shape.index(flag) + 1]) for flag in ("--n", "--ell1", "--ell2"))
    published = 0
    for record in _read_records(out)[1:]:
        for rnd in record.get("rounds", [record]):
            if rnd["aborted"]:
                continue
            labels = rnd["sets"]
            assert isinstance(labels, str) and len(labels) == n
            assert [labels.count(c) for c in ".abcd"] == [n - 2 * (ell1 + ell2), ell1, ell1, ell2, ell2]
            published += 1
    assert published


def test_sweep(tmp_path):
    out = tmp_path / "sweep.jsonl"
    code = main(["sweep", "--n", "256", "--alpha", "0.5", "--trials", "4", "--seed", "2", "--out", str(out)])
    assert code == 0
    cells = [r for r in _read_records(out) if r["record"] == "sweep-cell"]
    assert len(cells) == 1
    cell = cells[0]
    assert cell["failures"] == 0
    assert cell["chebyshev_bound"] == 256 ** (2 * 0.4 - 1) / 4


class _Captured(Exception):
    pass


def _cell_randomness(monkeypatch, master_seed, n, alpha):
    """Party seeds of trial 1 of one sweep cell."""

    def capture(_params, _sel, rnd):
        raise _Captured(rnd)

    monkeypatch.setattr(cli, "run_session_adaptive", capture)
    with pytest.raises(_Captured) as info:
        cli._sweep_cell((n, alpha, 0.4, master_seed, 1))
    return info.value.args[0]


def test_sweep_cell_seeds_do_not_collide(monkeypatch):
    # Alphas that agree to three decimals.
    assert _cell_randomness(monkeypatch, 0, 1024, 0.5) != _cell_randomness(monkeypatch, 0, 1024, 0.5004)
    # n * 1013 reaching into the master-seed bits: 1 << 20 ^ (1013 + 500) == 1036 * 1013 + 621.
    assert _cell_randomness(monkeypatch, 1, 1, 0.5) != _cell_randomness(monkeypatch, 0, 1036, 0.621)


def test_sweep_cell_seed_derivation(monkeypatch):
    alpha_bits = int(np.float64(0.3).view(np.uint64))
    state = np.random.SeedSequence(7, spawn_key=(256, alpha_bits, 1)).generate_state(3, np.uint64)
    assert _cell_randomness(monkeypatch, 7, 256, 0.3) == PartyRandomness(*map(int, state))


def test_sweep_cell_independent_of_other_cells(tmp_path):
    args = ["sweep", "--alpha", "0.5", "--trials", "3", "--seed", "2"]
    assert main([*args, "--n", "256", "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--n", "64,256", "--out", str(tmp_path / "b")]) == 0
    assert _read_records(tmp_path / "a")[1] == _read_records(tmp_path / "b")[2]


def test_audit_honest_exit_zero(tmp_path, capsys):
    out = tmp_path / "audit.jsonl"
    code = main(
        ["audit", "--n", "3", "--alpha", "1.0", "--ell1", "1", "--ell2", "0", "--out", str(out)]
    )
    assert code == 0
    report = [r for r in _read_records(out) if r["record"] == "leakage-report"][0]
    assert report["reliability_error"] == 0.0
    assert report["state_count"] == report["required_states"] == 1792
    assert report["budget"] == 2**28
    # Phase timings go to stderr only; wall_time_s is the body's one timing.
    assert "audit: 1792 states from 180 replays, enumerated in" in capsys.readouterr().err
    assert not [k for k in report if k.endswith("_s") and k != "wall_time_s"]


def test_audit_mutated_exit_one(tmp_path):
    code = main(
        [
            "audit", "--n", "3", "--alpha", "1.0", "--ell1", "1", "--ell2", "0",
            "--mutate", "leak-selection", "--condition-nonabort",
            "--out", str(tmp_path / "m.jsonl"),
        ]
    )
    assert code == 1


def test_audit_budget_exit_three(tmp_path):
    code = main(
        [
            "audit", "--n", "3", "--alpha", "1.0", "--ell1", "1", "--ell2", "0",
            "--budget", "16", "--out", str(tmp_path / "b.jsonl"),
        ]
    )
    assert code == 3


def test_audit_budget_counts_partition_choices(tmp_path):
    code = main(["audit", "--n", "8", "--ell1", "1", "--ell2", "1", "--out", str(tmp_path / "b.jsonl")])
    assert code == 3


def test_audit_codes_wider_than_int64_exit_two(tmp_path, capsys):
    # 31 positions in each of 2 rounds: 62 channel bits plus a round tag do
    # not fit an int64 code, even with a budget that admits every row.
    args = ["audit", "--n", "31", "--L1", "3", "--L2", "2", "--ell1", "0", "--ell2", "0"]
    budget = str(required_states(ProtocolParams(n=31, t_exponent=0.4, alpha=0.5, L1=3, L2=2, ell1=0, ell2=0)))
    assert main([*args, "--budget", budget, "--out", str(tmp_path / "w.jsonl")]) == 2
    assert "62 channel bits are too many to enumerate" in capsys.readouterr().err


def test_audit_conditioning_on_impossible_event_exit_two(tmp_path):
    # n=1 can never carry a file bit, so every session aborts.
    code = main(
        ["audit", "--n", "1", "--ell1", "1", "--ell2", "1", "--condition-nonabort", "--out", str(tmp_path / "c")]
    )
    assert code == 2


def test_internal_error_exit_four(monkeypatch, capsys):
    def broken(_args):
        raise ValueError("invariant violated")

    monkeypatch.setitem(cli._COMMANDS, "capacity", broken)
    assert main(["capacity"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: invariant violated" in err


def test_otp_check_bad_width_exit_two(tmp_path):
    assert main(["otp-check", "--pad-width", "4", "--out", str(tmp_path / "o")]) == 2


def test_config_error_exit_two(tmp_path):
    # t outside (0, 1/2) passes argparse but fails validation.
    code = main(
        ["run", "--n", "64", "--t", "0.7", "--ell1", "1", "--ell2", "1", "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_bad_flag_value_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--n", "0"])
    assert exc.value.code == 2


def test_run_reads_alpha_as_an_exact_fraction(tmp_path):
    out = tmp_path / "third.jsonl"
    argv = ["run", "--n", "64", "--alpha", "1/3", "--ell1", "4", "--ell2", "8", "--trials", "5", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    records = _read_records(out)
    assert records[0]["config"]["alpha"] == 0.3333333333333333
    assert all(r["alpha"] == 0.3333333333333333 for r in records[1:])
    assert '"alpha": 0.3333333333333333' in out.read_text()


@pytest.mark.parametrize("argv", [["run", "--alpha", "1/0"], ["sweep", "--alpha", "0.5,1/0"], ["audit", "--alpha", "x"]])
def test_bad_alpha_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--alpha" in err and "Traceback" not in err


def test_run_ignores_the_workers_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("ADDER_SPIR_WORKERS", "abc")
    argv = ["run", "--n", "64", "--ell1", "2", "--ell2", "2", "--trials", "2", "--out", str(tmp_path / "w")]
    assert main(argv) == 0


def test_capacity_command(tmp_path):
    out = tmp_path / "cap.jsonl"
    assert main(["capacity", "--out", str(out)]) == 0
    records = _read_records(out)
    report = [r for r in records if r["record"] == "capacity-report"][0]
    assert report["passed"]
    assert abs(report["max_value"] - 0.5) <= 1e-9
    boundary = [r for r in records if r["record"] == "region-boundary"]
    assert len(boundary) == 16
    assert all(r["corners_feasible"] for r in boundary)


def test_otp_check_command(tmp_path):
    out = tmp_path / "otp.jsonl"
    assert main(["otp-check", "--pad-width", "1", "--out", str(out)]) == 0
    report = [r for r in _read_records(out) if r["record"] == "otp-lemma-report"][0]
    assert report["max_masking_slack"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--n", "64", "--ell1", "2", "--ell2", "2", "--seed", "-1"],
        ["sweep", "--n", "64", "--seed", "-1"],
        ["audit", "--n", "2", "--ell1", "1", "--ell2", "1", "--seed", "-3"],
    ],
)
def test_negative_seed_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--seed" in errors[0] and argv[-1] in errors[0]
    assert "Traceback" not in err and "internal error" not in err
