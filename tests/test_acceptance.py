"""Acceptance gate: one test per criterion, run with ``pytest -v`` for a
one-line pass/fail verdict each.  Heavy shared work (the seeded sweeps) is
done once in session fixtures and asserted on by the individual criteria.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from adder_spir.bits import BitString
from adder_spir.capacity import ARGMAX, F_MAX, conditional_entropy_f, region_check
from adder_spir.channel import classify_indices, string_to_ternary, transmit
from adder_spir.cli import main
from adder_spir.model import (
    ProtocolParams,
    Selection,
    sample_filestore,
    session_streams,
    trial_seeds,
)
from adder_spir.multifile import (
    build_chain,
    execute_multifile,
    flatten_rounds,
    plan_multifile,
    request_schedule,
    round_selection,
    run_multifile,
    sample_masks,
)
from adder_spir.infotheory import otp_lemma_check
from adder_spir.oracle import audit
from adder_spir.protocol import (
    client_partitioner,
    open_round,
    partition,
    run_session_adaptive,
)
from adder_spir.bits import sample_uniform
from adder_spir.model import party_stream


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def two_file_sweep():
    """1000 seeded two-file sessions at n = 4096, cycling all selections."""
    params = ProtocolParams(n=4096, t_exponent=0.4, alpha=0.5, ell1=900, ell2=900)
    start = time.perf_counter()
    results = []
    for trial in range(1, 1001):
        rnd = trial_seeds(42, trial)
        files1 = sample_filestore(1, 2, 900, party_stream(rnd.server1_seed, (0,)))
        files2 = sample_filestore(2, 2, 900, party_stream(rnd.server2_seed, (0,)))
        sel = Selection(1 + (trial % 2), 1 + ((trial // 2) % 2))
        t = run_multifile(params, files1, files2, sel, session_streams(rnd, params.L1, params.L2))
        ok = None if t.aborted else (
            t.recovered[0] == files1.file(sel.z1) and t.recovered[1] == files2.file(sel.z2)
        )
        results.append((sel, t.aborted, ok))
    return {
        "params": params,
        "results": results,
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def adaptive_rates():
    """Maximal-sizing sessions at n = 2^16 for rate measurement."""
    n = 2**16
    params = ProtocolParams(n=n, t_exponent=0.4, alpha=0.5)
    start = time.perf_counter()
    rates = []
    for trial in range(1, 9):
        rnd = trial_seeds(7, trial)
        sel = Selection(1 + (trial % 2), 1 + ((trial // 2) % 2))
        t, sized = run_session_adaptive(params, sel, session_streams(rnd, 2, 2))
        assert not t.aborted and t.recovery_ok
        rates.append((sized.ell1 / n, sized.ell2 / n))
    return {"rates": rates, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def multifile_sweep():
    """100 randomized trials per (L1, L2) in {2,3,4}^2, cycling selections."""
    start = time.perf_counter()
    runs = []
    part_len = 3
    for L1, L2 in itertools.product((2, 3, 4), repeat=2):
        params = ProtocolParams(
            n=64, t_exponent=0.45, alpha=0.5, L1=L1, L2=L2, ell1=part_len, ell2=part_len
        )
        selections = list(itertools.product(range(1, L1 + 1), range(1, L2 + 1)))
        for trial in range(1, 101):
            sel = Selection(*selections[(trial - 1) % len(selections)])
            # Retry aborted sessions with fresh seeds; the protocol's own
            # answer to an abort is a rerun.
            for attempt in itertools.count():
                rnd = trial_seeds(1000 * L1 + 10 * L2 + (attempt << 16), trial)
                files1 = sample_filestore(1, L1, part_len * (L2 - 1), party_stream(rnd.server1_seed, (0,)))
                files2 = sample_filestore(2, L2, part_len * (L1 - 1), party_stream(rnd.server2_seed, (0,)))
                mt = run_multifile(params, files1, files2, sel, session_streams(rnd, params.L1, params.L2))
                if not mt.aborted:
                    break
                assert attempt < 20
            exact = (
                mt.recovered[0] == files1.file(sel.z1)
                and mt.recovered[1] == files2.file(sel.z2)
            )
            K = mt.round_count
            uses = params.n * K
            runs.append(
                {
                    "L1": L1,
                    "L2": L2,
                    "exact": exact,
                    "rate1": files1.file_length / uses,
                    "rate2": files2.file_length / uses,
                    "cost1": mt.public_bits_from_server(1) / files1.file_length,
                    "cost2": mt.public_bits_from_server(2) / files2.file_length,
                }
            )
    return {"runs": runs, "elapsed": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_channel_truth_table():
    transmit(BitString.from_bits([0]), BitString.from_bits([0]))  # warm-up
    start = time.perf_counter()
    table = {
        (a, b): int(transmit(BitString.from_bits([a]), BitString.from_bits([b])).y[0])
        for a in (0, 1)
        for b in (0, 1)
    }
    elapsed = time.perf_counter() - start
    assert table == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    assert elapsed < 1e-3


def test_criterion_02_worked_partition_example():
    y = string_to_ternary("102012011211")
    classify_indices(y)  # warm-up
    start = time.perf_counter()
    part = partition(y, Fraction(1, 3), 2, 4)
    elapsed = time.perf_counter() - start
    assert part.m == 6
    assert tuple(part.good) == (2, 3, 4, 6, 7, 10)
    assert tuple(part.bad) == (1, 5, 8, 9, 11, 12)
    assert tuple(part.g1) == (2, 3)
    assert tuple(part.g2) == (4, 6, 7, 10)
    assert tuple(part.b1) == (1, 5)
    assert tuple(part.b2) == (8, 9, 11, 12)
    assert elapsed < 1e-3


def test_criterion_03_two_file_correctness(two_file_sweep):
    seen = set()
    for sel, aborted, ok in two_file_sweep["results"]:
        if not aborted:
            assert ok, f"bit error in non-aborted session with selection {sel}"
            seen.add((sel.z1, sel.z2))
    assert seen == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert two_file_sweep["elapsed"] < 10.0


def test_criterion_04_abort_bound(two_file_sweep):
    results = two_file_sweep["results"]
    params = two_file_sweep["params"]
    abort_rate = sum(1 for _s, aborted, _ok in results if aborted) / len(results)
    bound = params.n ** (2 * params.t_exponent - 1) / 4
    slack = 3 * math.sqrt(bound * (1 - bound) / len(results))
    assert abort_rate <= bound + slack


def test_criterion_05_rate_convergence(adaptive_rates):
    for r1, r2 in adaptive_rates["rates"]:
        assert abs(r1 - 0.25) <= 0.05 * 0.25
        assert abs(r2 - 0.25) <= 0.05 * 0.25
    assert adaptive_rates["elapsed"] < 30.0


def test_criterion_06_privacy_exact_zeros():
    params = ProtocolParams(n=4, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1)
    start = time.perf_counter()
    for kwargs in ({"abort_disabled": True}, {"condition_nonabort": True}):
        report = audit(params, **kwargs)
        for name, value in report.leakages.items():
            assert value <= 1e-9, f"{name} leaked {value} bits ({kwargs})"
        assert report.reliability_error == 0.0
    assert time.perf_counter() - start < 60.0


def test_criterion_07_mutation_sensitivity():
    params = ProtocolParams(n=4, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1)
    start = time.perf_counter()
    reuse = audit(params, mutation="reuse-pad", condition_nonabort=True)
    assert reuse.servers_vs_client >= 0.1
    leak = audit(params, mutation="leak-selection", condition_nonabort=True)
    assert leak.client_privacy_s1 >= 0.1
    assert leak.client_privacy_s2 >= 0.1
    assert time.perf_counter() - start < 60.0


def test_criterion_08_multifile_reconstruction(multifile_sweep):
    assert all(run["exact"] for run in multifile_sweep["runs"])
    assert len(multifile_sweep["runs"]) == 900

    # Three-file chain schedule: the per-round requests for each selection.
    f = lambda l: frozenset({("file", l, 1)})
    s = lambda t: frozenset({("mask", t, 1)})
    pairs = build_chain([f(1), f(2), f(3)], [s(1)])
    assert pairs == ((f(1), s(1)), (f(2) ^ s(1), s(1) ^ f(3)))
    requested = {
        Z: tuple(pairs[t - 1][b - 1] for t, b in zip((1, 2), round_selection(Z, 3)))
        for Z in (1, 2, 3)
    }
    assert requested[1] == (f(1), f(2) ^ s(1))
    assert requested[2] == (s(1), f(2) ^ s(1))
    assert requested[3] == (s(1), s(1) ^ f(3))

    # (3, 4)-library schedule: round pairing and bit-exact per-round values.
    assert flatten_rounds(3, 4) == (
        ((1, 1), (1, 1)),
        ((2, 1), (1, 2)),
        ((1, 2), (2, 1)),
        ((2, 2), (2, 2)),
        ((1, 3), (3, 1)),
        ((2, 3), (3, 2)),
    )
    params = ProtocolParams(n=64, t_exponent=0.45, alpha=0.5, L1=3, L2=4, ell1=2, ell2=2)
    files1 = sample_filestore(1, 3, 6, party_stream(31, (0,)))
    files2 = sample_filestore(2, 4, 4, party_stream(32, (0,)))
    masks1 = sample_masks(3, 3, 2, party_stream(33, (2,)))
    masks2 = sample_masks(4, 2, 2, party_stream(34, (2,)))
    chains1 = [
        build_chain([files1.file(l).split(3)[i] for l in (1, 2, 3)], masks1[i])
        for i in range(3)
    ]
    chains2 = [
        build_chain([files2.file(l).split(2)[j] for l in (1, 2, 3, 4)], masks2[j])
        for j in range(2)
    ]
    openings = [
        open_round(
            params,
            sample_uniform(64, party_stream(35, (1, k))),
            sample_uniform(64, party_stream(36, (1, k))),
            client_partitioner(party_stream(37, (3, k))),
        )
        for k in range(1, 7)
    ]
    sel = Selection(2, 3)
    mt = execute_multifile(plan_multifile(params, files1, files2, sel, masks1, masks2), openings)
    assert not mt.aborted
    z1_rounds = round_selection(sel.z1, 3)
    z2_rounds = round_selection(sel.z2, 4)
    for ((t1, i), (t2, j)), transcript in zip(mt.pairing, mt.transcripts):
        expect1 = chains1[i - 1][t1 - 1][z1_rounds[t1 - 1] - 1]
        expect2 = chains2[j - 1][t2 - 1][z2_rounds[t2 - 1] - 1]
        assert transcript.recovered[0] == expect1
        assert transcript.recovered[1] == expect2
    assert mt.recovered == (files1.file(2), files2.file(3))
    assert multifile_sweep["elapsed"] < 60.0


def test_criterion_09_download_cost(multifile_sweep):
    for run in multifile_sweep["runs"]:
        assert run["cost1"] == 2 * (run["L1"] - 1)
        assert run["cost2"] == 2 * (run["L2"] - 1)


def test_criterion_10_capacity_lemma(tmp_path):
    # The lemma is proved in ``capacity``: f <= 1/2, attained only at (1/2, 1/2).
    out = tmp_path / "capacity.jsonl"
    assert main(["capacity", "--out", str(out)]) == 0
    with open(out) as fh:
        report = [r for r in map(json.loads, fh) if r["record"] == "capacity-report"]
    assert report == [{"record": "capacity-report", "argmax": [0.5, 0.5], "max_value": 0.5, "passed": True}]
    grid = np.linspace(0.0, 1.0, 1001)
    values = conditional_entropy_f(grid[:, None], grid[None, :])
    assert values.max() == F_MAX
    assert [tuple(grid[ij]) for ij in np.argwhere(values == F_MAX)] == [ARGMAX]


def test_criterion_11_region_compliance(adaptive_rates, multifile_sweep):
    for r1, r2 in adaptive_rates["rates"]:
        assert region_check(r1, r2, 2, 2, tol=1e-12)
    for run in multifile_sweep["runs"]:
        assert region_check(run["rate1"], run["rate2"], run["L1"], run["L2"], tol=1e-12)


def test_criterion_12_one_time_pad_lemma():
    start = time.perf_counter()
    for width in (1, 2):
        report = otp_lemma_check(width)
        assert report.max_masking_slack <= 1e-12
        assert report.max_hiding_slack <= 1e-12
    assert time.perf_counter() - start < 10.0
