"""The streamed audit: chunking, tallies, key widths, progress and the
position group.

``audit`` replays the enumeration in chunks of about ``_CHUNK_ROWS`` rows
and adds each chunk into one tally per audited (view, secret) pair, so no
chunk size may change a record or the enumerated table.  It enumerates one
skeleton per orbit of the position group, so neither may the group: the
trivial group must print the same records.
"""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adder_spir import oracle
from adder_spir.cli import main
from adder_spir.model import ConfigurationError, ProtocolParams
from adder_spir.protocol import MUTATIONS

N4 = ProtocolParams(n=4, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1)
L3X2 = ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=2, ell1=1, ell2=0)
INSTANCES = {"n4": N4, "L3x2": L3X2}
# (condition_nonabort, abort_disabled)
CONDITIONS = [(False, False), (True, False), (False, True)]


def _records(params) -> list[str]:
    """Every audit record of ``params`` (honest and each mutation, under
    each of ``CONDITIONS``) without its wall time, as JSON text."""
    records = []
    for mutation in (None, *MUTATIONS):
        for condition_nonabort, abort_disabled in CONDITIONS:
            report = oracle.audit(
                params, mutation=mutation, condition_nonabort=condition_nonabort, abort_disabled=abort_disabled
            )
            record = report.to_record()
            record.pop("wall_time_s")
            records.append(json.dumps(record))
    return records


@functools.cache
def _one_chunk(name: str) -> tuple[list[str], int]:
    """The records of one instance streamed as one chunk, and the rows it
    enumerates (fewer than the full table's: one skeleton per orbit)."""
    params = INSTANCES[name]
    report = oracle.audit(params)
    rows = report.enumerated_rows
    assert report.group == oracle.POSITIONS and rows < report.state_count == oracle.required_states(params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_ROWS", rows)
        assert oracle.audit(params).chunks == 1
        return _records(params), rows


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("chunking", ["thirds", "one-row"])
def test_chunking_changes_no_record(monkeypatch, name, chunking):
    expected, rows = _one_chunk(name)
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", rows // 3 if chunking == "thirds" else 1)
    assert oracle.audit(INSTANCES[name]).chunks >= 3
    assert _records(INSTANCES[name]) == expected


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_position_group_changes_no_record(monkeypatch, name):
    # Every audit of the instance (honest and each mutation, under each of
    # CONDITIONS) replayed on the trivial group: exact zeros, non-zero
    # leakages, reliability errors and state counts all equal.
    expected, _rows = _one_chunk(name)
    monkeypatch.setattr(oracle, "_group", lambda params: oracle.TRIVIAL)
    report = oracle.audit(INSTANCES[name])
    assert report.group == oracle.TRIVIAL and report.enumerated_rows == report.state_count
    assert _records(INSTANCES[name]) == expected


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_chunking_changes_no_table(monkeypatch, name):
    params = INSTANCES[name]
    whole = dict(oracle.enumerate_protocol(params).table.items())
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", 1)
    assert dict(oracle.enumerate_protocol(params).table.items()) == whole


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(st.tuples(st.integers(-5, 40), st.integers(1, 2**40)), max_size=30), min_size=1, max_size=12),
    st.booleans(),
)
def test_tally_matches_one_unique(chunks, exact):
    # Exact numerators past int64 (object arrays) must sum the same way.
    dtype = object if exact else np.int64
    tally = oracle._Tally()
    for chunk in chunks:
        keys = np.array([k for k, _w in chunk], dtype=np.int64)
        tally.add(keys, np.array([w for _k, w in chunk], dtype=dtype))
    rows = [row for chunk in chunks for row in chunk]
    if not rows:
        return
    keys = np.array([k for k, _w in rows], dtype=np.int64)
    weights = np.array([w for _k, w in rows], dtype=dtype)
    distinct, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(distinct), dtype=dtype)
    np.add.at(sums, inverse, weights)
    got_keys, got_sums = tally.total()
    assert got_keys.tolist() == distinct.tolist()
    assert got_sums.tolist() == sums.tolist()
    assert got_sums.dtype == dtype


def test_tally_stack_halves():
    # Each waiting table is smaller than half the one below it.
    tally = oracle._Tally()
    for start in range(0, 1000, 7):
        tally.add(np.arange(start, start + 7), np.ones(7, dtype=np.int64))
        sizes = [len(keys) for keys, _w in tally.tables]
        assert all(2 * above < below for below, above in zip(sizes, sizes[1:]))
    assert len(tally.total()[0]) == 1001


def test_audit_keys_wider_than_int64_are_a_configuration_error(monkeypatch):
    # With empty files at L = 2x2 the audit reduces by S_n.  Server 1's
    # canonical view key holds a skeleton id (below the skeletons, one
    # opened pair per count of 0-, 2- and hidden positions times 4
    # selections: 4,704 at n = 47 and 4,900 at n = 48, 13 bits) above its n
    # sorted channel-input bits, and the selection's 2 bits sit below it:
    # n = 47 needs 62 bits, n = 48 needs 63.  The guard counts the skeletons
    # before any replay and runs whatever the budget.
    def enumeration(n):
        params = ProtocolParams(n=n, t_exponent=0.4, alpha=0.5, ell1=0, ell2=0)
        return params, oracle._Enumeration(params, False, None, oracle._group(params))

    fits, wide = enumeration(47), enumeration(48)
    assert fits[1].group == wide[1].group == oracle.POSITIONS
    oracle._PairKeys(fits[1])
    assert (fits[1].skeleton_count, fits[1].replays) == (4 * math.comb(49, 2), 0)
    monkeypatch.setattr(oracle._Enumeration, "chunks", lambda self: pytest.fail("enumerated past the key check"))
    with pytest.raises(ConfigurationError, match="client_privacy_s1 needs 63-bit audit keys"):
        oracle.audit(wide[0], state_budget=wide[1].rows)


def test_progress_goes_to_stderr_only(monkeypatch, capsys):
    argv = ["audit", "--n", "3", "--alpha", "1.0", "--ell1", "1", "--ell2", "0", "--condition-nonabort"]

    def body():
        assert main(argv) == 0
        out, err = capsys.readouterr()
        header, record = out.splitlines()
        record = json.loads(record)
        record.pop("wall_time_s")
        return json.loads(header)["record"], record, err

    quiet = body()
    assert "rows/s" not in quiet[2]
    assert "1 chunks, at most " in quiet[2]
    assert "1792 states from 448 rows of 11 orbit sequences under S_n per round" in quiet[2]
    monkeypatch.setattr(oracle, "_PROGRESS_S", 0.0)
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", 150)
    loud = body()
    assert loud[:2] == quiet[:2]
    progress = [line for line in loud[2].splitlines() if line.endswith("rows/s")]
    assert len(progress) == 3
    assert progress[-1].startswith("audit: 448 of 448 rows, standing for 1,792 of 1,792; 11 orbit sequences under S_n per round; ")
    assert "3 chunks, at most " in loud[2]
