"""The streamed audit: chunking, tallies, key widths, progress and the
position group.

``audit`` replays the enumeration in chunks of about ``_CHUNK_ROWS`` rows
and adds each chunk into one tally per audited (view, secret) pair, so no
chunk size may change a record or the enumerated table.  It enumerates one
skeleton per class of the position group, so neither may the group: the
trivial group must print the same records.  It keys each view by a
canonical form, which must give two enumerated views one key exactly when
a brute-force search over the permutations of each round's positions maps
one onto the other: for a server's view, under both groups, the
permutations that keep the order inside each published set; for the
client's, those of the enumeration's group (the permutations that keep the
order inside each share and each published set, under the share classes).
"""

import functools
import itertools
import json

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
# Server 1 publishes no set position, so the digits read sets c and d only.
L2X3 = ProtocolParams(n=2, t_exponent=0.4, alpha=0, L1=2, L2=3, ell1=0, ell2=1)
GROUP_INSTANCES = {**INSTANCES, "L2x3": L2X3}
# (condition_nonabort, abort_disabled)
CONDITIONS = [(False, False), (True, False), (False, True)]


def trivial_group(monkeypatch) -> None:
    """Make every audit enumerate on the trivial group: every canonical pair
    with each partition the client could draw, not one opening per share
    class."""
    enumeration = oracle._enumeration
    monkeypatch.setattr(oracle, "_enumeration", lambda *args, classes: enumeration(*args))


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
    """The records of one instance streamed as one chunk, and the rows its
    honest audit expands (fewer than it enumerates, which are fewer than
    the full table's: one skeleton per class)."""
    params = GROUP_INSTANCES[name]
    report = oracle.audit(params)
    rows = report.enumerated_rows
    assert report.expanded_rows < rows < report.state_count == oracle.required_states(params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_ROWS", rows)
        assert oracle.audit(params).chunks == 1
        return _records(params), report.expanded_rows


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("chunking", ["thirds", "one-row"])
def test_chunking_changes_no_record(monkeypatch, name, chunking):
    # Runs are cut by the rows they expand.
    expected, expanded = _one_chunk(name)
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", expanded // 3 if chunking == "thirds" else 1)
    assert oracle.audit(INSTANCES[name]).chunks >= 3
    assert _records(INSTANCES[name]) == expected


def test_largest_chunk_is_the_largest_skeleton(monkeypatch, capsys):
    # A skeleton is never split: with one skeleton per chunk, the largest
    # chunk is the skeleton whose one round hides all n = 3 positions.  The
    # selection pairs read only the channel bits, so it expands 2^U = 2^3
    # of its 2^(B + U) = 2^(2 + 3) rows.  The record does not change.
    argv = ["audit", "--n", "3", "--alpha", "1.0", "--ell1", "1", "--ell2", "0"]

    def run():
        assert main(argv) == 0
        out, err = capsys.readouterr()
        record = json.loads(out.splitlines()[1])
        record.pop("wall_time_s")
        return record, err

    record, err = run()
    assert "1 chunks, the largest 112 rows, " in err and "largest_chunk_rows" not in record
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", 1)
    report = oracle.audit(ProtocolParams(n=3, t_exponent=0.4, alpha=1.0, ell1=1, ell2=0))
    assert report.largest_chunk_rows == 2**3 and report.chunks == report.orbit_sequences * 4
    one_skeleton, err = run()
    assert one_skeleton == record
    assert f"{report.chunks} chunks, the largest 8 rows, " in err


@pytest.mark.parametrize("name", sorted(GROUP_INSTANCES))
def test_position_group_changes_no_record(monkeypatch, name):
    # Every audit of the instance (honest and each mutation, under each of
    # CONDITIONS) replayed on the trivial group: exact zeros, non-zero
    # leakages, reliability errors and state counts all equal.
    expected, _rows = _one_chunk(name)
    trivial_group(monkeypatch)
    report = oracle.audit(GROUP_INSTANCES[name])
    assert report.enumerated_rows == report.state_count
    assert _records(GROUP_INSTANCES[name]) == expected


@functools.cache
def _least_image(values: tuple, shares: tuple) -> tuple:
    """The least image of one round's per-position ``values`` and 1-based
    index sets ``shares`` under every permutation of its positions that
    keeps the order inside each set (every permutation, for singletons)."""
    images = []
    for perm in itertools.permutations(range(len(values))):
        if any(perm[p - 1] > perm[q - 1] for s in shares for p, q in zip(s, s[1:])):
            continue
        moved = [0] * len(values)
        for p, q in enumerate(perm):
            moved[q] = values[p]
        images.append((tuple(moved), tuple(tuple(sorted(perm[p - 1] + 1 for p in s)) for s in shares)))
    return min(images)


def _orbit(enumeration, interned: dict, codes: dict, row: int, view) -> tuple:
    """A view of one row with each round replaced by its verdict and least
    image: equal for exactly the views one class holds.  A server's class is
    an orbit of the permutations that keep the order inside each published
    set; the client's is an orbit of the enumeration's group, so under the
    trivial group its view is its own image."""
    published = interned["sets"][codes["sets"][row]]
    if view == oracle.CLIENT_VIEW and not enumeration.classes:
        return tuple(codes[name][row] for name in view)
    if view == oracle.CLIENT_VIEW:
        values = [tuple(y) for y in interned["y"][codes["y"][row]]]
        parts = interned["u0"][codes["u0"][row]]
        shares = [
            (sets or ()) + (parts[r] if r < len(parts) else ())
            for r, (_aborted, _reason, sets) in enumerate(published)
        ]
    else:
        values = [tuple(x.bits.tolist()) for x in enumeration._inputs(codes[view[2]][row])]
        shares = [sets or () for _aborted, _reason, sets in published]
    rounds = tuple(
        (aborted, reason, _least_image(v, s)) for (aborted, reason, _sets), v, s in zip(published, values, shares)
    )
    return tuple(codes[name][row] for name in view if name not in ("x1", "x2", "y", "u0", "sets")) + rounds


# Two-file, n = 3, no published position (S = 0): a server's digit is its
# count of ones.  Two-file, n = 4, live sets of two positions each: server
# 1's (ell20) or server 2's (ell02) sets.
ORBIT_INSTANCES = {
    **GROUP_INSTANCES,
    "ell00-n3": ProtocolParams(n=3, t_exponent=0.4, alpha=0.5, ell1=0, ell2=0),
    "ell20-n4": ProtocolParams(n=4, t_exponent=0.4, alpha=1, ell1=2, ell2=0),
    "ell02-n4": ProtocolParams(n=4, t_exponent=0.4, alpha=0, ell1=0, ell2=2),
}
# id suffix -> (abort_disabled, mutation)
ORBIT_CASES = {"": (False, None), "-no-abort": (True, None), "-leak-selection": (False, "leak-selection"),
               "-reuse-pad": (False, "reuse-pad")}


@pytest.mark.parametrize(
    "name, abort_disabled, mutation",
    [
        pytest.param(name, *case, id=name + suffix)
        for name in sorted(ORBIT_INSTANCES) for suffix, case in ORBIT_CASES.items()
    ],
)
def test_canonical_keys_are_orbits(name, abort_disabled, mutation):
    # Two enumerated views get one key exactly when a permutation of each
    # round's positions (for a server's view, one that keeps the order
    # inside each published set) carries one onto the other.
    params = ORBIT_INSTANCES[name]
    enumeration = oracle._Enumeration(params, abort_disabled, mutation, classes=True)
    keys = oracle._PairKeys(enumeration)
    seen = {view: set() for view, _secret in oracle._PAIRS.values()}
    for chunk in enumeration.chunks():
        codes = dict(zip(oracle.VARIABLES, enumeration.codes(chunk).T.tolist()))
        interned = {var: list(values) for var, values in enumeration.interned.items()}
        for view, found in seen.items():
            view_keys = keys.key(view, chunk).tolist()
            found.update((key, _orbit(enumeration, interned, codes, row, view)) for row, key in enumerate(view_keys))
    for found in seen.values():
        assert len(found) == len({key for key, _image in found}) == len({image for _key, image in found})


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_conditioned_audit_expands_only_live_rows(name):
    # Under non-abort conditioning a skeleton that aborts is counted (the
    # budget, the state count, the (rows, states) check) but not expanded.
    # The audit expands only the channel bits of each skeleton, 2^-B of its
    # rows.
    params = INSTANCES[name]
    enumeration = oracle._Enumeration(params, False, None, classes=True)
    abort, free = oracle._SKELETON.index("abort"), oracle._SKELETON.index("free")
    rows = expanded = 0
    for chunk in enumeration.chunks(live_only=True):
        aborted = chunk.table[:, abort] == 1
        sizes = np.left_shift(1, enumeration.layout.free_bits + chunk.table[:, free])
        assert not aborted[chunk.skel].any()
        assert len(chunk.skel) == sizes[~aborted].sum() and chunk.rows == sizes.sum()
        rows += chunk.rows
        expanded += len(chunk.skel)
    assert rows == enumeration.rows
    conditioned, plain = oracle.audit(params, condition_nonabort=True), oracle.audit(params)
    assert plain.enumerated_rows == conditioned.enumerated_rows == rows
    B = enumeration.layout.free_bits
    assert B > 0 and plain.expanded_rows << B == rows
    assert 0 < conditioned.expanded_rows << B == expanded < rows
    assert conditioned.state_count == plain.state_count


def test_conditioning_when_every_session_aborts_exits_two(tmp_path, capsys):
    # n = 1 never carries a file bit: every skeleton aborts, none is expanded.
    argv = ["audit", "--n", "1", "--ell1", "1", "--ell2", "0", "--alpha", "1.0", "--condition-nonabort"]
    assert main([*argv, "--out", str(tmp_path / "a.jsonl")]) == 2
    assert "every session aborts: no non-abort event to condition on" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "shape, n, ell, bits",
    [
        # Empty files at L = 2x2: a skeleton id below 4 C(n + 2, 2) skeletons
        # (13 bits at both n), one 6-bit digit (the count of ones) per round
        # and the selection's 2 bits.
        ((2, 2), 47, (0, 0), 21),
        ((2, 2), 48, (0, 0), 21),
        # Nine rounds at n = 1, where every round aborts: no round goes on,
        # so the keys hold one round's 1-bit digit and no message bits.
        ((4, 4), 1, (1, 0), 29),
        ((3, 3), 2, (1, 0), 38),
    ],
    ids=["2x2-n47", "2x2-n48", "4x4-n1", "3x3-n2"],
)
def test_widest_audit_keys(shape, n, ell, bits):
    params = ProtocolParams(n=n, t_exponent=0.4, alpha=1, L1=shape[0], L2=shape[1], ell1=ell[0], ell2=ell[1])
    enumeration = oracle._Enumeration(params, False, None, classes=True)
    assert oracle._PairKeys(enumeration).key_bits == bits
    assert enumeration.replays == 0


def test_audit_keys_wider_than_the_bound_are_a_configuration_error(monkeypatch):
    # N4's codes need 10 bits and its widest keys 16.  The key guard runs
    # before any replay.
    assert oracle._PairKeys(oracle._Enumeration(N4, False, None, classes=True)).key_bits == 16
    monkeypatch.setattr(oracle, "_MAX_CODE_BITS", 15)
    monkeypatch.setattr(oracle._Enumeration, "chunks", lambda self: pytest.fail("enumerated past the key check"))
    with pytest.raises(ConfigurationError, match="^client_privacy_s1 needs 16-bit audit keys, more than 15$"):
        oracle.audit(N4)


def test_wide_keys_are_refused_before_any_sequence_is_listed(monkeypatch):
    # The skeleton count the key guard reads comes in closed form from the
    # kept openings, so 3x3 at n = 6, about a million sequences of them,
    # is refused without listing one.
    params = ProtocolParams(n=6, t_exponent=0.4, alpha=1, L1=3, L2=3, ell1=1, ell2=0)
    monkeypatch.setattr(oracle._Enumeration, "sequences", lambda self: pytest.fail("listed a sequence"))
    with pytest.raises(ConfigurationError, match="^client_privacy_s1 needs 64-bit audit keys, more than 62$"):
        oracle.audit(params, state_budget=10**15)


def test_progress_goes_to_stderr_only(monkeypatch, capsys):
    argv = ["audit", "--n", "3", "--alpha", "1.0", "--ell1", "1", "--ell2", "0"]

    def body(*flags):
        assert main([*argv, *flags]) == 0
        out, err = capsys.readouterr()
        header, record = out.splitlines()
        record = json.loads(record)
        record.pop("wall_time_s")
        return json.loads(header)["record"], record, err

    # Only the channel bits are expanded, and conditioned on non-abort only
    # those of the skeletons that go on; the budget and the summary still
    # count every row.
    assert "1792 states from 448 rows (112 expanded) of 11 orbit sequences, " in body()[2]
    argv.append("--condition-nonabort")
    quiet = body()
    assert "rows/s" not in quiet[2]
    assert "1 chunks, the largest 64 rows, at most " in quiet[2]
    # Each pair is tallied over the expanded rows, keyed as it was, or
    # settled from ranks.
    dropped = "own messages, files and masks dropped"
    assert (f"; client_privacy_s1 tallied over 64 rows, 32 distinct pairs, {dropped}; "
            f"client_privacy_s2 tallied over 64 rows, 32 distinct pairs, {dropped}; ") in quiet[2]
    assert "; server2_vs_server1 from ranks; server1_vs_server2 from ranks; servers_vs_client from ranks; " in quiet[2]
    assert quiet[2].rstrip().endswith("; audit keys up to 15 of 62 bits")
    assert "1792 states from 448 rows (64 expanded) of 11 orbit sequences, " in quiet[2]
    monkeypatch.setattr(oracle, "_PROGRESS_S", 0.0)
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", 30)
    loud = body()
    assert loud[:2] == quiet[:2]
    progress = [line for line in loud[2].splitlines() if line.endswith("rows/s")]
    assert len(progress) == 3
    assert progress[-1].startswith("audit: 448 of 448 rows, standing for 1,792 of 1,792; 11 orbit sequences; ")
    assert "3 chunks, the largest 30 rows, at most " in loud[2]
    assert loud[2].rstrip().endswith("; audit keys up to 15 of 62 bits")
