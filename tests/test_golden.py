"""Golden transcripts: hashes of the output bodies of seeded CLI commands.

Each case runs one seeded command and hashes its output body: every line
after the header, with the audit report's ``wall_time_s`` (its only timing)
dropped.  A change that is meant to keep behaviour must leave every hash
unchanged.  Re-record a hash only for an intended change of the output:
``python tests/test_golden.py`` prints the current digests.

The published selection sets of the ``run`` cases have digests of their
own, recorded from format 1 of the records, where the sets were int lists.
Format 2's label strings must decode to the same sets.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from adder_spir.cli import main
from adder_spir.protocol import decode_sets

_AUDIT_N3 = ("audit", "--n", "3", "--alpha", "1.0", "--ell1", "1", "--ell2", "0")

# name -> (argv, exit code, sha256 of the body)
CASES = {
    "run-2file": (
        ("run", "--n", "4096", "--ell1", "900", "--ell2", "900", "--trials", "3", "--seed", "11"),
        0,
        "f4c45429fea5da3051048ccce8912bada4092ff209555cb4fc966c4314467e0e",
    ),
    "run-multifile": (
        ("run", "--n", "1024", "--L1", "4", "--L2", "4", "--ell1", "60", "--ell2", "60", "--trials", "2", "--seed", "5"),
        0,
        "59dd2f0278252397d16b3de78a640ed8b8b24547f3208f6113a962f7fecc80af",
    ),
    # Both abort reasons occur: 2 size-deviation, 4 capacity-shortfall.
    "run-aborts": (
        ("run", "--n", "12", "--t", "0.45", "--ell1", "2", "--ell2", "2", "--trials", "40", "--seed", "3"),
        0,
        "8cf39177feb897c8bee3dd5990cd5b03bc45c3ddf02cd62c1aa1cfb51864465d",
    ),
    "sweep": (
        ("sweep", "--n", "256,1024", "--alpha", "0.5,0.3", "--trials", "20", "--seed", "4"),
        0,
        "d1a37e2805e23e45e798dbeda9a267f2a178f557eb528f482a0da172d4a66da8",
    ),
    # Abort check off: 6 capacity-shortfall aborts among 20 trials.
    "run-no-abort": (
        ("run", "--n", "10", "--ell1", "2", "--ell2", "2", "--trials", "20", "--seed", "2", "--no-abort"),
        0,
        "b8cb3712d5a02e90ad49a75040818352882952a8fb02ae02a3147d6637ba2da3",
    ),
    "audit-honest": (_AUDIT_N3, 0, "5c4f610882a7408a5d30942b23c2dc2c5c65e231ba0ad41827762df3b498f52e"),
    "audit-reuse-pad": ((*_AUDIT_N3, "--mutate", "reuse-pad"), 1, "a7d299194cfdb7dddcf309676b815bed20459afbfaf7f1d7879498a4b6d2a38d"),
    # Multi-file audit, 384 states.
    "audit-multifile": (
        ("audit", "--n", "1", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0"),
        0,
        "c1e7984df8b59606f950e12dabbb36fa320c2df14edba58097b17bc36c487186",
    ),
    # The benchmark's multi-file audit, 13,056 states.  Its leakages are
    # exact zeros, whatever the order in which the rows reach the
    # distribution.
    "audit-multifile-n2": (
        ("audit", "--n", "2", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0"),
        0,
        "5d0ed439b7fbd80c00d8a1852d2ac5e1cd6ebfce7ea4b48f17acc87068eff863",
    ),
}


# name -> sha256 of the published sets, one line per (record, round, server, set).
FORMAT1_SETS = {
    "run-2file": "5b38d3a880f4e16f3c22927fc7c353a5a6c69a9d400946126f9d2c3d77eb57cc",
    "run-multifile": "702a8f75cc7401f77a078f0b58b7ae5290123b23b0db7ca6a7187222a4467b7d",
    "run-aborts": "39f0774ffe07d23f66327e59cd00771ff952485b0c50c539da61c997fc0b6b82",
    "run-no-abort": "643eea6a88e29abc23db79426e30cfa425817d8e41cd9c99a795a237f7945d67",
}


def published_sets(record: dict):
    """(round, server, set, positions) of every published set of one run record."""
    rounds = record["rounds"] if record["record"] == "multifile-transcript" else [record]
    for r, rnd in enumerate(rounds):
        if "sets" in rnd:
            sets = decode_sets(rnd["sets"])
            for s in (1, 2):
                for k, positions in enumerate(sets.for_server(s), 1):
                    yield r, s, k, positions.tolist()


def sets_digest(argv, out: Path) -> str:
    """The sha256 of the published sets of one run command, in their canonical form."""
    main([*argv, "--out", str(out)])
    digest = hashlib.sha256()
    for i, line in enumerate(out.read_text().splitlines()[1:]):
        for r, s, k, positions in published_sets(json.loads(line)):
            digest.update(f"{i} {r} {s} {k} {','.join(map(str, positions))}\n".encode())
    return digest.hexdigest()


def body_digest(argv, out: Path) -> tuple[int, str]:
    """Exit code of one command and the sha256 of its output body."""
    code = main([*argv, "--out", str(out)])
    digest = hashlib.sha256()
    for line in out.read_text().splitlines()[1:]:
        record = json.loads(line)
        record.pop("wall_time_s", None)
        digest.update((json.dumps(record) + "\n").encode())
    return code, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_body(name, tmp_path):
    argv, code, expected = CASES[name]
    assert body_digest(argv, tmp_path / "out.jsonl") == (code, expected)


@pytest.mark.parametrize("name", sorted(FORMAT1_SETS))
def test_published_sets_match_format1(name, tmp_path):
    assert sets_digest(CASES[name][0], tmp_path / "out.jsonl") == FORMAT1_SETS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, _code, _digest) in CASES.items():
            code, digest = body_digest(argv, Path(tmp) / "out.jsonl")
            print(f"{name}: exit {code} sha256 {digest}")
        for name in FORMAT1_SETS:
            print(f"{name} sets: sha256 {sets_digest(CASES[name][0], Path(tmp) / 'out.jsonl')}")
