"""Golden transcripts: hashes of the output bodies of seeded CLI commands.

Each case runs one seeded command and hashes its output body: every line
after the header, with the audit report's ``wall_time_s`` (its only timing)
dropped.  A change that is meant to keep behaviour must leave every hash
unchanged.  Re-record a hash only for an intended change of the output:
``python tests/test_golden.py`` prints the current digests.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from adder_spir.cli import main

_AUDIT_N3 = ("audit", "--n", "3", "--alpha", "1.0", "--ell1", "1", "--ell2", "0")

# name -> (argv, exit code, sha256 of the body)
CASES = {
    "run-2file": (
        ("run", "--n", "4096", "--ell1", "900", "--ell2", "900", "--trials", "3", "--seed", "11"),
        0,
        "badf61e0b9a0a93a20fe3eab5c8fb44abe7c67c4f978f92d633c1bf4df95c2c0",
    ),
    "run-multifile": (
        ("run", "--n", "1024", "--L1", "4", "--L2", "4", "--ell1", "60", "--ell2", "60", "--trials", "2", "--seed", "5"),
        0,
        "9ffa6d29da6c29ace336b45cf11f2adc5c1afe11122581c6b8c4e1d969f1c65c",
    ),
    # Both abort reasons occur: 2 size-deviation, 4 capacity-shortfall.
    "run-aborts": (
        ("run", "--n", "12", "--t", "0.45", "--ell1", "2", "--ell2", "2", "--trials", "40", "--seed", "3"),
        0,
        "dc3028bb80010b8648004f0390d8dca602b728ddb8506cb049b27e832ea67d02",
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
        "455e1fcc4cb8853fa17e93d70762fb0e98c605d593202f1f651dbcd4c7e59a71",
    ),
    "audit-honest": (_AUDIT_N3, 0, "5c4f610882a7408a5d30942b23c2dc2c5c65e231ba0ad41827762df3b498f52e"),
    "audit-reuse-pad": ((*_AUDIT_N3, "--mutate", "reuse-pad"), 1, "a7d299194cfdb7dddcf309676b815bed20459afbfaf7f1d7879498a4b6d2a38d"),
    "audit-exact": ((*_AUDIT_N3, "--exact-rational"), 0, "5c4f610882a7408a5d30942b23c2dc2c5c65e231ba0ad41827762df3b498f52e"),
    # Multi-file audit, 384 states.
    "audit-multifile": (
        ("audit", "--n", "1", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0"),
        0,
        "b5ea17138eb378d440c75caab180b8a6a80aad392d723cd7ec1f0a5c2a121b94",
    ),
    # The benchmark's multi-file audit, 13,056 states.  Its leakages are
    # float residues around 1e-13, whose last digits depend on the order in
    # which the rows reach the distribution.
    "audit-multifile-n2": (
        ("audit", "--n", "2", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0"),
        0,
        "75590a857ca06dbd529d2c4bdbc85b290e890e5c361a5bd5b198c87530817d28",
    ),
}


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, _code, _digest) in CASES.items():
            code, digest = body_digest(argv, Path(tmp) / "out.jsonl")
            print(f"{name}: exit {code} sha256 {digest}")
