"""Audit values pinned across changes to how the oracle sums probabilities.

Each case runs one ``adder-spir audit`` command and requires its exit code,
and each of its five leakages and its reliability error within 1e-12 of the
value recorded here.  The values were recorded when the oracle summed float
probabilities, so some carry float residues (around 1e-13) where the exact
value is a round number or zero; the tolerance absorbs them.

The cases are the golden audits and the three mutations at n=3, at n=4
conditioned on non-abort, and on the multi-file instance L=3x2 at n=2, and
an honest n=4 audit with a two-bit file at server 1 (ell1 = 2).  The
exact oracle also prints exact zeros for honest instances, exact round
values for reuse-pad, and never a negative leakage.
"""

import functools
import json
import tempfile
from pathlib import Path

import pytest

from adder_spir import oracle
from adder_spir.cli import main
from test_streamed_audit import trivial_group

N3 = ("--n", "3", "--alpha", "1.0", "--ell1", "1", "--ell2", "0")
N4 = ("--n", "4", "--ell1", "1", "--ell2", "1", "--condition-nonabort")
L32_N1 = ("--n", "1", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0")
L32_N2 = ("--n", "2", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0")
# The one shape here whose published sets hold two positions each.
ELL2_N4 = ("--n", "4", "--ell1", "2", "--ell2", "0", "--alpha", "1")

FIELDS = (
    "client_privacy_s1", "client_privacy_s2", "server2_vs_server1",
    "server1_vs_server2", "servers_vs_client", "reliability_error",
)

# name -> (audit flags, exit code, values of FIELDS)
PINS = {
    "honest-n3": (N3, 0, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    "honest-ell2-n4": (ELL2_N4, 0, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    "honest-L3x2-n1": (L32_N1, 0, (
        6.406853007629834e-16, -3.043255178624176e-15, 8.328908909918762e-15,
        -5.445825056485368e-15, 2.2423985526704403e-15, 0.0,
    )),
    "honest-L3x2-n2": (L32_N2, 0, (
        4.076360226104425e-14, 3.852120370837387e-14, 6.480531817216123e-13,
        -8.352934608697637e-14, 1.6225355241821645e-13, 0.0,
    )),
    "reuse-pad-n3": ((*N3, "--mutate", "reuse-pad"), 1, (0.0, 0.0, 0.0, 0.0, 0.375, 0.25)),
    "reuse-pad-n4": ((*N4, "--mutate", "reuse-pad"), 1, (
        1.3166082930678708e-13, 1.3166082930678708e-13, 1.3166082930678708e-13,
        1.3166082930678708e-13, 0.5000000000001313, 0.25,
    )),
    "reuse-pad-L3x2-n2": ((*L32_N2, "--mutate", "reuse-pad"), 1, (
        4.076360226104425e-14, 3.852120370837387e-14, 6.480531817216123e-13,
        -8.352934608697637e-14, 0.25000000000016226, 0.3333333333333333,
    )),
    "leak-selection-n3": ((*N3, "--mutate", "leak-selection"), 1, (0.75, 0.75, 0.0, 0.0, 0.0, 0.0)),
    "leak-selection-n4": ((*N4, "--mutate", "leak-selection"), 1, (
        1.0000000000001315, 1.0000000000001315, 1.3134048665640563e-13,
        1.3134048665640563e-13, 1.3134048665640563e-13, 0.0,
    )),
    "leak-selection-L3x2-n2": ((*L32_N2, "--mutate", "leak-selection"), 1, (
        0.625814583693952, 0.62581458369395, 6.480531817216123e-13,
        -8.315561299486461e-14, 1.6225355241821645e-13, 0.0,
    )),
    "unmasked-messages-n3": ((*N3, "--mutate", "unmasked-messages"), 1, (0.0, 0.0, 0.0, 0.0, 0.75, 0.5)),
    "unmasked-messages-n4": ((*N4, "--mutate", "unmasked-messages"), 1, (
        1.3166082930678708e-13, 1.3166082930678708e-13, 1.3166082930678708e-13,
        1.3166082930678708e-13, 1.0000000000001315, 0.5,
    )),
    "unmasked-messages-L3x2-n2": ((*L32_N2, "--mutate", "unmasked-messages"), 1, (
        4.076360226104425e-14, 3.852120370837387e-14, 6.480531817216123e-13,
        -8.352934608697637e-14, 0.6666666666668288, 0.5,
    )),
}


@functools.cache
def audit_record(flags: tuple[str, ...]) -> tuple[int, dict]:
    """Exit code and leakage-report record of one ``audit`` command."""
    return _audit(flags)


def _audit(flags: tuple[str, ...]) -> tuple[int, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.jsonl"
        code = main(["audit", *flags, "--out", str(out)])
        return code, json.loads(out.read_text().splitlines()[1])


@pytest.mark.parametrize("name", sorted(PINS))
def test_audit_values_pinned(name):
    flags, code, expected = PINS[name]
    got_code, record = audit_record(flags)
    assert got_code == code
    for field, value in zip(FIELDS, expected):
        assert abs(float(record[field]) - value) <= 1e-12, field


# Honest instances audit to exact zeros: n=3, the benchmark's two audits,
# the smallest multi-file instance and ell1 = 2.
HONEST = {
    "n3": N3,
    "ell2-n4": ELL2_N4,
    "n4-nonabort": N4,
    "L3x2-n1": L32_N1,
    "L3x2-n2": L32_N2,
}


@pytest.mark.parametrize("name", sorted(HONEST))
def test_honest_audits_print_exact_zeros(name):
    code, record = audit_record(HONEST[name])
    assert code == 0
    assert [record[field] for field in FIELDS[:5]] == ["0.0"] * 5
    assert record["reliability_error"] == 0.0


@pytest.mark.parametrize(
    "flags, expected",
    [((*L32_N2, "--mutate", "reuse-pad"), "0.25"), ((*N4, "--mutate", "reuse-pad"), "0.5")],
    ids=["L3x2-n2", "n4-nonabort"],
)
def test_reuse_pad_prints_exact_leak(flags, expected):
    _code, record = audit_record(flags)
    assert record["servers_vs_client"] == expected


@pytest.mark.parametrize("name", sorted(PINS))
def test_no_leakage_is_negative(name):
    _code, record = audit_record(PINS[name][0])
    assert all(float(record[field]) >= 0.0 for field in FIELDS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_trivial_group_prints_the_same_record(monkeypatch, name):
    # Every pinned audit reduces by its share classes (by S_n per round
    # when every share holds at most one position); replayed on the trivial
    # group, each prints the same record.
    code, record = audit_record(PINS[name][0])
    trivial_group(monkeypatch)
    trivial_code, trivial = _audit(PINS[name][0])
    assert (trivial_code, {**trivial, "wall_time_s": 0}) == (code, {**record, "wall_time_s": 0})


def test_ell2_audit_counts_every_row():
    _code, record = audit_record(ELL2_N4)
    assert record["state_count"] == record["required_states"] == 16384
