"""A deterministic guard on the audit's per-skeleton bookkeeping.

The benchmark's two audits (``perfbench/run.py --workload audit``) replay a
few hundred skeletons, so their time is mostly the Python-level calls made
around each replay.  A timing test would depend on the host; the number of
calls does not.  This test counts, with ``sys.setprofile``, the calls made
in frames of the ``adder_spir`` package while ``cli.main`` runs both
audits once more after a warm-up run, and bounds it about 10% above the
count measured when the bound was set.

``python tests/test_call_count.py`` prints the current count.  Python 3.12
and later inline comprehensions, so they count fewer calls.
"""

import os
import sys
import tempfile
from pathlib import Path

import adder_spir
from adder_spir import cli

# The benchmark's two audits, as tests/test_tracing.py runs them.
_AUDITS = (
    ("--n", "4", "--ell1", "1", "--ell2", "1", "--condition-nonabort"),
    ("--n", "2", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0"),
)
# Frames report the file names the modules were imported under.
_PACKAGE = os.path.dirname(adder_spir.__file__) + os.sep
# 6,725 calls on Python 3.11.7 when the bound was set, after the rank
# certificates took three of the five pairs out of the tallies (6,937
# before them; 7,356 before the second pass over the audit's fixed costs,
# whose transcript constructors are counted here where the generated ones
# were not; 16,857 before the replay-to-chunk path was first trimmed).
_MAX_CALLS = 7_400


def _calls(out: Path) -> int:
    """Python-level calls in the package while ``cli.main`` runs both audits."""
    count = 0

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            count += 1

    sys.setprofile(profile)
    try:
        for flags in _AUDITS:
            assert cli.main(["audit", *flags, "--seed", "1", "--out", str(out)]) == 0
    finally:
        sys.setprofile(None)
    return count


def test_benchmark_audits_stay_within_their_call_count(tmp_path, capsys):
    _calls(tmp_path / "warm-up.jsonl")
    calls = _calls(tmp_path / "audit.jsonl")
    capsys.readouterr()
    assert calls <= _MAX_CALLS, (
        f"the benchmark audits made {calls} Python-level calls in adder_spir, more than {_MAX_CALLS}; "
        "re-measure with `PYTHONPATH=src python tests/test_call_count.py`, and raise the bound only "
        "for a change that needs the calls"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _calls(Path(tmp) / "warm-up.jsonl")
        print(_calls(Path(tmp) / "audit.jsonl"))
