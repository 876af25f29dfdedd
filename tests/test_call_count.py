"""A deterministic guard on the audit's per-skeleton bookkeeping.

The benchmark's two audits (``perfbench/run.py --workload audit``) replay a
few hundred skeletons, so their time is mostly the Python-level calls made
around each replay.  A timing test would depend on the host; the number of
calls does not.  This test counts, with ``sys.setprofile``, the calls made
in frames of the ``adder_spir`` package while ``cli.main`` runs both
audits once more after a warm-up run, and bounds it about 10% above the
count measured when the bound was set.

``python tests/test_call_count.py`` prints the current count, then the
calls in each phase of the audits (the oracle function on the stack
decides it: enumeration, replay, certificates, tally, or other for the
command line and ``audit`` itself), then the 15 package functions called
most, each with its calls.  Python 3.12 and later inline comprehensions, so
they count fewer calls.
"""

import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import adder_spir
from adder_spir import cli, oracle

# The benchmark's two audits, as tests/test_tracing.py runs them.
_AUDITS = (
    ("--n", "4", "--ell1", "1", "--ell2", "1", "--condition-nonabort"),
    ("--n", "2", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0"),
)
# Frames report the file names the modules were imported under.
_PACKAGE = os.path.dirname(adder_spir.__file__) + os.sep
# 4,682 calls on Python 3.11.7 when the bound was set, after the audit
# read each skeleton's published shifts from its sets value, built each
# symbolic opening without a comprehension, took a one-round sequence's
# channel-input columns from its opening, built the values of a sequence
# that aborted once per run, read the certificates' patterns in one pass
# and certified each value of the verdicts and leak by one elimination
# (5,092 before, under a bound of 5,600, after each round
# decided its capacity abort from y's counts before any partitioner ran,
# each partition decoded the client's inputs once for every answer, and
# the audit ranked each joint pattern by one elimination, cut its chunks
# from the skeleton table and keyed the selection once per chunk; 5,260
# before that, under a bound of 5,650, once the servers' messages were
# certified by one GF(2) solve; 5,141 when that bound was set, after the
# plans of one enumeration shared one answer per round opening that
# aborted and a sequence that aborted was replayed only for the plans
# that had not yet run the rounds before its last; 5,907 before, under a
# bound of 6,500, after the plans of one enumeration shared their answers
# per round's branch choices and the selection pairs were keyed without
# the servers' own messages, files and masks; 6,254 before that, under a bound of
# 6,870, after the replays shared one chaining per enumeration, read each
# answered round once and took each rank once per output pattern; 7,169
# before that, under a bound of 7,400: 6,725 after the rank certificates
# took three of the five pairs out of the tallies, then 444 more once the
# masses came from ranks too; 6,937 before the certificates; 7,356 before
# the second pass over the audit's fixed costs, whose transcript
# constructors are counted here where the generated ones were not; 16,857
# before the replay-to-chunk path was first trimmed).
_MAX_CALLS = 5_150
# The audit phase of an oracle function's calls and of every call it makes,
# by its qualified name (``python tests/test_call_count.py``).
_PHASES = {
    "_enumeration": "enumeration", "_PairKeys.__init__": "enumeration",
    "_Enumeration.replay_all": "replay",
    "_counted_skeletons": "certificates", "_read": "certificates", "_settle": "certificates",
    "_own_parts": "certificates",
    "_Enumeration.chunks": "tally", "_PairKeys.add": "tally", "_Tally.total": "tally", "_leakage": "tally",
}


def _calls(out: Path, key=lambda frame: frame.f_code) -> Counter:
    """Python-level calls in the package while ``cli.main`` runs both
    audits, per ``key`` of the called frame: by default its code object
    (its file, first line and name)."""
    calls: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            calls[key(frame)] += 1

    sys.setprofile(profile)
    try:
        for flags in _AUDITS:
            assert cli.main(["audit", *flags, "--seed", "1", "--out", str(out)]) == 0
    finally:
        sys.setprofile(None)
    return calls


def test_benchmark_audits_stay_within_their_call_count(tmp_path, capsys):
    _calls(tmp_path / "warm-up.jsonl")
    calls = sum(_calls(tmp_path / "audit.jsonl").values())
    capsys.readouterr()
    assert calls <= _MAX_CALLS, (
        f"the benchmark audits made {calls} Python-level calls in adder_spir, more than {_MAX_CALLS}; "
        "re-measure with `PYTHONPATH=src python tests/test_call_count.py`, and raise the bound only "
        "for a change that needs the calls"
    )


def _phase(frame) -> str:
    """The audit phase of a call: that of the innermost oracle function on its stack in ``_PHASES``."""
    while frame is not None:
        code = frame.f_code
        if code.co_filename == oracle.__file__ and getattr(code, "co_qualname", code.co_name) in _PHASES:
            return _PHASES[getattr(code, "co_qualname", code.co_name)]
        frame = frame.f_back
    return "other"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _calls(Path(tmp) / "warm-up.jsonl")
        calls = _calls(Path(tmp) / "audit.jsonl")
        phases = _calls(Path(tmp) / "phases.jsonl", _phase)
    print(sum(calls.values()))
    for phase in ("enumeration", "replay", "certificates", "tally", "other"):
        print(f"{phases[phase]:7,}  {phase}")
    for code, count in calls.most_common(15):
        where = f"{os.path.relpath(code.co_filename, os.path.dirname(_PACKAGE))}:{code.co_firstlineno}"
        print(f"{count:7,}  {code.co_name}  ({where})")
