"""A deterministic guard on the run path's seeding.

``run`` and ``sweep`` derive the party streams of a block of trials in one
batched hash (``model.block_streams``), at most ``cli.BLOCK_STREAMS``
streams to a hash, and the only numpy ``SeedSequence``s built are the trial
seeds' (``trial_seeds``) and each sweep cell's.  A timing test would depend
on the host; these counts do not.  The test runs the benchmark's
``run-multifile`` and ``sweep`` commands (``perfbench/run.py``), and a
``run-multifile`` command one trial past the cap, and counts the
``SeedSequence``s built, the calls of the batched hash and the PCG64
generators built, so a hot path that derives a stream or a session's
streams on its own fails it.
"""

import math
from collections import Counter

import numpy as np
import pytest

from adder_spir import cli, model


def _run_multifile(trials: int) -> tuple:
    return (
        "run", "--n", "1024", "--L1", "4", "--L2", "4", "--ell1", "60", "--ell2", "60",
        "--trials", str(trials), "--seed", "1", "--workers", "1",
    )


_SWEEP = ("sweep", "--n", "16384", "--alpha", "0.5", "--t", "0.4", "--trials", "2", "--seed", "1", "--workers", "1")
# A run-multifile session derives 32 streams, and the cap is a whole number
# of such sessions, so one trial more than fits takes a second hash.
_PAST_THE_CAP = cli.BLOCK_STREAMS // 32 + 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        # Three trials: three trial seeds, then one hash of 3 x 32 streams.
        (_run_multifile(3), {"SeedSequence": 3, "hash": 1, "PCG64": 3 * 32}),
        # The cell and two trial seeds, then one hash of 2 x 6 streams.
        (_SWEEP, {"SeedSequence": 3, "hash": 1, "PCG64": 2 * 6}),
        (
            _run_multifile(_PAST_THE_CAP),
            {
                "SeedSequence": _PAST_THE_CAP,
                "hash": math.ceil(_PAST_THE_CAP * 32 / cli.BLOCK_STREAMS),
                "PCG64": _PAST_THE_CAP * 32,
            },
        ),
    ],
    ids=["run-multifile", "sweep", "run-past-the-cap"],
)
def test_each_block_hashes_its_streams_once(monkeypatch, tmp_path, argv, expected):
    counts: Counter = Counter()

    class CountedSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            counts["SeedSequence"] += 1
            super().__init__(*args, **kwargs)

    class CountedPCG64(np.random.PCG64):
        def __init__(self, *args, **kwargs):
            counts["PCG64"] += 1
            super().__init__(*args, **kwargs)

    pcg_states = model._pcg_states

    def counted_hash(rows):
        counts["hash"] += 1
        return pcg_states(rows)

    monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
    monkeypatch.setattr(np.random, "PCG64", CountedPCG64)
    monkeypatch.setattr(model, "_pcg_states", counted_hash)
    assert cli.main([*argv, "--out", str(tmp_path / "out.jsonl")]) == 0
    assert dict(counts) == expected
