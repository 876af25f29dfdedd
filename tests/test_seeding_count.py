"""A deterministic guard on the run path's seeding.

Each ``run`` or ``sweep`` trial derives every one of its party streams in
one batched hash (``model.session_streams``), and the only numpy
``SeedSequence``s built are the trial seeds' (``trial_seeds``) and each
sweep cell's.  A timing test would depend on the host; these counts do
not.  The test runs the benchmark's ``run-multifile`` and ``sweep``
commands (``perfbench/run.py``) and counts the ``SeedSequence``s built, the
calls of the batched hash and the PCG64 generators built, so a hot path that
derives a stream on its own fails it.
"""

from collections import Counter

import numpy as np
import pytest

from adder_spir import cli, model

_RUN_MULTIFILE = (
    "run", "--n", "1024", "--L1", "4", "--L2", "4", "--ell1", "60", "--ell2", "60",
    "--trials", "3", "--seed", "1", "--workers", "1",
)
_SWEEP = ("sweep", "--n", "16384", "--alpha", "0.5", "--t", "0.4", "--trials", "2", "--seed", "1", "--workers", "1")


@pytest.mark.parametrize(
    "argv, expected",
    [
        # Three trials: three trial seeds, one hash each, of 32 streams.
        (_RUN_MULTIFILE, {"SeedSequence": 3, "hash": 3, "PCG64": 3 * 32}),
        # The cell and two trial seeds; one hash per trial, of 6 streams.
        (_SWEEP, {"SeedSequence": 3, "hash": 2, "PCG64": 2 * 6}),
    ],
    ids=["run-multifile", "sweep"],
)
def test_each_trial_hashes_its_streams_once(monkeypatch, tmp_path, argv, expected):
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
