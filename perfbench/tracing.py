"""Per-layer tracing of adder-spir from outside the package.

``Tracer.install`` rebinds public functions and methods in the namespaces
that call them (for example ``adder_spir.protocol.classify_indices``, which
``execute_session`` looks up at call time) with wrappers that record one
span per call and bump exact counters.  ``Tracer.uninstall`` restores the
originals.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent span, trial id), kept in flat arrays in
memory and written out by ``Tracer.save`` when the run ends.  A layer's
self time is its spans' duration minus the time covered by their child
spans.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# Per-layer metrics reported by a traced run: name -> unit.  A ``.ms`` metric
# is summed self time of the span of the same name; the rest are counters.
# ``cli.records`` and ``cli.bytes_out`` count output body records and bytes
# (header line and the audit report's wall_time_s field left out).
LAYER_METRICS = {
    "channel.transmit.ms": "ms",
    "channel.classify_indices.ms": "ms",
    "channel.positions": "count",
    "protocol.sample_partition.ms": "ms",
    "protocol.server_mask.ms": "ms",
    "protocol.client_recover.ms": "ms",
    "protocol.masked_bits": "count",
    "protocol.execute_session.ms": "ms",
    "protocol.execute_session.calls": "count",
    "protocol.run_session_adaptive.ms": "ms",
    "protocol.aborts.size-deviation": "count",
    "protocol.aborts.capacity-shortfall": "count",
    "protocol.completed_ratio": "ratio",
    "bits.sample_uniform.ms": "ms",
    "bits.sampled_bits": "count",
    "model.sample_filestore.ms": "ms",
    "model.trial_seeds.ms": "ms",
    "multifile.build_chain.ms": "ms",
    "multifile.sample_masks.ms": "ms",
    "multifile.reconstruct.ms": "ms",
    "multifile.execute_multifile.ms": "ms",
    "multifile.rounds": "count",
    "cli.to_record.ms": "ms",
    "cli.records": "count",
    "cli.bytes_out": "bytes",
    "oracle.enumerate_protocol.ms": "ms",
    "oracle.partition_choices.ms": "ms",
    "oracle.replays": "count",
    "oracle.states": "count",
    "infotheory.mutual_information.ms": "ms",
    "infotheory.mutual_information.calls": "count",
    "infotheory.condition.ms": "ms",
    "infotheory.to_float.ms": "ms",
    "infotheory.table_entries": "count",
    "capacity.achieved_rates.ms": "ms",
    "capacity.region_check.ms": "ms",
}

# Counters that must repeat exactly when the same inputs are traced again.
EXACT_COUNTERS = (
    "oracle.replays",
    "oracle.states",
    "protocol.aborts.size-deviation",
    "protocol.aborts.capacity-shortfall",
    "multifile.rounds",
    "cli.records",
    "cli.bytes_out",
    "infotheory.mutual_information.calls",
)


def _count_positions(counts, args, _kwargs, _result):
    counts["channel.positions"] += len(args[0])


def _count_sampled(counts, args, _kwargs, _result):
    counts["bits.sampled_bits"] += args[0]


def _count_masked(counts, args, _kwargs, _result):
    s1, s2 = args[1]
    counts["protocol.masked_bits"] += len(s1) + len(s2)


def _count_session(counts, _args, _kwargs, transcript):
    counts["protocol.execute_session.calls"] += 1
    if transcript.aborted:
        counts[f"protocol.aborts.{transcript.abort_reason}"] += 1
    else:
        counts["protocol.completed"] += 1


def _count_rounds(counts, _args, _kwargs, transcript):
    counts["multifile.rounds"] += len(transcript.transcripts)


def _count_states(counts, _args, _kwargs, dist):
    counts["oracle.states"] += len(dist)


def _count_mi(counts, args, _kwargs, _result):
    counts["infotheory.mutual_information.calls"] += 1
    counts["infotheory.table_entries"] += len(args[0].table)


def _count_entries(counts, args, _kwargs, _result):
    counts["infotheory.table_entries"] += len(args[0].table)


class Tracer:
    """Span recorder and the rebinding that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial = array("q")
        self.counts: Counter = Counter()
        # Set by the harness before each batch; a trial id is
        # batch_id * 100_000 + the CLI's trial index within that batch.
        self.batch_id = 0
        self.trial_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped so that each call records one span named ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.trial.append(self.trial_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Rebind the traced functions in every namespace that calls them."""
        from adder_spir import bits, capacity, channel, cli, model, multifile, oracle, protocol
        from adder_spir.infotheory import JointDistribution
        from adder_spir.multifile import MultifileTranscript
        from adder_spir.protocol import Transcript

        sample_uniform = self.wrap("bits.sample_uniform", bits.sample_uniform, _count_sampled)
        for ns in (protocol, model, multifile):
            self._rebind(ns, "sample_uniform", sample_uniform)
        transmit = self.wrap("channel.transmit", channel.transmit, _count_positions)
        classify = self.wrap("channel.classify_indices", channel.classify_indices)
        for ns in (protocol, oracle):
            self._rebind(ns, "transmit", transmit)
            self._rebind(ns, "classify_indices", classify)

        self._rebind(cli, "sample_filestore", self.wrap("model.sample_filestore", model.sample_filestore))
        trial_seeds = self.wrap("model.trial_seeds", model.trial_seeds)

        @functools.wraps(trial_seeds)
        def tagged_trial_seeds(master_seed, trial):
            self.trial_id = self.batch_id * 100_000 + trial
            return trial_seeds(master_seed, trial)

        self._rebind(cli, "trial_seeds", tagged_trial_seeds)

        for name in ("sample_partition", "server_mask", "client_recover"):
            count = _count_masked if name == "server_mask" else None
            self._rebind(protocol, name, self.wrap(f"protocol.{name}", getattr(protocol, name), count))
        session = self.wrap("protocol.execute_session", protocol.execute_session, _count_session)
        self._rebind(protocol, "execute_session", session)
        self._rebind(multifile, "execute_session", session)
        self._rebind(cli, "run_session_adaptive", self.wrap("protocol.run_session_adaptive", protocol.run_session_adaptive))

        for name in ("build_chain", "sample_masks", "reconstruct"):
            self._rebind(multifile, name, self.wrap(f"multifile.{name}", getattr(multifile, name)))
        multi = self.wrap("multifile.execute_multifile", multifile.execute_multifile, _count_rounds)
        self._rebind(multifile, "execute_multifile", multi)

        self._rebind(oracle, "execute_session", self._replays(session))
        self._rebind(oracle, "execute_multifile", self._replays(multi))
        self._rebind(oracle, "enumerate_protocol", self.wrap("oracle.enumerate_protocol", oracle.enumerate_protocol, _count_states))
        self._rebind(oracle, "partition_choices", self.wrap("oracle.partition_choices", oracle.partition_choices))

        self._rebind(JointDistribution, "mutual_information", self.wrap("infotheory.mutual_information", JointDistribution.mutual_information, _count_mi))
        self._rebind(JointDistribution, "condition", self.wrap("infotheory.condition", JointDistribution.condition, _count_entries))
        self._rebind(JointDistribution, "to_float", self.wrap("infotheory.to_float", JointDistribution.to_float, _count_entries))

        for cls in (Transcript, MultifileTranscript):
            self._rebind(cls, "to_record", self.wrap("cli.to_record", cls.to_record))
        for name in ("achieved_rates", "region_check"):
            self._rebind(capacity, name, self.wrap(f"capacity.{name}", getattr(capacity, name)))

    def _replays(self, fn):
        """Count the calls the oracle makes to a session runner."""

        @functools.wraps(fn)
        def replay(*args, **kwargs):
            self.counts["oracle.replays"] += 1
            return fn(*args, **kwargs)

        return replay

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_ms(self) -> dict[str, float]:
        """Summed self time per span name, in milliseconds."""
        name_id = np.frombuffer(self.name_id, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = np.bincount(name_id, weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) / 1e6 for i, name in enumerate(self.names)}

    def tag_batches(self, seeds):
        """Yield ``seeds``, numbering the spans of each batch's trials."""
        for i, seed in enumerate(seeds):
            self.batch_id = i
            self.trial_id = i * 100_000
            yield seed

    def metrics(self, records: int, bytes_out: int, speed: float = 1.0) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never enters reads 0.

        Self times are multiplied by ``speed``, the ratio of reference to
        wall seconds over the traced batches.
        """
        counts = Counter(self.counts)
        counts["cli.records"] = records
        counts["cli.bytes_out"] = bytes_out
        calls = counts["protocol.execute_session.calls"]
        ratio = counts["protocol.completed"] / calls if calls else 0.0
        own = self.self_ms()
        out = {}
        for name in LAYER_METRICS:
            if name == "protocol.completed_ratio":
                out[name] = ratio
            elif name.endswith(".ms"):
                out[name] = own.get(name[: -len(".ms")], 0.0) * speed
            else:
                out[name] = counts[name]
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            trial=np.frombuffer(self.trial, dtype=np.int64),
        )
