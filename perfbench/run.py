"""Outside-in benchmark of the adder-spir command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports the package from ``src/`` of the checkout and drives
``adder_spir.cli.main`` in this process with generated arguments, one
worker (``--workers 1``, ``ADDER_SPIR_WORKERS`` cleared).  Every output is
checked.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary and an environment record.

``--trace 0`` times batches until ``--seconds`` have passed and reports
the end-to-end metrics, each the median over batches (``setup_s``: over
fresh interpreters).  Times are converted to reference seconds by the speed
probe of ``speed.py``; the summary lines print the raw wall-clock figures
next to them.  ``failed_frac`` is printed there too: the result object
carries it as ``failed`` / ``attempted``.

``--trace 1`` ignores ``--seconds``: it runs a fixed set of batches
untraced, then twice with the per-layer tracer of ``tracing.py`` installed,
and reports the per-layer metrics and the tracing overhead.  The traced
output bodies must equal the untraced ones and the exact counters must
repeat.  The spans are written to ``.bench_build/perfbench/``.

Time is measured per batch: one CLI command of a fixed number of trials
for ``run-*`` and ``sweep``, both audits back to back for ``audit``.
``attempted`` and ``failed`` count trials, or audits.  ``--scale tiny``
shrinks every workload for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from speed import SpeedProbe, slowdown_now

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 11
LEAK_TOL = 1e-9
LEAKAGES = (
    "client_privacy_s1",
    "client_privacy_s2",
    "server2_vs_server1",
    "server1_vs_server2",
    "servers_vs_client",
)

END_TO_END = {
    "sessions_per_s": "1/s",
    "file_kbit_per_s": "kbit/s",
    "command_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Batch:
    """What one batch did and what its checks found."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    sessions: int = 0
    file_bits: int = 0
    records: int = 0
    bytes_out: int = 0  # of the output bodies, as compared
    # sha256 of the output bodies, header lines dropped.
    digest: Any = field(default_factory=hashlib.sha256)
    problems: list[str] = field(default_factory=list)
    # (start, end) of each CLI call, and their total in reference seconds.
    windows: list[tuple[float, float]] = field(default_factory=list)
    ref_s: float = 0.0


def _hex_len(bits: int) -> int:
    return 2 * math.ceil(bits / 8)


@dataclass(frozen=True)
class RunWorkload:
    """``adder-spir run``: one command of ``trials`` seeded sessions."""

    attempts = "trials"

    n: int
    L1: int
    L2: int
    ell1: int
    ell2: int
    trials: int

    @property
    def file_lengths(self) -> tuple[int, int]:
        return self.ell1 * (self.L2 - 1), self.ell2 * (self.L1 - 1)

    def commands(self, seed: int) -> list[list[str]]:
        return [[
            "run", "--n", str(self.n), "--L1", str(self.L1), "--L2", str(self.L2),
            "--ell1", str(self.ell1), "--ell2", str(self.ell2),
            "--trials", str(self.trials), "--seed", str(seed), "--workers", "1",
        ]]

    def _lengths_ok(self, rec: dict) -> bool:
        len1, len2 = self.file_lengths
        if rec["record"] == "transcript":
            m = rec["messages"]
            return [len(m[k]) for k in ("m11", "m12", "m21", "m22")] == [_hex_len(len1)] * 2 + [_hex_len(len2)] * 2
        return [len(h) for h in rec["recovered"]] == [_hex_len(len1), _hex_len(len2)]

    def check(self, _command: int, rc: int, records: list[dict], b: Batch) -> None:
        b.attempted = self.trials
        b.sessions = self.trials
        if len(records) != self.trials:
            b.problems.append(f"expected {self.trials} records, got {len(records)}")
        bad = 0
        for rec in records:
            if rec["aborted"]:
                continue
            if rec.get("recovery_ok") is True and rec.get("region_ok") is True and self._lengths_ok(rec):
                b.file_bits += sum(self.file_lengths)
            else:
                bad += 1
                b.problems.append(f"trial {rec.get('trial')}: recovery or region check failed")
        if rc != 0:
            b.problems.append(f"exit code {rc}")
        # A bad exit with no bad record, or missing records, fails the whole batch.
        b.failed = self.trials if len(records) != self.trials or (rc != 0 and not bad) else bad


@dataclass(frozen=True)
class SweepWorkload:
    """``adder-spir sweep``: one cell of ``trials`` adaptively sized sessions."""

    attempts = "trials"

    n: int
    alpha: float
    trials: int
    t: float = 0.4

    def commands(self, seed: int) -> list[list[str]]:
        return [[
            "sweep", "--n", str(self.n), "--alpha", str(self.alpha), "--t", str(self.t),
            "--trials", str(self.trials), "--seed", str(seed), "--workers", "1",
        ]]

    def check(self, _command: int, rc: int, records: list[dict], b: Batch) -> None:
        b.attempted = self.trials
        b.sessions = self.trials
        if rc != 0:
            b.problems.append(f"exit code {rc}")
        if len(records) != 1 or records[0].get("record") != "sweep-cell":
            b.problems.append("expected one sweep-cell record")
        else:
            cell = records[0]
            bound = cell["chebyshev_bound"]
            gate = bound + 3 * math.sqrt(bound / self.trials) + 1e-9
            if (cell["n"], cell["trials"]) != (self.n, self.trials):
                b.problems.append("sweep cell does not match the request")
            if cell["failures"] != 0:
                b.problems.append(f"{cell['failures']} recovery failures")
            if cell["abort_rate"] > gate:
                b.problems.append(f"abort rate {cell['abort_rate']} above gate {gate}")
            if cell["region_margin"] < -1e-12:
                b.problems.append(f"mean rates leave the region by {-cell['region_margin']}")
            completed = self.trials - round(cell["abort_rate"] * self.trials)
            b.file_bits = round((cell["mean_r1"] + cell["mean_r2"]) * self.n * completed)
        b.failed = self.trials if b.problems else 0


@dataclass(frozen=True)
class AuditInstance:
    args: tuple[str, ...]
    state_count: int
    # Audited states in which no round aborted, each recovering the
    # requested files (``file_bits`` bits in total).  Fixed by the instance;
    # counted once with ``oracle.enumerate_protocol``.
    completed_states: int
    file_bits: int


@dataclass(frozen=True)
class AuditWorkload:
    """``adder-spir audit`` of each instance, back to back: one batch."""

    attempts = "audits"

    instances: tuple[AuditInstance, ...]

    def commands(self, seed: int) -> list[list[str]]:
        return [["audit", *inst.args, "--seed", str(seed)] for inst in self.instances]

    def check(self, command: int, rc: int, records: list[dict], b: Batch) -> None:
        inst = self.instances[command]
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        if len(records) != 1 or records[0].get("record") != "leakage-report":
            problems.append("expected one leakage-report record")
        else:
            rep = records[0]
            problems += [f"{k} = {rep[k]} leaks" for k in LEAKAGES if not float(rep[k]) <= LEAK_TOL]
            if rep["reliability_error"] != 0:
                problems.append(f"reliability_error {rep['reliability_error']}")
            if rep["state_count"] != inst.state_count:
                problems.append(f"state_count {rep['state_count']} != {inst.state_count}")
        b.attempted += 1
        b.sessions += inst.state_count
        if problems:
            b.failed += 1
            b.problems += [f"audit {' '.join(inst.args)}: {p}" for p in problems]
        else:
            b.file_bits += inst.completed_states * inst.file_bits


WORKLOADS = {
    "run-2file": {
        "full": RunWorkload(n=4096, L1=2, L2=2, ell1=900, ell2=900, trials=5),
        "tiny": RunWorkload(n=256, L1=2, L2=2, ell1=40, ell2=40, trials=3),
    },
    "run-multifile": {
        "full": RunWorkload(n=1024, L1=4, L2=4, ell1=60, ell2=60, trials=3),
        "tiny": RunWorkload(n=128, L1=3, L2=3, ell1=10, ell2=10, trials=2),
    },
    "sweep": {
        "full": SweepWorkload(n=16384, alpha=0.5, trials=2),
        "tiny": SweepWorkload(n=1024, alpha=0.5, trials=3),
    },
    "audit": {
        "full": AuditWorkload((
            AuditInstance(("--n", "4", "--ell1", "1", "--ell2", "1", "--condition-nonabort"), 34816, 24576, 2),
            AuditInstance(("--n", "2", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0"), 13056, 6144, 1),
        )),
        "tiny": AuditWorkload((
            AuditInstance(("--n", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0", "--condition-nonabort"), 256, 128, 1),
            AuditInstance(("--n", "1", "--L1", "3", "--L2", "2", "--ell1", "1", "--ell2", "0", "--alpha", "1.0"), 384, 0, 1),
        )),
    },
}

# Batches in a traced run (at most 2 at tiny scale): fixed, so that its
# counters repeat exactly.
TRACE_BATCHES = {"run-2file": 100, "run-multifile": 60, "sweep": 60, "audit": 1}


def _import_cli():
    """Import ``adder_spir.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "adder_spir" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'adder_spir'}")
    sys.path.insert(0, str(SRC))
    from adder_spir import cli

    if Path(cli.__file__).resolve().parent != (SRC / "adder_spir").resolve():
        raise SystemExit(f"error: adder_spir imported from {cli.__file__}, not {SRC}")
    return cli


def run_batches(cli, workload, seeds, seconds: float = 0.0) -> list[Batch]:
    """Run a batch per seed, at least one and until ``seconds`` have passed,
    under a speed probe that fills in each batch's reference seconds."""
    batches = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        for seed in seeds:
            batches.append(run_batch(cli, workload, seed))
            if time.perf_counter() - start >= seconds:
                break
    for b in batches:
        b.ref_s = sum(probe.reference_seconds(*w) for w in b.windows)
    return batches


def run_batch(cli, workload, seed: int) -> Batch:
    """Run one batch through ``cli.main`` and check its outputs."""
    b = Batch()
    commands = workload.commands(seed)
    for i, argv in enumerate(commands):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            t1 = time.perf_counter()
        b.wall_s += t1 - t0
        b.windows.append((t0, t1))
        text = buf.getvalue()
        header, _, body = text.partition("\n")
        try:
            if json.loads(header).get("record") != "header":
                b.problems.append("first line is not a header record")
            records = [json.loads(line) for line in body.splitlines()]
        except json.JSONDecodeError as exc:
            b.problems.append(f"output is not JSON lines: {exc}")
            records = []
        b.records += len(records)
        workload.check(i, rc, records, b)
        if any("wall_time_s" in r for r in records):
            # The audit report's wall_time_s is the one timing inside any
            # output body; without it a body is a pure function of the arguments.
            body = "".join(json.dumps({k: v for k, v in r.items() if k != "wall_time_s"}) + "\n" for r in records)
        b.digest.update(body.encode())
        b.bytes_out += len(body.encode())
    return b


def batch_seeds(seed: int):
    """The CLI ``--seed`` of each successive batch, fixed by ``seed``."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to import ``adder_spir.cli`` and build its parser in fresh
    interpreters: raw, and in reference seconds."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t0 = time.perf_counter()\n"
        "import adder_spir.cli\n"
        "adder_spir.cli.build_parser()\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    raw, ref = [], []
    for _ in range(SETUP_SAMPLES):
        before = slowdown_now()
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        ref.append(seconds / ((before + slowdown_now()) / 2))
    return raw, ref


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, batches: list[Batch]) -> dict:
    import numpy

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if rev else None
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_rev": rev or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "body_sha256": [b.digest.hexdigest() for b in batches],
    }


def _median_line(name: str, unit: str, values: list[float], higher_is_better: bool) -> str:
    """Median, quartiles and the worst percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"{name:18s} {statistics.median(values):14.6g} {unit:7s} median of {n}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"; quartiles {q1:.6g}..{q3:.6g}"
    tail = next((q for q in (99, 95, 90, 75, 50) if n * (100 - q) / 100 >= 10), None)
    if tail is not None:
        worst = sorted(values, reverse=higher_is_better)[math.ceil(n * tail / 100) - 1]
        line += f"; worst-side p{tail} {worst:.6g}"
    return line


def _result(correct: bool, batches: list[Batch], metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": sum(b.attempted for b in batches),
        "failed": sum(b.failed for b in batches),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _report_problems(batches: list[Batch]) -> bool:
    problems = [p for b in batches for p in b.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return not problems


def _series(batches: list[Batch], setup: list[float], seconds_of) -> dict[str, list[float]]:
    return {
        "sessions_per_s": [b.sessions / seconds_of(b) for b in batches],
        "file_kbit_per_s": [b.file_bits / 1000 / seconds_of(b) for b in batches],
        "command_s": [seconds_of(b) for b in batches],
        "setup_s": setup,
    }


def bench_untraced(cli, name: str, workload, tiny, seed: int, seconds: float) -> int:
    setup_raw, setup_ref = measure_setup()
    run_batch(cli, tiny, seed)  # warm-up, untimed
    start = time.perf_counter()
    batches = run_batches(cli, workload, batch_seeds(seed), seconds)
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    series = _series(batches, setup_ref, lambda b: b.ref_s)
    metrics = {k: (statistics.median(v), END_TO_END[k]) for k, v in series.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb, END_TO_END["peak_rss_mb"])
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)

    print(f"workload {name}, seed {seed}, {len(batches)} batches in {elapsed:.2f} s")
    slowdowns = [b.wall_s / b.ref_s for b in batches]
    print(f"machine slowdown against the reference: median {statistics.median(slowdowns):.3f}, "
          f"range {min(slowdowns):.3f}..{max(slowdowns):.3f}")
    print("in reference seconds (reported):")
    for k, v in series.items():
        print(_median_line(k, END_TO_END[k], v, higher_is_better=k.endswith("_per_s")))
    print("in raw wall seconds:")
    for k, v in _series(batches, setup_raw, lambda b: b.wall_s).items():
        print(_median_line(k, END_TO_END[k], v, higher_is_better=k.endswith("_per_s")))
    print(f"{'peak_rss_mb':18s} {peak_rss_mb:14.6g} MB")
    print(f"{'failed_frac':18s} {failed / attempted:14.6g} 1       {failed} of {attempted} {workload.attempts}")
    print("env " + json.dumps(environment(seed, batches)))
    correct = _report_problems(batches)
    print(_result(correct and failed == 0, batches, metrics))
    return 0


def bench_traced(cli, name: str, workload, tiny, seed: int, n_batches: int) -> int:
    from tracing import EXACT_COUNTERS, LAYER_METRICS, Tracer

    run_batch(cli, tiny, seed)  # warm-up, untimed
    seeds = [s for s, _ in zip(batch_seeds(seed), range(n_batches))]
    plain = run_batches(cli, workload, seeds, math.inf)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_batches(cli, workload, tracer.tag_batches(seeds), math.inf)
        finally:
            tracer.uninstall()
        passes.append((tracer, traced))

    ok = _report_problems(plain + [b for _, batches in passes for b in batches])
    for _, traced in passes:
        if [b.digest.digest() for b in traced] != [b.digest.digest() for b in plain]:
            ok = False
            print("check failed: traced output body differs from the untraced one", file=sys.stderr)
    layer, again = (
        t.metrics(
            records=sum(b.records for b in bs),
            bytes_out=sum(b.bytes_out for b in bs),
            speed=sum(b.ref_s for b in bs) / sum(b.wall_s for b in bs),
        )
        for t, bs in passes
    )
    tracer, traced = passes[0]
    for key in EXACT_COUNTERS:
        if layer[key] != again[key]:
            ok = False
            print(f"check failed: counter {key} read {layer[key]} then {again[key]}", file=sys.stderr)

    plain_s = sum(b.ref_s for b in plain)
    traced_s = sum(b.ref_s for b in traced)
    sessions = sum(b.sessions for b in plain)
    overhead_pct = 100 * (traced_s - plain_s) / plain_s
    spans = OUT_DIR / f"spans-{name}.npz"
    tracer.save(spans)

    print(f"workload {name}, seed {seed}, traced {n_batches} batches, {len(tracer.start)} spans written to {spans}")
    print(
        f"tracing overhead, in reference seconds: sessions_per_s {sessions / plain_s:.6g} untraced, {sessions / traced_s:.6g} traced "
        f"(delta {sessions / traced_s - sessions / plain_s:+.6g}); command_s {plain_s / n_batches:.6g} untraced, "
        f"{traced_s / n_batches:.6g} traced (delta {(traced_s - plain_s) / n_batches:+.6g}); {overhead_pct:+.2f}%"
    )
    for key, unit in LAYER_METRICS.items():
        absent = "  (no calls on this workload)" if unit == "ms" and not layer[key] else ""
        print(f"{key:38s} {layer[key]:14.6g} {unit}{absent}")
    print("env " + json.dumps(environment(seed, plain)))
    metrics = {k: (layer[k], u) for k, u in LAYER_METRICS.items()}
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    batches = plain + [b for _, t in passes for b in t]
    print(_result(ok and sum(b.failed for b in batches) == 0, batches, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    cli = _import_cli()
    os.environ.pop("ADDER_SPIR_WORKERS", None)
    workload = WORKLOADS[args.workload][args.scale]
    tiny = WORKLOADS[args.workload]["tiny"]
    if args.trace:
        n_batches = TRACE_BATCHES[args.workload] if args.scale == "full" else min(2, TRACE_BATCHES[args.workload])
        return bench_traced(cli, args.workload, workload, tiny, args.seed, n_batches)
    return bench_untraced(cli, args.workload, workload, tiny, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
