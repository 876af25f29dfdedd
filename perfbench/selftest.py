"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --scale tiny``
for one second untraced and once traced, and checks that

* the last line is the result object, with every metric that
  ``BENCHMARK.json`` names (end-to-end untraced, per-layer traced) and its
  unit, and no other;
* every output check passed: ``correct`` is true and nothing failed (in the
  traced run this includes traced bodies equal to untraced ones, and exact
  counters that repeat);

and that the benchmark exits non-zero, printing no result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's files.  Exits 1 if
any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(done: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"checks failed: {done.stderr.strip()[-500:]}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        problems.append(f"metrics {units} differ from BENCHMARK.json {expected}")
    return problems


def check_bare_directory() -> list[str]:
    """The benchmark must refuse to run where the package source is missing."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        done = _run(bare, "run-2file", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"ran without the package source: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(_run(ROOT, workload, trace), expected[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
    problems = check_bare_directory()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run without src/")
    for p in problems:
        print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
