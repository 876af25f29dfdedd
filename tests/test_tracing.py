"""The benchmark's per-layer tracer still finds every binding it rebinds."""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from adder_spir import cli

    original = cli.run_session_adaptive
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.run_session_adaptive is not original
    finally:
        tracer.uninstall()
    assert cli.run_session_adaptive is original
