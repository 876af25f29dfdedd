"""Batch experiment harness: seeded runs, sweeps, audits, capacity checks.

Output is line-delimited JSON: one versioned header record (its ``env``
names the package, Python and numpy versions, since seeded bytes rest on
numpy's PCG64; its ``generated_at`` is the only value that differs between
runs, so golden comparisons skip the header) followed by one record per
session, sweep cell, or report.  Exit codes: 0 all checks pass, 1 check
failure, 2 configuration error, 3 resource/budget error, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import traceback
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import __version__, capacity as cap
from .infotheory import MAX_PAD_WIDTH, otp_lemma_check
from .model import (
    ConfigurationError,
    ProtocolParams,
    Selection,
    sample_filestore,
    session_streams,
    trial_seeds,
)
from .multifile import run_multifile
from .oracle import StateBudgetExceeded, audit, DEFAULT_STATE_BUDGET, _MAX_CODE_BITS
from .protocol import run_session_adaptive

__all__ = ["main", "build_parser"]

FORMAT_VERSION = "adder-spir/2"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _values(values: list, text: str) -> list:
    """The values of a comma-separated list; empty entries are skipped, but
    a list of none is refused (a sweep of no cells would check nothing)."""
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one comma-separated value, got {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    return _values([_positive_int(part) for part in text.split(",") if part], text)


def _fraction(text: str) -> Fraction:
    """``p/q`` or a decimal, read exactly."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text}")


def _fraction_list(text: str) -> list[Fraction]:
    return _values([_fraction(part) for part in text.split(",") if part], text)


# The ProtocolParams fields that _add_param_flags sets, by their dest names.
_PARAM_FIELDS = ("n", "t_exponent", "alpha", "L1", "L2", "ell1", "ell2")


def _params(args: argparse.Namespace) -> ProtocolParams:
    params = ProtocolParams(**{k: getattr(args, k) for k in _PARAM_FIELDS})
    params.validate()
    return params


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_positive_int, default=4096, help="channel uses per sub-protocol")
    p.add_argument("--t", type=float, default=0.4, dest="t_exponent", help="abort exponent in (0, 1/2)")
    p.add_argument("--alpha", type=_fraction, default=Fraction(1, 2), help="share split in [0, 1], as p/q or a decimal")
    p.add_argument("--L1", type=_positive_int, default=2, help="files at server 1")
    p.add_argument("--L2", type=_positive_int, default=2, help="files at server 2")
    p.add_argument("--ell1", type=int, default=0, help="per-round file bits from server 1")
    p.add_argument("--ell2", type=int, default=0, help="per-round file bits from server 2")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="master seed; trials split deterministically")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--workers", type=_positive_int, default=1)


@functools.lru_cache(maxsize=None)  # one shared parser per process: no default is mutable
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adder-spir",
        description="Dual-source private retrieval over a binary adder channel: "
        "simulation, auditing, and capacity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute seeded retrieval sessions")
    _add_param_flags(p_run)
    _add_common_flags(p_run)
    p_run.add_argument("--no-abort", action="store_true", help="skip the size-deviation abort check")

    p_sweep = sub.add_parser("sweep", help="Monte Carlo abort-rate and rate sweep")
    p_sweep.add_argument("--n", type=_int_list, default=(1024, 4096, 16384), help="comma-separated block lengths")
    p_sweep.add_argument("--alpha", type=_fraction_list, default=(Fraction(1, 2),), help="comma-separated share splits")
    p_sweep.add_argument("--t", type=float, default=0.4, dest="t_exponent")
    _add_common_flags(p_sweep)

    p_audit = sub.add_parser("audit", help="exhaustive leakage audit of a tiny instance")
    _add_param_flags(p_audit)
    p_audit.add_argument("--seed", type=_nonnegative_int, default=0, help="accepted, never read: the audit is exhaustive")
    p_audit.add_argument("--out", default="-")
    p_audit.add_argument("--no-abort", action="store_true")
    p_audit.add_argument("--condition-nonabort", action="store_true")
    p_audit.add_argument("--mutate", default=None, help="audit a deliberately broken variant")
    p_audit.add_argument("--budget", type=_positive_int, default=DEFAULT_STATE_BUDGET)

    p_cap = sub.add_parser("capacity", help="the proved residual-entropy cap and the region boundary table")
    p_cap.add_argument("--out", default="-")

    p_otp = sub.add_parser("otp-check", help="exhaustive one-time-pad lemma catalog")
    p_otp.add_argument("--out", default="-")
    p_otp.add_argument("--pad-width", type=_positive_int, default=2, help="check widths 1..this")

    return parser


def _emit(records: list[dict], out: str) -> None:
    text = "\n".join(json.dumps(r) for r in records) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _header(command: str, config: dict) -> dict:
    return {
        "record": "header",
        "format": FORMAT_VERSION,
        "command": command,
        "config": config,
        "env": {"adder_spir": __version__, "python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__},
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _run_one_trial(args: tuple) -> dict:
    params, master_seed, trial, abort_disabled = args
    streams = session_streams(trial_seeds(master_seed, trial), params.L1, params.L2)
    client = streams.selection
    sel = Selection(
        int(client.integers(1, params.L1 + 1)), int(client.integers(1, params.L2 + 1))
    )
    len1, len2 = params.ell1 * (params.L2 - 1), params.ell2 * (params.L1 - 1)
    files1 = sample_filestore(1, params.L1, len1, streams.files[0])
    files2 = sample_filestore(2, params.L2, len2, streams.files[1])
    transcript = run_multifile(params, files1, files2, sel, streams, abort_disabled=abort_disabled)
    rec = transcript.to_record()
    rec["trial"] = trial
    rec["selection"] = [sel.z1, sel.z2]
    if not transcript.aborted:
        bits = transcript.public_bits_from_server(1), transcript.public_bits_from_server(2)
        rates = cap.achieved_rates(len1, len2, params.n, transcript.round_count, params.L1 - 1, params.L2 - 1, bits)
        rec["download_bits_per_file_bit"] = list(rates.download_per_recovered_bit((len1, len2)))
        rec["rates"] = [rates.rate1, rates.rate2]
        rec["region_ok"] = cap.region_check(rates.rate1, rates.rate2, params.L1, params.L2)
    return rec


def _map_trials(fn, jobs: list[tuple], workers: int) -> list[dict]:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    # Imported only here: the process pool is a tenth of the CLI's import time.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


def cmd_run(args: argparse.Namespace) -> int:
    params = _params(args)
    jobs = [(params, args.seed, trial, args.no_abort) for trial in range(1, args.trials + 1)]
    records = _map_trials(_run_one_trial, jobs, args.workers)
    config = {k: getattr(args, k) for k in (*_PARAM_FIELDS, "trials", "seed")}
    config["alpha"] = float(args.alpha)
    _emit([_header("run", config), *records], args.out)
    failed = [r for r in records if not r["aborted"] and not r.get("recovery_ok")]
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _sweep_cell(args: tuple) -> dict:
    n, alpha, t_exponent, master_seed, trials = args
    params = ProtocolParams(n=n, t_exponent=t_exponent, alpha=alpha)
    aborts = 0
    failures = 0
    r1s: list[float] = []
    r2s: list[float] = []
    # Keyed by n and alpha's exact bits, so no two cells share streams.
    cell = np.random.SeedSequence(master_seed, spawn_key=(n, int(np.float64(alpha).view(np.uint64))))
    for trial in range(1, trials + 1):
        streams = session_streams(trial_seeds(cell, trial), 2, 2)
        client = streams.selection
        sel = Selection(int(client.integers(1, 3)), int(client.integers(1, 3)))
        transcript, sized = run_session_adaptive(params, sel, streams)
        if transcript.aborted:
            aborts += 1
            continue
        if not transcript.recovery_ok:
            failures += 1
        r1s.append(sized.ell1 / n)
        r2s.append(sized.ell2 / n)
    mean_r1 = float(np.mean(r1s)) if r1s else 0.0
    mean_r2 = float(np.mean(r2s)) if r2s else 0.0
    return {
        "record": "sweep-cell",
        "n": n,
        "alpha": float(alpha),
        "t": t_exponent,
        "trials": trials,
        "abort_rate": aborts / trials,
        "chebyshev_bound": n ** (2 * t_exponent - 1) / 4,
        "mean_r1": mean_r1,
        "mean_r2": mean_r2,
        "target_r1": float(alpha) / 2,
        "target_r2": (1 - float(alpha)) / 2,
        "region_margin": cap.F_MAX - (mean_r1 + mean_r2),
        "failures": failures,
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    if not 0 < args.t_exponent < 0.5:
        raise ConfigurationError("t must lie in (0, 1/2)")
    # A cell's streams are keyed by n and alpha's float bits, so a repeated
    # n, or two alphas with one float value, would print two cells from one
    # stream.
    for i, n in enumerate(args.n):
        if n in args.n[:i]:
            raise ConfigurationError(f"--n entry {n} is repeated")
    floats: dict[float, Fraction] = {}
    for alpha in args.alpha:
        if float(alpha) in floats:
            first = floats[float(alpha)]
            raise ConfigurationError(f"--alpha entries {first} and {alpha} are both {float(alpha)!r} as floats")
        floats[float(alpha)] = alpha
    jobs = [
        (n, alpha, args.t_exponent, args.seed, args.trials)
        for n in args.n
        for alpha in args.alpha
    ]
    cells = _map_trials(_sweep_cell, jobs, args.workers)
    alphas = [float(a) for a in args.alpha]
    config = {"n": args.n, "alpha": alphas, "t_exponent": args.t_exponent, "trials": args.trials, "seed": args.seed}
    _emit([_header("sweep", config), *cells], args.out)
    bad = [
        c
        for c in cells
        if c["failures"]
        or c["abort_rate"]
        > c["chebyshev_bound"] + 3 * math.sqrt(c["chebyshev_bound"] / c["trials"]) + 1e-9
    ]
    return EXIT_CHECK_FAILED if bad else EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    report = audit(
        _params(args), abort_disabled=args.no_abort, condition_nonabort=args.condition_nonabort,
        mutation=args.mutate, state_budget=args.budget,
    )
    config = {k: getattr(args, k) for k in (*_PARAM_FIELDS, "mutate", "no_abort", "condition_nonabort")}
    config["alpha"] = float(args.alpha)
    _emit([_header("audit", config), report.to_record()], args.out)
    expanded = f" ({report.expanded_rows} expanded)" if report.expanded_rows != report.enumerated_rows else ""
    tallied, keyed = dict(report.tallied), dict(report.keyed)
    pairs = "; ".join([
        f"{name} tallied over {report.expanded_rows} rows, {tallied[name]} distinct pairs, {keyed[name]}"
        if name in tallied else f"{name} from ranks"
        for name in report.leakages
    ])
    print(
        f"audit: {report.state_count} states from {report.enumerated_rows} rows{expanded} of "
        f"{report.orbit_sequences} orbit sequences, {report.skeletons} skeletons, {report.replays} replays "
        f"answering {report.answered_rounds} rounds, "
        f"enumerated in {report.enumeration_s:.3f} s; "
        f"ranks, tallies and mutual information in {report.information_s:.3f} s; "
        f"{report.chunks} chunks, the largest {report.largest_chunk_rows} rows, "
        f"at most {report.view_pairs} distinct view pairs; {pairs}; "
        f"audit keys up to {report.key_bits} of {_MAX_CODE_BITS} bits",
        file=sys.stderr,
    )
    return EXIT_OK if report.all_zero() else EXIT_CHECK_FAILED


def cmd_capacity(args: argparse.Namespace) -> int:
    # The lemma is proved in ``capacity``; the report evaluates f at the argmax.
    value = cap.conditional_entropy_f(*cap.ARGMAX)
    passed = value == cap.F_MAX
    records = [
        _header("capacity", {}),
        {"record": "capacity-report", "argmax": list(cap.ARGMAX), "max_value": value, "passed": passed},
    ]
    # Region boundary table: the extreme achievable rate pairs per library size.
    for L1 in range(2, 6):
        for L2 in range(2, 6):
            r1_max = cap.F_MAX / (L1 - 1)
            r2_max = cap.F_MAX / (L2 - 1)
            records.append(
                {
                    "record": "region-boundary",
                    "L1": L1,
                    "L2": L2,
                    "corner_r1": r1_max,
                    "corner_r2": r2_max,
                    "corners_feasible": cap.region_check(r1_max, 0.0, L1, L2)
                    and cap.region_check(0.0, r2_max, L1, L2),
                }
            )
    _emit(records, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_otp_check(args: argparse.Namespace) -> int:
    if args.pad_width > MAX_PAD_WIDTH:
        raise ConfigurationError(f"--pad-width must be at most {MAX_PAD_WIDTH}")
    records = [_header("otp-check", {"pad_width": args.pad_width})]
    all_ok = True
    for width in range(1, args.pad_width + 1):
        report = otp_lemma_check(width)
        records.append(report.to_record())
        all_ok = all_ok and report.passed(1e-12)
    _emit(records, args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "audit": cmd_audit,
    "capacity": cmd_capacity,
    "otp-check": cmd_otp_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except StateBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
