"""Commands: ``drive`` (one workload, for the driver), ``run``, ``check``, ``compare``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from benchmarks.e2e.measure import Round, Summary, run_round, summarize
from benchmarks.e2e.oracle import Checker
from benchmarks.e2e.run import ROOT
from benchmarks.e2e.server import out_dir
from benchmarks.e2e.trace import PER_LAYER_UNITS, trace_workload
from benchmarks.e2e.workloads import SPECS, build_workload

BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: ``run_seconds`` of BENCHMARK.json: the run length the request counts
#: of the traced run were sized for.
RUN_SECONDS = 16
#: Fewest server lives of a ``drive`` run; each is one ``setup_s`` sample.
MIN_ROUNDS = 3
#: Longest round, in seconds of requests; ``run --quick`` uses shorter ones.
#: Short rounds, and so many of them: a run reports the better half of
#: its rounds, and the host's slow bursts last a second or three.
ROUND_SECONDS, QUICK_ROUND_SECONDS = 2.0, 1.5
#: ``run``: rounds per workload, after one discarded.
RUN_ROUNDS, QUICK_ROUNDS = 5, 3
#: Calibration spread (IQR / median) above which a run is flagged noisy.
NOISY_SPREAD = 0.10

DEFAULT_SEED = 1


def _line(workload: str, name: str, unit: str, value: float, extra: str = "") -> str:
    return f"{workload:<14} {name:<46} {value:>14.4f} {unit:<6}{extra}"


def _print_end_to_end(workload: str, summary: dict[str, Summary]) -> None:
    for name, s in summary.items():
        print(_line(workload, name, s.unit, s.value,
                    f" median={s.median:.4f} q1={s.q1:.4f} q3={s.q3:.4f} n={s.n}"))


def _print_per_layer(workload: str, metrics: dict[str, float]) -> None:
    for name, unit in PER_LAYER_UNITS.items():
        print(_line(workload, name, unit, metrics[name]))


def _layer_json(values: dict[str, float]) -> dict[str, dict]:
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def _report_errors(checker: Checker) -> None:
    for error in checker.errors[:20]:
        print(f"CHECK FAILED  {error}", file=sys.stderr)
    if len(checker.errors) > 20:
        print(f"CHECK FAILED  ... and {len(checker.errors) - 20} more", file=sys.stderr)


# -- drive: the BENCHMARK.json contract ------------------------------------------


def cmd_drive(args: argparse.Namespace) -> int:
    workload = build_workload(args.workload, args.seed)
    checker = Checker(workload)
    if args.trace:
        values, attempted, failed = trace_workload(
            workload, checker, args.seconds / RUN_SECONDS
        )
        _print_per_layer(args.workload, values)
        metrics = _layer_json(values)
    else:
        # As many server lives as the seconds allow.
        budget = min(ROUND_SECONDS, args.seconds / MIN_ROUNDS)
        rounds: list[Round] = []
        measured = 0.0
        while len(rounds) < MIN_ROUNDS or args.seconds - measured > budget / 2:
            rounds.append(run_round(workload, checker, budget))
            measured += rounds[-1].duration_s
        summary = summarize(rounds)
        _print_end_to_end(args.workload, summary)
        attempted = sum(r.sent for r in rounds)
        failed = sum(r.failed for r in rounds)
        metrics = {
            name: {"value": s.value, "unit": s.unit} for name, s in summary.items()
        }
    _report_errors(checker)
    correct = not checker.errors and failed == 0
    print(f"# {args.workload} stream_sha256 {checker.stream_sha256}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# -- run: every workload, interleaved rounds, then the traced runs ---------------


def cmd_run(args: argparse.Namespace) -> int:
    names = args.workload or list(SPECS)
    rounds_wanted = QUICK_ROUNDS if args.quick else RUN_ROUNDS
    budget = QUICK_ROUND_SECONDS if args.quick else ROUND_SECONDS
    workloads = {name: build_workload(name, args.seed) for name in names}
    checkers = {name: Checker(workloads[name]) for name in names}
    rounds: dict[str, list[Round]] = {name: [] for name in names}
    # Round 0 is the throwaway one (first-run import and page-cache
    # effects); rounds are interleaved across workloads so that a slow
    # machine phase lands on one round of each, not on one workload.
    for index in range(rounds_wanted + 1):
        for name in names:
            result = run_round(workloads[name], checkers[name], budget)
            if index:
                rounds[name].append(result)
            print(f"round {index} {name}: {result.sent} requests, "
                  f"{result.failed} failed", file=sys.stderr)

    report: dict = {"seed": args.seed, "quick": args.quick, "workloads": {}}
    calibration = [r.calibration_ms for rs in rounds.values() for r in rs]
    calibrated = Summary.of(calibration, "ms", None)
    report["calibration_ms"] = calibrated.as_dict()
    report["noisy"] = calibrated.spread > NOISY_SPREAD
    ok = True
    for name in names:
        summary = summarize(rounds[name])
        _print_end_to_end(name, summary)
        layers, traced, traced_failed = trace_workload(
            workloads[name], checkers[name], scale=0.3 if args.quick else 0.6
        )
        _print_per_layer(name, layers)
        sent = sum(r.sent for r in rounds[name]) + traced
        failed = sum(r.failed for r in rounds[name]) + traced_failed
        print(f"# {name} failed_share {failed / sent:.6f} ({failed} of {sent} requests)")
        print(f"# {name} stream_sha256 {checkers[name].stream_sha256}")
        _report_errors(checkers[name])
        ok = ok and not checkers[name].errors and failed == 0
        per_round = [r.metrics() for r in rounds[name]]
        report["workloads"][name] = {
            "end_to_end": {
                metric: {**s.as_dict(), "rounds": [m[metric] for m in per_round]}
                for metric, s in summary.items()
            },
            "per_layer": _layer_json(layers),
            "attempted": sent,
            "failed": failed,
            "stream_sha256": checkers[name].stream_sha256,
        }
    if report["noisy"]:
        print(f"# NOISY: calibration spread {calibrated.spread:.1%} exceeds "
              f"{NOISY_SPREAD:.0%}; compare values with care")
    out = Path(args.out) if args.out else out_dir() / f"run-seed{args.seed}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"# report written to {out}; span files in {out_dir()}")
    return 0 if ok else 1


# -- check: the oracle alone -----------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    ok = True
    for name in args.workload or list(SPECS):
        workload = build_workload(name, args.seed)
        checker = Checker(workload)
        spec = workload.spec
        result = run_round(
            workload, checker, None, limit=max(spec.clones, 2 * spec.trace_requests)
        )
        _report_errors(checker)
        good = not checker.errors and result.failed == 0
        ok = ok and good
        print(f"{name:<14} {'ok' if good else 'FAILED':<7} {result.sent} requests "
              f"checked  stream_sha256 {checker.stream_sha256}")
    return 0 if ok else 1


# -- compare: two run reports, row by row ----------------------------------------


def verdict(base: dict, other: dict, better: str, bound: float) -> str:
    """``better`` / ``worse`` / ``within-bound`` / ``unresolved`` for one row."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (other["value"] - base["value"]) / base["value"]
    spread = max(
        (row["q3"] - row["q1"]) / row["median"] for row in (base, other)
    )
    if spread > bound:
        # Too noisy for the reported values to decide: only a clean
        # separation of every round counts.
        a = [sign * v for v in base["rounds"]]
        b = [sign * v for v in other["rounds"]]
        if min(b) > max(a):
            return "worse"
        if max(b) < min(a):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within-bound"


def cmd_compare(args: argparse.Namespace) -> int:
    base = json.loads(Path(args.base).read_text())
    other = json.loads(Path(args.other).read_text())
    declared = {
        m["name"]: m for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    }
    any_worse = False
    for name in base["workloads"]:
        if name not in other["workloads"]:
            continue
        for metric, spec in declared.items():
            a = base["workloads"][name]["end_to_end"][metric]
            b = other["workloads"][name]["end_to_end"][metric]
            row = verdict(a, b, spec["better"], spec["bound"])
            any_worse = any_worse or row == "worse"
            print(
                f"{name:<14} {metric:<16} "
                f"A {a['value']:.4f} [{a['q1']:.4f}, {a['q3']:.4f}]  "
                f"B {b['value']:.4f} [{b['q1']:.4f}, {b['q3']:.4f}] {a['unit']:<5} "
                f"B/A {b['value'] / a['value']:.3f} (base A {a['value']:.4f})  "
                f"{spec['better']} is better, bound {spec['bound']:.0%}  {row}"
            )
        for side, label in ((base, "A"), (other, "B")):
            if side["workloads"][name]["failed"]:
                print(f"{name:<14} {label} has failed requests")
                any_worse = True
        if (base["workloads"][name]["stream_sha256"]
                != other["workloads"][name]["stream_sha256"]
                and base["seed"] == other["seed"]):
            print(f"{name:<14} stream_sha256 differs at the same seed")
    for side, label in ((base, "A"), (other, "B")):
        if side.get("noisy"):
            print(f"{label} was flagged noisy by its calibration loop")
    return 1 if any_worse else 0


# -- argument parsing ------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    drive = commands.add_parser("drive", help="one workload, one JSON line")
    drive.add_argument("--workload", required=True, choices=list(SPECS))
    drive.add_argument("--seed", type=int, default=DEFAULT_SEED)
    drive.add_argument("--seconds", type=float, default=RUN_SECONDS)
    drive.add_argument("--trace", type=int, choices=(0, 1), default=0)
    drive.set_defaults(call=cmd_drive)

    run = commands.add_parser("run", help="all workloads, all metrics")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--quick", action="store_true")
    run.add_argument("--out", default=None)
    run.add_argument("--workload", action="append", choices=list(SPECS))
    run.set_defaults(call=cmd_run)

    check = commands.add_parser("check", help="the answer oracle alone")
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.add_argument("--workload", action="append", choices=list(SPECS))
    check.set_defaults(call=cmd_check)

    compare = commands.add_parser("compare", help="two run reports, row by row")
    compare.add_argument("base")
    compare.add_argument("other")
    compare.set_defaults(call=cmd_compare)

    args = parser.parse_args(argv)
    return args.call(args)
