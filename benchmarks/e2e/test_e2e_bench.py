"""Self-test of the benchmark (not part of tier-1; ``testpaths`` stays ``tests``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  One
``run --quick`` is shared by the tests that read its output.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

import pytest
from repro.service import protocol

from benchmarks.e2e.cli import verdict
from benchmarks.e2e.measure import Summary
from benchmarks.e2e.client import drive
from benchmarks.e2e.oracle import Checker, stream_entries
from benchmarks.e2e.run import ROOT
from benchmarks.e2e.server import ServerProcess, out_dir
from benchmarks.e2e.trace import REQUEST, Sequential, Spans, traced_request, wire_form
from benchmarks.e2e.workloads import SPECS, build_workload

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: A metric line: workload name, metric name, value, unit.
METRIC_LINE = re.compile(r"^(\S+)\s+(\S+)\s+(-?\d+\.\d+)\s+(\S+)")


def _environment() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--quick", "--out", str(out)],
        cwd=ROOT, env=_environment(), capture_output=True, text=True, timeout=600,
    )
    return done, out


def test_quick_run_exits_zero_with_no_failures(quick_run):
    done, out = quick_run
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == set(SPECS)
    assert all(w["failed"] == 0 for w in report["workloads"].values())


def test_printed_names_are_the_declared_names(quick_run):
    done, _ = quick_run
    printed = defaultdict(set)
    for line in done.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match and match.group(1) in SPECS:
            printed[match.group(1)].add(match.group(2))
    declared = {m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in declared)
    assert {w["name"] for w in DECLARED["workloads"]} == set(SPECS)
    for workload in SPECS:
        assert printed[workload] == declared, workload


def test_layer_self_times_close_the_traced_wall(quick_run):
    """Per request, the layers' self times sum to the root span within 2 %.

    What is left to the root is the span bookkeeping between layers, a
    few tens of microseconds: the sub-millisecond ``wire-*`` requests
    get that much absolute slack.
    """
    for workload in SPECS:
        trace = json.loads((out_dir() / f"trace-{workload}.json").read_text())
        spans = trace["spans"]
        own = [s["end"] - s["start"] for s in spans]
        for span in spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        wall = defaultdict(float)
        layers = defaultdict(float)
        for span, self_time in zip(spans, own):
            if span["name"] == REQUEST:
                wall[span["request"]] += span["end"] - span["start"]
            elif span["parent"] is not None:
                layers[span["request"]] += self_time
        assert wall
        gaps = [
            (wall[r] - layers[r]) / max(wall[r], 50e-6 / 0.02) for r in wall
        ]
        assert 0.0 <= statistics.median(gaps) <= 0.02, workload


def test_proxied_plain_and_wire_streams_are_identical():
    workload = build_workload("order-bound", 5)
    requests = workload.requests[:2]
    spans = Spans()
    traced, plain = Sequential(workload, spans), Sequential(workload)
    with ServerProcess("order-bound", 5) as server:
        replies, _ = drive(server.port, requests, 1)
    assert [r.status for r in replies] == ["ok", "ok"]
    for i, (request, reply) in enumerate(zip(requests, replies)):
        line = json.dumps(request.record(f"r{i}")).encode()
        parsed = protocol.request_from_record(protocol.decode_line(line))
        proxied, _ = traced_request(traced, line, f"r{i}")
        bare = list(plain.answer(parsed, f"r{i}"))
        wire = stream_entries(reply.batches)
        assert stream_entries(wire_form(f"r{i}", proxied)) == wire
        assert stream_entries(wire_form(f"r{i}", bare)) == wire
    assert len(spans) > 0


def test_a_corrupted_answer_fails_the_check():
    workload = build_workload("exec-bound", 5)
    request = workload.requests[0]
    sequential = Sequential(workload)
    parsed = protocol.request_from_record(request.record("c0"))
    stream = wire_form("c0", list(sequential.answer(parsed, "c0")))
    assert Checker(workload).check_batches(request, stream)
    stream[0]["answers"][0][0] = "not-an-element"
    stream[0]["new_answers"][0][0] = "not-an-element"
    checker = Checker(workload)
    assert not checker.check_batches(request, stream)
    assert any("cross product" in error for error in checker.errors)


def test_a_run_reports_the_better_half_of_its_rounds():
    quiet, noisy = [10.0, 10.2, 10.4], [13.0, 15.0, 19.0]
    assert Summary.of(quiet + noisy, "ms", "lower").value == pytest.approx(10.2)
    assert Summary.of(quiet + noisy, "1/s", "higher").value == pytest.approx(47.0 / 3)
    # The middle round counts when the number of rounds is odd.
    assert Summary.of([1.0, 2.0, 6.0], "ms", "lower").value == pytest.approx(1.5)
    assert Summary.of([3.0], "ms", "lower").value == 3.0


def test_compare_verdicts():
    def row(median, spread, rounds):
        return {"value": median, "median": median, "q1": median * (1 - spread / 2),
                "q3": median * (1 + spread / 2), "rounds": rounds}

    base = row(100.0, 0.02, [99, 100, 101])
    assert verdict(base, row(104.0, 0.02, [103, 104, 105]), "lower", 0.10) == "within-bound"
    assert verdict(base, row(120.0, 0.02, [119, 120, 121]), "lower", 0.10) == "worse"
    assert verdict(base, row(80.0, 0.02, [79, 80, 81]), "lower", 0.10) == "better"
    assert verdict(base, row(120.0, 0.02, [119, 120, 121]), "higher", 0.10) == "better"
    noisy = row(115.0, 0.30, [95, 115, 135])
    assert verdict(base, noisy, "lower", 0.10) == "unresolved"
    assert verdict(base, row(150.0, 0.30, [130, 150, 170]), "lower", 0.10) == "worse"


def test_refuses_to_run_outside_a_full_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        DECLARED["command"] + ["--workload", "wire-small", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
