"""Smoke mode and self-test: ``python3 perfbench/run.py --self-test``.

Checks ``BENCHMARK.json`` against its format rules, then runs every
workload for a few rounds in both modes and checks that each result
names every declared metric with its declared unit, that metric names
and units are well formed, that the simulated outcome passes the same
checks as a full run (consumption aside: a few rounds deliver nothing),
that span nesting holds (self times >= 0, summing to at most the
round), and that every pass keeps enough rounds beyond p95.
"""

from __future__ import annotations

import json
import math
import re
from typing import List

from run import MIN_TAIL_SAMPLES, NAME_RE, ROOT, SMOKE_ROUNDS, UNIT_RE
from spans import SpanRecorder, nesting_problems
from workloads import DEFAULT_SEED, WORKLOADS

PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def schema_problems(spec: dict) -> List[str]:
    """Departures of a parsed ``BENCHMARK.json`` from its format rules."""
    problems: List[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        return [f"keys {sorted(spec)} != {sorted(keys)}"]
    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32):
        problems.append("command must be a list of 1 to 32 strings")
    elif not all(isinstance(arg, str) and len(arg) <= 200 for arg in command):
        problems.append("command strings must be at most 200 characters")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1 to 16 directories")
    else:
        for path in paths:
            if not (isinstance(path, str) and PATH_RE.match(path)) or path.startswith("/") or ".." in path.split("/"):
                problems.append(f"bad path {path!r}")
            elif not (ROOT / path).is_dir():
                problems.append(f"path {path!r} is not a directory")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    names = []
    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append("2 to 8 workloads")
    for entry in workloads:
        if set(entry) != {"name", "why"}:
            problems.append(f"workload keys {sorted(entry)}")
            continue
        names.append(entry["name"])
        if len(entry["why"]) > 200 or "\n" in entry["why"]:
            problems.append(f"workload {entry['name']}: why must be one line of at most 200 characters")
        if entry["name"] not in WORKLOADS:
            problems.append(f"workload {entry['name']} is not defined in workloads.py")
    for group, low, high, metric_keys in (
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        metrics = spec[group]
        if not low <= len(metrics) <= high:
            problems.append(f"{group}: {low} to {high} metrics")
        for metric in metrics:
            if set(metric) != metric_keys:
                problems.append(f"{group} metric keys {sorted(metric)}")
                continue
            names.append(metric["name"])
            if not UNIT_RE.match(metric["unit"]):
                problems.append(f"bad unit {metric['unit']!r}")
            if metric["better"] not in ("higher", "lower"):
                problems.append(f"{metric['name']}: better must be higher or lower")
            if "bound" in metric and not (0 < metric["bound"] <= 0.25):
                problems.append(f"{metric['name']}: bound must be in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end must hold setup_s in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    return problems


def result_problems(result: dict, declared: List[dict]) -> List[str]:
    """Departures of one result line from the declared metrics."""
    problems: List[str] = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number of at least 1")
    if not (isinstance(result["failed"], int) and result["failed"] >= 0):
        problems.append("failed must be a whole number")
    expected = {metric["name"]: metric["unit"] for metric in declared}
    if set(result["metrics"]) != set(expected):
        problems.append(
            f"metrics {sorted(set(result['metrics']) ^ set(expected))} declared or reported, not both"
        )
    for name, metric in result["metrics"].items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if metric.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {metric.get('unit')!r} != declared {expected.get(name)!r}")
        value = metric.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def _nesting_self_check() -> List[str]:
    """The nesting check must catch a child that outlasts its parent."""
    recorder = SpanRecorder()
    recorder.spans = [["root", 0.0, 1.0, -1, 0], ["child", 0.0, 2.0, 0, 0]]
    return [] if nesting_problems(recorder.spans) else ["nesting check missed an overlong child"]


def self_test(run_workload) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = schema_problems(spec) + _nesting_self_check()
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json and workloads.py list different workloads")
    for name, workload in WORKLOADS.items():
        if (workload.rounds - 1) * 0.05 < MIN_TAIL_SAMPLES:
            problems.append(f"{name}: a pass keeps fewer than {MIN_TAIL_SAMPLES} rounds beyond p95")
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, details = run_workload(name, DEFAULT_SEED, 0.0, bool(trace), rounds=SMOKE_ROUNDS)
            found = result_problems(result, declared) + details["problems"]
            if not result["correct"] or result["failed"]:
                found.append(f"correct={result['correct']} failed={result['failed']}")
            problems.extend(f"{name} --trace {trace}: {problem}" for problem in found)
            print(f"self-test {name} --trace {trace}: {'ok' if not found else 'FAILED'}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 0 if not problems else 1
