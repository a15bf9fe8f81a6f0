"""The repository's benchmark of record: the whole round loop, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-stream --seed 7 --seconds 58 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another
    python3 perfbench/run.py --self-test               # smoke every workload, check the schema

``--trace 0`` times the program's own loops with nothing added and
reports the end-to-end metrics; ``--trace 1`` interleaves such plain
passes with passes whose layers are wrapped in spans (see ``spans.py``)
and reports the per-layer metrics.

The timing metrics read one *representative pass*. Every pass of a run
simulates the same rounds, so round ``i`` does the same work in each;
in the representative pass it takes the upper quartile of its times
over the run's passes. ``rounds_per_s`` and ``events_per_s`` divide a
pass's rounds and events by the representative pass's time;
``round_ms_p50`` and ``round_ms_p95`` are percentiles of its rounds.
On a shared host whose speed moves by up to 1.7x for seconds to
minutes at a time (a fixed pure-Python loop shows it too), a pooled
mean or median lands on either speed depending on the run; the upper
quartile holds the slower speed once a quarter of the passes meet it at
that round, and was the steadiest figure over long recordings of every
workload. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"

#: Set-up is sampled at least this often per run; the median is reported.
SETUP_SAMPLES = 5
#: Rounds per pass in smoke mode (enough for every serve command kind)
#: and in the untimed warm-up pass that starts every run.
SMOKE_ROUNDS = 24
#: Latency samples p95 must keep beyond it: a pass of any workload holds
#: at least ``MIN_TAIL_SAMPLES / 0.05`` timed rounds (checked by the
#: self-test).
MIN_TAIL_SAMPLES = 10
#: Passes per run at the least, so each round has a quartile to take.
MIN_PASSES = 4
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Engine, shard and observability selection must come from the workload
# configs alone, never from the caller's environment.
for _key in [key for key in os.environ if key.startswith("REPRO_")]:
    del os.environ[_key]
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy
    from repro.monitors.recorder import MonitorViolation

    from spans import SpanRecorder, instrument, layer_metrics, nesting_problems
    from workloads import DEFAULT_SEED, WORKLOADS, Outcome, self_peak_rss_mb, twin_digest
except ImportError as error:  # no program beside the benchmark: refuse to run
    print(f"perfbench: cannot import the program under src/: {error}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Pass:
    """One built-and-run pass of a workload."""

    setup_s: float
    durations: List[float]
    events: int
    outcome: Outcome
    wall_s: float
    traced: bool = False


def run_pass(workload, seed: int, rounds: int, recorder: Optional[SpanRecorder] = None) -> Pass:
    """Build, run ``rounds`` rounds, check. Set-up ends with round one."""
    gc.collect()
    started = time.perf_counter()
    run = workload.start(seed, rounds)
    durations: List[float] = []
    events = 0
    setup_s = 0.0
    try:
        try:
            run.round()
            setup_s = time.perf_counter() - started
            settle = instrument(recorder, run) if recorder is not None else None
            for index in range(1, rounds):
                if recorder is not None:
                    recorder.round = (recorder.passes, index)
                elapsed, count = run.round()
                durations.append(elapsed)
                events += count
        except MonitorViolation as violation:
            # Strict monitors stop the pass: this round and the rest fail.
            attempted = rounds + getattr(run, "commands", 0)
            outcome = Outcome("", 0, 0, 0, 0, attempted, rounds - run.rounds_done, [str(violation)])
        else:
            if settle is not None:
                settle()
            outcome = run.finish()
    finally:
        run.close()
        if recorder is not None:
            recorder.passes += 1
    return Pass(setup_s, durations, events, outcome, time.perf_counter() - started, recorder is not None)


def setup_sample(workload, seed: int, rounds: int) -> float:
    """Build and run the first round only; returns the set-up seconds."""
    gc.collect()
    started = time.perf_counter()
    run = workload.start(seed, rounds)
    try:
        run.round()
        return time.perf_counter() - started
    finally:
        run.close()


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def recorded_digest(workload: str, seed: int, rounds: int) -> Optional[str]:
    data = json.loads(DIGESTS.read_text())
    entry = data["workloads"].get(workload)
    if entry is None or data["seed"] != seed or entry["rounds"] != rounds:
        return None
    return entry["digest"]


def check(workload, seed: int, rounds: int, passes: List[Pass], smoke: bool):
    """Correctness of a run: ``(problems, attempted, failed)``."""
    problems: List[str] = []
    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    for index, p in enumerate(passes):
        problems.extend(f"pass {index}: {problem}" for problem in p.outcome.problems)
        if not smoke and p.outcome.consumed <= 0:
            problems.append(f"pass {index}: no entity reached the target")
    digests = {p.outcome.digest for p in passes}
    expected = recorded_digest(workload.name, seed, rounds)
    mismatch = False
    if len(digests) != 1:
        problems.append(f"passes disagree on the simulation digest: {sorted(digests)}")
        mismatch = True
    elif expected is not None and digests != {expected}:
        problems.append(f"digest {digests.pop()} != recorded {expected}")
        mismatch = True
    if workload.twin is not None and not mismatch:
        other = twin_digest(workload, seed, rounds)
        if {other} != digests:
            problems.append(f"digest differs from the {workload.twin} engine's {other}")
            mismatch = True
    if mismatch:
        # A run that simulated the wrong thing failed every round.
        failed = attempted
    return problems, attempted, failed


def representative_pass(passes: List[Pass]) -> List[float]:
    """One pass's timed rounds, each at the upper quartile of its run.

    Every pass of a run simulates the same rounds (one config, one seed,
    one digest), so round ``i`` does the same work in each; its time in
    the representative pass is the upper quartile of its times over the
    run's passes. See the module docstring for why the upper quartile.
    """
    timed = [p.durations for p in passes if p.durations]  # a pass stopped in round one has none
    if not timed:
        return [0.0]
    length = min(len(durations) for durations in timed)
    return [quantile([durations[i] for durations in timed], 0.75) for i in range(length)]


def end_to_end(passes: List[Pass], setups: List[float]) -> Dict[str, tuple]:
    rounds = representative_pass(passes)
    pass_s = sum(rounds) or float("inf")
    return {
        "rounds_per_s": (len(rounds) / pass_s, "1/s"),
        "round_ms_p50": (quantile(rounds, 0.50) * 1000.0, "ms"),
        "round_ms_p95": (quantile(rounds, 0.95) * 1000.0, "ms"),
        "events_per_s": (passes[0].events / pass_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (
            self_peak_rss_mb() + max(p.outcome.worker_peak_rss_mb for p in passes),
            "MB",
        ),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, rounds: Optional[int] = None):
    """Run one workload for ``seconds``; returns ``(result, details)``."""
    workload = WORKLOADS[name]
    smoke = rounds is not None
    rounds = rounds or workload.rounds
    passes: List[Pass] = []
    setups: List[float] = []
    recorder = SpanRecorder() if trace else None
    # An untimed short pass first, so no timed pass pays for code paths
    # and caches warmed on first use.
    run_pass(workload, seed, SMOKE_ROUNDS)
    started = time.perf_counter()
    while True:
        # Trace runs interleave plain and traced passes (plain, traced,
        # traced, plain, ...), so the tracing overhead is measured against
        # the same run's plain rounds with neither side always first.
        traced = trace and len(passes) % 4 in (1, 2)
        passes.append(run_pass(workload, seed, rounds, recorder if traced else None))
        setups.append(passes[-1].setup_s)
        if not trace:
            # One more sample per pass spreads them over the run, not all
            # into one stretch of host load.
            setups.append(setup_sample(workload, seed, rounds))
        elapsed = time.perf_counter() - started
        if trace and len(passes) % 2:
            continue
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall_s > seconds:
            break
    problems, attempted, failed = check(workload, seed, rounds, passes, smoke)
    details: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "rounds_per_pass": rounds,
        "passes": len(passes),
        "digest": passes[0].outcome.digest,
        "consumed": [p.outcome.consumed for p in passes],
        "declined": passes[0].outcome.declined,
        "pass_rounds_per_s": [len(p.durations) / sum(p.durations) for p in passes if p.durations],
        "problems": problems,
    }
    if trace:
        plain = [d for p in passes if not p.traced for d in p.durations]
        traced_rounds = [d for p in passes if p.traced for d in p.durations]
        metrics = layer_metrics(recorder)
        overhead = (
            statistics.fmean(traced_rounds) / statistics.fmean(plain) - 1.0
            if plain and traced_rounds
            else 0.0
        )
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        span_problems = nesting_problems(recorder.spans)
        problems.extend(span_problems[:5])
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        recorder.write(spans_path)
        details["spans"] = str(spans_path.relative_to(ROOT))
        details["traced_passes"] = sum(p.traced for p in passes)
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(workload, seed, rounds))
        metrics = end_to_end(passes, setups)
        samples = len(representative_pass(passes))
        details["round_samples"] = samples
        details["beyond_p95"] = int(samples * 0.05)
        details["setup_samples"] = len(setups)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, details


def _fs_type(path: Path) -> Optional[str]:
    """Filesystem type of the mount holding ``path`` (Linux /proc/mounts)."""
    target = str(path.resolve())
    best, kind = "", None
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        return None
    return kind


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    """``(commit, dirty)`` when run from a git work tree, else ``(None, None)``."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head, bool(status.strip())


def environment() -> Dict[str, object]:
    import sqlite3

    commit, dirty = _commit()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite3": sqlite3.sqlite_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": commit,
        "dirty": dirty,
        "sink": "sqlite :memory:",
        "output_fs": _fs_type(OUT_DIR),
    }


def print_report(result: Dict, details: Dict) -> None:
    print(
        f"perfbench {details['workload']} seed={details['seed']} "
        f"passes={details['passes']} rounds/pass={details['rounds_per_pass']} "
        f"digest={details['digest']} consumed={details['consumed']}"
    )
    print("  (rounds/s by pass: " + ", ".join(f"{r:.1f}" for r in details["pass_rounds_per_s"]) + ")")
    if details["declined"]:
        print(f"  (arrivals declined by the service: {details['declined']} per pass)")
    for key, metric in result["metrics"].items():
        print(f"  {key:<30} {metric['value']:.6g} {metric['unit']}")
    if "round_samples" in details:
        print(
            f"  (latency samples {details['round_samples']}, each the upper quartile of "
            f"{details['passes']} passes, {details['beyond_p95']} beyond p95; "
            f"set-up samples {details['setup_samples']})"
        )
    if "spans" in details:
        print(f"  (traced passes {details['traced_passes']}; spans in {details['spans']})")
    print(f"  attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for problem in details["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="smoke every workload and check the schema")
    args = parser.parse_args(argv)
    if args.self_test:
        from selftest import self_test

        return self_test(run_workload)
    if args.workload is None:
        parser.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(result, details)
        results.append((name, result))
    print(json.dumps({"environment": environment()}))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
