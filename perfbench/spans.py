"""Layer spans for the traced run, recorded from outside the program.

:func:`instrument` wraps public methods *on the live instances* of one
pass (the simulator, its injector, engine, monitors, meters, obs, and
the serve service or shard channels) and splices a timing observer into
the ``System.phase_observer`` chain. The program's classes stay
unmodified; only the objects of the traced pass carry wrappers.

Spans are ``[name, start, end, parent, round]`` lists kept in memory and
written out when the run ends; ``round`` is ``(pass, round index)``. A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, ROUND = range(5)
#: Index of the self time in a ``span_totals`` entry (0 is inclusive).
SELF = 1

#: Phase order inside one ``update``: the span that opens after each.
NEXT_PHASE = {"route": "signal", "signal": "move", "move": "produce"}


class SpanRecorder:
    """Stack-based span recorder plus the counters recorded beside it."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Traced passes finished so far; the pass part of ``round``.
        self.passes = 0
        self.round = None
        self._stack: List[int] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.round])

    def end(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def wrap(self, obj, attr: str, name: str, on_result: Optional[Callable] = None) -> None:
        """Shadow ``obj.attr`` with a version that records a span."""
        original = getattr(obj, attr)

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(result, *args)
            return result

        setattr(obj, attr, traced)

    def write(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START] - origin,
                            "end": None if span[END] is None else span[END] - origin,
                            "parent": span[PARENT],
                            "round": span[ROUND],
                        }
                    )
                    + "\n"
                )


def instrument(recorder: SpanRecorder, run) -> Callable[[], None]:
    """Wrap the layers of one built pass (call after its first round).

    Returns the function to call when the pass's rounds are done; it
    reads the counters the program keeps itself.
    """
    sim = run.sim
    counts = recorder.counts
    service = run.service
    if service is not None:
        recorder.wrap(service, "tick", "serve.tick")
        recorder.wrap(service.buffer, "pump", "serve.pump")

        def count_batch(_result, records):
            counts["serve.batches"] += 1
            counts["serve.records"] += len(records)

        recorder.wrap(service.sink, "write_batch", "serve.sink_write", count_batch)
    recorder.wrap(sim, "step", "sim.step")

    def count_faults(decision, *_args):
        counts["faults.events"] += len(decision.fail) + len(decision.recover)

    recorder.wrap(sim.injector, "apply", "faults.apply", count_faults)
    _instrument_engine(recorder, sim)
    if sim.monitors is not None:
        recorder.wrap(sim.monitors, "after_round", "monitors.after_round")
    recorder.wrap(sim.meter, "observe", "metrics.meter")
    recorder.wrap(sim.occupancy, "observe", "metrics.occupancy")
    recorder.wrap(sim.tracker, "observe", "metrics.tracker")
    tracer = None
    if sim.obs is not None:
        recorder.wrap(sim.obs, "observe_round", "obs.observe_round")
        tracer = sim.obs.tracer
        counts["obs.events"] -= tracer.total_events
    _instrument_shards(recorder, sim)

    def settle() -> None:
        if tracer is not None:
            counts["obs.events"] += tracer.total_events
        if service is not None:
            depth = service.buffer.max_depth
            counts["serve.buffer_max_depth"] = max(counts["serve.buffer_max_depth"], depth)

    return settle


def _instrument_engine(recorder: SpanRecorder, sim) -> None:
    """``core.step`` around the engine, one span per phase inside it.

    The phase spans are cut by a timing observer placed at the head of
    ``System.phase_observer``. The simulator's ``PhaseProfiler`` sits
    there already and chains the monitor suite's hook; that hook gets
    its own ``monitors.hook.<phase>`` span, so monitor time never lands
    in a phase span.
    """
    counts = recorder.counts
    system = sim.system
    profiler_hook = system.phase_observer
    monitor_hook = sim.profiler._chained
    if monitor_hook is not None:

        def timed_monitor_hook(phase, observed):
            recorder.begin(f"monitors.hook.{phase}")
            try:
                monitor_hook(phase, observed)
            finally:
                recorder.end()

        sim.profiler._chained = timed_monitor_hook

    def phase_boundary(phase, observed):
        recorder.end()  # core.<phase>
        profiler_hook(phase, observed)
        if phase in NEXT_PHASE:
            recorder.begin(f"core.{NEXT_PHASE[phase]}")

    system.phase_observer = phase_boundary
    engine_step = sim.engine.step

    def traced_engine_step():
        recorder.begin("core.step")
        recorder.begin("core.route")
        try:
            report = engine_step()
        finally:
            recorder.end()
        counts["core.dist_changes"] += len(report.route.changed_dist)
        counts["core.transfers"] += len(report.move.transfers)
        counts["core.grants"] += len(report.signal.granted)
        counts["core.blocked"] += len(report.signal.blocked)
        return report

    sim.engine.step = traced_engine_step


def _instrument_shards(recorder: SpanRecorder, sim) -> None:
    """Time each shard channel's wait for replies and size its requests.

    The fleet spawns on the first round, so its channels exist by the
    time a pass is instrumented.
    """
    coordinator = getattr(sim.engine, "_coordinator", None)
    if coordinator is None:
        return
    counts = recorder.counts
    for handle in coordinator._handles:
        channel = handle.channel
        recorder.wrap(channel, "collect", "shard.wait")
        post = channel.post

        def counted_post(kind, payload, _post=post):
            counts["shard.requests"] += 1
            _post(kind, payload)

        channel.post = counted_post
        send_bytes = channel.conn._send_bytes

        def counted_send_bytes(buf, _send=send_bytes):
            # The pickled request exactly as it goes on the wire.
            counts["shard.request_bytes"] += len(buf)
            _send(buf)

        channel.conn._send_bytes = counted_send_bytes


def _child_time(spans: List[list]) -> List[float]:
    """Seconds each span's direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0 and span[END] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    return child_time


def span_totals(spans: List[list]) -> Dict[str, List[float]]:
    """Per span name, ``[inclusive, self]`` seconds summed over all spans."""
    child_time = _child_time(spans)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    for index, span in enumerate(spans):
        if span[END] is None:
            continue
        duration = span[END] - span[START]
        totals[span[NAME]][0] += duration
        totals[span[NAME]][SELF] += duration - child_time[index]
    return totals


def nesting_problems(spans: List[list], tolerance: float = 1e-6) -> List[str]:
    """Spans whose children outlast them, or whose round's self times
    sum to more than the round's root span."""
    problems: List[str] = []
    child_time = _child_time(spans)
    for index, span in enumerate(spans):
        if span[END] is None:
            problems.append(f"span {index} ({span[NAME]}) never ended")
        elif span[PARENT] >= 0 and span[ROUND] != spans[span[PARENT]][ROUND]:
            problems.append(f"span {index} ({span[NAME]}) crosses a round")
    self_by_round: Dict[object, float] = defaultdict(float)
    root_by_round: Dict[object, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if span[END] is None:
            continue
        duration = span[END] - span[START]
        self_time = duration - child_time[index]
        if self_time < -tolerance:
            problems.append(f"span {index} ({span[NAME]}) has self time {self_time:.3g}s")
        self_by_round[span[ROUND]] += self_time
        if span[PARENT] < 0:
            root_by_round[span[ROUND]] += duration
    for rnd, total in self_by_round.items():
        if total > root_by_round[rnd] + tolerance:
            problems.append(
                f"round {rnd}: self times sum to {total:.6f}s, round took {root_by_round[rnd]:.6f}s"
            )
    return problems


def layer_metrics(recorder: SpanRecorder) -> Dict[str, tuple]:
    """Per-layer means per traced round: ``name -> (value, unit)``."""
    totals = span_totals(recorder.spans)
    counts = recorder.counts
    rounds = max(1, len({span[ROUND] for span in recorder.spans if span[PARENT] < 0}))

    def ms(name: str, kind: int = 0) -> float:
        return totals[name][kind] * 1000.0 / rounds if name in totals else 0.0

    def per_round(name: str) -> float:
        return counts.get(name, 0.0) / rounds

    grants, blocked = counts.get("core.grants", 0.0), counts.get("core.blocked", 0.0)
    batches = counts.get("serve.batches", 0.0)
    wait_ms = ms("shard.wait")
    return {
        "faults.apply_ms": (ms("faults.apply"), "ms"),
        "faults.events_per_round": (per_round("faults.events"), "count"),
        "core.route_ms": (ms("core.route"), "ms"),
        "core.signal_ms": (ms("core.signal"), "ms"),
        "core.move_ms": (ms("core.move"), "ms"),
        "core.produce_ms": (ms("core.produce"), "ms"),
        "core.dist_changes_per_round": (per_round("core.dist_changes"), "count"),
        "core.transfers_per_round": (per_round("core.transfers"), "count"),
        "core.grant_ratio": (grants / (grants + blocked) if grants + blocked else 0.0, "ratio"),
        "monitors.signal_hook_ms": (ms("monitors.hook.signal"), "ms"),
        "monitors.after_round_ms": (ms("monitors.after_round"), "ms"),
        "metrics.meter_ms": (ms("metrics.meter"), "ms"),
        "metrics.occupancy_ms": (ms("metrics.occupancy"), "ms"),
        "metrics.tracker_ms": (ms("metrics.tracker"), "ms"),
        "obs.observe_round_ms": (ms("obs.observe_round"), "ms"),
        "obs.events_per_round": (per_round("obs.events"), "count"),
        "serve.tick_ms": (ms("serve.tick", SELF), "ms"),
        "serve.pump_ms": (ms("serve.pump", SELF), "ms"),
        "serve.sink_write_ms": (ms("serve.sink_write"), "ms"),
        "serve.records_per_batch": (
            counts.get("serve.records", 0.0) / batches if batches else 0.0,
            "count",
        ),
        "serve.buffer_max_depth": (counts.get("serve.buffer_max_depth", 0.0), "count"),
        "shard.wait_ms": (wait_ms, "ms"),
        "shard.coordinator_ms": (ms("core.step") - wait_ms if wait_ms else 0.0, "ms"),
        "shard.requests_per_round": (per_round("shard.requests"), "count"),
        "shard.request_kb_per_round": (per_round("shard.request_bytes") / 1024.0, "KiB"),
        "sim.round_ms": (ms("serve.tick" if "serve.tick" in totals else "sim.step"), "ms"),
        "sim.loop_other_ms": (ms("sim.step", SELF), "ms"),
    }
