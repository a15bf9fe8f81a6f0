"""The benchmark's two workloads and the program loops that drive them.

Each workload is a seeded simulation config plus the loop a user runs it
through: the batch loop (``Simulator.step()`` per round, then
``summarize()``, which is what ``Simulator.run()`` does) or the service
loop (``ServeService.tick()`` per round, then ``finish()``). A *pass*
builds the workload from its config, runs a fixed number of rounds and
checks the outcome; a fixed length keeps the simulation digest of a pass
comparable across runs. README.md records why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.params import Parameters
from repro.obs.instrument import ObservabilityConfig
from repro.serve.commands import ScriptedCommandSource
from repro.serve.service import ServeService
from repro.serve.sinks import SqliteSink
from repro.sim.config import FaultSpec, SimulationConfig
from repro.sim.simulator import build_simulation
from repro.testing.differential import state_digest

#: The seed whose pass digests are recorded in ``digests.json``.
DEFAULT_SEED = 7

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)

CHURN_GRID = 32
CHURN_TARGET = (16, 16)
#: Four corners and four edge midpoints, all feeding the centre target.
CHURN_SOURCES = (
    (0, 0), (16, 0), (31, 0), (0, 16), (31, 16), (0, 31), (16, 31), (31, 31),
)
#: Where the ``serve-stream`` schedule relocates the target for a few rounds.
RELOCATED_TARGET = (15, 15)


def churn_config(seed: int, rounds: int, engine: str = "vectorized") -> SimulationConfig:
    """32x32 with eight eager sources and Bernoulli fail/recover churn."""
    return SimulationConfig(
        grid_width=CHURN_GRID,
        params=PARAMS,
        rounds=rounds,
        tid=CHURN_TARGET,
        sources=CHURN_SOURCES,
        source_policy="eager",
        fault=FaultSpec(pf=0.01, pr=0.1, protect_target=True),
        monitors=True,
        seed=seed,
        engine=engine,
        shards=2 if engine == "sharded" else None,
    )


def command_schedule(seed: int, rounds: int) -> List[Tuple[int, Dict]]:
    """The scripted ``serve-stream`` commands, due by round (closed loop).

    Fail/recover pairs on random cells, arrivals on random cells of the
    two idle blocks west of the target's column, one target relocation
    halfway through that returns a few rounds later (only the home
    target is immune to churn; the new cell is recovered first, so the
    command is valid), and periodic checkpoints. Offsets scale with the
    pass length so a short smoke pass carries every command kind.
    """
    rng = random.Random(f"perfbench-serve-{seed}")
    reserved = {CHURN_TARGET, RELOCATED_TARGET, *CHURN_SOURCES}
    cells = [
        [x, y]
        for y in range(CHURN_GRID)
        for x in range(CHURN_GRID)
        if (x, y) not in reserved
    ]
    idle = [[x, y] for x in range(5, 11) for y in (*range(3, 12), *range(20, 29))]
    step = max(2, rounds // 8)
    gap = max(1, step // 4)
    schedule: List[Tuple[int, Dict]] = []
    for start in range(1, rounds - gap, step):
        cell = rng.choice(cells)
        schedule.append((start, {"v": 1, "cmd": "fail", "cell": cell}))
        schedule.append((start + gap, {"v": 1, "cmd": "recover", "cell": cell}))
    for start in range(2, rounds, max(2, rounds // 12)):
        schedule.append((start, {"v": 1, "cmd": "arrive", "cell": rng.choice(idle)}))
    away = list(RELOCATED_TARGET)
    schedule.append((rounds // 2, {"v": 1, "cmd": "recover", "cell": away}))
    schedule.append((rounds // 2, {"v": 1, "cmd": "relocate", "target": away}))
    schedule.append((rounds // 2 + gap, {"v": 1, "cmd": "relocate", "target": list(CHURN_TARGET)}))
    for start in range(max(1, rounds // 3), rounds, max(1, rounds // 3)):
        schedule.append((start, {"v": 1, "cmd": "checkpoint"}))
    return schedule


def simulation_digest(result, latencies: List[int], system) -> str:
    """16-hex digest of what a pass simulated, never of how fast."""
    payload = {
        "produced": result.produced,
        "consumed": result.consumed,
        "failures": result.total_failures,
        "recoveries": result.total_recoveries,
        "latencies": latencies,
        "state": state_digest(system),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _vm_hwm_mb(pid) -> float:
    """Peak resident set of a live process, from /proc (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one pass simulated, and which of its operations failed."""

    digest: str
    produced: int
    consumed: int
    failures: int
    recoveries: int
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    worker_peak_rss_mb: float = 0.0
    #: Arrivals the service declined for want of a live, routed cell with
    #: a safe slot: acknowledged, correct behaviour, not failures.
    declined: int = 0


def _protocol_events(report, fault_events: int) -> int:
    """Events the obs tracer would emit for this round (see
    ``SimulationInstrumentation.observe_round``)."""
    route = report.route
    signal = report.signal
    return (
        fault_events
        + len(set(route.changed_dist) | set(route.changed_next))
        + len(signal.rotated)
        + len(signal.granted)
        + len(signal.blocked)
        + len(report.move.transfers)
    )


class BatchRun:
    """One pass through the batch loop: ``Simulator.step()`` then ``summarize()``."""

    def __init__(self, config: SimulationConfig):
        # Observability off explicitly, so REPRO_METRICS/REPRO_TRACE in the
        # caller's environment cannot turn it on.
        self.sim = build_simulation(config, observability=ObservabilityConfig())
        self.service = None
        self.rounds_done = 0

    def round(self) -> Tuple[float, int]:
        """Run one round; returns its host seconds and protocol events."""
        injector = self.sim.injector
        faults_before = injector.total_failures + injector.total_recoveries
        start = time.perf_counter()
        report = self.sim.step()
        elapsed = time.perf_counter() - start
        self.rounds_done += 1
        fault_events = injector.total_failures + injector.total_recoveries - faults_before
        return elapsed, _protocol_events(report, fault_events)

    def finish(self) -> Outcome:
        worker_rss = sum(_vm_hwm_mb(pid) for pid in worker_pids(self.sim))
        result = self.sim.summarize()
        outcome = Outcome(
            digest=simulation_digest(result, self.sim.tracker.latencies(), self.sim.system),
            produced=result.produced,
            consumed=result.consumed,
            failures=result.total_failures,
            recoveries=result.total_recoveries,
            attempted=self.rounds_done,
            failed=result.monitor_violations,
            worker_peak_rss_mb=worker_rss,
        )
        if result.monitor_violations:
            outcome.problems.append(f"{result.monitor_violations} monitor violation(s)")
        return outcome

    def close(self) -> None:
        self.sim.engine.close()


def worker_pids(sim) -> List[int]:
    """Process ids of a sharded engine's live workers (none otherwise)."""
    coordinator = getattr(sim.engine, "_coordinator", None)
    if coordinator is None:
        return []
    return [
        handle.process.pid
        for handle in coordinator._handles
        if handle.process is not None and handle.process.poll() is None
    ]


class ServeRun:
    """One pass through the service loop: ``ServeService.tick()`` then ``finish()``.

    The sink is the program's sqlite sink on an in-memory database, so
    the write path (canonical JSON, one transaction per batch) runs in
    full while no disk flush makes the timing depend on the device.
    """

    def __init__(self, config: SimulationConfig, seed: int, rounds: int):
        schedule = command_schedule(seed, rounds)
        self.commands = len(schedule)
        self.sink = SqliteSink(":memory:")
        self.service = ServeService(config, self.sink, source=ScriptedCommandSource(schedule))
        self.sim = self.service.stepper.simulator
        self.rounds_done = 0
        self._sink_rows: Optional[int] = None
        self._declined: Optional[int] = None
        close = self.sink.close

        def close_after_count() -> None:
            # The database lives only as long as its connection: read the
            # delivered rows before the service closes it.
            conn = self.sink._conn
            self._sink_rows = conn.execute("SELECT COUNT(*) FROM events").fetchone()[0]
            self._declined = conn.execute(
                "SELECT COUNT(*) FROM events WHERE type = 'service.command'"
                " AND json_extract(record, '$.applied') = 0"
            ).fetchone()[0]
            close()

        self.sink.close = close_after_count

    def round(self) -> Tuple[float, int]:
        """Run one service turn; returns its host seconds and events delivered."""
        buffer = self.service.buffer
        delivered_before = buffer.delivered
        start = time.perf_counter()
        running = self.service.tick()
        elapsed = time.perf_counter() - start
        if not running:
            raise RuntimeError("the service stopped before the pass ended")
        self.rounds_done += 1
        return elapsed, buffer.delivered - delivered_before

    def finish(self) -> Outcome:
        service = self.service
        result = service.finish()
        stats = service.stats()
        ledger = stats["buffer"]
        outcome = Outcome(
            digest=simulation_digest(result, self.sim.tracker.latencies(), self.sim.system),
            produced=result.produced,
            consumed=result.consumed,
            failures=result.total_failures,
            recoveries=result.total_recoveries,
            attempted=self.rounds_done + self.commands,
            failed=stats["violations"] + stats["command_errors"],
            declined=self._declined or 0,
        )
        if stats["violations"]:
            outcome.problems.append(f"{stats['violations']} monitor violation(s)")
        if stats["command_errors"]:
            outcome.problems.append(f"{stats['command_errors']} command(s) rejected")
        if stats["commands_applied"] + stats["command_errors"] != self.commands:
            outcome.problems.append(
                f"{stats['commands_applied'] + stats['command_errors']} of "
                f"{self.commands} commands handled"
            )
        if ledger["dropped"] or ledger["pending"] or ledger["produced"] != ledger["delivered"]:
            outcome.problems.append(f"event buffer did not conserve events: {ledger}")
        if self._sink_rows != ledger["delivered"]:
            outcome.problems.append(
                f"sink holds {self._sink_rows} rows, buffer delivered {ledger['delivered']}"
            )
        return outcome

    def close(self) -> None:
        self.service.finish()  # idempotent; stops the engine and the sink


@dataclass(frozen=True)
class Workload:
    """A named workload: its config, loop and pass length (BENCHMARK.json
    and README.md give the reason for each)."""

    name: str
    rounds: int
    config: Callable[[int, int], SimulationConfig]
    serve: bool = False
    #: An engine whose batch run of the same config must give the same
    #: digest, at any seed.
    twin: Optional[str] = None

    def start(self, seed: int, rounds: int):
        """Build one pass (this is the set-up a user pays)."""
        config = self.config(seed, rounds)
        if self.serve:
            return ServeRun(config, seed, rounds)
        return BatchRun(config)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("serve-stream", 300, churn_config, serve=True),
        Workload(
            "sharded-churn",
            210,
            lambda seed, rounds: churn_config(seed, rounds, engine="sharded"),
            twin="vectorized",
        ),
    )
}


def twin_digest(workload: Workload, seed: int, rounds: int) -> str:
    """Digest of the workload's config on its twin engine, run untimed."""
    config = replace(workload.config(seed, rounds), engine=workload.twin, shards=None)
    run = BatchRun(config)
    try:
        for _ in range(rounds):
            run.round()
        return run.finish().digest
    finally:
        run.close()
