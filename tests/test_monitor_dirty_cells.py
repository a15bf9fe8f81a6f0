"""The dirty-cell monitor path, its hook chaining, and its one-pass peers.

:meth:`MonitorSuite.after_round` re-checks only the cells a round
touched and re-reports cached verdicts for the rest. These tests pin it
to its full-scan twin (``check_safe`` / ``check_containment`` /
``check_disjoint_membership``) round by round, check that attaching the
suite chains every hook already installed (and is chained by hooks
installed later), and cover the other scans this change replaced: the
fault injector's alive/failed split, the entity tracker's source
lookup, and the serve sinks' shared JSON encoder.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.baselines.unsafe import UnsafeSystem
from repro.core.arrays import HAVE_NUMPY
from repro.core.params import Parameters
from repro.core.sources import BernoulliSource, EagerSource
from repro.core.system import System
from repro.faults.injector import FaultInjector
from repro.faults.model import BernoulliFaultModel
from repro.fuzz.oracles import full_scan_violations
from repro.grid.topology import Grid
from repro.monitors.invariants import entity_cell
from repro.monitors.progress import EntityTracker
from repro.monitors.recorder import MonitorSuite
from repro.obs.events import EVENT_TYPES, make_event
from repro.serve.service import serve_header
from repro.serve.sinks import canonical_line
from repro.sim.engine import make_engine
from repro.sim.profiling import PhaseProfiler
from repro.testing.differential import state_digest

PARAMS = Parameters(l=0.2, rs=0.3, v=0.2)
AFTER_ROUND = {"Safe (Theorem 5)", "Invariant 1", "Invariant 2"}


def churn_system(cls=System, seed: int = 3) -> System:
    """6x6, four Bernoulli sources around a central target."""
    return cls(
        grid=Grid(6),
        params=PARAMS,
        tid=(3, 3),
        sources={
            cid: BernoulliSource(rate=0.6)
            for cid in ((0, 0), (5, 0), (0, 5), (5, 5))
        },
        rng=random.Random(seed),
    )


def merge_system() -> UnsafeSystem:
    """The greedy baseline on the Y merge, which breaks ``Safe``."""
    grid = Grid(5)
    alive = {(0, 2), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4)}
    system = UnsafeSystem(
        grid=grid,
        params=PARAMS,
        tid=(2, 4),
        sources={(0, 2): EagerSource(), (2, 0): EagerSource()},
        rng=random.Random(0),
    )
    for cid in grid.cells():
        if cid not in alive:
            system.fail(cid)
    return system


def after_round_verdicts(suite: MonitorSuite, start: int) -> list:
    return [
        (v.property_name, v.detail)
        for v in suite.violations[start:]
        if v.property_name in AFTER_ROUND
    ]


def run_against_full_scan(system, rounds: int, injector=None) -> int:
    """Step ``system`` under a lenient suite; assert every round's
    verdicts equal the full scan's. Returns the violations seen."""
    suite = MonitorSuite(strict=False).attach(system)
    injector = injector or FaultInjector()
    for _ in range(rounds):
        start = len(suite.violations)
        injector.apply(system)
        suite.after_round(system, system.update())
        assert after_round_verdicts(suite, start) == full_scan_violations(system)
    return sum(v.property_name in AFTER_ROUND for v in suite.violations)


class TestFullScanEquivalence:
    def test_greedy_merge_matches_full_scan_every_round(self):
        """Persisting violations are re-reported every round, in the
        full scan's order, while the cells holding them sit still."""
        assert run_against_full_scan(merge_system(), 300) > 0

    def test_greedy_pileup_behind_crash_matches_full_scan(self):
        """Arrivals into a stalled cell are found through the transfer
        destinations alone: the stalled cell never moves."""
        system = UnsafeSystem(
            grid=Grid(4),
            params=PARAMS,
            tid=(3, 3),
            sources={(0, 0): EagerSource()},
            rng=random.Random(1),
        )
        injector = FaultInjector(BernoulliFaultModel(pf=0.05, pr=0.2), random.Random(4))
        assert run_against_full_scan(system, 300, injector) > 0

    def test_protocol_under_churn_is_clean_and_matches(self):
        injector = FaultInjector(BernoulliFaultModel(pf=0.02, pr=0.2), random.Random(2))
        assert run_against_full_scan(churn_system(), 200, injector) == 0

    def test_seeded_violation_on_a_cell_that_never_moves(self):
        """A ``members`` event is the only thing that dirties a failed
        cell; its seeded violations persist and keep being reported."""
        system = churn_system()
        suite = MonitorSuite(strict=False).attach(system)
        for _ in range(5):
            suite.after_round(system, system.update())
        assert suite.clean
        system.fail((1, 3))
        system.seed_entity((1, 3), 1.4, 3.5)
        system.seed_entity((1, 3), 1.5, 3.55)
        for _ in range(3):
            start = len(suite.violations)
            suite.after_round(system, system.update())
            verdicts = after_round_verdicts(suite, start)
            assert verdicts == full_scan_violations(system)
            assert [name for name, _ in verdicts] == ["Safe (Theorem 5)"]

    def test_duplicate_membership_reported_in_full_scan_order(self):
        """Invariant 2: a uid in k cells is listed at every holder after
        the first in cell order, like ``check_disjoint_membership``."""
        system = churn_system()
        suite = MonitorSuite(strict=False).attach(system)
        suite.after_round(system, system.update())
        first = system.seed_entity((2, 2), 2.5, 2.5)
        second = system.seed_entity((4, 1), 4.5, 1.5)
        for cid in ((1, 4), (4, 4), (0, 2)):
            system.cells[cid].add_entity(first.clone())
            system.cells[cid].add_entity(second.clone())
            system._notify_cell_event("members", cid)
        start = len(suite.violations)
        suite.after_round(system, system.update())
        verdicts = after_round_verdicts(suite, start)
        assert verdicts == full_scan_violations(system)
        assert sum(name == "Invariant 2" for name, _ in verdicts) == 6

    def test_unattached_system_gets_a_full_check_every_round(self):
        """Without the hooks there is no dirty feed: every cell is read."""
        system = merge_system()
        suite = MonitorSuite(strict=False)
        for _ in range(200):
            start = len(suite.violations)
            suite.after_round(system, system.update())
            assert after_round_verdicts(suite, start) == full_scan_violations(system)
        assert not suite.clean

    def test_multiflow_system_needs_no_hook(self):
        """Produced entities are located from their centre on any system
        type, including the multi-commodity one."""
        from repro.multiflow.commodities import default_commodities
        from repro.multiflow.monitors import MultiflowMonitorSuite
        from repro.multiflow.system import MultiCommoditySystem

        system = MultiCommoditySystem(
            grid=Grid(6),
            params=PARAMS,
            commodities=default_commodities(6, 2),
            rng=random.Random(0),
        )
        suite = MultiflowMonitorSuite(strict=True).attach(system)
        for _ in range(120):
            report = system.update()
            suite.after_round(system, report)
            assert full_scan_violations(system) == []
            for entity in report.produced:
                assert entity_cell(system, entity) == (int(entity.x), int(entity.y))
        assert system.total_produced > 0


class TestHookChaining:
    """``attach`` chains onto the phase and cell-event hooks in both
    directions: hooks installed before keep firing, and hooks installed
    after (the profiler, an engine's dirty-set feed) chain the suite."""

    ENGINES = ["reference", "incremental", "sharded"] + (
        ["vectorized"] if HAVE_NUMPY else []
    )

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("monitors_first", [True, False], ids=["before", "after"])
    def test_every_hook_fires(self, engine_name, monitors_first):
        reference = churn_system()
        system = churn_system()
        phases, events = [], []
        system.phase_observer = lambda phase, _s: phases.append(phase)
        system.cell_observer = lambda event, cid: events.append((event, cid))
        suite = MonitorSuite(strict=False)
        if monitors_first:
            suite.attach(system)
        engine = make_engine(engine_name, system)
        profiler = PhaseProfiler().install(system)
        if not monitors_first:
            suite.attach(system)
        try:
            rng = random.Random(11)
            for round_index in range(40):
                if round_index % 5 == 2:
                    cid = (rng.randrange(6), rng.randrange(3))
                    for target in (reference, system):
                        if target.cells[cid].failed:
                            target.recover(cid)
                        else:
                            target.fail(cid)
                if round_index == 30:
                    for target in (reference, system):
                        target.fail((0, 4))
                        target.seed_entity((0, 4), 0.5, 4.5)
                        target.seed_entity((0, 4), 0.55, 4.55)
                profiler.begin_round()
                report = engine.step()
                suite.after_round(system, report)
                profiler.end_round()
                reference.update()
                # The engine's dirty-set feed survived: state is identical.
                assert state_digest(system) == state_digest(reference)
        finally:
            engine.close()
        assert phases == ["route", "signal", "move", "produce"] * 40
        assert ("members", (0, 4)) in events and ("fail", (0, 4)) in events
        assert profiler.timings.rounds == 40 and profiler.timings.route > 0
        # The suite saw the seeding event: the unsafe pair is reported.
        assert suite.violation_counts().get("Safe (Theorem 5)", 0) >= 1

    def test_reattach_does_not_chain_itself(self):
        """``Simulator`` re-attaches a suite the caller attached already;
        chaining onto its own hook would recurse on the first phase."""
        system = merge_system()
        suite = MonitorSuite(strict=False).attach(system)
        suite.attach(system)
        for _ in range(60):
            start = len(suite.violations)
            suite.after_round(system, system.update())
            assert after_round_verdicts(suite, start) == full_scan_violations(system)


class TestInjectorSplit:
    def test_split_equals_sorted_sets_with_direct_failed_writes(self):
        """One pass over a cached sorted order gives the same lists as
        sorting NF(x) and F(x), also after a direct ``failed`` write."""
        system = churn_system()
        injector = FaultInjector()
        rng = random.Random(5)
        for _ in range(30):
            cid = (rng.randrange(6), rng.randrange(6))
            system.cells[cid].failed = not system.cells[cid].failed
            alive, failed = injector._split_cells(system)
            assert alive == sorted(system.non_faulty_cells())
            assert failed == sorted(system.failed_cells())

    def test_split_follows_a_new_grid(self):
        injector = FaultInjector()
        small = System(grid=Grid(3), params=PARAMS, tid=(2, 2))
        large = System(grid=Grid(5), params=PARAMS, tid=(4, 4))
        large.fail((1, 3))
        assert injector._split_cells(small) == (sorted(small.cells), [])
        assert injector._split_cells(large)[1] == [(1, 3)]


def test_entity_tracker_matches_a_scan_on_multi_source_churn():
    """The centre-plus-membership lookup records the same source cells
    as the scan over every cell it replaced."""
    system = churn_system(seed=8)
    injector = FaultInjector(BernoulliFaultModel(pf=0.03, pr=0.3), random.Random(6))
    tracker = EntityTracker()
    scanned = {}
    for _ in range(150):
        injector.apply(system)
        report = system.update()
        tracker.observe(report, system)
        for entity in report.produced:
            scanned[entity.uid] = next(
                cid for cid, state in system.cells.items()
                if entity.uid in state.members
            )
    assert scanned
    assert {uid: r.source for uid, r in tracker.records.items()} == scanned


def test_entity_cell_falls_back_to_a_scan():
    system = churn_system()
    entity = system.seed_entity((2, 1), 2.5, 1.5)
    assert entity_cell(system, entity) == (2, 1)
    system.cells[(4, 4)].add_entity(system.cells[(2, 1)].remove_entity(entity.uid))
    assert entity_cell(system, entity) == (4, 4)  # centre says (2, 1): miss
    system.cells[(4, 4)].remove_entity(entity.uid)
    assert entity_cell(system, entity) is None


@pytest.mark.parametrize("name", sorted(EVENT_TYPES))
def test_canonical_line_matches_json_dumps(name):
    values = {
        "cell": [1, 2], "dist": 3.0, "next": None, "from": [0, 1], "to": [2, 1],
        "holder": [1, 1], "reason": "gap", "uid": 17, "src": [1, 2], "dst": [1, 3],
    }
    fields = {key: values[key] for key in EVENT_TYPES[name].fields}
    record = make_event(name, 42, fields)
    expected = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert canonical_line(record) == expected


def test_canonical_line_matches_json_dumps_on_a_serve_header():
    header = serve_header("0123abcdé")
    expected = json.dumps(header, sort_keys=True, separators=(",", ":"))
    assert canonical_line(header) == expected
