"""Monitor sensitivity: deliberately broken protocol variants must be
*caught* by the verification net.

A reproduction whose monitors pass on everything proves nothing. These
tests sabotage one protocol mechanism at a time — the gap predicate, the
snap rule, the velocity bound, token exclusivity — and assert that the
corresponding monitor fires. This is mutation testing of the
verification layer itself.
"""

import random

import pytest

import repro.core.signal as signal_module
import repro.netsim.process as process_module
from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Grid
from repro.monitors.recorder import MonitorSuite, MonitorViolation
from repro.netsim.runtime import TimedEngine

PARAMS = Parameters(l=0.2, rs=0.3, v=0.2)  # generous d so breakage shows fast


def merge_system() -> System:
    """The Y merge: two flows joining before the target (contention)."""
    grid = Grid(5)
    alive = {(0, 2), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4)}
    system = System(
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


def run_sabotaged(system: System, rounds: int = 400) -> MonitorSuite:
    suite = MonitorSuite(strict=False).attach(system)
    for _ in range(rounds):
        report = system.update()
        suite.after_round(system, report)
    return suite


def run_timed_strict(system: System, rounds: int = 400) -> None:
    """Step ``system`` on the ``timed`` engine under strict monitors."""
    engine = TimedEngine(system)
    suite = MonitorSuite(strict=True).attach(system)
    for _ in range(rounds):
        suite.after_round(system, engine.step())


class TestGapPredicateSabotage:
    def test_always_true_gap_is_caught(self, monkeypatch):
        """Forcing every gap check to succeed lets entities enter occupied
        strips; the H monitor and/or the safety monitor must fire."""
        monkeypatch.setattr(
            signal_module, "gap_clear", lambda state, toward, params: True
        )
        suite = run_sabotaged(merge_system())
        counts = suite.violation_counts()
        assert counts, "sabotaged gap check must be detected"
        assert "predicate-H" in counts or "Safe (Theorem 5)" in counts

    def test_inverted_direction_gap_is_caught(self, monkeypatch):
        """Checking the gap on the wrong edge (the axis-typo family the
        scanned paper itself contains) must be detected."""
        true_gap = signal_module.gap_clear

        def wrong_edge(state, toward, params):
            return true_gap(state, toward.opposite, params)

        monkeypatch.setattr(signal_module, "gap_clear", wrong_edge)
        suite = run_sabotaged(merge_system())
        assert suite.violation_counts(), "wrong-edge gap check must be detected"

    def test_timed_grant_without_gap_is_caught(self, monkeypatch):
        """On the ``timed`` engine a cell process that grants without
        checking the gap is caught by strict monitors, through predicate
        H at the engine's ``signal`` phase notification."""
        run_timed_strict(merge_system())  # the unsabotaged run is clean
        monkeypatch.setattr(
            process_module, "gap_clear", lambda state, toward, params: True
        )
        with pytest.raises(MonitorViolation) as caught:
            run_timed_strict(merge_system())
        assert caught.value.violation.property_name == "predicate-H"


class TestKinematicsSabotage:
    def test_overshooting_snap_is_caught(self, monkeypatch):
        """A snap that places arrivals deep inside the cell (instead of
        flush on the entry edge) invades the space of residents beyond
        the verified d-strip — the safety monitor must fire."""
        from repro.core.entity import Entity
        from repro.grid.topology import Direction

        true_snap = Entity.snap_to_entry_edge

        def overshoot(self, cell, direction, half_l):
            true_snap(self, cell, direction, half_l)
            self.translate(direction, 0.35)  # barge past the entry strip

        monkeypatch.setattr(Entity, "snap_to_entry_edge", overshoot)
        suite = run_sabotaged(merge_system(), rounds=600)
        counts = suite.violation_counts()
        assert "Safe (Theorem 5)" in counts or "Invariant 1" in counts

    def test_missing_snap_is_caught(self, monkeypatch):
        """Skipping the entry-edge snap leaves entities straddling
        boundaries — Invariant 1 must fire."""
        from repro.core.entity import Entity
        from repro.grid.topology import Direction

        monkeypatch.setattr(
            Entity, "snap_to_entry_edge", lambda self, cell, direction, half: None
        )
        grid = Grid(8)
        path = straight_path((1, 0), Direction.NORTH, 8)
        system = System(
            grid=grid,
            params=Parameters(l=0.25, rs=0.05, v=0.2),
            tid=path.target,
            sources={path.source: EagerSource()},
            rng=random.Random(0),
        )
        for cid in grid.cells():
            if cid not in path:
                system.fail(cid)
        suite = run_sabotaged(system, rounds=200)
        counts = suite.violation_counts()
        assert "Invariant 1" in counts


class TestStrictModeEscalation:
    def test_permissionless_movement_raises_in_strict_mode(self):
        """Strict mode must convert the first violation of a
        permission-free (greedy) variant into an exception — the contract
        every figure experiment relies on."""
        from repro.baselines.unsafe import UnsafeSystem

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
        suite = MonitorSuite(
            strict=True, check_h_predicate=False, check_lemma_4=False
        ).attach(system)
        with pytest.raises(MonitorViolation):
            for _ in range(600):
                report = system.update()
                suite.after_round(system, report)
