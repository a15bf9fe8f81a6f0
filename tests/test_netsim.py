"""Tests for the message-passing implementation, including bisimulation
against the shared-variable model.

The headline property: for any workload and any fault schedule, a
``System`` stepped by the ``timed`` engine over its default synchronous
network (every message takes half a period) and a ``System`` stepped by
its own ``update`` are in the *same state after every round* — the
broadcast implementation realizes exactly the semantics the paper's
shared-variable model specifies.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cell import INFINITY
from repro.core.params import Parameters
from repro.core.sources import EagerSource
from repro.core.system import System
from repro.faults.model import BernoulliFaultModel
from repro.grid.paths import straight_path, turns_path
from repro.grid.topology import Direction, Grid
from repro.monitors.recorder import MonitorSuite
from repro.netsim.message import EntityTransferMessage, RouteAdvert
from repro.netsim.runtime import TimedEngine

PARAMS = Parameters(l=0.25, rs=0.05, v=0.2)


def state_fingerprint(cells) -> dict:
    """Canonical per-cell protocol state for cross-model comparison."""
    fingerprint = {}
    for cid, state in cells.items():
        members = tuple(
            (uid, round(entity.x, 9), round(entity.y, 9))
            for uid, entity in sorted(state.members.items())
        )
        dist = "inf" if state.dist == INFINITY else state.dist
        fingerprint[cid] = (
            state.failed,
            dist,
            state.next_id,
            state.token,
            state.signal,
            members,
        )
    return fingerprint


def build_system(grid, path_cells=None, **kwargs) -> System:
    """A ``System`` with every cell off ``path_cells`` pre-failed."""
    system = System(grid=grid, params=PARAMS, rng=random.Random(0), **kwargs)
    if path_cells is not None:
        for cid in grid.cells():
            if cid not in set(path_cells):
                system.fail(cid)
    return system


def build_pair(path_cells):
    """The same corridor twice: a shared-variable ``System`` and a
    message-passing ``TimedEngine`` over its own ``System``."""

    def corridor() -> System:
        return build_system(
            Grid(8),
            path_cells,
            tid=path_cells[-1],
            sources={path_cells[0]: EagerSource()},
        )

    return corridor(), TimedEngine(corridor())


def idle_engine(n: int = 4) -> TimedEngine:
    """An engine over a source-free grid, for driving the link directly."""
    return TimedEngine(build_system(Grid(n), tid=(n - 1, n - 1)))


class TestNetworkSubstrate:
    def test_non_neighbor_send_rejected(self):
        engine = idle_engine()
        with pytest.raises(ValueError):
            engine.send(RouteAdvert(src=(0, 0), dst=(2, 0), dist=1.0))

    def test_crashed_sender_suppressed(self):
        engine = idle_engine()
        engine.system.fail((0, 0))
        engine.send(RouteAdvert(src=(0, 0), dst=(0, 1), dist=1.0))
        assert engine.suppressed_from_crashed == 1
        assert engine.scheduler.pending == 0
        assert engine.messages_sent == 0

    def test_delivery_clears_queue(self):
        engine = idle_engine()
        engine.send(RouteAdvert(src=(0, 0), dst=(0, 1), dist=1.0))
        assert engine.scheduler.pending == 1
        engine.scheduler.run_all()
        assert engine.scheduler.pending == 0
        assert len(engine.receive((0, 1))) == 1
        assert engine.receive((0, 1)) == []

    def test_broadcast_reaches_all_neighbors(self):
        engine = idle_engine()
        engine.broadcast(
            (1, 1), lambda dst: RouteAdvert(src=(1, 1), dst=dst, dist=2.0)
        )
        engine.scheduler.run_all()
        reached = {cid for cid in engine.processes if engine.receive(cid)}
        assert reached == {(0, 1), (2, 1), (1, 0), (1, 2)}

    def test_stats_by_type(self):
        engine = idle_engine()
        engine.send(RouteAdvert(src=(0, 0), dst=(0, 1), dist=None))
        engine.send(
            EntityTransferMessage(
                src=(0, 0), dst=(1, 0), uid=1, position=(0.9, 0.5), birth_round=0
            )
        )
        assert engine.sent_by_type == {
            "RouteAdvert": 1,
            "EntityTransferMessage": 1,
        }
        assert engine.messages_sent == 2


class TestMessagePassingBasics:
    def test_corridor_delivers(self):
        _, passing = build_pair(straight_path((1, 0), Direction.NORTH, 8).cells)
        consumed = sum(passing.step().consumed_count for _ in range(400))
        assert consumed > 0
        assert passing.system.total_consumed == consumed

    def test_message_cost_per_round(self):
        """Each live cell sends 3 adverts per neighbor per round (plus
        transfers): communication cost is measurable and bounded."""
        _, passing = build_pair(straight_path((1, 0), Direction.NORTH, 8).cells)
        passing.step()
        # Every live cell broadcasts to all 2-4 lattice neighbors
        # (crashed neighbors included — the sender doesn't know), 3
        # advert types.
        system = passing.system
        expected_adverts = 3 * sum(
            len(system.grid.neighbors(cid)) for cid in system.non_faulty_cells()
        )
        assert passing.messages_sent == expected_adverts + 0  # no transfers yet

    def test_monitor_suite_works_on_cells_view(self):
        """The monitors check the message-passing run on its ``System``."""
        from repro.monitors.safety import check_safe

        _, passing = build_pair(straight_path((1, 0), Direction.NORTH, 8).cells)
        for _ in range(200):
            passing.step()
            assert check_safe(passing.system) == []


class TestBisimulation:
    def assert_lockstep(self, shared, passing, rounds, fault_plan=None):
        for round_index in range(rounds):
            if fault_plan:
                for kind, cid in fault_plan.get(round_index, []):
                    getattr(shared, kind)(cid)
                    getattr(passing.system, kind)(cid)
            shared_report = shared.update()
            passing_report = passing.step()
            assert state_fingerprint(shared.cells) == state_fingerprint(
                passing.system.cells
            ), f"models diverged at round {round_index}"
            assert shared_report.consumed_count == passing_report.consumed_count

    def test_straight_corridor_lockstep(self):
        shared, passing = build_pair(straight_path((1, 0), Direction.NORTH, 8).cells)
        self.assert_lockstep(shared, passing, rounds=300)

    def test_turning_corridor_lockstep(self):
        path = turns_path((0, 0), 8, 3)
        shared, passing = build_pair(path.cells)
        self.assert_lockstep(shared, passing, rounds=300)

    def test_lockstep_with_scripted_faults(self):
        path = straight_path((1, 0), Direction.NORTH, 8)
        shared, passing = build_pair(path.cells)
        plan = {
            50: [("fail", (1, 4))],
            150: [("recover", (1, 4))],
            200: [("fail", (1, 2)), ("fail", (1, 6))],
            260: [("recover", (1, 2))],
        }
        self.assert_lockstep(shared, passing, rounds=320, fault_plan=plan)

    def test_lockstep_open_grid_multi_source(self):
        grid = Grid(5)
        kwargs = dict(
            grid=grid,
            params=PARAMS,
            tid=(2, 2),
            sources={(0, 0): EagerSource(), (4, 4): EagerSource()},
        )
        shared = System(rng=random.Random(0), **kwargs)
        passing = TimedEngine(System(rng=random.Random(0), **kwargs))
        for round_index in range(250):
            shared.update()
            passing.step()
            assert state_fingerprint(shared.cells) == state_fingerprint(
                passing.system.cells
            ), f"diverged at round {round_index}"

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        pf=st.floats(min_value=0.0, max_value=0.15),
        pr=st.floats(min_value=0.0, max_value=0.4),
    )
    def test_lockstep_under_random_churn(self, seed, pf, pr):
        """Property: identical fault coin-flips applied to both models
        keep them in identical states, whatever the churn."""
        grid = Grid(5)
        kwargs = dict(
            grid=grid, params=PARAMS, tid=(2, 4), sources={(2, 0): EagerSource()}
        )
        shared = System(rng=random.Random(0), **kwargs)
        passing = TimedEngine(System(rng=random.Random(0), **kwargs))
        model = BernoulliFaultModel(pf=pf, pr=pr)
        rng = random.Random(seed)
        for round_index in range(80):
            decision = model.decide(
                round_index,
                sorted(shared.non_faulty_cells()),
                sorted(shared.failed_cells()),
                rng,
            )
            for cid in sorted(decision.fail):
                shared.fail(cid)
                passing.system.fail(cid)
            for cid in sorted(decision.recover):
                shared.recover(cid)
                passing.system.recover(cid)
            shared.update()
            passing.step()
            assert state_fingerprint(shared.cells) == state_fingerprint(
                passing.system.cells
            ), f"diverged at round {round_index}"
