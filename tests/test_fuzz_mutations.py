"""Mutation-testing the fuzzer: planted bugs must be found AND shrunk.

A fuzzer that never fires is indistinguishable from a fuzzer that
cannot fire. This module plants three known bugs into the incremental
engine — the two dirty-set mutants from the engine-differential suite
(dropped dist-propagation rule, stale grant) plus a new Move-phase
off-by-``l/2`` transfer-snap bug — and asserts, for each:

1. a short fuzz campaign over the ordinary seed range *detects* it;
2. the shrinker reduces the first failing scenario to a minimal repro
   of at most 6 rounds on at most a 4x4 grid;
3. the written JSON artifact, replayed through the ``fuzz replay`` CLI,
   reproduces the identical violation (exit code 0).

Further campaigns plant bugs that only a specific oracle sees: a
recovery skip (``stabilization-bound``), a sticky token rotation
(``token-fairness``), and a monitor suite whose dirty set drops the
destinations of transfers (``monitor-equivalence``).

The campaigns run with ``workers=1`` on purpose: monkeypatched engine
classes exist only in this process, and the in-process path of
``ParallelSweepRunner`` is what keeps them visible to the oracles.
"""

from __future__ import annotations

import pytest

from repro.core.move import MovePhaseReport, Transfer, crossed_boundary
from repro.grid.topology import direction_between
from repro.fuzz.campaign import run_campaign
from repro.fuzz.generator import generate_scenario
from repro.fuzz.shrink import replay_repro, shrink_scenario, write_repro
from repro.sim import engine as engine_module
from repro.sim.engine import ENGINES, IncrementalEngine, _row_major
from repro.cli.main import main as cli_main
from repro.monitors.invariants import entity_cell
from repro.monitors.recorder import MonitorSuite

#: Seed range the campaigns scan. Wide enough that every mutant is hit
#: by multiple scenarios (the differential oracle runs the incremental
#: engine on every seed), small enough to keep the suite quick.
CAMPAIGN_SEEDS = range(0, 12)


class _DropDistPropagationEngine(IncrementalEngine):
    """PLANTED (PR 4): dist changes never wake the neighbors' Route."""

    def _mark_dist_change(self, cid):
        pass


class _StaleSignalEngine(IncrementalEngine):
    """PLANTED (PR 4): a granted signal is never re-evaluated."""

    def _signal_phase(self, route_report):
        from repro.core.signal import (
            SignalPhaseReport,
            _signal_step,
            compute_ne_prev,
        )

        system = self.system
        pending = self._signal_pending
        for changed in route_report.changed_next:
            pending.update(system.grid.neighbors(changed))
        self._signal_pending = set()
        report = SignalPhaseReport()
        for cid in sorted(pending, key=_row_major):
            state = system.cells[cid]
            if state.failed:
                continue
            if state.signal is not None:
                continue  # MUTANT: "a granted signal stays valid"
            ne_prev = compute_ne_prev(system.grid, system.cells, cid)
            _signal_step(state, ne_prev, system.params, system.token_policy, report)
            if ne_prev:
                self._signal_pending.add(cid)
        return report

    def _move_phase(self, signal_report):
        from repro.core.move import apply_moves, collect_movers

        system = self.system
        report = apply_moves(
            system.grid,
            system.cells,
            system.params,
            system.tid,
            collect_movers(system.cells),
        )
        for transfer in report.transfers:
            self._mark_membership_change(transfer.src)
            if not transfer.consumed:
                self._mark_membership_change(transfer.dst)
        return report


class _OffByHalfSnapEngine(IncrementalEngine):
    """PLANTED (new): the transfer snap forgets the ``l/2`` inset.

    ``apply_moves`` snaps a crossing entity's center onto the
    destination's entry edge *inset by half the entity side* so the
    entity body lands fully inside the new cell. This mutant snaps the
    center onto the cell boundary itself (``m`` instead of
    ``m + l/2``), leaving half the entity overhanging the wall — an
    Invariant 1 (containment) violation on the destination cell at the
    very first transfer, and a state divergence from the reference
    engine at the same round.
    """

    def _move_phase(self, signal_report):
        system = self.system
        movers = sorted(
            (
                (grantee, granter)
                for granter, grantee in signal_report.granted.items()
            ),
            key=lambda pair: _row_major(pair[0]),
        )
        report = MovePhaseReport()
        pending = []
        for cid, nxt in movers:
            state = system.cells[cid]
            toward = direction_between(cid, nxt)
            report.moved_cells.append(cid)
            for entity in state.entities():
                entity.translate(toward, system.params.v)
                if crossed_boundary(entity, cid, toward, system.params.half_l):
                    pending.append((entity, cid, nxt, toward))
        for entity, cid, nxt, toward in pending:
            system.cells[cid].remove_entity(entity.uid)
            if nxt == system.tid:
                report.consumed.append(entity)
                report.transfers.append(
                    Transfer(uid=entity.uid, src=cid, dst=nxt, consumed=True)
                )
            else:
                # MUTANT: half_l = 0 — snap onto the wall, not past it.
                entity.snap_to_entry_edge(nxt, toward, 0.0)
                system.cells[nxt].add_entity(entity)
                report.transfers.append(
                    Transfer(uid=entity.uid, src=cid, dst=nxt, consumed=False)
                )
        for transfer in report.transfers:
            self._mark_membership_change(transfer.src)
            if not transfer.consumed:
                self._mark_membership_change(transfer.dst)
        return report


MUTANTS = {
    "dropped-dirty-rule": _DropDistPropagationEngine,
    "stale-grant": _StaleSignalEngine,
    "snap-off-by-half-l": _OffByHalfSnapEngine,
}


def _campaign_with(monkeypatch, mutant):
    monkeypatch.setitem(engine_module.ENGINES, "incremental", mutant)
    return run_campaign(CAMPAIGN_SEEDS, workers=1)


@pytest.mark.parametrize("name", sorted(MUTANTS), ids=sorted(MUTANTS))
def test_campaign_detects_and_shrinks_mutant(monkeypatch, name, tmp_path):
    mutant = MUTANTS[name]
    result = _campaign_with(monkeypatch, mutant)
    assert result.failures, f"campaign missed the planted {name} bug"
    assert not result.errors

    first = result.failures[0]
    shrunk = shrink_scenario(generate_scenario(first.seed))
    config = shrunk.scenario.config
    assert config.rounds <= 6, (
        f"{name}: shrunk to {config.rounds} rounds (> 6): {shrunk.steps}"
    )
    width = config.grid_width
    height = config.grid_height or width
    assert width <= 4 and height <= 4, (
        f"{name}: shrunk to {width}x{height} grid (> 4x4): {shrunk.steps}"
    )
    assert shrunk.violations, "shrinking lost the violation"

    # The written artifact replays to the identical violation, both via
    # the library and via the CLI (exit 0 = byte-identical violations).
    path = write_repro(shrunk, tmp_path)
    artifact, recomputed = replay_repro(path)
    assert [v.to_dict() for v in recomputed] == artifact["violations"]
    assert cli_main(["fuzz", "replay", str(path)]) == 0


class _RecoverySkipEngine(IncrementalEngine):
    """PLANTED (PR 9): recovery events never re-wake Route relaxation.

    A recovered cell rejoins the grid but the incremental engine's dirty
    sets are never told, so routing around the healed region stays on
    its detour (or stays partitioned) indefinitely — exactly the failure
    mode the ``stabilization-bound`` oracle exists to catch: the run
    never re-converges to the BFS ground truth within the Lemma 6
    horizon after the adversary's last scripted recovery.
    """

    def _on_cell_event(self, event, cid):
        if event == "recover":
            return  # MUTANT: the healed cell stays invisible to Route
        super()._on_cell_event(event, cid)


def test_adversarial_campaign_detects_and_shrinks_recovery_skip(
    monkeypatch, tmp_path
):
    """Forced regional-failure campaign + stabilization-bound oracle:
    detect the planted recovery bug, shrink keeping the adversary, and
    replay the artifact byte-identically through the CLI."""
    monkeypatch.setitem(engine_module.ENGINES, "incremental", _RecoverySkipEngine)
    result = run_campaign(
        CAMPAIGN_SEEDS,
        oracle_names=["stabilization-bound"],
        workers=1,
        adversary="regional_failure",
    )
    assert result.failures, "campaign missed the planted recovery-skip bug"
    assert not result.errors
    assert all(
        v.oracle == "stabilization-bound"
        for outcome in result.failures
        for v in outcome.violations
    )

    first = result.failures[0]
    shrunk = shrink_scenario(
        generate_scenario(first.seed, adversary="regional_failure"),
        oracle_names=["stabilization-bound"],
    )
    # The oracle is gated on the adversary: dropping it would lose the
    # violation, so the shrinker must have kept (possibly weakened) it.
    assert shrunk.scenario.config.adversary is not None
    assert shrunk.scenario.config.adversary.startswith("regional_failure")
    assert shrunk.violations

    path = write_repro(shrunk, tmp_path)
    artifact, recomputed = replay_repro(path, oracle_names=["stabilization-bound"])
    assert [v.to_dict() for v in recomputed] == artifact["violations"]
    assert (
        cli_main(
            ["fuzz", "replay", str(path), "--oracles", "stabilization-bound"]
        )
        == 0
    )


def test_starvation_campaign_detects_and_shrinks_sticky_rotation(
    monkeypatch, tmp_path
):
    """Forced token-starvation campaign + token-fairness oracle: a
    rotation that parks on the served member (the Lemma 9 fairness step
    deleted) is detected, shrunk with the adversary intact, and the
    artifact replays identically through the CLI."""
    from repro.core.policies import RoundRobinTokenPolicy

    monkeypatch.setattr(
        RoundRobinTokenPolicy,
        "rotate",
        lambda self, ne_prev, current: current,  # MUTANT: never rotates
    )
    result = run_campaign(
        CAMPAIGN_SEEDS,
        oracle_names=["token-fairness"],
        workers=1,
        adversary="token_starvation",
    )
    assert result.failures, "campaign missed the planted sticky-token bug"
    assert not result.errors
    assert all(
        v.oracle == "token-fairness"
        for outcome in result.failures
        for v in outcome.violations
    )

    first = result.failures[0]
    shrunk = shrink_scenario(
        generate_scenario(first.seed, adversary="token_starvation"),
        oracle_names=["token-fairness"],
    )
    # The fairness oracle is gated on the policy, not the adversary:
    # once rotation itself is broken, the minimal repro no longer needs
    # the starvation workload — but it must still be a roundrobin run.
    assert shrunk.scenario.config.token_policy == "roundrobin"
    assert shrunk.violations

    path = write_repro(shrunk, tmp_path)
    artifact, recomputed = replay_repro(path, oracle_names=["token-fairness"])
    assert [v.to_dict() for v in recomputed] == artifact["violations"]
    assert (
        cli_main(["fuzz", "replay", str(path), "--oracles", "token-fairness"])
        == 0
    )


def _skip_transfer_destinations(self, system, report):
    """PLANTED: the dirty set forgets the destinations of transfers.

    An arrival into a cell that does not move itself this round is then
    never re-checked, so a ``Safe`` violation it causes (the greedy
    baseline piling entities up behind a crash) goes unreported until
    that cell moves — or forever, if it never does.
    """
    touched = self._dirty
    self._dirty = set()
    touched.update(report.move.moved_cells)
    for entity in report.produced:
        touched.add(entity_cell(system, entity))
    return touched


def test_campaign_detects_and_shrinks_skipped_dirty_cell(monkeypatch, tmp_path):
    """``monitor-equivalence`` catches a monitor suite that skips one
    kind of dirty cell, shrinks the scenario, and the artifact replays
    identically through the CLI."""
    monkeypatch.setattr(MonitorSuite, "_touched_cells", _skip_transfer_destinations)
    oracles = ["monitor-equivalence"]
    result = run_campaign(CAMPAIGN_SEEDS, oracle_names=oracles, workers=1)
    assert result.failures, "campaign missed the skipped dirty cell"
    assert not result.errors
    assert all(
        v.property_name == "verdict mismatch (greedy)"
        for outcome in result.failures
        for v in outcome.violations
    )

    first = result.failures[0]
    original = generate_scenario(first.seed).config
    shrunk = shrink_scenario(generate_scenario(first.seed), oracle_names=oracles)
    config = shrunk.scenario.config
    assert shrunk.violations, "shrinking lost the violation"
    # The greedy leg needs a pile-up before the skipped arrival shows,
    # so the repro keeps more rounds than the engine mutants' six.
    assert config.rounds < original.rounds and config.rounds <= 16
    cells = config.grid_width * (config.grid_height or config.grid_width)
    assert cells < original.grid_width * (original.grid_height or original.grid_width)

    path = write_repro(shrunk, tmp_path)
    artifact, recomputed = replay_repro(path, oracle_names=oracles)
    assert [v.to_dict() for v in recomputed] == artifact["violations"]
    assert cli_main(["fuzz", "replay", str(path), "--oracles", *oracles]) == 0


def test_clean_tree_campaign_is_quiet():
    """The same seed range on the unmutated engine finds nothing — the
    mutation detections above are signal, not noise."""
    result = run_campaign(CAMPAIGN_SEEDS, workers=1)
    assert not result.failures
    assert not result.errors


def test_registry_restored():
    """monkeypatch.setitem put the real engine back (paranoia check)."""
    assert ENGINES["incremental"] is IncrementalEngine
