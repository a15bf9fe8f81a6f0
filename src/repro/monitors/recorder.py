"""The monitor suite: continuous runtime verification of a running system.

Attach a :class:`MonitorSuite` to a ``System`` (it chains itself onto
the system's phase and cell-event hooks) and call :meth:`after_round`
from the simulation loop. Every proved property is then checked on every
round of every experiment — the reproduction does not merely *assume*
Theorem 5, it re-verifies it continuously, and any discrepancy between
the paper's claims and the implementation surfaces immediately.

``Safe`` and Invariant 1 are per-cell properties and Invariant 2 is a
per-uid one, so a cell whose members neither changed nor moved keeps its
verdict. :meth:`MonitorSuite.after_round` therefore re-checks only the
cells the round touched — the Move report's movers, the destinations of
non-consumed transfers, the cells produced entities landed in, and every
cell named by a ``cell_observer`` event — and re-reports the cached
verdicts of all other cells, in the order a full scan would. The first
round after :meth:`MonitorSuite.attach` checks every cell. The full-scan
functions (:func:`~repro.monitors.safety.check_safe`,
:func:`~repro.monitors.invariants.check_containment`,
:func:`~repro.monitors.invariants.check_disjoint_membership`) are its
twin; the ``monitor-equivalence`` fuzz oracle compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.core.system import RoundReport, System
from repro.grid.topology import CellId
from repro.monitors.invariants import (
    cell_containment_violations,
    check_signal_gap,
    entity_cell,
    two_cycle_signal_pairs,
)
from repro.monitors.safety import cell_safety_violations


@dataclass(frozen=True)
class Violation:
    """One detected property violation."""

    round_index: int
    property_name: str
    detail: str


class MonitorViolation(AssertionError):
    """Raised in strict mode when any monitored property fails."""

    def __init__(self, violation: Violation):
        super().__init__(
            f"round {violation.round_index}: {violation.property_name}: "
            f"{violation.detail}"
        )
        self.violation = violation


@dataclass
class MonitorSuite:
    """Configurable bundle of per-round property checks.

    ``strict=True`` (the default) raises on the first violation —
    appropriate for tests and for the paper-faithful protocol, which is
    proved to never violate them. ``strict=False`` records violations
    instead, which is what the *unsafe baseline* benchmarks use to count
    how often a signal-free protocol breaks separation.
    """

    check_safety: bool = True
    check_invariant_1: bool = True
    check_invariant_2: bool = True
    check_h_predicate: bool = True
    check_lemma_4: bool = True
    strict: bool = True
    violations: List[Violation] = field(default_factory=list)
    metrics: Optional[object] = None
    """Optional :class:`repro.obs.metrics.MetricsRegistry`; when set,
    every recorded violation also increments ``monitors.violations``
    (counted *before* a strict-mode raise, so the tally survives)."""

    on_violation: Optional[object] = None
    """Optional callback ``(Violation) -> None`` invoked on every recorded
    violation, before a strict-mode raise. The live-verdict stream:
    ``repro serve`` wires it to emit ``service.violation`` events so a
    long-running service reports property violations as they happen
    instead of only in the final summary."""

    _signal_pairs: List[tuple] = field(default_factory=list)

    # Dirty-cell state (see the module docstring): the attached system,
    # the hooks chained behind this suite's, the cells touched since the
    # last check (None = every cell), and the cached per-cell verdicts.
    _system: Optional[System] = field(default=None, init=False, repr=False)
    _chained_phase: Optional[object] = field(default=None, init=False, repr=False)
    _chained_cell: Optional[object] = field(default=None, init=False, repr=False)
    _dirty: Optional[Set[CellId]] = field(default=None, init=False, repr=False)
    _order: Dict[CellId, int] = field(default_factory=dict, init=False, repr=False)
    _unsafe: Dict[CellId, list] = field(default_factory=dict, init=False, repr=False)
    _uncontained: Dict[CellId, list] = field(
        default_factory=dict, init=False, repr=False
    )
    _members: Dict[CellId, FrozenSet[int]] = field(
        default_factory=dict, init=False, repr=False
    )
    _holders: Dict[int, Set[CellId]] = field(
        default_factory=dict, init=False, repr=False
    )
    _duplicated: Set[int] = field(default_factory=set, init=False, repr=False)

    def attach(self, system: System) -> "MonitorSuite":
        """Chain onto ``system.phase_observer`` and ``system.cell_observer``.

        Hooks already installed (a profiler, a round engine's dirty-set
        feed) keep firing after this suite's. Re-attaching to the same
        system only restarts the dirty-cell bookkeeping, so the next
        :meth:`after_round` checks every cell. Returns self.
        """
        if system is not self._system:
            self._system = system
            self._chained_phase = system.phase_observer
            system.phase_observer = self._on_phase
            self._chained_cell = system.cell_observer
            system.cell_observer = self._on_cell_event
        self._dirty = None
        return self

    # ------------------------------------------------------------------

    def _on_phase(self, phase: str, system: System) -> None:
        if phase == "signal":
            if self.check_h_predicate:
                for violation in check_signal_gap(system.cells, system.params):
                    self._record(system.round_index, "predicate-H", str(violation))
            if self.check_lemma_4:
                self._signal_pairs = two_cycle_signal_pairs(system)
        if self._chained_phase is not None:
            self._chained_phase(phase, system)

    def _on_cell_event(self, event: str, cid: CellId) -> None:
        if self._dirty is not None:
            self._dirty.add(cid)
        if self._chained_cell is not None:
            self._chained_cell(event, cid)

    def after_round(self, system: System, report: RoundReport) -> None:
        """Run the post-state checks for the round just completed."""
        rnd = report.round_index
        self._refresh(system, report)
        if self.check_safety:
            for cid in self._in_cell_order(self._unsafe):
                for violation in self._unsafe[cid]:
                    self._record(rnd, "Safe (Theorem 5)", str(violation))
        if self.check_invariant_1:
            for cid in self._in_cell_order(self._uncontained):
                for violation in self._uncontained[cid]:
                    self._record(rnd, "Invariant 1", str(violation))
        if self.check_invariant_2:
            for uid in self._duplicate_uids(system):
                self._record(
                    rnd, "Invariant 2", f"entity {uid} present in multiple cells"
                )
        if self.check_lemma_4 and self._signal_pairs:
            crossings = {
                frozenset((t.src, t.dst)) for t in report.move.transfers
            }
            for a, b in self._signal_pairs:
                if frozenset((a, b)) in crossings:
                    self._record(
                        rnd,
                        "Lemma 4",
                        f"transfer occurred between mutually signaling cells {a}, {b}",
                    )
            self._signal_pairs = []

    # ------------------------------------------------------------------
    # Dirty-cell verdict cache
    # ------------------------------------------------------------------

    def _touched_cells(self, system: System, report: RoundReport) -> Set[CellId]:
        """Cells whose members changed or moved this round (the dirty set
        accumulated from ``cell_observer`` events plus the round's
        movers, transfer destinations, and production cells)."""
        touched = self._dirty
        self._dirty = set()
        move = report.move
        touched.update(move.moved_cells)
        touched.update(t.dst for t in move.transfers if not t.consumed)
        for entity in report.produced:
            cid = entity_cell(system, entity)
            if cid is not None:
                touched.add(cid)
        return touched

    def _refresh(self, system: System, report: RoundReport) -> None:
        """Re-derive the cached verdicts of every cell the round touched.

        An unattached system (or the first round after :meth:`attach`)
        rebuilds the cache from every cell.
        """
        cells = system.cells
        touched: Iterable[CellId]
        if system is self._system and self._dirty is not None:
            touched = self._touched_cells(system, report)
        else:
            # Empty cells have no violations and nothing cached to drop.
            touched = [cid for cid, state in cells.items() if state.members]
            self._order = {cid: k for k, cid in enumerate(cells)}
            self._unsafe = {}
            self._uncontained = {}
            self._members = {}
            self._holders = {}
            self._duplicated = set()
            self._dirty = set() if system is self._system else None
        d = system.params.d
        half_l = system.params.half_l
        for cid in touched:
            state = cells[cid]
            if self.check_safety:
                self._cache(self._unsafe, cid, cell_safety_violations(cid, state, d))
            if self.check_invariant_1:
                self._cache(
                    self._uncontained,
                    cid,
                    cell_containment_violations(cid, state, half_l),
                )
            if self.check_invariant_2:
                self._update_holders(cid, state.members)

    @staticmethod
    def _cache(verdicts: Dict[CellId, list], cid: CellId, found: list) -> None:
        if found:
            verdicts[cid] = found
        else:
            verdicts.pop(cid, None)

    def _update_holders(self, cid: CellId, members: dict) -> None:
        """Invariant 2 bookkeeping: which cells hold each uid."""
        old = self._members.get(cid, frozenset())
        if old == members.keys():
            return
        new = frozenset(members)
        holders = self._holders
        for uid in old - new:
            cells = holders[uid]
            cells.discard(cid)
            if not cells:
                del holders[uid]
            elif len(cells) == 1:
                self._duplicated.discard(uid)
        for uid in new - old:
            cells = holders.setdefault(uid, set())
            cells.add(cid)
            if len(cells) > 1:
                self._duplicated.add(uid)
        if new:
            self._members[cid] = new
        else:
            self._members.pop(cid, None)

    def _in_cell_order(self, cells: Iterable[CellId]) -> List[CellId]:
        return sorted(cells, key=self._order.__getitem__)

    def _duplicate_uids(self, system: System) -> List[int]:
        """Invariant 2 violations in full-scan order: every holder of a
        uid after the first, in cell order, then member order."""
        if not self._duplicated:
            return []
        holding = self._in_cell_order(
            {cid for uid in self._duplicated for cid in self._holders[uid]}
        )
        seen: Set[int] = set()
        duplicated: List[int] = []
        for cid in holding:
            for uid in system.cells[cid].members:
                if uid not in self._duplicated:
                    continue
                if uid in seen:
                    duplicated.append(uid)
                else:
                    seen.add(uid)
        return duplicated

    # ------------------------------------------------------------------

    def _record(self, round_index: int, name: str, detail: str) -> None:
        violation = Violation(round_index=round_index, property_name=name, detail=detail)
        self.violations.append(violation)
        if self.metrics is not None:
            self.metrics.counter("monitors.violations").inc()
        if self.on_violation is not None:
            self.on_violation(violation)
        if self.strict:
            raise MonitorViolation(violation)

    @property
    def clean(self) -> bool:
        return not self.violations

    def violation_counts(self) -> dict:
        """Violations grouped by property name (for the unsafe baseline)."""
        counts: dict = {}
        for violation in self.violations:
            counts[violation.property_name] = counts.get(violation.property_name, 0) + 1
        return counts
