"""The safety property ``Safe`` (paper Section III-A, Theorem 5).

A state is safe when, in every cell, any two distinct entities' centers
differ by at least ``d = rs + l`` along some axis. In a safe state the
edges of co-resident entities are separated by at least ``rs``; entities
in *adjacent* cells may be closer (their centers at least ``l`` apart),
which the paper accepts by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.core.cell import CellState
from repro.core.system import System
from repro.geometry.separation import axis_separated, min_axis_separation
from repro.grid.topology import CellId


@dataclass(frozen=True)
class SafetyViolation:
    """A pair of entities in one cell closer than ``d`` on both axes."""

    cell: CellId
    uid_a: int
    uid_b: int
    separation: float
    required: float

    def __str__(self) -> str:
        return (
            f"cell {self.cell}: entities {self.uid_a} and {self.uid_b} "
            f"separated by {self.separation:.6f} < required {self.required:.6f}"
        )


def safe_cell(state: CellState, d: float) -> bool:
    """``Safe_{i,j}(x)``: all member pairs axis-separated by ``d``."""
    entities = state.entities()
    for a in range(len(entities)):
        for b in range(a + 1, len(entities)):
            if not axis_separated(entities[a].center, entities[b].center, d):
                return False
    return True


def cell_safety_violations(
    cid: CellId, state: CellState, d: float
) -> List[SafetyViolation]:
    """``Safe_{i,j}`` violations of one cell, pairs in uid order."""
    if len(state.members) < 2:
        return []
    entities = state.entities()
    found: List[SafetyViolation] = []
    for a in range(len(entities)):
        for b in range(a + 1, len(entities)):
            pa, pb = entities[a], entities[b]
            if not axis_separated(pa.center, pb.center, d):
                found.append(
                    SafetyViolation(
                        cell=cid,
                        uid_a=pa.uid,
                        uid_b=pb.uid,
                        separation=min_axis_separation(pa.center, pb.center),
                        required=d,
                    )
                )
    return found


def safety_violations(system: System) -> Iterator[SafetyViolation]:
    """Yield every violating pair in the current state (full scan)."""
    d = system.params.d
    for cid, state in system.cells.items():
        yield from cell_safety_violations(cid, state, d)


def check_safe(system: System) -> List[SafetyViolation]:
    """``Safe(x)`` over the whole system; empty list means safe.

    The full-scan twin of the per-round check
    :meth:`~repro.monitors.recorder.MonitorSuite.after_round` makes on
    the cells a round touched.
    """
    return list(safety_violations(system))
