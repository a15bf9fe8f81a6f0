"""Structural invariants and the signal-gap predicate.

* **Invariant 1** — every entity's footprint lies inside its cell: center
  in ``[i + l/2, i+1 - l/2] x [j + l/2, j+1 - l/2]``.
* **Invariant 2** — the ``Members`` sets are pairwise disjoint (checked
  via global uid uniqueness, which is equivalent and linear-time).
* **Predicate H** — whenever ``signal_{i,j} = <m,n>``, the depth-``d``
  strip of cell ``<i,j>`` along the edge facing ``<m,n>`` contains no
  entity. The paper proves H holds *at the point Signal computes the
  variable* (Lemma 3); it may be broken later in the same round by the
  granting cell's own movement. The recorder therefore evaluates it
  between the Signal and Move phases via the phase-hook interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.core.cell import CellState
from repro.core.params import Parameters
from repro.core.signal import gap_clear
from repro.core.system import System
from repro.geometry.tolerance import tol_ge, tol_le
from repro.grid.topology import CellId, direction_between


@dataclass(frozen=True)
class ContainmentViolation:
    """An entity sticking out of (or straddling) its cell's boundary."""

    cell: CellId
    uid: int
    x: float
    y: float

    def __str__(self) -> str:
        return (
            f"cell {self.cell}: entity {self.uid} at ({self.x:.6f}, {self.y:.6f}) "
            "extends beyond the cell boundary"
        )


def cell_containment_violations(
    cid: CellId, state: CellState, half_l: float
) -> List[ContainmentViolation]:
    """Invariant 1 violations of one cell, in uid order."""
    i, j = cid
    lo_x, hi_x, lo_y, hi_y = i + half_l, i + 1 - half_l, j + half_l, j + 1 - half_l
    found: List[ContainmentViolation] = []
    for entity in state.entities():
        inside = (
            tol_ge(entity.x, lo_x)
            and tol_le(entity.x, hi_x)
            and tol_ge(entity.y, lo_y)
            and tol_le(entity.y, hi_y)
        )
        if not inside:
            found.append(
                ContainmentViolation(cell=cid, uid=entity.uid, x=entity.x, y=entity.y)
            )
    return found


def containment_violations(system: System) -> Iterator[ContainmentViolation]:
    """Invariant 1 violations in the current state (full scan)."""
    half = system.params.half_l
    for cid, state in system.cells.items():
        yield from cell_containment_violations(cid, state, half)


def check_containment(system: System) -> List[ContainmentViolation]:
    """Invariant 1 over the whole system; empty list means it holds."""
    return list(containment_violations(system))


def check_disjoint_membership(system: System) -> List[int]:
    """Invariant 2: uids appearing in more than one cell (empty = holds).

    A uid held by ``k`` cells is listed ``k - 1`` times, once at each
    holder after the first in cell order.
    """
    seen: Dict[int, CellId] = {}
    duplicated: List[int] = []
    for cid, state in system.cells.items():
        for uid in state.members:
            if uid in seen:
                duplicated.append(uid)
            else:
                seen[uid] = cid
    return duplicated


def entity_cell(system, entity) -> Optional[CellId]:
    """The cell whose ``members`` hold ``entity`` (None if no cell does).

    Looks first at the cell under the entity's centre — Invariant 1
    keeps every member there — and confirms by membership; a miss falls
    back to scanning every cell. Works on any system with a ``cells``
    mapping of states with ``members``.
    """
    cells = system.cells
    guess = (int(entity.x), int(entity.y))
    state = cells.get(guess)
    if state is not None and entity.uid in state.members:
        return guess
    return next(
        (cid for cid, state in cells.items() if entity.uid in state.members), None
    )


@dataclass(frozen=True)
class SignalGapViolation:
    """A granted signal without the required clear entry strip (predicate H)."""

    cell: CellId
    granted_to: CellId

    def __str__(self) -> str:
        return (
            f"cell {self.cell}: signal granted to {self.granted_to} without a "
            "clear depth-d strip on the shared edge"
        )


def signal_gap_violations(
    cells: Dict[CellId, CellState], params: Parameters
) -> Iterator[SignalGapViolation]:
    """Predicate H violations, evaluated on a post-Signal/pre-Move state."""
    for cid, state in cells.items():
        if state.failed or state.signal is None:
            continue
        toward = direction_between(cid, state.signal)
        if not gap_clear(state, toward, params):
            yield SignalGapViolation(cell=cid, granted_to=state.signal)


def check_signal_gap(
    cells: Dict[CellId, CellState], params: Parameters
) -> List[SignalGapViolation]:
    """Predicate H over all cells; empty list means it holds."""
    return list(signal_gap_violations(cells, params))


def two_cycle_signal_pairs(system: System) -> List[tuple]:
    """Pairs of adjacent cells whose signals point at each other.

    Lemma 4 asserts that no transfer can happen between such a pair in the
    same round; the recorder cross-checks this against the Move report.
    """
    pairs = []
    for cid, state in system.cells.items():
        sig = state.signal
        if state.failed or sig is None or sig <= cid:
            continue  # count each unordered pair once
        partner = system.cells.get(sig)
        if partner is not None and not partner.failed and partner.signal == cid:
            pairs.append((cid, sig))
    return pairs
