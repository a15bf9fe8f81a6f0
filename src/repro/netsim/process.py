"""The per-cell process of the message-passing implementation.

A :class:`CellProcess` runs one cell's share of a paper round using
*only* received messages and the cell's own variables, which it reads
and writes in place in the driving :class:`~repro.core.system.System`
(``system.cells[cell_id]``). Whether the cell is the target is read from
``system.tid`` on every use, so ``System.relocate_target`` takes effect
at once; failure is the cell's own ``failed`` flag, set by
``System.fail``/``recover``. The three communication sub-rounds:

    advert_route    -> on_route       (Route,  from received dists)
    advert_occupancy-> on_occupancy   (Signal, from received next/occupancy)
    advert_grant    -> on_grant       (Move,   from the received grant)
                       on_transfers   (accept entities handed over)

The computations reuse the *same* phase logic as the shared-variable
model (``_route_step``-equivalent folding, ``gap_clear``), so any
divergence between the two models is a protocol bug, not a re-coding
artifact — and the bisimulation tests would catch it.

Sends go through a *link*: any object with ``send(message)`` and
``broadcast(src, make_message)`` — in a run, the
:class:`~repro.netsim.runtime.TimedEngine`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.cell import INFINITY, CellState
from repro.core.entity import Entity
from repro.core.move import crossed_boundary
from repro.core.signal import gap_clear
from repro.core.system import System
from repro.grid.topology import CellId, direction_between
from repro.netsim.message import (
    EntityTransferMessage,
    GrantAdvert,
    Message,
    OccupancyAdvert,
    RouteAdvert,
)


class CellProcess:
    """One cell's protocol logic over messages."""

    def __init__(self, system: System, cell_id: CellId):
        system.grid.require(cell_id)
        self.system = system
        self.cell_id = cell_id
        self.grid = system.grid
        self.params = system.params

    # ------------------------------------------------------------------

    @property
    def state(self) -> CellState:
        return self.system.cells[self.cell_id]

    @property
    def is_target(self) -> bool:
        return self.cell_id == self.system.tid

    @property
    def failed(self) -> bool:
        return self.state.failed

    # ------------------------------------------------------------------
    # Sub-round 1: Route
    # ------------------------------------------------------------------

    def advert_route(self, link) -> None:
        """Sub-round 1 send: broadcast the current dist estimate."""
        if self.failed:
            return
        dist = None if self.state.dist == INFINITY else self.state.dist
        link.broadcast(
            self.cell_id,
            lambda dst: RouteAdvert(src=self.cell_id, dst=dst, dist=dist),
        )

    def on_route(self, inbox: Iterable[Message]) -> None:
        """Sub-round 1 compute: Route from received dists (silence = infinity)."""
        if self.failed or self.is_target:
            return
        # Missing adverts read as infinity — silence is failure.
        dists: Dict[CellId, float] = {
            nbr: INFINITY for nbr in self.grid.neighbors(self.cell_id)
        }
        for message in inbox:
            if isinstance(message, RouteAdvert):
                dists[message.src] = (
                    INFINITY if message.dist is None else message.dist
                )
        best = min(sorted(dists), key=lambda n: (dists[n], n))
        if dists[best] == INFINITY:
            self.state.dist = INFINITY
            self.state.next_id = None
        else:
            self.state.dist = dists[best] + 1.0
            self.state.next_id = best

    # ------------------------------------------------------------------
    # Sub-round 2: Signal
    # ------------------------------------------------------------------

    def advert_occupancy(self, link) -> None:
        """Sub-round 2 send: broadcast next pointer and occupancy flag."""
        if self.failed:
            return
        link.broadcast(
            self.cell_id,
            lambda dst: OccupancyAdvert(
                src=self.cell_id,
                dst=dst,
                next_id=self.state.next_id,
                nonempty=bool(self.state.members),
            ),
        )

    def on_occupancy(self, inbox: Iterable[Message]) -> None:
        """Sub-round 2 compute: NEPrev, token maintenance, and the grant."""
        if self.failed:
            return
        ne_prev = {
            message.src
            for message in inbox
            if isinstance(message, OccupancyAdvert)
            and message.next_id == self.cell_id
            and message.nonempty
        }
        state = self.state
        state.ne_prev = ne_prev
        if state.token is not None and state.token not in ne_prev:
            state.token = None
        if state.token is None:
            state.token = self.system.token_policy.initial(ne_prev)
        if state.token is None:
            state.signal = None
            return
        toward = direction_between(self.cell_id, state.token)
        if gap_clear(state, toward, self.params):
            state.signal = state.token
            state.token = self.system.token_policy.rotate(ne_prev, state.token)
        else:
            state.signal = None

    # ------------------------------------------------------------------
    # Sub-round 3: Move + transfers
    # ------------------------------------------------------------------

    def advert_grant(self, link) -> None:
        """Sub-round 3 send: broadcast the signal (grant) value."""
        if self.failed:
            return
        link.broadcast(
            self.cell_id,
            lambda dst: GrantAdvert(
                src=self.cell_id, dst=dst, signal=self.state.signal
            ),
        )

    def on_grant(
        self, inbox: Iterable[Message], link
    ) -> bool:
        """Apply Move if the next-hop's grant names this cell.

        Crossing entities leave the local membership immediately and ride
        an :class:`EntityTransferMessage`; returns True when the cell
        moved this round.
        """
        if self.failed or self.state.next_id is None or not self.state.members:
            return False
        nxt = self.state.next_id
        granted = any(
            isinstance(message, GrantAdvert)
            and message.src == nxt
            and message.signal == self.cell_id
            for message in inbox
        )
        if not granted:
            return False
        toward = direction_between(self.cell_id, nxt)
        for entity in self.state.entities():
            entity.translate(toward, self.params.v)
            if crossed_boundary(entity, self.cell_id, toward, self.params.half_l):
                self.state.remove_entity(entity.uid)
                link.send(
                    EntityTransferMessage(
                        src=self.cell_id,
                        dst=nxt,
                        uid=entity.uid,
                        position=(entity.x, entity.y),
                        birth_round=entity.birth_round,
                    )
                )
        return True

    def on_transfers(self, inbox: Iterable[Message]) -> List[Entity]:
        """Accept handed-over entities; the target consumes them.

        Returns the entities consumed this round (empty for non-targets).
        A crashed receiver ignores its mailbox — but the protocol
        guarantees nothing is ever sent to one (no grant, no movement
        toward it), which the runtime asserts.
        """
        consumed: List[Entity] = []
        for message in inbox:
            if not isinstance(message, EntityTransferMessage):
                continue
            if self.failed:
                raise AssertionError(
                    f"entity {message.uid} was transferred into crashed cell "
                    f"{self.cell_id} — protocol violation"
                )
            entity = Entity(
                uid=message.uid,
                x=message.position[0],
                y=message.position[1],
                birth_round=message.birth_round,
                side=self.params.l,
            )
            if self.is_target:
                consumed.append(entity)
                continue
            toward = direction_between(message.src, self.cell_id)
            entity.snap_to_entry_edge(self.cell_id, toward, self.params.half_l)
            self.state.add_entity(entity)
        return consumed
