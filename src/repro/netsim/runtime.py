"""The ``timed`` round engine: the paper's advert round over messages.

The paper realizes ``System``'s shared variables by having every cell
broadcast them to its neighbors each round, with "messages delivered
within bounded time" (Section II-B). :class:`TimedEngine` runs exactly
that, over the driving :class:`~repro.core.system.System`'s own state:
cells, source policies, rng, ``tid`` and counters are read and written
in place, never mirrored. All cells share a clock and *turn* once per
time unit (the round period); one paper round is four turns:

====  ==========================================================
turn  action (consume what arrived, compute, send)
====  ==========================================================
A     send RouteAdverts
B     consume RouteAdverts -> Route; send OccupancyAdverts
C     consume OccupancyAdverts -> Signal; send GrantAdverts
D     consume GrantAdverts -> Move; send EntityTransferMessages
E     (= next round's A) transfers land; sources produce
====  ==========================================================

``System``'s phase hook fires after B (``route``), C (``signal``), E's
landing (``move``) and production (``produce``), so the monitors, the
profiler and traced spans see the same four boundaries as on every
other engine.

Every message's latency comes from a
:class:`~repro.netsim.delay.DelayModel`, which is how one engine covers
three networks:

* **synchronous** — the default ``FixedDelay(0.5)``. Any latency of at
  most one period lands before the turn that consumes it, so the run is
  *state-identical* to the shared-variable round (the bisimulation
  tests and the ``async-equivalence`` fuzz oracle check this);
* **jitter** — ``UniformDelay``/``HeavyTailDelay``. An advert landing
  after its consuming turn is stale: it is discarded and counted in
  ``late_adverts``, and its absence reads conservatively;
* **loss** — ``LossyDelay``. A dropped advert (latency ``inf``) is
  counted in ``dropped`` and never scheduled.

Entity transfers are physical hand-offs, not soft state: their latency
is clamped inside the period, so matter is never dropped or delayed.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.core.entity import Entity
from repro.core.move import MovePhaseReport, Transfer
from repro.core.route import RoutePhaseReport
from repro.core.signal import SignalPhaseReport
from repro.core.system import RoundReport, System
from repro.grid.topology import CellId
from repro.netsim.delay import DelayModel, FixedDelay, UniformDelay
from repro.netsim.eventsim import EventScheduler
from repro.netsim.message import EntityTransferMessage, Message
from repro.netsim.process import CellProcess
from repro.sim.engine import RoundEngine
from repro.sim.seeding import derive_rng

#: Transfers land strictly inside the period they were sent in.
_TRANSFER_CLAMP = 0.99


class TimedEngine(RoundEngine):
    """Run each round as four timed turns of message passing.

    ``delay_model`` defaults to ``Uniform(0, config.jitter)`` when the
    run's config sets a jitter, else ``FixedDelay(0.5)``; ``delay_rng``
    defaults to the config seed's ``"delay"`` stream.
    """

    name = "timed"

    def __init__(
        self,
        system: System,
        config=None,
        delay_model: Optional[DelayModel] = None,
        delay_rng: Optional[random.Random] = None,
    ):
        super().__init__(system, config)
        if delay_model is None:
            jitter = float(getattr(config, "jitter", 0.0) or 0.0)
            delay_model = UniformDelay(0.0, jitter) if jitter > 0.0 else FixedDelay(0.5)
        if delay_rng is None:
            delay_rng = derive_rng(int(getattr(config, "seed", 0) or 0), "delay")
        self.delay_model = delay_model
        self.delay_rng = delay_rng
        self.scheduler = EventScheduler()
        self.processes: Dict[CellId, CellProcess] = {
            cid: CellProcess(system, cid) for cid in system.grid.cells()
        }
        self._neighbors: Dict[CellId, Tuple[CellId, ...]] = {
            cid: tuple(system.grid.neighbors(cid)) for cid in self.processes
        }
        #: Delivered, not yet consumed messages of the current turn.
        self._inboxes: Dict[CellId, List[Message]] = {}
        #: Latest arrival time at which a message sent this turn still counts.
        self._deadline = 1.0
        self.sent_by_type: Dict[str, int] = {}
        self.suppressed_from_crashed = 0
        self.dropped = 0
        self.late_adverts = 0

    @property
    def messages_sent(self) -> int:
        """Messages put on the wire by live senders (dropped ones included)."""
        return sum(self.sent_by_type.values())

    # ------------------------------------------------------------------
    # The link: the single send path
    # ------------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Put ``message`` on the wire toward its (adjacent) destination.

        Raises on non-neighbor destinations — the protocol only ever
        talks to adjacent cells, so one means a bug. A crashed sender
        never communicates.
        """
        if message.dst not in self._neighbors.get(message.src, ()):
            raise ValueError(f"message from {message.src} to non-neighbor {message.dst}")
        if self.system.cells[message.src].failed:
            self.suppressed_from_crashed += 1
            return
        name = type(message).__name__
        self.sent_by_type[name] = self.sent_by_type.get(name, 0) + 1
        delay = self.delay_model.sample(message, self.delay_rng)
        if isinstance(message, EntityTransferMessage):
            delay = min(delay, _TRANSFER_CLAMP)
        elif delay == math.inf:
            self.dropped += 1
            return
        arrival = self.scheduler.now + delay
        deadline = self._deadline

        def deliver() -> None:
            if arrival > deadline + 1e-12:
                # Stale: the consuming turn has passed. Absence reads
                # conservatively, so discarding is safe.
                self.late_adverts += 1
                return
            self._inboxes.setdefault(message.dst, []).append(message)

        self.scheduler.schedule_at(arrival, deliver)

    def broadcast(self, src: CellId, make_message) -> None:
        """Send ``make_message(dst)`` to every lattice neighbor of ``src``."""
        for dst in self._neighbors[src]:
            self.send(make_message(dst))

    def receive(self, cid: CellId) -> List[Message]:
        """Take ``cid``'s delivered messages, in (sender, type) order."""
        messages = self._inboxes.pop(cid, [])
        messages.sort(key=lambda m: (m.src, type(m).__name__))
        return messages

    # ------------------------------------------------------------------
    # The round
    # ------------------------------------------------------------------

    def _turn(self, time: float) -> None:
        """Deliver everything due by ``time``; sends now count until the next turn."""
        self.scheduler.run_until(time)
        self._deadline = time + 1.0

    def step(self) -> RoundReport:
        system = self.system
        processes = self.processes
        base = 4.0 * system.round_index
        # Failed cells neither send nor compute; fail/recover happen
        # between rounds, so the live set is fixed for the round.
        live = [processes[cid] for cid, state in system.cells.items() if not state.failed]

        self._turn(base)  # A
        for process in live:
            process.advert_route(self)

        self._turn(base + 1.0)  # B
        for process in live:
            process.on_route(self.receive(process.cell_id))
        system._notify_phase("route")
        for process in live:
            process.advert_occupancy(self)

        self._turn(base + 2.0)  # C
        for process in live:
            process.on_occupancy(self.receive(process.cell_id))
        system._notify_phase("signal")
        for process in live:
            process.advert_grant(self)

        self._turn(base + 3.0)  # D
        moved: List[CellId] = []
        for process in live:
            if process.on_grant(self.receive(process.cell_id), self):
                moved.append(process.cell_id)

        self._turn(base + 4.0)  # E
        transfers: List[Transfer] = []
        consumed: List[Entity] = []
        for cid, process in processes.items():
            if cid not in self._inboxes:
                continue
            inbox = self.receive(cid)
            transfers.extend(
                Transfer(uid=m.uid, src=m.src, dst=cid, consumed=process.is_target)
                for m in inbox
                if isinstance(m, EntityTransferMessage)
            )
            consumed.extend(process.on_transfers(inbox))
        system._notify_phase("move")
        system.total_consumed += len(consumed)
        produced = system._produce()
        system._notify_phase("produce")
        report = RoundReport(
            round_index=system.round_index,
            # Route and Signal happen message by message inside the
            # processes; there is no global sweep to report on.
            route=RoutePhaseReport(),
            signal=SignalPhaseReport(),
            move=MovePhaseReport(moved_cells=moved, transfers=transfers, consumed=consumed),
            produced=produced,
        )
        system.round_index += 1
        return report
