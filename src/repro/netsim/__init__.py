"""Message-passing realization of the protocol.

The paper models ``System`` with shared variables but explains the
intended implementation: "at the beginning of each round, Cell_{i,j}
broadcasts messages containing the values of these variables and
receives similar values from its neighbors" (Section II-B), with
messages "delivered within bounded time". This package builds that
implementation for real:

* :mod:`repro.netsim.message` — the wire messages: per-phase state
  adverts and entity-transfer messages.
* :mod:`repro.netsim.process` — a per-cell process that runs the
  protocol using *only* messages and its cell's variables.
* :mod:`repro.netsim.eventsim` — a deterministic discrete-event
  scheduler.
* :mod:`repro.netsim.delay` — per-message latency models (fixed,
  uniform jitter, heavy tail, and loss), seeded and reproducible.
* :mod:`repro.netsim.runtime` — :class:`TimedEngine`, the ``timed``
  round engine: one paper round as four timed turns of broadcasts over
  a ``System``'s own state.

Under any delay model bounded by one round period the engine is
state-identical to the shared-variable
:class:`repro.core.system.System` round: ``tests/test_netsim.py`` and
``tests/test_asyncnet.py`` run both side by side under identical fault
schedules and compare state after every round.
"""

from repro.netsim.delay import (
    DelayModel,
    FixedDelay,
    HeavyTailDelay,
    LossyDelay,
    UniformDelay,
)
from repro.netsim.eventsim import EventScheduler
from repro.netsim.message import (
    EntityTransferMessage,
    GrantAdvert,
    Message,
    OccupancyAdvert,
    RouteAdvert,
)
from repro.netsim.process import CellProcess
from repro.netsim.runtime import TimedEngine

__all__ = [
    "CellProcess",
    "DelayModel",
    "EntityTransferMessage",
    "EventScheduler",
    "FixedDelay",
    "GrantAdvert",
    "HeavyTailDelay",
    "LossyDelay",
    "Message",
    "OccupancyAdvert",
    "RouteAdvert",
    "TimedEngine",
    "UniformDelay",
]
