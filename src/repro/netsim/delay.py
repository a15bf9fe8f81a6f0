"""Per-message network latency models."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.netsim.message import EntityTransferMessage, Message


class DelayModel:
    """Interface: sample the latency of one message."""

    def sample(self, message: Message, rng: random.Random) -> float:
        """Draw this message's latency."""
        raise NotImplementedError

    @property
    def bound(self) -> float:
        """An upper bound on any sampled delay (the protocol's Delta)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedDelay(DelayModel):
    """Every message takes exactly ``delay`` time units."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be nonnegative, got {self.delay}")

    def sample(self, message: Message, rng: random.Random) -> float:
        return self.delay

    @property
    def bound(self) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Latency uniform in ``[lo, hi]`` — jitter without reordering bias.

    Distinct messages get independent samples, so two messages on the
    same link may be reordered, which the timed-round synchronizer must
    (and does) tolerate.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi:
            raise ValueError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")

    def sample(self, message: Message, rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)

    @property
    def bound(self) -> float:
        return self.hi


@dataclass(frozen=True)
class HeavyTailDelay(DelayModel):
    """Mostly fast, occasionally (probability ``tail_p``) very slow.

    ``bound`` reports the *nominal* bound ``hi`` — tail samples exceed
    it deliberately, modeling a network whose engineered delay bound is
    occasionally violated. Used by the late-delivery degradation tests.
    """

    lo: float
    hi: float
    tail_p: float
    tail_factor: float = 5.0

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi:
            raise ValueError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if not 0 <= self.tail_p <= 1:
            raise ValueError(f"tail_p must be a probability, got {self.tail_p}")

    def sample(self, message: Message, rng: random.Random) -> float:
        base = rng.uniform(self.lo, self.hi)
        if rng.random() < self.tail_p:
            return base * self.tail_factor
        return base

    @property
    def bound(self) -> float:
        return self.hi


@dataclass(frozen=True)
class LossyDelay(DelayModel):
    """Drop each advert with probability ``drop``; the rest take half a period.

    The paper assumes reliable delivery, yet the protocol reads every
    advert's *absence* conservatively: a missing ``RouteAdvert`` is
    ``dist = infinity`` (at worst a detour), a missing
    ``OccupancyAdvert`` keeps the sender out of ``NEPrev`` (at worst it
    waits a round), and a missing ``GrantAdvert`` is no permission (at
    worst nobody moves). So advert loss can only cost throughput, never
    safety.

    A dropped advert never arrives: :meth:`sample` returns ``math.inf``
    and the engine counts it as dropped instead of scheduling it.
    ``EntityTransferMessage`` is exempt — it is the bookkeeping of a
    physical hand-off, and dropping it would make matter vanish. Exactly
    one ``rng.random()`` is drawn per advert and none per transfer.
    """

    drop: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {self.drop}")

    def sample(self, message: Message, rng: random.Random) -> float:
        if not isinstance(message, EntityTransferMessage) and rng.random() < self.drop:
            return math.inf
        return 0.5

    @property
    def bound(self) -> float:
        return 0.5
