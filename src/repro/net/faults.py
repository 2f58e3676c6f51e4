"""Fault models: how the network misbehaves.

The Horus base class of protocols assumes only "best-effort byte
delivery ... messages may be delayed, lost, or garbled" (Section 2).
A :class:`FaultModel` quantifies each misbehaviour so tests and
benchmarks can dial the environment from pristine ATM to a hostile
internet path, and so hypothesis can drive the layers through random
fault schedules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple


@dataclass
class FaultModel:
    """Stochastic description of a network path.

    Attributes:
        base_delay: fixed one-way latency in seconds.
        jitter: maximum extra uniformly-random latency in seconds.
            Jitter alone causes reordering between packets.
        loss_rate: probability a packet is silently dropped.
        duplicate_rate: probability a packet is delivered twice.
        garble_rate: probability a delivered packet's payload is
            corrupted (one byte flipped).
        reorder_rate: probability a packet is held back an extra
            ``reorder_delay`` seconds, forcing it behind later traffic.
        reorder_delay: the hold-back applied to reordered packets.
    """

    base_delay: float = 0.001
    jitter: float = 0.0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    garble_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_delay: float = 0.005

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "garble_rate", "reorder_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")
        if self.base_delay < 0 or self.jitter < 0 or self.reorder_delay < 0:
            raise ValueError("delays must be non-negative")

    def plan_deliveries(
        self, rng: random.Random, payload: bytes, extra_delay: float = 0.0
    ) -> List[Tuple[float, bytes, bool]]:
        """Decide the fate of one packet.

        Returns a list of ``(delay, payload, garbled)`` tuples — empty if
        the packet is lost, length two if duplicated.  ``extra_delay`` is
        what this packet adds to ``base_delay`` (a medium's serialization
        time); the model itself is shared and never mutated.  The payload
        in a garbled delivery has exactly one byte flipped; garbling
        never changes the payload length, so a fixed-size frame stays a
        fixed-size frame.  An empty payload carries no bytes to corrupt
        and is delivered intact (``garbled=False``) — it used to come
        back as a fabricated ``b"\\xff"``, which no checksum layer could
        have vouched for because the original content was never sent.
        """
        if rng.random() < self.loss_rate:
            return []
        copies = 2 if rng.random() < self.duplicate_rate else 1
        deliveries: List[Tuple[float, bytes, bool]] = []
        for _ in range(copies):
            delay = self.base_delay + extra_delay
            if self.jitter > 0:
                delay += rng.random() * self.jitter
            if self.reorder_rate > 0 and rng.random() < self.reorder_rate:
                delay += self.reorder_delay
            data = payload
            garbled = False
            if self.garble_rate > 0 and rng.random() < self.garble_rate:
                if payload:
                    data = _flip_byte(rng, payload)
                    garbled = True
            deliveries.append((delay, data, garbled))
        return deliveries

    @classmethod
    def perfect(cls, base_delay: float = 0.001) -> "FaultModel":
        """A loss-free, in-order, uncorrupted path (useful in unit tests)."""
        return cls(base_delay=base_delay)

    @classmethod
    def lossy(
        cls,
        loss_rate: float = 0.05,
        base_delay: float = 0.005,
        jitter: float = 0.002,
    ) -> "FaultModel":
        """A typical mildly hostile datagram path."""
        return cls(base_delay=base_delay, jitter=jitter, loss_rate=loss_rate)


def _flip_byte(rng: random.Random, payload: bytes) -> bytes:
    """Return ``payload`` with exactly one byte XOR-flipped (same length).

    Empty payloads come back unchanged — there is nothing to corrupt,
    and fabricating bytes would change the packet length, which line
    garbling (as opposed to truncation) never does.
    """
    if not payload:
        return payload
    index = rng.randrange(len(payload))
    flipped = payload[index] ^ 0xFF
    return payload[:index] + bytes([flipped]) + payload[index + 1 :]
