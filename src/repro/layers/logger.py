"""LOGGER — message logging (Figure 1: "tolerance of total crash failures").

Records every delivered message and every installed view to a durable
journal.  When the world carries a store domain
(:attr:`~repro.core.layer.LayerContext.store` — both worlds do by
default), the journal is backed by a :class:`~repro.store.DurableStore`
write-ahead log keyed by ``(node, "logger.<group>")``, which survives
crash and ``stateful=True`` recovery on *both* substrates: after a
total failure — every member crashed — a new generation of processes
replays a member's journal to reconstruct the group's final state,
which is exactly why Figure 1 lists logging as a protocol type.  On a
bare context (no store domain) the journal is memory-only, as before.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Deque, List, Optional, Tuple

from repro.core.events import Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.stack import register_layer
from repro.net.address import EndpointAddress


@dataclass(frozen=True)
class LogEntry:
    """One journaled event: a delivery or a view installation."""

    kind: str  # "deliver" | "view"
    time: float
    source: Optional[EndpointAddress] = None
    body: bytes = b""
    view_members: tuple = ()
    view_epoch: int = 0
    #: True for entries reconstructed from the WAL of a previous
    #: incarnation (their ``time`` is the old incarnation's clock).
    recovered: bool = False

    def encode(self) -> bytes:
        """WAL record form; inverse of :meth:`decode`."""
        return json.dumps({
            "kind": self.kind,
            "time": self.time,
            "source": str(self.source) if self.source is not None else None,
            "body": self.body.hex(),
            "view_members": list(self.view_members),
            "view_epoch": self.view_epoch,
        }, sort_keys=True).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes) -> "LogEntry":
        """Rebuild an entry from its WAL record."""
        raw = json.loads(data.decode("utf-8"))
        source = raw.get("source")
        return cls(
            kind=raw["kind"],
            time=float(raw["time"]),
            source=(EndpointAddress.unmarshal(source.encode("utf-8"))
                    if source else None),
            body=bytes.fromhex(raw.get("body", "")),
            view_members=tuple(raw.get("view_members", ())),
            view_epoch=int(raw.get("view_epoch", 0)),
            recovered=True,
        )


@register_layer
class LoggingLayer(Layer):
    """Journals deliveries and views on the way up (transparent otherwise).

    Config:
        capacity (int): maximum retained entries, oldest evicted
            (default 100000).
        durable (bool): back the journal with the world's store domain
            when one is present (default True; a no-op on bare
            contexts).  The WAL is keyed by ``(node, "logger.<group>")``
            so a re-incarnated process finds its own journal.
        durability (str | DurabilityPolicy): the store's durability
            policy — ``fsync_per_record`` (default) or ``group`` (see
            :mod:`repro.store.policy`).
        ack ("enqueue" | "durable"): when to pass a journaled upcall on
            up the stack.  ``enqueue`` (default) passes it immediately —
            under a relaxed ``durability`` a crash may lose the journal
            entry for an already-delivered message.  ``durable`` holds
            each journaled upcall until its commit ticket completes and
            releases them in journal (FIFO) order — delivery implies
            the journal entry survives any crash.
    """

    name = "LOGGER"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.capacity = int(config.get("capacity", 100_000))
        self.ack = str(config.get("ack", "enqueue"))
        if self.ack not in ("enqueue", "durable"):
            raise ValueError(f"unknown LOGGER ack mode {self.ack!r}")
        self.journal: List[LogEntry] = []
        self.store = None
        #: Upcalls awaiting their journal entry's durability (ack=durable
        #: with a relaxed policy); released strictly in journal order.
        self._held: Deque[Tuple[Upcall, Any]] = deque()
        #: Entries reconstructed from a previous incarnation's WAL.
        self.recovered_entries = 0
        if bool(config.get("durable", True)) and context.store is not None:
            self.store = context.store.store(
                context.endpoint.node, f"logger.{context.group}",
                policy=config.get("durability"),
            )
            replayed = self.store.replay()
            for record in replayed.entries:
                try:
                    self.journal.append(LogEntry.decode(record))
                except (ValueError, KeyError):
                    continue  # foreign or damaged record; skip, never crash
            self.recovered_entries = len(self.journal)

    def handle_up(self, upcall: Upcall) -> None:
        entry = None
        if upcall.type in (UpcallType.CAST, UpcallType.SEND) and upcall.message:
            entry = LogEntry(
                kind="deliver",
                time=self.now,
                source=upcall.source,
                body=upcall.message.body_bytes(),
            )
        elif upcall.type is UpcallType.VIEW and upcall.view is not None:
            entry = LogEntry(
                kind="view",
                time=self.now,
                view_members=tuple(str(m) for m in upcall.view.members),
                view_epoch=upcall.view.view_id.epoch,
            )
        if entry is None:
            self.pass_up(upcall)
            return
        ticket = self._append(entry)
        if self.ack == "durable" and ticket is not None:
            # Hold behind the commit: the upcall goes up only once the
            # journal entry is on stable storage, in journal order.
            self._held.append((upcall, ticket))
            ticket.add_done_callback(partial(self._enter, self._release_durable))
            return
        self.pass_up(upcall)

    def _release_durable(self, _ticket=None) -> None:
        """Pass held upcalls up, strictly FIFO: a later record's flush
        can complete a whole batch at once, but nothing jumps an
        earlier record that is still pending."""
        while self._held and self._held[0][1].done():
            upcall, _ = self._held.popleft()
            self.pass_up(upcall)

    def _append(self, entry: LogEntry):
        self.journal.append(entry)
        ticket = None
        if self.store is not None:
            ticket = self.store.append(entry.encode())
        if len(self.journal) > self.capacity:
            del self.journal[: len(self.journal) - self.capacity]
        return ticket

    def replay(self, kind: Optional[str] = None) -> List[LogEntry]:
        """The journal (optionally filtered), oldest first — the recovery
        input after a total crash failure."""
        if kind is None:
            return list(self.journal)
        return [e for e in self.journal if e.kind == kind]

    def dump(self):
        info = super().dump()
        info.update(
            journal_entries=len(self.journal),
            deliveries=sum(1 for e in self.journal if e.kind == "deliver"),
            views=sum(1 for e in self.journal if e.kind == "view"),
            durable=self.store is not None,
            ack=self.ack,
            held_upcalls=len(self._held),
            recovered_entries=self.recovered_entries,
        )
        return info


@register_layer
class TracerLayer(Layer):
    """TRACER — per-event tracing for "debugging, statistics" (Figure 1).

    Transparent: counts every event type crossing in each direction and
    (optionally) records them to the world trace.

    Config:
        record (bool): also write each crossing to the trace recorder
            (default False; counting alone is nearly free).
    """

    name = "TRACER"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.record = bool(config.get("record", False))
        self.down_counts: dict = {}
        self.up_counts: dict = {}

    def handle_down(self, downcall) -> None:
        key = downcall.type.name
        self.down_counts[key] = self.down_counts.get(key, 0) + 1
        if self.record:
            self.trace("tracer_down", event=key)
        self.pass_down(downcall)

    def handle_up(self, upcall) -> None:
        key = upcall.type.name
        self.up_counts[key] = self.up_counts.get(key, 0) + 1
        if self.record:
            self.trace("tracer_up", event=key)
        self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(down_counts=dict(self.down_counts), up_counts=dict(self.up_counts))
        return info


@register_layer
class AccountingLayer(Layer):
    """ACCOUNT — usage accounting (Figure 1: "keeping track of usage").

    Transparent: meters messages and bytes per direction and per remote
    source, the raw material for billing or quota enforcement.
    """

    name = "ACCOUNT"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.sent_messages = 0
        self.sent_bytes = 0
        self.received_messages = 0
        self.received_bytes = 0
        self.per_source: dict = {}

    def handle_down(self, downcall) -> None:
        if downcall.message is not None:
            self.sent_messages += 1
            self.sent_bytes += downcall.message.body_size
        self.pass_down(downcall)

    def handle_up(self, upcall) -> None:
        if upcall.message is not None and upcall.source is not None:
            self.received_messages += 1
            size = upcall.message.body_size
            self.received_bytes += size
            key = str(upcall.source)
            messages, total = self.per_source.get(key, (0, 0))
            self.per_source[key] = (messages + 1, total + size)
        self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(
            sent_messages=self.sent_messages,
            sent_bytes=self.sent_bytes,
            received_messages=self.received_messages,
            received_bytes=self.received_bytes,
            per_source=dict(self.per_source),
        )
        return info
