"""XFER — coordinator-driven state transfer to joiners (Section 9).

"It is straightforward to implement replicated data ... a member that
joins mid-life receives a snapshot from the coordinator (the paper's
'joining a group and obtaining its state') before applying updates."
This layer generalizes the piggyback logic that used to live privately
in :mod:`repro.toolkit.replicated_data` into a stackable protocol:

* the application (or toolkit client) binds a ``provider`` (serialize
  my state) and an ``installer`` (adopt an authoritative state) via
  :meth:`StateTransferLayer.bind`;
* on every view with more than one member, a *synced* coordinator
  streams ``(snapshot_epoch, chunks…, done)`` as subset sends to the
  other members — only unsynced joiners act on it;
* a joiner buffers ordered application traffic until the snapshot
  lands, installs it, then flushes the buffer in order, so the app
  never sees an update against pre-transfer state mid-view.

Founders (first view of size one) are trivially synced.  A member that
finds itself alone while unsynced becomes synced with its local state —
there is nobody left to transfer from, which is exactly the
total-failure case the store WAL covers (the first re-joiner founds a
singleton view and serves everyone else).

When a view gains members, every synced non-coordinator also re-syncs
from the coordinator's stream.  Virtual synchrony keeps the members of
one *continuing* component identical, but a merge joins components
whose states may have drifted (a node isolated in a minority still
applies its own casts), and the layer cannot distinguish a fresh
joiner from a returning component — so the coordinator's state wins
for everyone.  This trades some redundant streaming on plain joins for
guaranteed post-merge convergence.

Sits at the top of the stack, above TOTAL/MBRSHIP.  Requires virtual
synchrony below (Table 3 row: requires P3, P4, P8, P9, P10, P11, P12,
P15; provides nothing — state transfer is a service, not a delivery
property).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.core.view import View

_BEGIN = 0  # snapshot announcement: epoch, chunk count, total bytes
_CHUNK = 1  # one chunk: index, body = chunk bytes
_DONE = 2  # end of stream: install and flush

hdr.register(
    "XFER", wire_id=26,
    fields=[
        ("kind", hdr.U8),
        ("epoch", hdr.U32),
        ("index", hdr.U32),
        ("count", hdr.U32),
        ("total", hdr.U32),
    ],
    defaults={"epoch": 0, "index": 0, "count": 0, "total": 0},
)


class _Assembly:
    """One in-flight incoming snapshot stream."""

    __slots__ = ("epoch", "count", "total", "chunks", "started")

    def __init__(self, epoch: int, count: int, total: int, started: float) -> None:
        self.epoch = epoch
        self.count = count
        self.total = total
        self.chunks: Dict[int, bytes] = {}
        self.started = started

    def complete(self) -> bool:
        return len(self.chunks) == self.count

    def state(self) -> bytes:
        return b"".join(self.chunks[i] for i in range(self.count))


@register_layer
class StateTransferLayer(Layer):
    """State transfer: snapshot streaming to joiners, buffered catch-up.

    Config:
        chunk_size (int): snapshot chunk payload size (default 1024).
        ack ("enqueue" | "durable"): when a joiner counts an installed
            snapshot as synced.  ``enqueue`` (default) syncs as soon as
            the installer returns.  ``durable`` inspects the
            installer's return value: when it is ticket-like (a
            :class:`~repro.store.CommitTicket` — has ``done()`` and
            ``add_done_callback``), the member stays unsynced and keeps
            buffering until the ticket completes, i.e. until the
            installed snapshot is on stable storage.

    Application surface (via ``handle.focus("XFER")``):
        :meth:`bind` — install the provider/installer callbacks;
        :attr:`synced` — whether this member holds authoritative state.
    """

    name = "XFER"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.chunk_size = int(config.get("chunk_size", 1024))
        self.ack = str(config.get("ack", "enqueue"))
        if self.ack not in ("enqueue", "durable"):
            raise ValueError(f"unknown XFER ack mode {self.ack!r}")
        #: Serialize local state for a joiner; bound by the client.
        self.provider: Optional[Callable[[], bytes]] = None
        #: Adopt an authoritative state at an epoch; bound by the client.
        self.installer: Optional[Callable[[bytes, int], None]] = None
        self._synced: Optional[bool] = None  # unknown until the first view
        self._buffer: List[Upcall] = []
        self._assembly: Optional[_Assembly] = None
        self._view: Optional[View] = None
        #: Bumped on every view change; a deferred durable-install sync
        #: from a superseded view must not fire (the coordinator will
        #: re-stream in the new view).
        self._sync_generation = 0
        self.snapshots_sent = 0
        self.snapshots_installed = 0
        self.resyncs = 0

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def bind(
        self,
        provider: Optional[Callable[[], bytes]] = None,
        installer: Optional[Callable[[bytes, int], None]] = None,
    ) -> None:
        """Install the state callbacks (either may be ``None``)."""
        if provider is not None:
            self.provider = provider
        if installer is not None:
            self.installer = installer

    @property
    def synced(self) -> bool:
        """Whether this member holds the group's authoritative state."""
        return bool(self._synced)

    # ------------------------------------------------------------------
    # Upcalls
    # ------------------------------------------------------------------

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self._on_view(upcall)
            return
        if upcall.type in (UpcallType.CAST, UpcallType.SEND) and upcall.message:
            header = upcall.message.peek_header(self.name)
            if header is not None:
                upcall.message.pop_header(self.name)
                self._on_control(header, upcall)
                return
            if self._synced is False:
                self._buffer.append(upcall)
                return
        self.pass_up(upcall)

    def _on_view(self, upcall: Upcall) -> None:
        view = upcall.view
        # Attribute anything still buffered to the view it arrived in —
        # the verify checkers group deliveries by view, and a flush
        # after the new view installs would misfile them.
        self._flush_buffer()
        previous, self._view = self._view, view
        if self._synced is None:
            # First view: a singleton founder holds the state trivially;
            # a joiner must wait for the coordinator's snapshot.
            self._synced = view.size == 1
        elif not self._synced and view.size == 1:
            # Alone and unsynced: nobody left to transfer from.  Local
            # (WAL-replayed) state *is* the group state now — the
            # total-failure recovery case.
            self._become_synced()
        elif (
            self._synced
            and view.size > 1
            and view.coordinator != self.endpoint
            and previous is not None
            and (
                set(view.members) - set(previous.members)
                or view.view_id.epoch > previous.view_id.epoch + 1
            )
        ):
            # The view gained members this stack has not seen, or the
            # epoch sequence has a gap (this member missed views — it
            # sat outside the primary component).  Virtual synchrony
            # makes members of one *continuing* component identical,
            # but says nothing across a merge — and from here a plain
            # joiner is indistinguishable from a component that wrote
            # while partitioned away.  Adopt the coordinator's state:
            # unsynced until its stream lands.
            self._synced = False
            self.resyncs += 1
            self._count("xfer_resyncs_total",
                        "Members re-syncing after a merge or missed view")
        # A view change invalidates any half-assembled stream; the
        # coordinator re-streams in the new view.
        self._assembly = None
        self._sync_generation += 1
        self.pass_up(upcall)
        if self._synced and view.coordinator == self.endpoint and view.size > 1:
            self._stream_snapshot(view)

    # ------------------------------------------------------------------
    # Coordinator side: streaming
    # ------------------------------------------------------------------

    def _stream_snapshot(self, view: View) -> None:
        state = self.provider() if self.provider is not None else b""
        epoch = view.view_id.epoch
        others = [m for m in view.members if m != self.endpoint]
        chunks = [
            state[i:i + self.chunk_size]
            for i in range(0, len(state), self.chunk_size)
        ]
        self.snapshots_sent += 1
        self._count("xfer_snapshots_sent_total",
                    "Snapshot streams sent by coordinators")
        self._send(others, {"kind": _BEGIN, "epoch": epoch,
                            "count": len(chunks), "total": len(state)})
        for index, chunk in enumerate(chunks):
            self._send(others, {"kind": _CHUNK, "epoch": epoch,
                                "index": index}, body=chunk)
            self._count("xfer_chunks_sent_total",
                        "Snapshot chunks sent by coordinators")
        self._send(others, {"kind": _DONE, "epoch": epoch})
        self.trace("xfer_stream", epoch=epoch, chunks=len(chunks),
                   bytes=len(state), to=len(others))

    def _send(self, members, fields: Dict[str, Any], body: bytes = b"") -> None:
        message = Message(body)
        message.push_header(self.name, fields)
        self.pass_down(
            Downcall(DowncallType.SEND, message=message, members=list(members))
        )

    # ------------------------------------------------------------------
    # Joiner side: assembly
    # ------------------------------------------------------------------

    def _on_control(self, header: Dict[str, Any], upcall: Upcall) -> None:
        if self._synced:
            return  # synced members ignore snapshot streams
        kind = header["kind"]
        if kind == _BEGIN:
            self._assembly = _Assembly(
                epoch=header["epoch"], count=header["count"],
                total=header["total"], started=self.now,
            )
            return
        assembly = self._assembly
        if assembly is None or header["epoch"] != assembly.epoch:
            return  # stale stream from a superseded view
        if kind == _CHUNK:
            assembly.chunks[header["index"]] = (
                upcall.message.body_bytes() if upcall.message else b""
            )
        elif kind == _DONE and assembly.complete():
            state = assembly.state()
            ticket = None
            if self.installer is not None:
                ticket = self.installer(state, assembly.epoch)
            self.snapshots_installed += 1
            self._count("xfer_snapshots_installed_total",
                        "Snapshots installed by joiners")
            if self.context.metrics is not None:
                self.context.metrics.histogram(
                    "xfer_transfer_seconds",
                    "Snapshot transfer duration, BEGIN to install",
                ).observe(max(0.0, self.now - assembly.started))
            self.trace("xfer_install", epoch=assembly.epoch,
                       bytes=len(state))
            self._assembly = None
            if (
                self.ack == "durable"
                and callable(getattr(ticket, "done", None))
                and callable(getattr(ticket, "add_done_callback", None))
                and not ticket.done()
            ):
                # Stay unsynced (keep buffering) until the installed
                # snapshot is on stable storage; a view change in the
                # meantime supersedes this install.
                generation = self._sync_generation
                self._count("xfer_durable_acks_total",
                            "Installs whose sync waited for durability")

                def _on_durable(_ticket, self=self, generation=generation):
                    if (
                        self._sync_generation == generation
                        and self._synced is False
                    ):
                        self._become_synced()

                ticket.add_done_callback(partial(self._enter, _on_durable))
                return
            self._become_synced()

    def _become_synced(self) -> None:
        self._synced = True
        self._flush_buffer()

    def _flush_buffer(self) -> None:
        if not self._buffer:
            return
        buffered, self._buffer = self._buffer, []
        for upcall in buffered:
            self.pass_up(upcall)

    def _count(self, name: str, help_text: str) -> None:
        if self.context.metrics is not None:
            self.context.metrics.counter(name, help_text).inc()

    def dump(self):
        info = super().dump()
        info.update(
            synced=self.synced,
            buffered=len(self._buffer),
            snapshots_sent=self.snapshots_sent,
            snapshots_installed=self.snapshots_installed,
            resyncs=self.resyncs,
        )
        return info
