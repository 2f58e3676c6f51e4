"""COM — the bottom-most layer: network ↔ HCPI adapter.

Section 7: "The COM layer translates the low-level network interface
into the Common Protocol Interface.  If necessary, COM keeps track of
the source of messages (by pushing the address of the source endpoint
on each outgoing message), and filters out spurious messages from
endpoints not in its view."

Properties (Table 3): requires P1 from the network; provides P10 (byte
re-ordering detection — the wire format is self-describing, so a
reassembled/NAK layer above can trust field boundaries) and P11 (source
address).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.core.view import View, ViewId
from repro.errors import MessageError
from repro.net.address import EndpointAddress

_KIND_CAST = 0
_KIND_SEND = 1

hdr.register(
    "COM", wire_id=5,
    fields=[
        ("group", hdr.GROUP),
        ("source", hdr.ADDRESS),
        ("kind", hdr.U8),
    ],
)


@register_layer
class ComLayer(Layer):
    """Bottom adapter between the stack and a simulated network.

    Config:
        filter_sources (bool): drop incoming messages whose source is
            not in the installed destination view (default ``False`` —
            membership layers do their own, stronger filtering).
    """

    name = "COM"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.filter_sources = bool(config.get("filter_sources", False))
        #: Current destination set for casts (the "view" at this level).
        self.dests: List[EndpointAddress] = []
        self._remote: List[EndpointAddress] = []
        self._self_in_dests = False
        #: Spurious messages dropped by the source filter.
        self.filtered = 0
        #: Messages sent/received, for the dump downcall.
        self.casts_sent = 0
        self.sends_sent = 0
        self.delivered = 0
        #: Reused marshalling scratch buffer (send-path buffer reuse).
        self._send_buf = bytearray()
        #: Table-mode wire state: COM owns the sender-side channel
        #: encoders.  Casts share one channel (this endpoint's stream
        #: into the group); each unicast peer gets its own channel,
        #: because installs drained into a unicast would otherwise be
        #: invisible to the rest of the group.  The epoch draws from the
        #: stack's seeded stream so a rejoined sender gets a fresh epoch
        #: and receivers drop the stale channel table.
        self._table_mode = context.wire_mode == "table"
        if self._table_mode:
            self._channel = hdr.make_channel_encoder(
                self.endpoint, self.group, epoch=context.rng.randrange(1 << 16)
            )
        else:
            self._channel = None
        self._peer_channels = {}

    # ------------------------------------------------------------------
    # Downcalls
    # ------------------------------------------------------------------

    def handle_down(self, downcall: Downcall) -> None:
        dtype = downcall.type
        if dtype is DowncallType.CAST:
            self._cast(downcall.message)
        elif dtype is DowncallType.SEND:
            self._send(downcall.message, downcall.members or [])
        elif dtype is DowncallType.JOIN:
            self._join()
        elif dtype is DowncallType.VIEW:
            if downcall.members is not None:
                self._set_dests(downcall.members)
        elif dtype is DowncallType.LEAVE:
            self._leave()
        elif dtype is DowncallType.DESTROY:
            self.stop()
        # ACK, STABLE, FLUSH, FLUSH_OK, MERGE and friends terminate
        # here: with nothing below, there is nobody left to tell.

    def _join(self) -> None:
        directory = self.context.directory
        if directory is not None:
            directory.register(self.group, self.endpoint)
            snapshot = directory.lookup(self.group)
        else:
            snapshot = [self.endpoint]
        self._set_dests(snapshot)
        # Report initial connectivity.  At this level a view "is nothing
        # but the set of destination endpoints" (Section 7) — epoch 0
        # marks it as connectivity, not agreed membership.
        view = View(
            group=self.group,
            view_id=ViewId(epoch=0, coordinator=snapshot[0]),
            members=tuple(snapshot),
        )
        self.pass_up(Upcall(UpcallType.VIEW, view=view, members=list(snapshot)))

    def _set_dests(self, members) -> None:
        new_dests = list(members)
        if self._table_mode and set(new_dests) - set(self.dests):
            # The cast channel gained listeners who missed every earlier
            # install: make the next multicast self-contained.
            self._channel.refresh_all()
        self.dests = new_dests
        # Per-cast derived views, recomputed only on view changes.
        self._remote = [d for d in new_dests if d != self.endpoint]
        self._self_in_dests = self.endpoint in new_dests

    def _peer_channel(self, member: EndpointAddress):
        """The per-peer channel encoder for unicast sends to ``member``."""
        channel = self._peer_channels.get(member)
        if channel is None:
            channel = hdr.make_channel_encoder(
                self.endpoint, member,
                epoch=self.context.rng.randrange(1 << 16),
            )
            self._peer_channels[member] = channel
        return channel

    def _leave(self) -> None:
        directory = self.context.directory
        if directory is not None:
            directory.unregister(self.group, self.endpoint)
        self.pass_up(Upcall(UpcallType.EXIT))

    def _cast(self, message: Optional[Message]) -> None:
        if message is None:
            return
        message.push_owned_header(
            self.name,
            {"group": self.group, "source": self.endpoint, "kind": _KIND_CAST},
        )
        data = self.context.registry.marshal(
            message, self.context.wire_mode,
            channel=self._channel, into=self._send_buf,
        )
        self.casts_sent += 1
        remote = self._remote
        if self._self_in_dests:
            # A member delivers its own casts.  Loopback never hits the
            # wire, so it skips marshal/unmarshal entirely — and skips
            # copying too: once marshalled, the sent message is owned by
            # nobody (layers that retransmit buffered their own copy on
            # the way down), so the object itself ascends the stack.
            # The wire encoding is exercised by every remote receiver
            # and by the round-trip/fuzz suites.
            self._loop_back(message)
        if remote and self._alive():
            self.context.network.multicast(self.endpoint, remote, data)

    def _send(self, message: Optional[Message], members: List[EndpointAddress]) -> None:
        if message is None or not members:
            return
        message.push_owned_header(
            self.name,
            {"group": self.group, "source": self.endpoint, "kind": _KIND_SEND},
        )
        self.sends_sent += 1
        if not self._table_mode:
            data = self.context.registry.marshal(
                message, self.context.wire_mode, into=self._send_buf,
            )
            for member in members:
                if member == self.endpoint:
                    self._loop_back(message)
                elif self._alive():
                    self.context.network.unicast(self.endpoint, member, data)
            return
        # Table mode marshals once per peer: each unicast channel tracks
        # what its one receiver has installed, so pending installs drain
        # into the datagram that actually reaches that receiver.
        for member in members:
            if member == self.endpoint:
                # Deferred past the loop by call_soon, so the per-peer
                # marshals below still see the untouched header stack.
                self._loop_back(message)
                continue
            data = self.context.registry.marshal(
                message, self.context.wire_mode,
                channel=self._peer_channel(member), into=self._send_buf,
            )
            if self._alive():
                self.context.network.unicast(self.endpoint, member, data)

    def _loop_back(self, message: Message) -> None:
        # Self-delivery without the wire codec: the very header dicts
        # the sending layers pushed come back up, and upper layers pop
        # exactly what they pushed.  (No _enter: handle_up's one
        # crossing is its last act, and it opens the turn itself.)
        self.context.scheduler.call_soon(
            self.handle_up, Upcall(UpcallType.CAST, message=message)
        )

    def _alive(self) -> bool:
        process = self.context.process
        return process is None or process.alive

    # ------------------------------------------------------------------
    # Upcalls (messages handed in by the endpoint demultiplexer)
    # ------------------------------------------------------------------

    def handle_up(self, upcall: Upcall) -> None:
        message = upcall.message
        if message is None:
            self.pass_up(upcall)
            return
        # Retag and forward the incoming upcall itself — one event
        # object rides the whole up traversal.
        try:
            header = message.pop_header(self.name)
        except MessageError:
            # Not ours — garbled or mis-stacked; drop rather than crash.
            self.filtered += 1
            return
        source = header["source"]
        if self.filter_sources and source not in self.dests:
            self.filtered += 1
            return
        self.delivered += 1
        upcall.type = (
            UpcallType.CAST if header["kind"] == _KIND_CAST else UpcallType.SEND
        )
        upcall.source = source
        self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(
            dests=[str(d) for d in self.dests],
            casts_sent=self.casts_sent,
            sends_sent=self.sends_sent,
            delivered=self.delivered,
            filtered=self.filtered,
        )
        return info
