"""TOTAL — token-based totally ordered multicast (Section 7).

"The TOTAL layer, in turn, relies on virtually synchronous
communication.  During normal operation, it utilizes a token.  A
special 'oracle' at each member decides who should get the token next.
... In case of a failure, the token may be lost.  This, however, is not
a problem. ... When the new view is installed, each member that remains
connected to the system is guaranteed to have all messages from the
previous view, and a deterministic order can easily be constructed ...
Another deterministic rule decides who the first token holder in this
view is (e.g., the lowest ranked member), and normal operation can
continue."

Implementation notes: casts wait at the sender until it holds the
token; the holder assigns consecutive global sequence numbers, so no
message is ever on the wire without its final position.  Token loss is
repaired for free by the view change, exactly as the paper argues:
the first token holder of a view is its lowest-ranked member, and the
global sequence restarts at 1 per view.  Every TOTAL message is tagged
with its sender's view epoch: members install a view at slightly
different instants, and an untagged token crossing that boundary (a
request answered by a member still flushing the old view) would hand
out old-view sequence numbers nobody can deliver against the restarted
sequence.  Stale-epoch messages are dropped; ahead-of-epoch ones are
held until the view installs locally.

Within a view, every hand-off carries a token *generation* that rises
by one per pass and restarts with the view.  A TOKEN is an ordinary
cast, FIFO per sender but unordered across senders, and a holder with
nothing to send passes on without using a ``gseq``: a TOKEN delayed by
loss or reordering can reach members after a newer one, carrying the
same ``gseq``.  Each member therefore takes ``token_holder`` from the
highest generation it has seen and ignores older TOKENs, so a stale
hand-off can never name a holder the live one has already replaced.

The holder sends everything it releases in one turn as one ordered
message, a *pack*, so the layers below TOTAL pay for a burst once, not
once per cast.  A cast does not leave from ``handle_down``: it joins
``pending_out`` and a :class:`~repro.runtime.clock.FlushPacer` with
interval 0 releases the queue at the end of the turn that made it, so a
burst of casts (from one handler, or back-to-back from outside the
stack) is one pack.  A release of one cast is a plain ``_DATA`` message.
A release of ``n >= 2`` casts is one ``_PACK`` message whose ``gseq`` is
the first cast's number; the casts take ``gseq .. gseq+n-1``.  Its body
is a varint ``n``, then one record per cast: a varint ``length << 1 |
marshalled``, then ``length`` bytes, which are the cast's body alone
when no layer above TOTAL pushed a header, else the cast marshalled in
the registry's channel-free ``compact`` mode.  A pack holds at most
``max_batch`` casts and its body stays within the network's MTU less
:data:`repro.core.headers.HEADER_RESERVE`, so on a stack without FRAG a cast that fits a
datagram alone is never packed past one; a cast too big to share goes
alone.
Above TOTAL every cast is delivered on its own, with its own
``total_seq``, and with a copy of what the layers below noted on the
pack's upcall: to them a pack is one message, so its casts share it
(under STABLE, one ``stable_id``).  A malformed pack raises
``HeaderError`` before any state changes, and the turn drops it and
counts it.

The paper also notes TOTAL "does not require direct interaction with a
failure detector" despite the FLP impossibility result — liveness comes
from the view changes MBRSHIP supplies underneath.

Properties (Table 3): requires P3, P8, P9, P15; provides P6.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core import headers as hdr
from repro.core.headers.table import _read_uvarint, _write_uvarint
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType, cast_down
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.core.view import View
from repro.errors import HeaderError
from repro.net.address import EndpointAddress
from repro.runtime.clock import FlushPacer

_DATA = 0  # ordered data: carries the global sequence number
_REQ = 1  # token request (sender has pending casts)
_TOKEN = 2  # token transfer: new holder, next gseq, hand-off generation
_PACK = 3  # ordered data: n >= 2 casts numbered from gseq, n in the body

#: The wire mode of a pack record that carries headers from above TOTAL.
_RECORD_MODE = "compact"

_NOBODY = EndpointAddress("", 0)

hdr.register(
    "TOTAL", wire_id=24,
    fields=[
        ("kind", hdr.U8),
        ("gseq", hdr.U64),
        ("epoch", hdr.U32),
        ("holder", hdr.ADDRESS),
        ("gen", hdr.U64),
    ],
    defaults={"gseq": 0, "epoch": 0, "holder": _NOBODY, "gen": 0},
)


@register_layer
class TotalOrderLayer(Layer):
    """Totally ordered delivery via a rotating token.

    Config:
        max_batch (int): casts released at once, and so the most casts
            one pack holds (default 64).
        oracle (str): next-holder policy — "demand" (default: pass to the
            oldest outstanding requester) or "round_robin" (always pass
            to the next rank, whether or not it asked).
    """

    name = "TOTAL"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.max_batch = int(config.get("max_batch", 64))
        self.oracle = str(config.get("oracle", "demand"))
        if self.oracle not in ("demand", "round_robin"):
            raise ValueError(f"unknown oracle {self.oracle!r}")
        self.view: Optional[View] = None
        self.token_holder: Optional[EndpointAddress] = None
        self.token_gen = 0  # generation of the hand-off token_holder came from
        self.next_gseq = 1  # next gseq the holder will assign
        self.next_deliver = 1
        self.pending_out: Deque[Downcall] = deque()
        #: Releases ``pending_out`` at the end of the turn that filled it.
        self._pacer = FlushPacer(
            context.scheduler, 0.0, self._enter, lambda _trigger: self._try_send()
        )
        #: gseq -> our own released cast, header-less, until delivered here.
        self._released: Dict[int, Message] = {}
        #: First gseq -> the casts of a _DATA or _PACK message, its sender
        #: and what the layers below noted on it (``Upcall.extra``).
        self.buffer: Dict[
            int, Tuple[List[Message], EndpointAddress, Dict[str, Any]]
        ] = {}
        self.requests: Deque[EndpointAddress] = deque()
        self._requested = False
        self._epoch = 0  # epoch of the installed view; tags every message
        # Messages tagged with a view we have not installed yet (a peer
        # installed it first and spoke before our install arrived).
        self._ahead: list = []
        # Statistics.
        self.token_passes = 0
        self.ordered_sent = 0
        self.packs_sent = 0
        self.delivered = 0
        self.stale_epoch_dropped = 0
        self.stale_tokens_dropped = 0

    # ------------------------------------------------------------------
    # Downcalls
    # ------------------------------------------------------------------

    def handle_down(self, downcall: Downcall) -> None:
        if downcall.type is DowncallType.CAST and downcall.message is not None:
            self.pending_out.append(downcall)
            if len(self.pending_out) == 1:
                self._pacer.batch_started()
        else:
            self.pass_down(downcall)

    def stop(self) -> None:
        self._pacer.cancel()
        super().stop()

    def _holds_token(self) -> bool:
        return self.view is not None and self.token_holder == self.endpoint

    def _try_send(self) -> None:
        if self.view is None:
            return
        if not self._holds_token():
            self._request_token()
            return
        # A release takes at most max_batch casts and packs them greedily
        # (a cast that would overflow a pack starts the next one).  It
        # disarms the pacer and re-arms it for a remainder, so the pacer
        # is armed only while pending_out holds casts.
        self._pacer.cancel()
        pending, registry = self.pending_out, self.context.registry
        limit = self.context.network.mtu - hdr.HEADER_RESERVE
        casts: List[Downcall] = []
        parts: List[bytes] = []
        size = 0
        for _ in range(min(len(pending), self.max_batch)):
            downcall = pending.popleft()
            record, length = _record(downcall.message, registry)
            if casts and size + length > limit:
                self._release(casts, parts)
                casts, parts, size = [], [], 0
            casts.append(downcall)
            parts += record
            size += length
        if casts:
            self._release(casts, parts)
        if pending:
            self._pacer.batch_started()  # past max_batch: the next turn
        self._maybe_pass_token()

    def _release(self, casts: List[Downcall], parts: List[bytes]) -> None:
        """Send ``casts`` as one ordered message (``parts``: their records)."""
        if len(casts) == 1:
            self._send_data(casts[0])
        else:
            self._send_pack(casts, parts)

    def _send_data(self, downcall: Downcall) -> None:
        """Release one cast as a plain ``_DATA`` message."""
        self._released[self.next_gseq] = downcall.message.shallow_copy()
        downcall.message.push_owned_header(
            self.name,
            {"kind": _DATA, "gseq": self.next_gseq, "epoch": self._epoch},
        )
        self.next_gseq += 1
        self.ordered_sent += 1
        self.pass_down(downcall)

    def _send_pack(self, casts: List[Downcall], parts: List[bytes]) -> None:
        """Release ``casts`` as one ``_PACK`` message (``parts``: records)."""
        first = self.next_gseq
        for downcall in casts:
            # Nothing is pushed on a packed cast: it is its own copy.
            self._released[self.next_gseq] = downcall.message
            self.next_gseq += 1
        count = bytearray()
        _write_uvarint(count, len(casts))
        pack = Message(count)
        for part in parts:
            pack.add_segment(part)
        pack.push_owned_header(
            self.name, {"kind": _PACK, "gseq": first, "epoch": self._epoch}
        )
        self.ordered_sent += len(casts)
        self.packs_sent += 1
        self.pass_down(cast_down(pack))

    def _request_token(self) -> None:
        if self._requested or not self.pending_out:
            return
        self._requested = True
        request = Message()
        request.push_header(self.name, {"kind": _REQ, "epoch": self._epoch})
        self.pass_down(Downcall(DowncallType.CAST, message=request))

    def _maybe_pass_token(self) -> None:
        """The oracle: decide who gets the token next."""
        if not self._holds_token() or self.pending_out:
            return
        target: Optional[EndpointAddress] = None
        if self.oracle == "demand":
            while self.requests:
                candidate = self.requests.popleft()
                if candidate != self.endpoint and self.view.contains(candidate):
                    target = candidate
                    break
        else:  # round_robin: always hand to the next rank
            if self.view.size > 1:
                my_rank = self.view.rank_of(self.endpoint)
                target = self.view.members[(my_rank + 1) % self.view.size]
        if target is None:
            return  # keep the token until someone wants it
        self.token_holder = target
        self.token_gen += 1
        self.token_passes += 1
        self.trace("token_pass", to=target, gseq=self.next_gseq,
                   gen=self.token_gen)
        token = Message()
        token.push_header(
            self.name,
            {"kind": _TOKEN, "gseq": self.next_gseq, "epoch": self._epoch,
             "holder": target, "gen": self.token_gen},
        )
        self.pass_down(Downcall(DowncallType.CAST, message=token))

    # ------------------------------------------------------------------
    # Upcalls
    # ------------------------------------------------------------------

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self._new_view(upcall)
            return
        if upcall.type is not UpcallType.CAST or upcall.message is None:
            self.pass_up(upcall)
            return
        if upcall.message.top_owner() != self.name:
            self.pass_up(upcall)
            return
        header = upcall.message.pop_header(self.name)
        # A malformed pack raises here, before it touches any state.
        casts = _unpack(upcall.message, self.context.registry) if (
            header["kind"] == _PACK) else None
        epoch = header["epoch"]
        if epoch < self._epoch:
            # Sent in a view we have already left.  The view change
            # repaired the token and restarted the sequence, so a stale
            # token/request/gseq must not leak into this view (a stale
            # TOKEN would hand out old-view sequence numbers nobody can
            # deliver).
            self.stale_epoch_dropped += 1
            self.trace("total_stale_epoch", kind=header["kind"],
                       epoch=epoch, current=self._epoch)
            return
        if epoch > self._epoch:
            # A peer installed the next view first and spoke before our
            # own install arrived.  Hold the message until we catch up.
            self._ahead.append((header, upcall, casts))
            return
        self._on_total(header, upcall, casts)

    def _on_total(self, header, upcall: Upcall,
                  casts: Optional[List[Message]]) -> None:
        kind = header["kind"]
        if kind == _DATA or kind == _PACK:
            gseq = header["gseq"]
            if kind == _DATA and gseq == self.next_deliver and not self.buffer:
                # In-order fast path (the steady state): deliver the
                # incoming upcall directly instead of round-tripping
                # through the reorder buffer and allocating a new event.
                self.next_deliver = gseq + 1
                self.delivered += 1
                self._released.pop(gseq, None)
                self.trace("total_deliver", gseq=gseq)
                upcall.extra["total_seq"] = gseq
                self.pass_up(upcall)
                return
            self.buffer[gseq] = (
                casts or [upcall.message], upcall.source, upcall.extra)
            self._drain()
        elif kind == _REQ:
            if upcall.source not in self.requests:
                self.requests.append(upcall.source)
            if upcall.source == self.endpoint:
                pass  # our own request echoing back
            self._maybe_pass_token()
        elif kind == _TOKEN:
            if header["gen"] <= self.token_gen:
                # Overtaken by a later hand-off (or our own pass echoing
                # back): the holder it names is no longer the holder.
                if upcall.source != self.endpoint:
                    self.stale_tokens_dropped += 1
                return
            self.token_gen = header["gen"]
            self.token_holder = header["holder"]
            if self.token_holder == self.endpoint:
                self.next_gseq = header["gseq"]
                self._requested = False
                self._try_send()

    def _drain(self) -> None:
        while self.next_deliver in self.buffer:
            casts, source, extra = self.buffer.pop(self.next_deliver)
            for message in casts:
                gseq = self.next_deliver
                self._released.pop(gseq, None)
                self.next_deliver = gseq + 1
                self.delivered += 1
                self.trace("total_deliver", gseq=gseq)
                self.pass_up(Upcall(
                    UpcallType.CAST,
                    message=message,
                    source=source,
                    extra={**extra, "total_seq": gseq},
                ))

    def _new_view(self, upcall: Upcall) -> None:
        """Reset the token deterministically for the new view.

        Virtual synchrony underneath guarantees every survivor holds the
        same set of ordered messages, so the buffer drains identically
        everywhere before the reset; nothing can be pending in it
        afterwards (a gap could only mean a violated VS cut, which we
        surface rather than hide).

        Our own casts released in the old view but not delivered here
        were, when MBRSHIP marks this view the ``successor`` of a flush
        we took part in, by the same guarantee delivered nowhere in it;
        any copy still travelling carries the old epoch and is dropped
        everywhere.  They go back to the front of ``pending_out``, in
        ``gseq`` order, to be ordered again in this view.  Any other new
        view (a joiner's, or one that absorbed our blocked minority)
        follows a cut we did not share, in which the old view's other
        members may have delivered them: those casts are forgotten, as a
        crashed member's would be.
        """
        self._drain()
        skipped = len(self.buffer)
        if skipped:
            self.trace("total_gap", missing=self.next_deliver, buffered=skipped)
            self.buffer.clear()
        if self._released and upcall.extra.get("successor"):
            self.pending_out.extendleft(
                cast_down(message)
                for _gseq, message in sorted(self._released.items(), reverse=True)
            )
        self._released.clear()
        self.view = upcall.view
        self.token_holder = self.view.members[0]  # the deterministic rule
        self.token_gen = 0
        self.next_gseq = 1
        self.next_deliver = 1
        self.requests.clear()
        self._requested = False
        self._epoch = self.view.view_id.epoch
        self.pass_up(upcall)
        # Replay messages that arrived tagged with this view before we
        # installed it; drop anything the epoch has overtaken.
        ahead, self._ahead = self._ahead, []
        for header, held, casts in ahead:
            if header["epoch"] == self._epoch:
                self._on_total(header, held, casts)
            elif header["epoch"] > self._epoch:
                self._ahead.append((header, held, casts))
        if self.pending_out:
            self._try_send()

    def dump(self):
        info = super().dump()
        info.update(
            token_holder=str(self.token_holder) if self.token_holder else None,
            token_gen=self.token_gen,
            holds_token=self._holds_token(),
            next_gseq=self.next_gseq,
            next_deliver=self.next_deliver,
            pending_out=len(self.pending_out),
            released=len(self._released),
            buffered=len(self.buffer),
            token_passes=self.token_passes,
            ordered_sent=self.ordered_sent,
            packs_sent=self.packs_sent,
            delivered=self.delivered,
            stale_epoch_dropped=self.stale_epoch_dropped,
            stale_tokens_dropped=self.stale_tokens_dropped,
            ahead_held=len(self._ahead),
            oracle=self.oracle,
        )
        return info


def _record(message: Message, registry) -> Tuple[List[bytes], int]:
    """One cast's pack record as segments, and its length in bytes."""
    prefix = bytearray()
    if message.header_depth:
        data = registry.marshal(message, _RECORD_MODE)
        _write_uvarint(prefix, len(data) << 1 | 1)
        return [prefix, data], len(prefix) + len(data)
    size = message.body_size
    _write_uvarint(prefix, size << 1)
    return [prefix, *message.segments], len(prefix) + size


def _unpack(message: Message, registry) -> List[Message]:
    """The casts of a ``_PACK`` body; ``HeaderError`` if it is malformed."""
    segments = message.segments
    data = memoryview(segments[0] if len(segments) == 1 else b"".join(segments))
    count, offset = _read_uvarint(data, 0)
    casts: List[Message] = []
    while offset < len(data):
        word, offset = _read_uvarint(data, offset)
        end = offset + (word >> 1)
        if end > len(data):
            raise HeaderError("truncated pack record")
        # Each cast owns its bytes: a delivered cast keeps neither the
        # datagram nor the whole pack alive.
        record = bytes(data[offset:end])
        casts.append(registry.unmarshal(record) if word & 1 else Message(record))
        offset = end
    if count < 2 or len(casts) != count:
        raise HeaderError(f"pack says {count} casts, holds {len(casts)}")
    return casts
