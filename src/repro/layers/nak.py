"""NAK — reliable FIFO delivery via negative acknowledgements.

Section 7: "The NAK layer provides FIFO ordering of messages.  For this
it pushes a sequence number on each outgoing message, that the receiver
can check.  If the receiver detects message loss, it sends back a
negative acknowledgement (NAK).  The NAK layer buffers some messages
for retransmission, and will retransmit if the message is still
buffered.  If not, it will send a place holder that will result in a
LOST_MESSAGE event when received.  Each endpoint will occasionally
multicast its protocol status ... It also allows the detection of
failures or disconnections (in case a status update is not received in
time)."

Properties (Table 3): requires P1, P10, P11; provides P3 (FIFO unicast)
and P4 (FIFO multicast).

Design notes
------------

Two sequence spaces are kept, 0 for casts and 1 (per peer) for subset
sends, so subset sends do not punch holes in the multicast sequence.
Only their send buffers differ (per multicast era, per unicast
destination): one receive path serves both, a stream per ``(source,
space, era)`` with era 0 for unicast.  Both are advertised by one
status multicast per period: the multicast high-water mark, and beneath
it each view member's unicast high-water mark, so status costs O(n)
datagrams per period, not O(n²).

The multicast space is *era-scoped*: when a membership layer above
installs a view it passes the view epoch down in the VIEW downcall, and
the multicast sequence space restarts at 1 for that era.  This is what
lets members join a long-running group without NAK-ing years of
history, and it is safe precisely because the membership layer
guarantees that all old-view messages are delivered before the new view
is installed (virtual synchrony).  The send buffer of the previous era
is retained for one more view change so that slower members can still
recover old-era messages from it.

Fragment runs: a downcall from FRAG may carry a run of ``k``
fragments as one message (``extra["frag_run"]``, a
:class:`~repro.layers.frag.FragmentRun`).  NAK gives the run the ``k``
sequence numbers ``seq .. hi`` under one ``_DATA`` header with ``hi``
set (a lone message leaves ``hi`` at 0, so its wire is unchanged), and
buffers one ``(run, i)`` entry per number: fragment ``i`` is built only
if it is retransmitted, and then alone, as a plain ``_DATA`` message.  A
receiver delivers an in-order run as one upcall and advances
``expected`` past ``hi``; it holds a run that arrives ahead of a gap
whole (its later numbers marked held, so they are neither NAKed nor
accepted twice); and it drops a run that overlaps anything already
received or held, whose missing numbers are then NAKed and recovered
fragment by fragment.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.net.address import EndpointAddress

_DATA_M = 0  # sequenced multicast data
_DATA_U = 1  # sequenced unicast (subset send) data
_NAK_M = 2  # negative ack for the multicast space
_NAK_U = 3  # negative ack for the unicast space
_STATUS = 4  # periodic status: highest multicast seq sent this era
_GONE_M = 5  # placeholder: multicast message no longer buffered
_GONE_U = 6  # placeholder: unicast message no longer buffered
_USTATUS = 7  # highest unicast seq sent to a receiver outside the view

# Indexed by space (0 multicast, 1 unicast): the data kind, the
# placeholder kind, the NAK kind, and the upcall a data message leaves as.
_DATA = (_DATA_M, _DATA_U)
_GONE = (_GONE_M, _GONE_U)
_NAK = (_NAK_M, _NAK_U)
_UPCALL = (UpcallType.CAST, UpcallType.SEND)

#: The pending-entry kind of a seq covered by a held run's head.
_HELD = -1

#: Sanity bound for sequence fields: an honest peer can run far ahead of
#: a receiver (window eviction), but a garbled 64-bit field is random —
#: astronomically beyond any real backlog.
_SEQ_SANITY = 1 << 20

hdr.register(
    "NAK", wire_id=13,
    fields=[
        ("kind", hdr.U8),
        ("era", hdr.U32),
        ("seq", hdr.U64),
        ("lo", hdr.U64),
        ("hi", hdr.U64),
    ],
    defaults={"era": 0, "seq": 0, "lo": 0, "hi": 0},
)

#: Beneath every STATUS header: per view member, the highest unicast seq
#: sent to it.  A codec of its own, so the data-path header stays as is.
_MARKS = "NAK_MARKS"
hdr.register(
    _MARKS, wire_id=14, fields=[("marks", hdr.MapOf(hdr.ADDRESS, hdr.U64))]
)


class _RecvState:
    """Receive state of one ``(source, space, era)`` stream."""

    __slots__ = ("expected", "pending", "known_max")

    def __init__(self) -> None:
        self.expected = 1  # next sequence number to deliver
        #: seq -> (kind, message, hi): ``hi`` is the last seq the message
        #: covers; a held run's later seqs map to ``(_HELD, None, seq)``.
        self.pending: Dict[int, Tuple[int, Optional[Message], int]] = {}
        self.known_max = 0  # highest seq known to exist (from data/status)

    @property
    def has_gap(self) -> bool:
        return self.expected <= self.known_max


def _overlaps(pending: Dict[int, object], seq: int, hi: int) -> bool:
    """Whether any of ``seq .. hi`` is already held in ``pending``."""
    if hi == seq:
        return seq in pending
    return any(s in pending for s in range(seq, hi + 1))


@register_layer
class NakLayer(Layer):
    """Reliable FIFO multicast and unicast over best-effort delivery.

    Config:
        window (int): retransmission buffer size per space (default 4096).
        nak_delay (float): gap-detection to NAK-send delay (default 0.02 s).
        status_period (float): status multicast period (default 0.25 s).
        problem_timeout (float): silence before a PROBLEM upcall (default 1.5 s).
    """

    name = "NAK"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.window = int(config.get("window", 4096))
        self.nak_delay = float(config.get("nak_delay", 0.02))
        self.status_period = float(config.get("status_period", 0.25))
        self.problem_timeout = float(config.get("problem_timeout", 1.5))
        # Multicast send side, era-scoped.
        self._era = 0
        self._send_seq = 0  # last multicast seq used in the current era
        self._sent: Dict[int, "OrderedDict[int, Message]"] = {0: OrderedDict()}
        self._era_high: Dict[int, int] = {}  # retained eras: last seq sent
        # Unicast send side (continuous; endpoints are incarnation-unique).
        self._usend_seq: Dict[EndpointAddress, int] = {}
        self._usent: Dict[EndpointAddress, "OrderedDict[int, Message]"] = {}
        # Receive side, keyed (source, space, era); era 0 for unicast.
        self._streams: Dict[Tuple[EndpointAddress, int, int], _RecvState] = {}
        self._nak_timers: Dict[Tuple[EndpointAddress, int, int], object] = {}
        # Liveness observation.
        self._peers: Set[EndpointAddress] = set()
        self._last_heard: Dict[EndpointAddress, float] = {}
        self._reported: Set[EndpointAddress] = set()
        self._status_timer = None
        # Statistics.
        self.naks_sent = 0
        self.retransmissions = 0
        self.placeholders_sent = 0
        self.duplicates_dropped = 0
        self.stale_era_dropped = 0
        self.bogus_dropped = 0
        self.lost_reported = 0
        self.runs_sent = 0
        self.runs_held = 0

    def start(self) -> None:
        self._status_timer = self.periodic(self.status_period, self._status_tick)
        self._status_timer.start()

    # ------------------------------------------------------------------
    # Downcalls
    # ------------------------------------------------------------------

    def handle_down(self, downcall: Downcall) -> None:
        dtype = downcall.type
        if dtype is DowncallType.CAST and downcall.message is not None:
            self._cast_data(downcall)
        elif dtype is DowncallType.SEND and downcall.message is not None:
            self._send_data(downcall)
        elif dtype is DowncallType.VIEW:
            if downcall.members is not None:
                # A membership layer installing a view asserts these
                # peers are alive right now; restart their silence clocks.
                self._set_peers(downcall.members, fresh=True)
            epoch = downcall.extra.get("epoch")
            if epoch is not None and epoch > self._era:
                self._advance_era(epoch)
            self.pass_down(downcall)
        else:
            self.pass_down(downcall)

    def _cast_data(self, downcall: Downcall) -> None:
        message, run = downcall.message, downcall.extra.get("frag_run")
        seq = self._send_seq + 1
        header = {"kind": _DATA_M, "era": self._era, "seq": seq}
        buffer = self._sent[self._era]
        if run is None:
            self._send_seq = seq
            message.push_owned_header(self.name, header)
            self._buffer(buffer, seq, message.shallow_copy())
        else:
            self._send_seq = header["hi"] = seq + run.count - 1
            message.push_owned_header(self.name, header)
            self._buffer_run(buffer, seq, run)
        self.pass_down(downcall)

    def _send_data(self, downcall: Downcall) -> None:
        # Each destination gets its own reliably sequenced copy.
        run = downcall.extra.get("frag_run")
        for dest in downcall.members or []:
            seq = self._usend_seq.get(dest, 0) + 1
            message = downcall.message.copy()
            header = {"kind": _DATA_U, "seq": seq}
            buffer = self._usent.setdefault(dest, OrderedDict())
            if run is None:
                self._usend_seq[dest] = seq
                message.push_owned_header(self.name, header)
                self._buffer(buffer, seq, message.shallow_copy())
            else:
                self._usend_seq[dest] = header["hi"] = seq + run.count - 1
                message.push_owned_header(self.name, header)
                self._buffer_run(buffer, seq, run)
            self.pass_down(
                Downcall(DowncallType.SEND, message=message, members=[dest])
            )

    def _buffer(self, buffer: "OrderedDict[int, object]", seq: int, entry) -> None:
        buffer[seq] = entry
        self._evict(buffer)

    def _buffer_run(self, buffer: "OrderedDict[int, object]", seq: int, run) -> None:
        """One ``(run, i)`` entry per fragment: each is retransmitted alone."""
        self.runs_sent += 1
        for i in range(run.count):
            buffer[seq + i] = (run, i)
        self._evict(buffer)

    def _evict(self, buffer: "OrderedDict[int, object]") -> None:
        while len(buffer) > self.window:
            buffer.popitem(last=False)

    def _set_peers(self, members, fresh: bool = False) -> None:
        self._peers = set(members)
        now = self.now
        for peer in self._peers:
            if fresh:
                self._last_heard[peer] = now
            else:
                self._last_heard.setdefault(peer, now)
        if fresh:
            self._reported.clear()
        self._reported &= self._peers

    def _advance_era(self, epoch: int) -> None:
        """Start a fresh multicast sequence space for the new view.

        Safe because the membership layer has already ensured all
        old-era messages are delivered locally; the previous era's send
        buffer is retained so stragglers can still recover from us.
        """
        old_era = self._era
        self._era_high[old_era] = self._send_seq
        self._era = epoch
        self._send_seq = 0
        self._sent[epoch] = OrderedDict()
        for era in list(self._sent):
            if era not in (old_era, epoch):
                del self._sent[era]
        for era in list(self._era_high):
            if era not in self._sent:
                del self._era_high[era]
        # Purge receive state older than the new era and drain anything
        # that arrived early for it.
        for key in list(self._streams):
            if key[1] == 0 and key[2] < epoch:
                del self._streams[key]
        for (source, space, era), state in list(self._streams.items()):
            if space == 0 and era == epoch:
                self._drain(state, source, space)
                self._maybe_schedule_nak(state, source, space, era)

    # ------------------------------------------------------------------
    # Upcalls
    # ------------------------------------------------------------------

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW:
            if upcall.members is not None:
                self._set_peers(upcall.members)
            self.pass_up(upcall)
            return
        message = upcall.message
        if message is None or message.top_owner() != self.name:
            self.pass_up(upcall)
            return
        header = message.pop_header(self.name)
        source = upcall.source
        self._heard(source)
        kind = header["kind"]
        if kind in (_DATA_M, _GONE_M):
            seq = header["seq"]
            # A FRAG run's last number; 0 (or, sent locally, absent) else.
            hi = header.get("hi") or seq
            self._arrived(source, 0, header["era"], seq, hi, kind, message, upcall)
        elif kind in (_DATA_U, _GONE_U):
            seq = header["seq"]
            hi = header.get("hi") or seq
            self._arrived(source, 1, 0, seq, hi, kind, message, upcall)
        elif kind == _STATUS:
            self._on_status(source, 0, header["era"], header["seq"])
            if message.top_owner() == _MARKS:
                mark = message.pop_header(_MARKS)["marks"].get(self.endpoint)
                if mark is not None:
                    self._on_status(source, 1, 0, mark)
        elif kind == _USTATUS:
            self._on_status(source, 1, 0, header["seq"])
        elif kind == _NAK_M:
            self._on_nak(source, 0, header["era"], header["lo"], header["hi"])
        elif kind == _NAK_U:
            self._on_nak(source, 1, 0, header["lo"], header["hi"])

    def _heard(self, source: Optional[EndpointAddress]) -> None:
        if source is None:
            return
        self._last_heard[source] = self.now
        self._reported.discard(source)

    # -- arrival, ordering, and gap handling -------------------------------

    def _arrived(
        self,
        source: EndpointAddress,
        space: int,
        era: int,
        seq: int,
        hi: int,
        kind: int,
        message: Message,
        upcall: Upcall,
    ) -> None:
        """``message`` covers ``seq .. hi``: one number, or a FRAG run's."""
        if space == 0 and era < self._era:
            # Message from a view we already left; the flush protocol
            # accounted for it before the view was installed.
            self.stale_era_dropped += 1
            return
        key = (source, space, era)
        state = self._streams.get(key)
        if state is None:
            state = self._streams[key] = _RecvState()
        if seq > state.expected + _SEQ_SANITY or hi < seq or hi - seq >= self.window:
            self.bogus_dropped += 1  # garbled sequence number or range
            return
        # A multicast stream of a later era is held until our membership
        # layer installs that view; _advance_era will drain it.
        current = space or era == self._era
        pending = state.pending
        # In-order fast path (the steady state): the next expected data
        # message arrives as the upcall it will leave as — forward the
        # incoming upcall itself instead of round-tripping through the
        # pending dict and allocating a fresh event.
        if (
            current
            and seq == state.expected
            and kind == _DATA[space]
            and upcall.type is _UPCALL[space]
            and (hi == seq or not _overlaps(pending, seq, hi))
        ):
            state.expected = hi + 1
            if hi > state.known_max:
                state.known_max = hi
            self.pass_up(upcall)
            if pending:
                self._drain(state, source, space)
            self._maybe_schedule_nak(state, source, space, era)
            return
        if hi > state.known_max:
            state.known_max = hi
        if seq < state.expected or _overlaps(pending, seq, hi):
            # A duplicate, or a run partly received already: what it
            # still lacks is NAKed and recovered fragment by fragment.
            self.duplicates_dropped += 1
        else:
            pending[seq] = (kind, message, hi)
            if hi > seq:
                self.runs_held += 1
                for held in range(seq + 1, hi + 1):
                    pending[held] = (_HELD, None, held)
        if current:
            self._drain(state, source, space)
            self._maybe_schedule_nak(state, source, space, era)

    def _drain(self, state: _RecvState, source: EndpointAddress, space: int) -> None:
        data_kind, upcall_type = _DATA[space], _UPCALL[space]
        pending = state.pending
        while state.expected in pending:
            seq = state.expected
            kind, message, hi = pending.pop(seq)
            for held in range(seq + 1, hi + 1):
                del pending[held]
            state.expected = hi + 1
            if kind == data_kind:
                self.pass_up(Upcall(upcall_type, message=message, source=source))
            else:  # a GONE placeholder: the data is unrecoverable
                self.lost_reported += 1
                self.pass_up(
                    Upcall(
                        UpcallType.LOST_MESSAGE,
                        source=source,
                        extra={"seq": seq, "space": space},
                    )
                )

    def _maybe_schedule_nak(
        self, state: _RecvState, source: EndpointAddress, space: int, era: int
    ) -> None:
        if not state.has_gap:
            return
        key = (source, space, era)
        if key in self._nak_timers:
            return  # a NAK is already pending for this gap
        handle = self.context.scheduler.call_after(
            self.nak_delay, self._fire_nak, source, space, era
        )
        self._nak_timers[key] = handle

    def _fire_nak(self, source: EndpointAddress, space: int, era: int) -> None:
        self._nak_timers.pop((source, space, era), None)
        if space == 0 and era < self._era:
            return  # old era: no longer our problem
        state = self._streams.get((source, space, era))
        if state is None or not state.has_gap:
            return  # gap closed in the meantime
        kind = _NAK[space]
        for lo, hi in self._missing_runs(state, limit=8, width=self.window):
            nak = Message()
            nak.push_header(self.name, {"kind": kind, "era": era, "lo": lo, "hi": hi})
            self.naks_sent += 1
            self.pass_down(Downcall(DowncallType.SEND, message=nak, members=[source]))
        # Re-arm: if the retransmission is lost too, ask again.
        self._maybe_schedule_nak(state, source, space, era)

    @staticmethod
    def _missing_runs(state: _RecvState, limit: int, width: int):
        """Contiguous runs of sequence numbers we lack, oldest first.

        Requesting only the holes (not the whole [expected, known_max]
        range) keeps retransmission traffic proportional to actual loss.
        A hole wider than ``width`` (the window: a sender drops a wider
        request as garbled) is requested ``width`` numbers at a time.
        """
        runs = []
        seq = state.expected
        while seq <= state.known_max and len(runs) < limit:
            if seq in state.pending:
                seq += 1
                continue
            start = seq
            while (
                seq <= state.known_max
                and seq not in state.pending
                and seq - start < width
            ):
                seq += 1
            runs.append((start, seq - 1))
        return runs

    # -- retransmission ------------------------------------------------------

    def _on_nak(
        self, requester: EndpointAddress, space: int, era: int, lo: int, hi: int
    ) -> None:
        if hi < lo or hi - lo >= self.window:
            # No honest receiver requests more than a window at once;
            # this is a garbled packet that happened to parse (without a
            # CHKSUM layer below, garbling detection is nobody's job).
            self.bogus_dropped += 1
            return
        if space == 0:
            buffer = self._sent.get(era, {})
        else:
            buffer = self._usent.get(requester, {})
        for seq in range(lo, hi + 1):
            buffered = buffer.get(seq)
            if type(buffered) is tuple:  # one fragment of a run, built now
                self.retransmissions += 1
                run, index = buffered
                message = run.fragment(index)
                message.push_owned_header(
                    self.name,
                    {"kind": _DATA_M, "era": era, "seq": seq} if space == 0
                    else {"kind": _DATA_U, "seq": seq},
                )
            elif buffered is not None:
                self.retransmissions += 1
                message = buffered.copy()
            else:
                self.placeholders_sent += 1
                message = Message()
                message.push_header(
                    self.name, {"kind": _GONE[space], "era": era, "seq": seq}
                )
            self.pass_down(
                Downcall(DowncallType.SEND, message=message, members=[requester])
            )

    # -- status and failure suspicion ----------------------------------------

    def _status_tick(self) -> None:
        # Unicast streams need sender-side advertisement too: a lost
        # *final* unicast would otherwise never be missed by anyone.  A
        # view member reads its mark off the status multicast; only a
        # destination outside the view (a joiner, a merge target) costs
        # a USTATUS of its own.
        marks, outside = {}, []
        for dest, seq in self._usend_seq.items():
            if dest in self._peers:
                marks[dest] = seq
            else:
                outside.append((dest, seq))
        status = Message()
        status.push_owned_header(_MARKS, {"marks": marks})
        status.push_owned_header(
            self.name, {"kind": _STATUS, "era": self._era, "seq": self._send_seq}
        )
        self.pass_down(Downcall(DowncallType.CAST, message=status))
        # Keep advertising the previous era while its buffer is retained
        # so a peer still catching up can discover tail losses there.
        for era, high in self._era_high.items():
            if era == self._era or high == 0:
                continue
            old_status = Message()
            old_status.push_header(
                self.name, {"kind": _STATUS, "era": era, "seq": high}
            )
            self.pass_down(Downcall(DowncallType.CAST, message=old_status))
        self._send_ustatus(outside)
        self._check_silence()

    def _send_ustatus(self, marks) -> None:
        """One USTATUS per ``(dest, highest unicast seq sent to it)``."""
        for dest, seq in marks:
            ustatus = Message()
            ustatus.push_header(self.name, {"kind": _USTATUS, "seq": seq})
            self.pass_down(
                Downcall(DowncallType.SEND, message=ustatus, members=[dest])
            )

    def _on_status(
        self, source: EndpointAddress, space: int, era: int, high_seq: int
    ) -> None:
        if space == 0 and era < self._era:
            return
        state = self._streams.setdefault((source, space, era), _RecvState())
        if high_seq > state.expected + _SEQ_SANITY:
            self.bogus_dropped += 1
            return
        state.known_max = max(state.known_max, high_seq)
        if space or era == self._era:
            self._maybe_schedule_nak(state, source, space, era)

    def _check_silence(self) -> None:
        now = self.now
        for peer in self._peers:
            if peer == self.endpoint or peer in self._reported:
                continue
            heard = self._last_heard.get(peer, now)
            if now - heard > self.problem_timeout:
                self._reported.add(peer)
                self.trace("problem", peer=peer)
                self.pass_up(Upcall(UpcallType.PROBLEM, source=peer))

    def stop(self) -> None:
        for handle in self._nak_timers.values():
            handle.cancel()
        self._nak_timers.clear()
        super().stop()

    def dump(self):
        info = super().dump()
        info.update(
            era=self._era,
            send_seq=self._send_seq,
            buffered=sum(len(b) for b in self._sent.values()),
            naks_sent=self.naks_sent,
            retransmissions=self.retransmissions,
            placeholders_sent=self.placeholders_sent,
            duplicates_dropped=self.duplicates_dropped,
            stale_era_dropped=self.stale_era_dropped,
            bogus_dropped=self.bogus_dropped,
            lost_reported=self.lost_reported,
            runs_sent=self.runs_sent,
            runs_held=self.runs_held,
            peers=[str(p) for p in sorted(self._peers)],
        )
        return info
