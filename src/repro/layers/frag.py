"""FRAG — fragmentation and reassembly of large messages.

Section 7: "When a user of the FRAG layer attempts to send a message
that is larger than that maximum size, the FRAG layer splits the
message into multiple fragments.  On each fragment the FRAG layer
pushes a boolean value that indicates whether it is the last one or
not.  The FRAG layer depends on FIFO ordering for reassembly.  When the
last fragment is received, it delivers the message."

Faithfully to the paper, the header is a single boolean — the layer
whose one bit of real information motivates the Section 10 discussion
of word-aligned header waste.  Correctness therefore *requires* FIFO
delivery from below (properties P3/P4, per Table 3).

Zero-copy note: non-final fragments are fresh messages carrying body
*slices* (segment references); the final fragment is the original
message object, so headers pushed by layers above FRAG travel exactly
once, on the last fragment.

Runs
----

Where the network below shares datagrams (a
:class:`~repro.net.coalesce.Coalescer`) and FRAG sits directly on NAK,
consecutive fragments of one message go down as one *run*: one message
whose body is the run's slice and whose header is the FRAG header of
its last fragment, with the downcall's ``extra["frag_run"]`` holding a
:class:`FragmentRun`.  NAK numbers every fragment of the run and
rebuilds fragment ``i`` from it only to retransmit it, so loss recovery
stays per fragment.  A run holds at most the coalescer's ``max_batch``
fragments, NAK's ``window`` fragments and ``mtu - HEADER_RESERVE`` bytes
(TOTAL's bound on a pack);
without a coalescer, or over any other layer, a run is one fragment and
the traffic is exactly the unbatched one.  The receive side does not
change: to FRAG a run is a bigger fragment.

Loss
----

A LOST_MESSAGE from below names a hole in one source's stream (NAK's
``extra["space"]``: 0 casts, 1 subset sends).  The one-bit header
cannot say which message the hole was in, so FRAG drops that stream's
pieces up to and including the next ``last`` fragment and reports them
all as that one LOST_MESSAGE: it never delivers a message with a hole.
If the lost piece was itself a ``last``, the next whole message goes
with it.

Properties (Table 3): requires P3, P4, P10, P11; provides P12 (large
messages).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.net.address import EndpointAddress

hdr.register("FRAG", wire_id=10, fields=[("last", hdr.BOOL)])

#: Reassembly buffers are keyed by (source, was_cast) — FIFO from below
#: guarantees fragments of one message are contiguous per source and
#: per sequence space, but casts and subset sends use different spaces.
_BufferKey = Tuple[EndpointAddress, bool]


class FragmentRun:
    """The fragment list of one run message, built one at a time on demand.

    ``run`` is a copy of the run message as FRAG passed it down (its own
    header stack and segment list, so nothing the layers below do to
    the message shows here).  Fragment ``i`` is the ``i``-th
    ``max_size`` slice of its body; the run's last fragment carries the
    run's headers, every other one a fresh ``last=False`` FRAG header.
    """

    __slots__ = ("run", "count", "max_size")

    def __init__(self, run: Message, count: int, max_size: int) -> None:
        self.run = run
        self.count = count
        self.max_size = max_size

    def fragment(self, i: int) -> Message:
        """A new message holding fragment ``i`` alone, as FRAG would send it."""
        lo = i * self.max_size
        fragment = Message()
        fragment._segments = self.run.slice_body(lo, lo + self.max_size)
        if i == self.count - 1:
            fragment._headers = list(self.run._headers)
        else:
            fragment.push_owned_header(FragLayer.name, {"last": False})
        return fragment


@register_layer
class FragLayer(Layer):
    """Splits big bodies going down; reassembles going up.

    Config:
        max_size (int): maximum fragment body size in bytes
            (default 1024).
    """

    name = "FRAG"
    reshapes_body = True

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.max_size = int(config.get("max_size", 1024))
        if self.max_size <= 0:
            raise ValueError(f"max_size must be positive, got {self.max_size}")
        self._reassembly: Dict[_BufferKey, List[bytes]] = {}
        #: Streams that lost a piece: dropped through their next ``last``.
        self._discarding: Set[_BufferKey] = set()
        #: Fragments per run; set by :meth:`start` once the stack is wired.
        self._run_fragments = 1
        self.fragments_sent = 0
        self.runs_sent = 0
        #: Messages joined from more than one arriving piece (fragment or
        #: run); one that arrived as a single run is delivered as it came.
        self.messages_reassembled = 0

    def start(self) -> None:
        network, below = self.context.network, self.below
        max_batch = getattr(network, "max_batch", None)  # only a Coalescer's
        if max_batch is not None and below is not None and below.name == "NAK":
            # NAK drops a range as wide as its window as garbled.
            fit = (network.mtu - hdr.HEADER_RESERVE) // self.max_size
            self._run_fragments = max(1, min(max_batch, fit, below.window))

    # ------------------------------------------------------------------
    # Downcalls
    # ------------------------------------------------------------------

    def handle_down(self, downcall: Downcall) -> None:
        if (
            downcall.type in (DowncallType.CAST, DowncallType.SEND)
            and downcall.message is not None
        ):
            self._fragment(downcall)
        else:
            self.pass_down(downcall)

    def _fragment(self, downcall: Downcall) -> None:
        message = downcall.message
        size = message.body_size
        max_size = self.max_size
        if size <= max_size:
            message.push_owned_header(self.name, {"last": True})
            self.pass_down(downcall)
            return
        self.fragments_sent += -(-size // max_size)
        # Emit all-but-last runs as bare slice carriers...
        run_size = self._run_fragments * max_size
        offset = 0
        while size - offset > run_size:
            run = Message()
            run._segments = message.slice_body(offset, offset + run_size)
            run.push_owned_header(self.name, {"last": False})
            self._pass_run(self._like(downcall, run), run_size)
            offset += run_size
        # ...and ship the original message (with every header pushed by
        # the layers above) as the final run, body trimmed to the tail.
        message._segments[:] = message.slice_body(offset, size)
        message.push_owned_header(self.name, {"last": True})
        self._pass_run(downcall, size - offset)

    def _pass_run(self, downcall: Downcall, size: int) -> None:
        count = -(-size // self.max_size)
        if count > 1:
            self.runs_sent += 1
            downcall.extra["frag_run"] = FragmentRun(
                downcall.message.shallow_copy(), count, self.max_size
            )
        self.pass_down(downcall)

    @staticmethod
    def _like(downcall: Downcall, message: Message) -> Downcall:
        """A downcall of the same type/destination carrying ``message``."""
        return Downcall(
            type=downcall.type, message=message, members=downcall.members
        )

    # ------------------------------------------------------------------
    # Upcalls
    # ------------------------------------------------------------------

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.LOST_MESSAGE and upcall.source is not None:
            self._lost(upcall)
            return
        message = upcall.message
        if (
            upcall.type not in (UpcallType.CAST, UpcallType.SEND)
            or message is None
            or message.top_owner() != self.name
        ):
            self.pass_up(upcall)
            return
        header = message.pop_header(self.name)
        key = (upcall.source, upcall.type is UpcallType.CAST)
        if self._discarding and key in self._discarding:
            if header["last"]:
                self._discarding.discard(key)
            return
        if not header["last"]:
            self._reassembly.setdefault(key, []).extend(message.segments)
            return
        prefix = self._reassembly.pop(key, None)
        if prefix:
            message._segments[:0] = prefix
            self.messages_reassembled += 1
        self.pass_up(upcall)

    def _lost(self, upcall: Upcall) -> None:
        """A hole in a FIFO stream: discard through the message it broke,
        and pass the loss up once per such message."""
        space = upcall.extra.get("space")
        casts = (True, False) if space is None else (space == 0,)
        report = False
        for cast in casts:
            key = (upcall.source, cast)
            self._reassembly.pop(key, None)
            if key not in self._discarding:
                self._discarding.add(key)
                report = True
        if report:
            self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(
            max_size=self.max_size,
            fragments_sent=self.fragments_sent,
            run_fragments=self._run_fragments,
            runs_sent=self.runs_sent,
            messages_reassembled=self.messages_reassembled,
            partial_buffers=len(self._reassembly),
            discarding=len(self._discarding),
        )
        return info
