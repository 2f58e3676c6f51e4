"""STABLE — application-defined message stability (Section 9).

"A message is called stable if it has been processed by all its
surviving destination processes. ... Horus provides a downcall,
horus_ack(m), with which the application process informs Horus when it
has processed the message m.  Eventually, this information propagates
back to the sender of the message, and onwards to other receivers.  It
is reported using a STABLE upcall.  The upcall contains detailed
information about the stability of the messages ... in the form of a
so-called stability matrix."

The *meaning* of "processed" is entirely the application's — displayed,
logged to disk, safe to delete — which is the paper's answer to the
end-to-end argument: the mechanism is generic, the semantics are
end-to-end.

Properties (Table 3): requires P3, P4, P8, P9, P10, P11, P12, P15;
provides P14 (stability information).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.core.view import View
from repro.net.address import EndpointAddress

_DATA = 0  # data carrying a stability id
_ACKVEC = 1  # gossip: my contiguous-ack frontier per origin

hdr.register(
    "STABLE", wire_id=17,
    fields=[
        ("kind", hdr.U8),
        ("sid", hdr.U64),
        ("vector", hdr.MapOf(hdr.ADDRESS, hdr.U64)),
    ],
    defaults={"sid": 0, "vector": {}},
)


class _AckTracker:
    """Turns possibly out-of-order acks into a contiguous frontier."""

    __slots__ = ("frontier", "out_of_order")

    def __init__(self) -> None:
        self.frontier = 0  # every sid <= frontier is acked
        self.out_of_order: Set[int] = set()

    def ack(self, sid: int) -> None:
        if sid <= self.frontier:
            return
        self.out_of_order.add(sid)
        while self.frontier + 1 in self.out_of_order:
            self.frontier += 1
            self.out_of_order.discard(self.frontier)


@register_layer
class StableLayer(Layer):
    """Tracks which messages every member has *processed*.

    Each data cast gets a per-sender stability id; receivers learn it
    via ``DeliveredMessage.info["stable_id"]`` and acknowledge with the
    ``ack`` downcall (``horus_ack``).  Ack frontiers are gossiped
    periodically; the resulting stability matrix rises to the
    application in STABLE upcalls.

    Config:
        gossip_period (float): ack-vector broadcast period (default 0.2 s).
        auto_ack (bool): acknowledge on delivery automatically — i.e.
            define "processed" as "received" (default False).
    """

    name = "STABLE"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.gossip_period = float(config.get("gossip_period", 0.2))
        self.auto_ack = bool(config.get("auto_ack", False))
        self.view: Optional[View] = None
        self.my_sid = 0
        #: acks[member][origin] = member's contiguous ack frontier.
        self.acks: Dict[EndpointAddress, Dict[EndpointAddress, int]] = {}
        self._local: Dict[EndpointAddress, _AckTracker] = {}
        self._gossip = None
        self._last_frontier: Dict[EndpointAddress, int] = {}
        self.stable_upcalls = 0

    def start(self) -> None:
        self._gossip = self.periodic(self.gossip_period, self._gossip_tick)
        self._gossip.start()

    # ------------------------------------------------------------------
    # Downcalls
    # ------------------------------------------------------------------

    def handle_down(self, downcall: Downcall) -> None:
        if downcall.type is DowncallType.CAST and downcall.message is not None:
            self.my_sid += 1
            downcall.message.push_header(
                self.name, {"kind": _DATA, "sid": self.my_sid}
            )
            self.pass_down(downcall)
        elif downcall.type in (DowncallType.ACK, DowncallType.STABLE):
            stable_id = downcall.extra.get("stable_id")
            if stable_id is not None:
                origin, sid = stable_id
                self._record_local_ack(origin, sid)
        else:
            self.pass_down(downcall)

    def _record_local_ack(self, origin: EndpointAddress, sid: int) -> None:
        tracker = self._local.setdefault(origin, _AckTracker())
        tracker.ack(sid)

    # ------------------------------------------------------------------
    # Upcalls
    # ------------------------------------------------------------------

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self._new_view(upcall.view)
            self.pass_up(upcall)
            return
        if upcall.type is not UpcallType.CAST or upcall.message is None:
            self.pass_up(upcall)
            return
        header = upcall.message.peek_header(self.name)
        if header is None:
            self.pass_up(upcall)
            return
        upcall.message.pop_header(self.name)
        if header["kind"] == _ACKVEC:
            self._on_ackvec(upcall.source, header["vector"])
            return
        stable_id = (upcall.source, header["sid"])
        if self.auto_ack:
            self._record_local_ack(*stable_id)
        upcall.extra["stable_id"] = stable_id
        self.pass_up(upcall)

    def _new_view(self, view: View) -> None:
        # Stability is a per-view notion: the cut restarts with the view.
        self.view = view
        self.my_sid = 0
        self.acks = {}
        self._local = {}
        self._last_frontier = {}

    # ------------------------------------------------------------------
    # Gossip and the stability matrix
    # ------------------------------------------------------------------

    def _gossip_tick(self) -> None:
        if self.view is None:
            return
        vector = {origin: t.frontier for origin, t in self._local.items()}
        message = Message()
        message.push_header(self.name, {"kind": _ACKVEC, "vector": vector})
        self.pass_down(Downcall(DowncallType.CAST, message=message))

    def _on_ackvec(
        self, member: EndpointAddress, vector: Dict[EndpointAddress, int]
    ) -> None:
        self.acks[member] = dict(vector)
        frontier = self.stability_frontier()
        if frontier != self._last_frontier:
            self._last_frontier = frontier
            self.stable_upcalls += 1
            self.pass_up(
                Upcall(
                    UpcallType.STABLE,
                    extra={"matrix": self.matrix(), "frontier": frontier},
                )
            )

    def matrix(self) -> Dict[EndpointAddress, Dict[EndpointAddress, int]]:
        """The stability matrix: per member, per origin, acked frontier."""
        snapshot = {m: dict(v) for m, v in self.acks.items()}
        snapshot[self.endpoint] = {
            origin: t.frontier for origin, t in self._local.items()
        }
        return snapshot

    def stability_frontier(self) -> Dict[EndpointAddress, int]:
        """Per origin: the highest sid processed by *every* member."""
        if self.view is None:
            return {}
        matrix = self.matrix()
        frontier: Dict[EndpointAddress, int] = {}
        origins = set()
        for vector in matrix.values():
            origins.update(vector)
        for origin in origins:
            frontier[origin] = min(
                matrix.get(member, {}).get(origin, 0)
                for member in self.view.members
            )
        return frontier

    def dump(self):
        info = super().dump()
        info.update(
            my_sid=self.my_sid,
            stable_upcalls=self.stable_upcalls,
            frontier={str(k): v for k, v in self.stability_frontier().items()},
            auto_ack=self.auto_ack,
        )
        return info
