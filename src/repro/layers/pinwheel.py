"""PINWHEEL — rotating stability aggregation.

Section 10: "an application can decide whether or not it needs
end-to-end guarantees, and, if so, whether STABLE or PINWHEEL will be
optimal."  Where STABLE has every member gossip its ack vector every
period (N messages per period), PINWHEEL rotates: in each period
exactly *one* member — chosen by rank from the virtual clock, no token
messages needed — broadcasts its vector.  Background traffic drops from
N to 1 message per period, at the price of stability information that
is up to N periods staler; the Section 10 benchmark quantifies exactly
this trade.

Properties (Table 3): requires P3, P8, P9, P10, P15; provides P14.
"""

from __future__ import annotations

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.layers.stable import StableLayer

hdr.register(
    "PINWHEEL", wire_id=18,
    fields=[
        ("kind", hdr.U8),
        ("sid", hdr.U64),
        ("vector", hdr.MapOf(hdr.ADDRESS, hdr.U64)),
    ],
    defaults={"sid": 0, "vector": {}},
)

_ACKVEC = 1


@register_layer
class PinwheelLayer(StableLayer):
    """STABLE's bookkeeping with a rotating single-broadcaster schedule.

    Config:
        gossip_period (float): slot length; one member broadcasts per
            slot (default 0.2 s).
        auto_ack (bool): as in STABLE.
    """

    name = "PINWHEEL"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self._slot = 0
        self.broadcasts_sent = 0

    def _gossip_tick(self) -> None:
        """Broadcast only when the pinwheel points at us."""
        if self.view is None:
            return
        self._slot += 1
        turn = self._slot % self.view.size
        if self.view.rank_of(self.endpoint) != turn:
            return
        vector = {origin: t.frontier for origin, t in self._local.items()}
        message = Message()
        message.push_header(self.name, {"kind": _ACKVEC, "vector": vector})
        self.broadcasts_sent += 1
        self.pass_down(Downcall(DowncallType.CAST, message=message))

    def dump(self):
        info = super().dump()
        info.update(broadcasts_sent=self.broadcasts_sent, slot=self._slot)
        return info
