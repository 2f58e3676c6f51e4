"""NNAK — reliable FIFO *unicast* only (Table 3).

The cheaper sibling of NAK for request/response traffic: subset sends
get per-peer sequencing, retransmission, and placeholder handling, but
casts pass through unsequenced (still best effort).  Per Table 3 it
provides only P3; applications that never multicast data pay nothing
for multicast reliability — "an application pays only for properties it
uses" (Section 1).
"""

from __future__ import annotations

from repro.core import headers as hdr
from repro.core.events import Downcall
from repro.core.stack import register_layer
from repro.layers.nak import NakLayer

# NNAK shares NAK's machinery but speaks under its own header tag so the
# two can coexist in one stack without colliding.
hdr.register(
    "NNAK", wire_id=16,
    fields=[
        ("kind", hdr.U8),
        ("era", hdr.U32),
        ("seq", hdr.U64),
        ("lo", hdr.U64),
        ("hi", hdr.U64),
    ],
    defaults={"era": 0, "seq": 0, "lo": 0, "hi": 0},
)


@register_layer
class UnicastNakLayer(NakLayer):
    """NAK's unicast half: sequenced sends, pass-through casts."""

    name = "NNAK"

    def _cast_data(self, downcall: Downcall) -> None:
        # Casts are not this layer's business: no header, no buffering.
        self.pass_down(downcall)

    def _status_tick(self) -> None:
        # No multicast sequence space to advertise; keep the per-peer
        # unicast advertisements (to each destination not gone) and the
        # silence check.
        self._send_ustatus(())
        self._check_silence()
