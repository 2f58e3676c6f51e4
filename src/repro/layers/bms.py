"""BMS — the basic membership service (Table 3).

The membership half of MBRSHIP alone: the same coordinator-driven
agreement protocol produces consistent views (property P15), but no
message store, no unstable-message relay, and no delivery-cut vector —
so it provides neither semi- nor full virtual synchrony.  Stack VSS and
FLUSH above it to add P8 and P9 back as separate microprotocols, or use
MBRSHIP for the fused production version (Section 8's point about
combining reference layers into one optimized layer, in reverse).
"""

from __future__ import annotations

from repro.core import headers as hdr
from repro.core.stack import register_layer
from repro.layers.mbrship import MembershipLayer, _NOBODY

hdr.register(
    "BMS", wire_id=2,
    fields=[
        ("kind", hdr.U8),
        ("vid", hdr.U32),
        ("new_vid", hdr.U32),
        ("round", hdr.U32),
        ("seq", hdr.U64),
        ("origin", hdr.ADDRESS),
        ("members", hdr.ListOf(hdr.ADDRESS)),
        ("joiners", hdr.ListOf(hdr.ADDRESS)),
        ("failed", hdr.ListOf(hdr.ADDRESS)),
        ("vector", hdr.MapOf(hdr.ADDRESS, hdr.U64)),
    ],
    defaults={
        "vid": 0,
        "new_vid": 0,
        "round": 0,
        "seq": 0,
        "origin": _NOBODY,
        "members": [],
        "joiners": [],
        "failed": [],
        "vector": {},
    },
)


@register_layer
class BasicMembershipLayer(MembershipLayer):
    """Consistent views without virtual synchrony (P15 only)."""

    name = "BMS"

    def __init__(self, context, **config) -> None:
        config.setdefault("vs", False)
        super().__init__(context, **config)
