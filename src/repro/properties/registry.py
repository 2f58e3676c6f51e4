"""Table 3: the per-layer Requires / Inherits / Provides matrix.

Each registered layer has a :class:`LayerProfile` stating which
properties it requires from the communication beneath it, which it
provides itself, and which it refuses to pass through (``destroys`` —
the complement of the paper's *inherits*; almost every layer inherits
everything it does not provide, so listing the exceptions is clearer).

The profiles below transcribe Table 3 of the paper for the layers it
covers, and extend the same discipline to the auxiliary protocol types
of Figure 1 (checksumming, signing, encryption, compression, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List

from repro.errors import PropertyError
from repro.properties.props import ALL_PROPERTIES, P, property_description


@dataclass(frozen=True)
class LayerProfile:
    """One row of Table 3."""

    name: str
    requires: FrozenSet[P]
    provides: FrozenSet[P]
    #: Properties this layer does NOT pass through (inherits = all - destroys).
    destroys: FrozenSet[P] = field(default_factory=frozenset)
    #: Short note on what the layer is for (Figure 1's "used for" column).
    purpose: str = ""

    @property
    def inherits(self) -> FrozenSet[P]:
        """Properties passed through unchanged from below."""
        return ALL_PROPERTIES - self.destroys - self.provides

    def apply(self, below: FrozenSet[P]) -> FrozenSet[P]:
        """Properties available above this layer, given those below."""
        return (below & self.inherits) | self.provides

    def satisfied_by(self, below: FrozenSet[P]) -> bool:
        """Whether the stack beneath meets this layer's requirements."""
        return self.requires <= below

    def missing(self, below: FrozenSet[P]) -> FrozenSet[P]:
        """Required properties the stack beneath fails to supply."""
        return self.requires - below


def _ps(*nums: int) -> FrozenSet[P]:
    return frozenset(P(n) for n in nums)


PROFILES: Dict[str, LayerProfile] = {}


def register_profile(profile: LayerProfile) -> LayerProfile:
    """Add a profile to the registry (duplicate names are an error)."""
    if profile.name in PROFILES:
        raise PropertyError(f"profile for {profile.name!r} already registered")
    PROFILES[profile.name] = profile
    return profile


def profile_for(layer_name: str) -> LayerProfile:
    """The Table 3 row for ``layer_name``."""
    try:
        return PROFILES[layer_name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise PropertyError(
            f"no property profile for layer {layer_name!r}; known: {known}"
        ) from None


# ----------------------------------------------------------------------
# Table 3 proper
# ----------------------------------------------------------------------

register_profile(
    LayerProfile(
        "COM",
        requires=_ps(1),
        provides=_ps(10, 11),
        purpose="network interface to HCPI; source addresses",
    )
)
register_profile(
    LayerProfile(
        "NFRAG",
        requires=_ps(1, 10, 11),
        provides=_ps(12),
        purpose="network-level fragmentation (below the FIFO layer)",
    )
)
register_profile(
    LayerProfile(
        "NAK",
        requires=_ps(1, 10, 11),
        provides=_ps(3, 4),
        # Reliable FIFO *replaces* raw best-effort delivery: Section 7
        # derives the example stack's properties without P1.
        destroys=_ps(1),
        purpose="reliable FIFO via negative acknowledgements",
    )
)
register_profile(
    LayerProfile(
        "NNAK",
        requires=_ps(1, 10, 11),
        provides=_ps(3),
        destroys=_ps(1),
        purpose="reliable FIFO unicast only",
    )
)
register_profile(
    LayerProfile(
        "FRAG",
        requires=_ps(3, 4, 10, 11),
        provides=_ps(12),
        purpose="fragmentation/reassembly over FIFO",
    )
)
register_profile(
    LayerProfile(
        "MBRSHIP",
        requires=_ps(3, 4, 10, 11, 12),
        provides=_ps(8, 9, 15),
        purpose="virtually synchronous membership (Section 5)",
    )
)
register_profile(
    LayerProfile(
        "BMS",
        requires=_ps(3, 4, 10, 11, 12),
        provides=_ps(15),
        purpose="basic membership service: consistent views only",
    )
)
register_profile(
    LayerProfile(
        "VSS",
        requires=_ps(3, 10, 11, 12, 15),
        provides=_ps(8),
        purpose="virtually semi-synchronous delivery over consistent views",
    )
)
register_profile(
    LayerProfile(
        "FLUSH",
        requires=_ps(3, 4, 8, 10, 11, 12, 15),
        provides=_ps(9),
        purpose="flush protocol: upgrades semi-synchrony to virtual synchrony",
    )
)
register_profile(
    LayerProfile(
        "STABLE",
        requires=_ps(3, 4, 8, 9, 10, 11, 12, 15),
        provides=_ps(14),
        purpose="application-defined stability matrix (Section 9)",
    )
)
register_profile(
    LayerProfile(
        "PINWHEEL",
        requires=_ps(3, 8, 9, 10, 15),
        provides=_ps(14),
        purpose="rotating-token stability aggregation",
    )
)
register_profile(
    LayerProfile(
        "TOTAL",
        requires=_ps(3, 8, 9, 15),
        provides=_ps(6),
        purpose="token-based total order (Section 7)",
    )
)
register_profile(
    LayerProfile(
        "CAUSAL_TS",
        requires=_ps(3, 4),
        provides=_ps(13),
        purpose="vector timestamps on each message",
    )
)
register_profile(
    LayerProfile(
        "CAUSAL",
        requires=_ps(3, 8, 9, 10, 13, 15),
        provides=_ps(5),
        purpose="ORDER(causal): causal delivery from causal timestamps",
    )
)
register_profile(
    LayerProfile(
        "SAFE",
        requires=_ps(3, 8, 9, 14, 15),
        provides=_ps(5, 7),
        purpose="ORDER(safe): deliver only stable (safe) messages",
    )
)
register_profile(
    LayerProfile(
        "MERGE",
        requires=_ps(3, 4, 8, 9, 10, 11, 12, 15),
        provides=_ps(16),
        purpose="automatic view merging after partitions heal",
    )
)

# ----------------------------------------------------------------------
# Figure 1's auxiliary protocol types, same discipline
# ----------------------------------------------------------------------

register_profile(
    LayerProfile(
        "CHKSUM",
        requires=_ps(1),
        provides=frozenset(),
        purpose="checksumming: garbling detection",
    )
)
register_profile(
    LayerProfile(
        "SIGN",
        requires=_ps(1, 11),
        provides=frozenset(),
        purpose="signing: keyed MAC against impersonation",
    )
)
register_profile(
    LayerProfile(
        "CRYPT",
        requires=_ps(1),
        provides=frozenset(),
        purpose="encryption: private communication",
    )
)
register_profile(
    LayerProfile(
        "COMPRESS",
        requires=_ps(1),
        provides=frozenset(),
        purpose="compression: better bandwidth use",
    )
)
register_profile(
    LayerProfile(
        "CREDIT",
        requires=frozenset(),
        provides=frozenset(),
        purpose="credit-based flow control: receiver-granted windows, "
        "bounded queues, backpressure verdicts",
    )
)
register_profile(
    LayerProfile(
        "PRIO",
        requires=frozenset(),
        provides=_ps(2),
        # Reordering by priority forfeits every ordering guarantee.
        destroys=_ps(3, 4, 5, 6, 7),
        purpose="prioritized effort delivery",
    )
)
register_profile(
    LayerProfile(
        "LOGGER",
        requires=frozenset(),
        provides=frozenset(),
        purpose="logging: tolerance of total crash failures",
    )
)
register_profile(
    LayerProfile(
        "TRACER",
        requires=frozenset(),
        provides=frozenset(),
        purpose="tracing: debugging and statistics",
    )
)
register_profile(
    LayerProfile(
        "ACCOUNT",
        requires=frozenset(),
        provides=frozenset(),
        purpose="accounting: usage tracking",
    )
)
register_profile(
    LayerProfile(
        "SOCKETS",
        requires=frozenset(),
        provides=frozenset(),
        purpose="UNIX-socket-style facade (Section 11)",
    )
)


register_profile(
    LayerProfile(
        "RPC",
        requires=_ps(3, 11),
        provides=frozenset(),
        purpose="rpc: client/server request-reply interactions",
    )
)
register_profile(
    LayerProfile(
        "SYNC",
        requires=_ps(3, 11, 15),
        provides=frozenset(),
        purpose="synchronization of clocks against the coordinator",
    )
)
register_profile(
    LayerProfile(
        "REALTIME",
        requires=frozenset(),
        provides=frozenset(),
        purpose="real-time: guaranteed time bounds on delivery",
    )
)
register_profile(
    LayerProfile(
        "KEYDIST",
        requires=_ps(3, 9, 11, 15),
        provides=frozenset(),
        purpose="key distribution: per-view group keys from the coordinator",
    )
)
register_profile(
    LayerProfile(
        "LOCATE",
        requires=_ps(4, 11, 15),
        provides=frozenset(),
        purpose="resource location: membership-aware service discovery",
    )
)
register_profile(
    LayerProfile(
        "XFER",
        # Snapshot streams are subset sends that must arrive reliably,
        # in order, within the view that triggered them — i.e. the full
        # virtual-synchrony bundle MBRSHIP provides.
        requires=_ps(3, 4, 8, 9, 10, 11, 12, 15),
        provides=frozenset(),
        purpose="state transfer to joiners (Section 9 snapshot streaming)",
    )
)

# ----------------------------------------------------------------------
# Rendering (regenerates the paper's tables from the live registry)
# ----------------------------------------------------------------------

#: Rows of the published Table 3, in the paper's order.
TABLE3_ORDER: List[str] = [
    "COM",
    "NFRAG",
    "NAK",
    "NNAK",
    "FRAG",
    "MBRSHIP",
    "BMS",
    "VSS",
    "FLUSH",
    "STABLE",
    "PINWHEEL",
    "TOTAL",
    "CAUSAL",
    "SAFE",
    "MERGE",
]


def render_table3(layers: Iterable[str] = TABLE3_ORDER) -> str:
    """Render the Requires/Inherits/Provides matrix as text."""
    props = sorted(ALL_PROPERTIES)
    header = "Layer     | " + " ".join(f"{int(p):>2d}" for p in props)
    rule = "-" * len(header)
    lines = [header, rule]
    for name in layers:
        profile = profile_for(name)
        cells = []
        for prop in props:
            if prop in profile.requires and prop in profile.provides:
                cells.append("RP")
            elif prop in profile.requires:
                cells.append(" R")
            elif prop in profile.provides:
                cells.append(" P")
            elif prop in profile.inherits:
                cells.append(" I")
            else:
                cells.append(" .")
        lines.append(f"{name:<9} | " + " ".join(cells))
    return "\n".join(lines)


def render_table4() -> str:
    """Render the property list of Table 4 as text."""
    lines = [f"{str(p):<4} {property_description(p)}" for p in sorted(ALL_PROPERTIES)]
    return "\n".join(lines)
