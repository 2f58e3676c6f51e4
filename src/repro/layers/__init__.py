"""The Horus protocol-layer library.

Each layer module registers its layer class with the stack composer
(:func:`repro.core.stack.register_layer`) and its header codec with the
default registry when it is imported.  Importing this package imports
none of them: building a stack imports the modules its spec names (the
name -> module table in :mod:`repro.core.stack`), a class read from
this package imports its own module, and
:func:`repro.core.stack.known_layers` imports the whole library.  A
process therefore decodes only the headers of layers it has loaded; a
datagram carrying any other header is undecodable there.

The library covers the paper's Figure 1 table of protocol types and the
Table 3 layer matrix; see each module's docstring for the paper section
it implements.  Layer names usable in stack specs:

====================  =================================================
``COM``               network adapter (bottom of every stack)
``NAK`` / ``NNAK``    reliable FIFO multicast / unicast-only
``FRAG`` / ``NFRAG``  fragmentation above FIFO / over best-effort
``MBRSHIP``           virtual synchrony, fused production layer
``BMS``:``VSS``:``FLUSH``  the same, decomposed into microprotocols
``TOTAL``             token-based total order
``CAUSAL``:``CAUSAL_TS``   causal order over causal timestamps
``STABLE`` / ``PINWHEEL``  stability matrix, gossip / rotating slot
``MERGE``             automatic view merging
``CHKSUM`` ``SIGN`` ``CRYPT`` ``COMPRESS``  integrity/privacy/bandwidth
``CREDIT``            credit-based flow control with backpressure
``PRIO``              priority delivery
``LOGGER`` ``TRACER`` ``ACCOUNT``  journaling / tracing / metering
``XFER``              state transfer to joiners (snapshot streaming)
====================  =================================================

:class:`~repro.layers.sockets.HorusSocket` is the UNIX-socket facade
(the top-most module of Section 2) and wraps a group handle rather than
stacking.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AccountingLayer": "repro.layers.logger",
    "AutoMergeLayer": "repro.layers.merge",
    "BasicMembershipLayer": "repro.layers.bms",
    "CausalOrderLayer": "repro.layers.causal",
    "CausalTimestampLayer": "repro.layers.causal",
    "ChecksumLayer": "repro.layers.chksum",
    "ComLayer": "repro.layers.com",
    "CompressionLayer": "repro.layers.compress",
    "CreditLayer": "repro.layers.credit",
    "EncryptionLayer": "repro.layers.crypt",
    "FlushLayer": "repro.layers.flush",
    "FragLayer": "repro.layers.frag",
    "HorusSocket": "repro.layers.sockets",
    "KeyDistributionLayer": "repro.layers.keydist",
    "LoggingLayer": "repro.layers.logger",
    "MembershipLayer": "repro.layers.mbrship",
    "NakLayer": "repro.layers.nak",
    "NetworkFragLayer": "repro.layers.nfrag",
    "PinwheelLayer": "repro.layers.pinwheel",
    "PriorityLayer": "repro.layers.prio",
    "RealTimeLayer": "repro.layers.realtime",
    "ResourceLocationLayer": "repro.layers.locate",
    "RpcLayer": "repro.layers.rpc",
    "SafeOrderLayer": "repro.layers.safe",
    "SigningLayer": "repro.layers.sign",
    "StableLayer": "repro.layers.stable",
    "StateTransferLayer": "repro.layers.xfer",
    "SyncClockLayer": "repro.layers.syncclock",
    "TotalOrderLayer": "repro.layers.total",
    "TracerLayer": "repro.layers.logger",
    "UnicastNakLayer": "repro.layers.nnak",
    "ViewSemiSyncLayer": "repro.layers.vss",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
