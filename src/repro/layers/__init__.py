"""The Horus protocol-layer library.

Importing this package registers every layer class with the stack
composer (:func:`repro.core.stack.register_layer`) and every header
codec with the default registry, so a spec string like
``"TOTAL:MBRSHIP:FRAG:NAK:COM"`` resolves without further setup.

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

from repro.layers.bms import BasicMembershipLayer
from repro.layers.causal import CausalOrderLayer, CausalTimestampLayer
from repro.layers.chksum import ChecksumLayer
from repro.layers.com import ComLayer
from repro.layers.compress import CompressionLayer
from repro.layers.credit import CreditLayer
from repro.layers.crypt import EncryptionLayer
from repro.layers.flush import FlushLayer
from repro.layers.frag import FragLayer
from repro.layers.keydist import KeyDistributionLayer
from repro.layers.locate import ResourceLocationLayer
from repro.layers.logger import AccountingLayer, LoggingLayer, TracerLayer
from repro.layers.mbrship import MembershipLayer
from repro.layers.merge import AutoMergeLayer
from repro.layers.nak import NakLayer
from repro.layers.nfrag import NetworkFragLayer
from repro.layers.nnak import UnicastNakLayer
from repro.layers.pinwheel import PinwheelLayer
from repro.layers.prio import PriorityLayer
from repro.layers.realtime import RealTimeLayer
from repro.layers.rpc import RpcLayer
from repro.layers.safe import SafeOrderLayer
from repro.layers.sign import SigningLayer
from repro.layers.sockets import HorusSocket
from repro.layers.stable import StableLayer
from repro.layers.syncclock import SyncClockLayer
from repro.layers.total import TotalOrderLayer
from repro.layers.vss import ViewSemiSyncLayer
from repro.layers.xfer import StateTransferLayer

__all__ = [
    "AccountingLayer",
    "AutoMergeLayer",
    "BasicMembershipLayer",
    "CausalOrderLayer",
    "CausalTimestampLayer",
    "ChecksumLayer",
    "ComLayer",
    "CompressionLayer",
    "CreditLayer",
    "EncryptionLayer",
    "FlushLayer",
    "FragLayer",
    "HorusSocket",
    "KeyDistributionLayer",
    "LoggingLayer",
    "MembershipLayer",
    "NakLayer",
    "NetworkFragLayer",
    "PinwheelLayer",
    "PriorityLayer",
    "RealTimeLayer",
    "ResourceLocationLayer",
    "RpcLayer",
    "SafeOrderLayer",
    "SigningLayer",
    "StableLayer",
    "StateTransferLayer",
    "SyncClockLayer",
    "TotalOrderLayer",
    "TracerLayer",
    "UnicastNakLayer",
    "ViewSemiSyncLayer",
]
