"""Simulated network substrates.

The paper runs Horus over ATM and the Internet; here the same layers run
over deterministic simulated networks.  Every network provides exactly
the paper's property ``P1`` (best-effort delivery): packets may be
delayed, lost, duplicated, reordered, or garbled, according to a
configurable :class:`~repro.net.faults.FaultModel`, and the network may
be partitioned via a :class:`~repro.net.partition.PartitionController`.

Three concrete substrates are provided, mirroring the environments the
paper mentions:

* :class:`~repro.net.atm.AtmNetwork` — low-latency, near-lossless,
  small-MTU cell network (the paper's ATM testbed).
* :class:`~repro.net.udp.UdpNetwork` — lossy datagram network (the
  paper's "Internet" case).
* :class:`~repro.net.lan.LanNetwork` — broadcast LAN with hardware
  multicast.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AtmNetwork": "repro.net.atm",
    "Coalescer": "repro.net.coalesce",
    "EndpointAddress": "repro.net.address",
    "FaultModel": "repro.net.faults",
    "GroupAddress": "repro.net.address",
    "LanNetwork": "repro.net.lan",
    "Link": "repro.net.wan",
    "Network": "repro.net.network",
    "NetworkStats": "repro.net.network",
    "Packet": "repro.net.packet",
    "PartitionController": "repro.net.partition",
    "UdpNetwork": "repro.net.udp",
    "WanNetwork": "repro.net.wan",
    "decode_batch": "repro.net.coalesce",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
