"""Real-time execution substrate.

Everything protocol layers assume about their environment is captured by
two seams: the :class:`~repro.runtime.clock.Clock` scheduling interface
and the network attach/unicast/multicast contract.  This package
provides the wall-clock side of both:

* :mod:`repro.runtime.clock` — the :class:`Clock` interface plus the
  substrate-neutral :class:`Timer` / :class:`PeriodicTimer` every layer
  uses (the DES :class:`~repro.sim.scheduler.Scheduler` implements the
  same interface).
* :mod:`repro.runtime.engine` — :class:`RealtimeEngine`, asyncio-backed
  wall-clock clock with the DES's deterministic same-deadline ordering.
* :mod:`repro.runtime.transport` — :class:`UdpTransport`, real OS UDP
  sockets behind the simulated network's contract.
* :mod:`repro.runtime.metrics` — transport counters mirroring
  :class:`~repro.net.network.NetworkStats` plus a latency histogram.
* :mod:`repro.runtime.world` — :class:`RealtimeWorld`, the drop-in
  sibling of the simulation :class:`~repro.core.process.World`.

Submodules are loaded lazily: the clock seam is imported by the
simulation kernel itself, so this package must be importable without
dragging in the network stack (which would be circular).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

_EXPORTS = {
    "Clock": "repro.runtime.clock",
    "EventHandle": "repro.runtime.clock",
    "PeriodicTimer": "repro.runtime.clock",
    "Timer": "repro.runtime.clock",
    "RealtimeEngine": "repro.runtime.engine",
    "TransportStats": "repro.runtime.metrics",
    "UdpTransport": "repro.runtime.transport",
    "DEFAULT_MTU": "repro.runtime.transport",
    "RealtimeWorld": "repro.runtime.world",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - import-time types for checkers only
    from repro.runtime.clock import Clock, EventHandle, PeriodicTimer, Timer
    from repro.runtime.engine import RealtimeEngine
    from repro.runtime.metrics import TransportStats
    from repro.runtime.transport import DEFAULT_MTU, UdpTransport
    from repro.runtime.world import RealtimeWorld


__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
