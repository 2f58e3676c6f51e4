"""Discrete-event simulation kernel.

Horus ran on real networks of Sparc workstations; this reproduction runs
the same protocol layers over a deterministic discrete-event simulation.
The kernel follows the paper's own "event queue model" (Section 3): a
single logical scheduler drives all endpoints, and each layer entry point
is invoked as an event, never concurrently for the same group object.

Public surface:

* :class:`~repro.sim.scheduler.Scheduler` — virtual-time event loop
  (one of two implementations of :class:`~repro.runtime.clock.Clock`;
  the wall-clock one lives in :mod:`repro.runtime`).
* :class:`~repro.runtime.clock.Timer` /
  :class:`~repro.runtime.clock.PeriodicTimer` — cancellable timers built
  on the clock interface (re-exported here).
* :class:`~repro.sim.rand.RandomRouter` — named, independently seeded
  deterministic randomness streams.
* :class:`~repro.sim.trace.TraceRecorder` — structured event traces used
  by the executable specifications in :mod:`repro.verify`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Clock": "repro.runtime.clock",
    "EventCounter": "repro.sim.concurrency",
    "EventHandle": "repro.sim.scheduler",
    "MonitorLock": "repro.sim.concurrency",
    "PeriodicTimer": "repro.runtime.clock",
    "RandomRouter": "repro.sim.rand",
    "Scheduler": "repro.sim.scheduler",
    "Timer": "repro.runtime.clock",
    "TraceRecord": "repro.sim.trace",
    "TraceRecorder": "repro.sim.trace",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
