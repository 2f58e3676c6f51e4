"""The execution-substrate seam: clocks, event handles, and timers.

Every protocol layer in this package schedules work through exactly four
operations — ``now``, ``call_at``, ``call_after``, ``call_soon`` — and
cancels it through the handle those operations return.  :class:`Clock`
names that contract.  Two substrates implement it:

* :class:`repro.sim.scheduler.Scheduler` — deterministic virtual-time
  discrete-event simulation (the reproduction's original home).
* :class:`repro.runtime.engine.RealtimeEngine` — wall-clock time on an
  asyncio event loop, for serving real traffic over real sockets.

Because layers, timers, and the :class:`~repro.core.process.Process`
machinery only ever touch the :class:`Clock` surface, the same protocol
stack runs unmodified on either substrate — the hourglass waist of the
execution model, mirroring how the paper's HCPI is the waist of the
protocol model.

Contract notes shared by all implementations:

* Events scheduled for the same deadline fire in scheduling order
  (deterministic tie-breaking).  Protocols rely on this: a layer that
  does ``call_soon(a); call_soon(b)`` observes ``a`` before ``b``.
* ``call_soon`` runs *after* already-queued work at the current instant,
  never re-entrantly inside the scheduling call.
* Scheduling in the past is substrate-defined: the DES refuses (time
  cannot run backwards in a simulation), the realtime engine clamps to
  "as soon as possible" (wall clocks cannot refuse late work).

The :class:`Timer` and :class:`PeriodicTimer` shapes used by every
protocol layer, and the :class:`FlushPacer` both batchers below the
stack share, live here too, written against :class:`Clock` alone so they
tick identically in simulation and in real time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is *lazy*: the entry stays in the owner's heap but is
    skipped when popped.  This keeps :meth:`cancel` O(1).  Handles
    are not ordered: the owners heap ``(time, seq, handle)`` tuples.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True
        self.fn = None
        self.args = ()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Clock(ABC):
    """What a layer may assume about time: read it, schedule against it.

    ``now`` is seconds since an implementation-defined epoch (simulation
    start for the DES, engine construction for the realtime engine); only
    differences of ``now`` values are meaningful across substrates.
    """

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in seconds on this clock."""

    @abstractmethod
    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute clock time ``when``."""

    @abstractmethod
    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""

    @abstractmethod
    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current instant, after queued peers."""


class Timer:
    """A restartable one-shot timer (a classic retransmission timer).

    ``start()`` arms the timer; arming an armed timer re-arms it (the
    previous deadline is cancelled).  The callback runs once per arming.
    """

    def __init__(
        self,
        scheduler: Clock,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        self._scheduler = scheduler
        self.interval = interval
        self._callback = callback
        self._args = args
        self._handle: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        """Whether the timer is currently counting down."""
        return self._handle is not None and not self._handle.cancelled

    def start(self, interval: Optional[float] = None) -> None:
        """Arm (or re-arm) the timer; ``interval`` overrides the default."""
        self.cancel()
        delay = self.interval if interval is None else interval
        self._handle = self._scheduler.call_after(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if armed.  Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback(*self._args)


class FlushPacer:
    """When a batcher's open batch leaves for its device (wire, disk).

    :meth:`batch_started` schedules ``callback(*args, trigger)`` once
    per batch: with trigger ``"idle"`` at the end of the current turn
    (``call_soon`` — after the handler that produced the first item, so
    everything that handler produces shares the flush) when the device
    has been quiet for ``interval``, else with trigger ``"paced"`` at
    ``last flush + interval``.  Both halves of the budget hold: no item
    waits longer than ``interval``, and the device is flushed by this
    clock at most once per ``interval`` — under load batches fill
    exactly as if the timer ran from the previous flush.  The owner
    reports every flush, whatever triggered it, through :meth:`flushed`.
    """

    __slots__ = ("_clock", "interval", "_callback", "_args", "_handle", "_last_flush")

    def __init__(
        self,
        clock: Clock,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        self._clock = clock
        self.interval = interval
        self._callback = callback
        self._args = args
        self._handle: Optional[EventHandle] = None
        self._last_flush = float("-inf")

    def batch_started(self) -> None:
        """The first item of a batch was buffered: schedule its flush."""
        due = self._last_flush + self.interval
        if due <= self._clock.now:
            self._handle = self._clock.call_soon(self._fire, "idle")
        else:
            self._handle = self._clock.call_at(due, self._fire, "paced")

    def flushed(self) -> None:
        """The batch left (by any trigger): disarm, restart the spacing."""
        self.cancel()
        self._last_flush = self._clock.now

    def cancel(self) -> None:
        """The batch was dropped unsent: disarm.  Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self, trigger: str) -> None:
        self._handle = None
        self._callback(*self._args, trigger)


class PeriodicTimer:
    """Fires ``callback`` every ``period`` seconds until stopped.

    The first firing happens one full period after :meth:`start` unless
    ``immediate=True`` is passed, in which case it fires at once (useful
    for protocols that want an initial heartbeat straight away).
    """

    def __init__(
        self,
        scheduler: Clock,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        self._scheduler = scheduler
        self.period = period
        self._callback = callback
        self._args = args
        self._handle: Optional[EventHandle] = None
        self._running = False
        #: Number of times the timer has fired since construction.
        self.fired = 0

    @property
    def running(self) -> bool:
        """Whether the timer is currently ticking."""
        return self._running

    def start(self, immediate: bool = False) -> None:
        """Begin periodic firing.  Starting a running timer restarts it."""
        self.stop()
        self._running = True
        if immediate:
            self._handle = self._scheduler.call_soon(self._fire)
        else:
            self._handle = self._scheduler.call_after(self.period, self._fire)

    def stop(self) -> None:
        """Stop firing.  Idempotent."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if not self._running:
            return
        self.fired += 1
        # Reschedule before running the callback so a callback that stops
        # the timer wins over the reschedule.
        self._handle = self._scheduler.call_after(self.period, self._fire)
        self._callback(*self._args)
