"""Virtual-time discrete-event scheduler.

The scheduler is a priority queue of ``(time, sequence, handle)``
tuples, so the heap orders itself in C and never compares handles (the
sequence is unique).  Ties on time are broken by insertion order, which
makes every simulation run fully deterministic for a given seed: two
events scheduled for the same instant always fire in the order they
were scheduled.

This is the virtual-time substrate beneath every simulated network and
protocol stack in the package.  Layers never spin or block; they
schedule continuations, exactly as in the event-queue execution model
the Horus paper describes in Section 3.

The scheduler is one of two implementations of the
:class:`~repro.runtime.clock.Clock` interface (the other is the
wall-clock :class:`~repro.runtime.engine.RealtimeEngine`); protocol
code only ever sees the interface.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.runtime.clock import Clock, EventHandle

__all__ = ["EventHandle", "Scheduler"]


class Scheduler(Clock):
    """Deterministic virtual-time event loop.

    Typical use::

        sched = Scheduler()
        sched.call_after(0.5, hello)
        sched.run()           # runs until no events remain
        print(sched.now)      # 0.5
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._running = False
        #: Total number of events executed; useful in benchmarks.
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when:.6f}, now is {self._now:.6f}"
            )
        seq = next(self._seq)
        handle = EventHandle(when, seq, fn, args)
        heapq.heappush(self._heap, (when, seq, handle))
        return handle

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current instant, after queued peers."""
        return self.call_at(self._now, fn, *args)

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        """
        while self._heap:
            _, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = handle.time
            fn, args = handle.fn, handle.args
            handle.fn, handle.args = None, ()  # break reference cycles
            assert fn is not None
            fn(*args)
            self.events_executed += 1
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` passes, or
        ``max_events`` have executed.

        When ``until`` is given, virtual time is advanced to exactly
        ``until`` on return even if the queue drained earlier, so that
        periodic processes observe a consistent notion of elapsed time.

        Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("scheduler is not re-entrant")
        self._running = True
        executed = 0
        try:
            while self._heap:
                if max_events is not None and executed >= max_events:
                    break
                nxt = self._peek()
                if nxt is None:
                    break
                if until is not None and nxt.time > until:
                    break
                if self.step():
                    executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return executed

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain, bounded by ``max_events``.

        Raises :class:`SimulationError` if the bound is hit, which almost
        always indicates a protocol livelock (e.g. two layers ping-ponging
        retransmissions forever).
        """
        executed = self.run(max_events=max_events)
        if self._heap and self._peek() is not None:
            if executed >= max_events:
                raise SimulationError(
                    f"simulation did not go idle within {max_events} events"
                )
        return executed

    def _peek(self) -> Optional[EventHandle]:
        """Return the next live event without popping it, or ``None``."""
        while self._heap:
            handle = self._heap[0][2]
            if handle.cancelled:
                heapq.heappop(self._heap)
                continue
            return handle
        return None

    def __repr__(self) -> str:
        return f"<Scheduler now={self._now:.6f} pending={self.pending()}>"
