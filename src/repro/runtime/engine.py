"""Wall-clock realtime engine over asyncio.

The second implementation of the :class:`~repro.runtime.clock.Clock`
interface: ``now`` reads the event loop's monotonic clock, and scheduled
callbacks fire at real deadlines via ``loop.call_at``.

Two properties carry over from the discrete-event scheduler so protocol
code behaves identically on both substrates:

* **Deterministic same-deadline ordering.**  The engine keeps its own
  heap of ``(time, seq, handle)`` tuples (ordered in C; the unique seq
  means handles are never compared) and drains all due events through a
  single asyncio timer, so events scheduled for the same instant fire in
  scheduling order — asyncio's raw heap makes no such promise for ties.
* **No re-entrancy.**  ``call_soon`` work runs from the pump, never
  inside the scheduling call.

Unlike the DES, scheduling in the past is allowed (clamped to "as soon
as possible"): a wall clock cannot refuse late work, it can only run it
immediately.

The engine does not spin a thread; the loop runs only while the caller
is inside :meth:`run_for` / :meth:`run_until` (mirroring how the DES
only advances inside ``World.run``), which keeps the whole system
single-threaded and free of locks.

Timer resolution: asyncio's stock ``EpollSelector`` rounds every idle
wait up to a whole millisecond, so the engine builds its loop on a
selector that waits with microsecond resolution instead (see
``docs/architecture.md``, "Timer resolution"); kqueue platforms keep
the stock selector, whose wait is already sub-millisecond.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import select
import selectors
from typing import Any, Callable, List, Optional, Tuple

from repro.runtime.clock import Clock, EventHandle

if hasattr(selectors, "EpollSelector"):

    class _MicrosecondEpollSelector(selectors.EpollSelector):
        """An epoll selector whose idle wait is not rounded up to 1 ms.

        ``epoll_wait`` takes whole milliseconds, so a 200 µs deadline
        sleeps 1 ms.  An epoll fd is itself readable exactly when it has
        events pending: wait on *it* with ``select`` (a ``timeval``,
        microseconds; one fd, so ``FD_SETSIZE`` does not bound how many
        sockets are registered), then collect the events without
        blocking.  A zero or absent timeout is the stock single syscall.
        """

        def select(self, timeout: Optional[float] = None) -> list:
            if timeout is not None and timeout > 0:
                try:
                    select.select((self,), (), (), timeout)
                except ValueError:
                    # The epoll fd itself is >= FD_SETSIZE (the process
                    # held that many fds when the loop was made): keep
                    # the millisecond wait rather than fail.
                    pass
                else:
                    timeout = 0
            return super().select(timeout)

    def _new_loop() -> asyncio.AbstractEventLoop:
        return asyncio.SelectorEventLoop(_MicrosecondEpollSelector())

else:  # kqueue (timespec waits) and everything else: the stock loop
    _new_loop = asyncio.new_event_loop

#: ``_armed_at`` while the pump drains: no deadline is earlier.
_DRAINING = float("-inf")


class RealtimeEngine(Clock):
    """Real-time event loop satisfying the :class:`Clock` contract.

    Typical use::

        engine = RealtimeEngine()
        engine.call_after(0.05, hello)
        engine.run_for(0.1)       # drives the asyncio loop for 100 ms
    """

    def __init__(self) -> None:
        self._loop = _new_loop()
        self._epoch = self._loop.time()
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._pump_handle: Optional[asyncio.TimerHandle] = None
        #: Engine time the pump is armed for (meaningful while
        #: ``_pump_handle`` is set; ``_DRAINING`` inside the pump).
        self._armed_at = 0.0
        self._running = False
        #: Total number of events executed; useful in benchmarks.
        self.events_executed = 0
        #: Callbacks that raised (reported to the loop's exception handler).
        self.callback_errors = 0
        #: Sum and max over executed events of how long after its
        #: deadline each one ran, in seconds (mean = sum / events_executed).
        self.timer_lateness_sum = 0.0
        self.timer_lateness_max = 0.0

    # ------------------------------------------------------------------
    # The Clock surface
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds of monotonic wall-clock time since engine creation."""
        return self._loop.time() - self._epoch

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at engine time ``when`` (past ⇒ ASAP)."""
        when = max(when, self.now)
        seq = next(self._seq)
        handle = EventHandle(when, seq, fn, args)
        heapq.heappush(self._heap, (when, seq, handle))
        self._arm(when)
        return handle

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` wall-clock seconds."""
        return self.call_at(self.now + max(delay, 0.0), fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current instant, after queued peers."""
        return self.call_at(self.now, fn, *args)

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    # ------------------------------------------------------------------
    # Driving the loop
    # ------------------------------------------------------------------

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The underlying asyncio loop (transports register against it)."""
        return self._loop

    def sync(self, coro: Any) -> Any:
        """Run a coroutine to completion on the engine's loop (setup aid)."""
        return self._loop.run_until_complete(coro)

    def run_for(self, duration: float) -> None:
        """Drive the loop for ``duration`` wall-clock seconds.

        Due timers, socket I/O, and continuations all execute inside this
        call.  Not re-entrant (don't call it from a scheduled callback).
        """
        if self._running:
            raise RuntimeError("engine is not re-entrant")
        self._running = True
        try:
            self._loop.run_until_complete(asyncio.sleep(max(duration, 0.0)))
        finally:
            self._running = False

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 5.0,
        poll: float = 0.01,
    ) -> bool:
        """Drive the loop until ``predicate()`` holds or ``timeout`` passes.

        Returns the predicate's final value.  ``poll`` bounds how stale
        the check may be; I/O and timers still run continuously.
        ``poll=0`` re-checks between event-loop iterations instead of
        sleeping: zero staleness and no sleep-quantum overshoot, at the
        price of a busy loop — closed-loop benchmarks use it so pacing
        gaps measure the stack, not the poll granularity.
        """
        deadline = self.now + timeout
        if poll <= 0:
            if predicate():
                return True
            if self._running:
                raise RuntimeError("engine is not re-entrant")
            future = self._loop.create_future()

            def check() -> None:
                if predicate() or self.now >= deadline:
                    future.set_result(None)
                else:
                    self._loop.call_soon(check)

            self._loop.call_soon(check)
            self._running = True
            try:
                self._loop.run_until_complete(future)
            finally:
                self._running = False
            return bool(predicate())
        while not predicate():
            remaining = deadline - self.now
            if remaining <= 0:
                return bool(predicate())
            self.run_for(min(poll, remaining))
        return True

    def close(self) -> None:
        """Close the underlying loop.  The engine is unusable afterwards."""
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None
        if not self._loop.is_closed():
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    # ------------------------------------------------------------------
    # The pump: one asyncio timer armed for the earliest deadline
    # ------------------------------------------------------------------

    def _peek(self) -> Optional[EventHandle]:
        while self._heap:
            handle = self._heap[0][2]
            if handle.cancelled:
                heapq.heappop(self._heap)
                continue
            return handle
        return None

    def _arm(self, when: float) -> None:
        """Make sure the pump runs no later than engine time ``when``.

        An armed pump is replaced only by an earlier deadline; when its
        own event was cancelled it fires with nothing due and re-arms,
        which is cheaper than a cancel-and-create per ``call_at``.
        """
        if self._pump_handle is not None:
            if when >= self._armed_at:
                return
            self._pump_handle.cancel()
        self._armed_at = when
        self._pump_handle = self._loop.call_at(when + self._epoch, self._pump)

    def _pump(self) -> None:
        # Callbacks schedule at or after now: they arm nothing, the pump
        # arms once for whatever is left when the drain ends.
        self._armed_at = _DRAINING
        try:
            while True:
                head = self._peek()
                if head is None:
                    break
                late = self.now - head.time
                if late < 0:
                    break
                heapq.heappop(self._heap)
                self.timer_lateness_sum += late
                if late > self.timer_lateness_max:
                    self.timer_lateness_max = late
                fn, args = head.fn, head.args
                head.fn, head.args = None, ()  # break reference cycles
                assert fn is not None
                try:
                    fn(*args)
                except Exception as exc:  # keep draining; report like asyncio does
                    self.callback_errors += 1
                    self._loop.call_exception_handler(
                        {"message": "exception in realtime engine callback",
                         "exception": exc}
                    )
                self.events_executed += 1
        finally:
            self._pump_handle = None
            head = self._peek()
            if head is not None:
                self._arm(head.time)

    def __repr__(self) -> str:
        return f"<RealtimeEngine now={self.now:.6f} pending={self.pending()}>"
