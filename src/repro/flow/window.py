"""Pluggable credit-window managers for the CREDIT layer.

A :class:`WindowManager` is the *receiver-side grant policy* of one
flow: it decides how large the flow's credit window is right now and
how much of the pending (earned-but-unadvertised) credit to extend at
each opportunity.  The CREDIT layer keeps the cumulative accounting —
``consumed_total`` and ``advertised_total`` per flow — and asks the
manager two questions:

* ``grant(pending, now, tail)`` — how many of the ``pending`` credit
  bytes should be advertised *now*?  ``tail=True`` marks the periodic
  grant tick (a chance to flush deferrals); ``tail=False`` is the hot
  path right after a delivery.
* ``window`` — the target amount of unconsumed credit a sender may hold
  (what WINDOW_UPDATE grants aim to restore).

Managers never touch the wire and never read a global clock — ``now``
comes in as an argument from whatever
:class:`~repro.runtime.clock.Clock` the owning stack runs on, which is
what keeps every implementation deterministic under the DES.

Three implementations, in the spirit of the hyper/http20 window manager
split:

* :class:`FixedWindowManager` — constant window; grants are batched to
  half-window quanta so a chatty flow costs two WINDOW_UPDATEs per
  window, not one per message.
* :class:`AimdWindowManager` — TCP-style additive-increase /
  multiplicative-decrease of the window, driven by the sender's
  piggybacked congestion bit (``on_shed``) and clean grant cycles
  (``on_ack``).
* :class:`PacedWindowManager` — grants metered through a byte-rate
  token bucket, turning credit into a smooth rate cap (the receiver
  paces the sender instead of the sender pacing itself).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

from repro.errors import ConfigurationError

#: Default per-flow window in credit bytes (one credit = one body byte,
#: minimum one per message).
DEFAULT_WINDOW = 64 * 1024


class WindowManager:
    """Base class and protocol for credit-window grant policies.

    Subclasses override :meth:`grant` and optionally the adaptation
    hooks.  ``window`` is mutable state — adaptive managers move it.
    """

    def __init__(self, window: int = DEFAULT_WINDOW, **_ignored: Any) -> None:
        if window < 1:
            raise ConfigurationError("window must be at least 1 credit byte")
        self.window = int(window)

    def grant(self, pending: int, now: float, tail: bool = False) -> int:
        """Credit bytes (``0..pending``) to advertise at this moment."""
        raise NotImplementedError

    # -- adaptation hooks (no-ops unless the manager adapts) -----------

    @property
    def floor(self) -> int:
        """The least window this manager can come to hold."""
        return self.window

    def on_shed(self) -> None:
        """The sender reported overload (shed/blocked) on this flow."""

    def on_ack(self) -> None:
        """A grant cycle completed without any overload report."""

    def snapshot(self) -> Dict[str, Any]:
        """Introspection blob for ``dump`` and tests."""
        return {"kind": type(self).__name__, "window": self.window}


class FixedWindowManager(WindowManager):
    """Constant window; grants batched to half-window quanta.

    Deferring grants until half the window has been earned (or the tail
    tick fires) is the standard WINDOW_UPDATE batching trade-off:
    grant traffic stays O(2) per window while the sender never stalls
    for more than half a window plus one tick.
    """

    def grant(self, pending: int, now: float, tail: bool = False) -> int:
        if pending <= 0:
            return 0
        if tail or pending * 2 >= self.window:
            return pending
        return 0


class AimdWindowManager(WindowManager):
    """Additive-increase / multiplicative-decrease adaptive window.

    The congestion signal is end-to-end: a sender that shed or refused
    traffic piggybacks a congestion bit on its next data message, and
    the receiving CREDIT layer calls :meth:`on_shed`; a full grant
    cycle without the bit calls :meth:`on_ack`.  Decreases are
    multiplicative (halve, floor ``min_window``), increases additive
    (``increment``, cap ``max_window``) — the classic AIMD fairness
    argument carried over to receiver-granted credit.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        min_window: int = 1024,
        max_window: int = 4 * DEFAULT_WINDOW,
        increment: int = 4096,
        **_ignored: Any,
    ) -> None:
        super().__init__(window=window)
        if not (1 <= min_window <= window <= max_window):
            raise ConfigurationError(
                "need 1 <= min_window <= window <= max_window"
            )
        self.min_window = int(min_window)
        self.max_window = int(max_window)
        self.increment = int(increment)
        self.decreases = 0
        self.increases = 0

    def grant(self, pending: int, now: float, tail: bool = False) -> int:
        if pending <= 0:
            return 0
        if tail or pending * 2 >= self.window:
            return pending
        return 0

    @property
    def floor(self) -> int:
        return self.min_window

    def on_shed(self) -> None:
        self.window = max(self.min_window, self.window // 2)
        self.decreases += 1

    def on_ack(self) -> None:
        if self.window < self.max_window:
            self.window = min(self.max_window, self.window + self.increment)
            self.increases += 1

    def snapshot(self) -> Dict[str, Any]:
        info = super().snapshot()
        info.update(
            min_window=self.min_window,
            max_window=self.max_window,
            increases=self.increases,
            decreases=self.decreases,
        )
        return info


class PacedWindowManager(WindowManager):
    """Rate-paced grants: a token bucket meters credit at ``rate`` B/s.

    The window bounds the sender's burst; the bucket bounds its
    sustained rate.  The receiver holds the bucket, so a sender cannot
    overrun it by ignoring its own pacing: unearned credit never arrives.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        rate: float = 256 * 1024.0,
        **_ignored: Any,
    ) -> None:
        super().__init__(window=window)
        if rate <= 0:
            raise ConfigurationError("pacing rate must be positive")
        self.rate = float(rate)
        self._tokens = float(window)  # a full initial burst allowance
        self._last: Optional[float] = None  # lazy: first grant() sets it

    def _refill(self, now: float) -> None:
        # Lazy epoch: the first call measures zero elapsed time, never
        # time-since-clock-epoch (nonzero on the realtime substrate).
        if self._last is None:
            self._last = now
        self._tokens = min(
            float(self.window), self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def grant(self, pending: int, now: float, tail: bool = False) -> int:
        if pending <= 0:
            return 0
        self._refill(now)
        amount = int(min(pending, self._tokens))
        if amount > 0:
            self._tokens -= amount
        return amount

    def snapshot(self) -> Dict[str, Any]:
        info = super().snapshot()
        info.update(rate=self.rate, tokens=round(self._tokens, 3))
        return info


_MANAGER_KINDS: Dict[str, Type[WindowManager]] = {
    "fixed": FixedWindowManager,
    "aimd": AimdWindowManager,
    "paced": PacedWindowManager,
}


def make_window_manager(kind: str, **config: Any) -> WindowManager:
    """Factory used by the CREDIT layer: ``make_window_manager("aimd",
    window=8192, increment=512)``.  Unknown kinds raise with the list of
    known ones (mirrors the stack composer's unknown-layer error)."""
    cls = _MANAGER_KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(_MANAGER_KINDS))
        raise ConfigurationError(
            f"unknown window manager {kind!r}; known managers: {known}"
        )
    return cls(**config)
