"""Timeout-based failure suspicion.

Failure detectors in Horus are *inaccurate by design* (Section 11: "the
system membership service ... uses potentially inaccurate failure
suspicions").  Components feed the detector evidence of life
(:meth:`~TimeoutFailureDetector.heartbeat`) and it raises suspicion
through subscribed callbacks.  It never claims certainty — a suspected
process may merely be slow, which is exactly the gap the virtual
synchrony model papers over by *simulating* fail-stop behaviour
(Section 5).

Its suspicions feed the Section 5 external failure-detection service
(:meth:`~repro.membership.external_fd.ExternalFailureDetector.attach`),
so every subscribed MBRSHIP instance consumes the same verdicts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

from repro.net.address import EndpointAddress
from repro.sim.scheduler import Scheduler
from repro.runtime.clock import PeriodicTimer

SuspectCallback = Callable[[EndpointAddress], None]


class TimeoutFailureDetector:
    """Suspects monitored endpoints that have been silent too long.

    Usage: call :meth:`monitor` for each peer of interest and
    :meth:`heartbeat` whenever evidence of life arrives (any received
    message counts).  Subscribers get one ``on_suspect`` call per
    silence episode; a later heartbeat rescinds the suspicion and
    re-arms detection.  A periodic scan compares each monitored
    endpoint's last-heard time against ``suspect_timeout``, so the cost
    is O(monitored endpoints) per ``scan_period``.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        suspect_timeout: float = 1.0,
        scan_period: float = 0.25,
    ) -> None:
        self.scheduler = scheduler
        self.suspect_timeout = suspect_timeout
        self._last_heard: Dict[EndpointAddress, float] = {}
        self._suspected: Set[EndpointAddress] = set()
        self._listeners: List[SuspectCallback] = []
        self._timer = PeriodicTimer(scheduler, scan_period, self._scan)
        self._timer.start()

    def subscribe(self, listener: SuspectCallback) -> None:
        """Register a callback invoked on each new suspicion."""
        self._listeners.append(listener)

    def monitor(self, endpoint: EndpointAddress) -> None:
        """Start watching ``endpoint`` (silence clock starts now)."""
        self._last_heard.setdefault(endpoint, self.scheduler.now)

    def forget(self, endpoint: EndpointAddress) -> None:
        """Stop watching ``endpoint`` (e.g. it left the group)."""
        self._last_heard.pop(endpoint, None)
        self._suspected.discard(endpoint)

    def heartbeat(self, endpoint: EndpointAddress) -> None:
        """Record evidence that ``endpoint`` is alive."""
        self._last_heard[endpoint] = self.scheduler.now
        self._suspected.discard(endpoint)

    def suspects(self) -> Set[EndpointAddress]:
        """The currently suspected endpoints."""
        return set(self._suspected)

    def is_suspected(self, endpoint: EndpointAddress) -> bool:
        """Whether ``endpoint`` is currently under suspicion."""
        return endpoint in self._suspected

    def _scan(self) -> None:
        now = self.scheduler.now
        for endpoint, heard in self._last_heard.items():
            if endpoint in self._suspected:
                continue
            if now - heard > self.suspect_timeout:
                self._suspected.add(endpoint)
                for listener in self._listeners:
                    listener(endpoint)

