"""The external failure-detection service of Section 5.

"Although the MBRSHIP layer is able to do its own failure recovery, it
allows for external failure detection.  In this case, an external
service picks up communication problem-reports and other failure
information, and decides whether a process is to be considered faulty
or not.  The output of this service can be fed to all instances of the
MBRSHIP layer, so that the corresponding groups have the same
(consistent) view of the environment."

The value of the service is *consistency*: every subscribed membership
instance receives the same verdicts in the same order, so groups that
share members converge on the same picture of which processes failed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Set

from repro.net.address import EndpointAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.membership.failure_detector import TimeoutFailureDetector

VerdictCallback = Callable[[EndpointAddress], None]


class ExternalFailureDetector:
    """Aggregates problem reports into consistent faulty verdicts.

    A process is declared faulty once ``threshold`` distinct reporters
    have filed problem reports against it (default 1: a single report
    convicts, mirroring aggressive timeout-based detection).  Verdicts
    are broadcast to every subscriber and are final — there is no
    un-declaring, which is what makes the simulated environment
    fail-stop.
    """

    def __init__(self, threshold: int = 1) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._reports: Dict[EndpointAddress, Set[EndpointAddress]] = {}
        self._faulty: List[EndpointAddress] = []
        self._subscribers: List[VerdictCallback] = []

    def subscribe(self, callback: VerdictCallback) -> None:
        """Register a verdict consumer (e.g. one MBRSHIP instance).

        Past verdicts are replayed immediately so late subscribers see
        the same history as everyone else.
        """
        self._subscribers.append(callback)
        for endpoint in self._faulty:
            callback(endpoint)

    def attach(
        self, detector: "TimeoutFailureDetector", reporter: EndpointAddress
    ) -> "TimeoutFailureDetector":
        """Feed ``detector``'s suspicions in as problem reports.

        The detector files each suspicion here as ``reporter``, and
        every subscribed MBRSHIP instance sees the same verdicts in the
        same order.  Returns ``detector`` for chaining.
        """
        detector.subscribe(
            lambda suspect: self.report_problem(reporter, suspect)
        )
        return detector

    def report_problem(
        self, reporter: EndpointAddress, suspect: EndpointAddress
    ) -> None:
        """File a communication-problem report against ``suspect``."""
        if suspect in self._faulty:
            return
        reporters = self._reports.setdefault(suspect, set())
        reporters.add(reporter)
        if len(reporters) >= self.threshold:
            self._declare(suspect)

    def declare_faulty(self, endpoint: EndpointAddress) -> None:
        """Administratively declare ``endpoint`` faulty (e.g. operator)."""
        if endpoint not in self._faulty:
            self._declare(endpoint)

    def faulty(self) -> List[EndpointAddress]:
        """All endpoints declared faulty, in verdict order."""
        return list(self._faulty)

    def is_faulty(self, endpoint: EndpointAddress) -> bool:
        """Whether ``endpoint`` has been declared faulty."""
        return endpoint in self._faulty

    def _declare(self, endpoint: EndpointAddress) -> None:
        self._faulty.append(endpoint)
        self._reports.pop(endpoint, None)
        for callback in self._subscribers:
            callback(endpoint)
