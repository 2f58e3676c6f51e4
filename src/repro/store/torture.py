"""Crash-at-every-fsync torture: the durability contract, executed.

The ``group`` durability mode buys throughput by holding acknowledged-
later records in volatile buffers.  The contract they must keep (and
the one this module exists to break if it can) is:

* **prefix** — whatever replay recovers is a clean prefix of the
  append sequence: no holes, no reordering, no mixing;
* **acked ⊆ recovered** — every record whose :class:`CommitTicket`
  completed before the crash is in that prefix.  Records that were
  merely *enqueued* may be lost; that is the deal the caller accepted
  by not waiting.

Two injection seams cover both substrates (the in-memory DES backend
and the realtime file backend are exercised identically):

* :class:`FlushCrasher` plugs into :attr:`WalWriter.fault_hook` and
  raises :class:`SimulatedCrash` at a chosen flush boundary —
  ``before_write`` (batch lost whole), ``after_write`` (staged but
  maybe unsynced), ``after_sync`` (durable but unacknowledged).
* :class:`CrashingBackend` wraps any backend and crashes on the Nth
  call of a chosen verb, optionally writing only a byte-prefix first —
  the torn-tail / partial-batch case, and the crash-between-replaces
  window inside snapshot compaction.

:func:`crash_at_every_fsync` drives the full matrix: for every flush
index and every phase, run a fresh append workload, crash there,
"reboot" (drop volatile state, reopen the surviving bytes), replay,
and assert the contract.  Both the torture tests and the chaos CLI
build on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.store.policy import DurabilityPolicy
from repro.store.store import DurableStore


class SimulatedCrash(Exception):
    """The injected failure: treated exactly like a power cut."""


#: The flush phases a :class:`FlushCrasher` can target, in pipeline order.
FLUSH_PHASES = ("before_write", "after_write", "after_sync")


class FlushCrasher:
    """A ``fault_hook`` that crashes at one exact flush boundary.

    ``at_flush`` counts flush *attempts* (0-based) across the writer's
    lifetime; ``phase`` picks where inside that flush the power dies.
    """

    def __init__(self, phase: str, at_flush: int = 0) -> None:
        if phase not in FLUSH_PHASES:
            raise ValueError(f"unknown flush phase {phase!r}")
        self.phase = phase
        self.at_flush = at_flush
        #: Flush attempts observed so far.
        self.attempts = 0
        #: Whether the crash actually fired (False means the run had
        #: fewer flushes than ``at_flush`` — the matrix is exhausted).
        self.fired = False
        self._current = -1

    def __call__(self, phase: str, records: int, nbytes: int) -> None:
        if phase == "before_write":
            self._current = self.attempts
            self.attempts += 1
        if (
            not self.fired
            and phase == self.phase
            and self._current == self.at_flush
        ):
            self.fired = True
            raise SimulatedCrash(
                f"injected crash: {phase} of flush #{self._current} "
                f"({records} records, {nbytes}B)"
            )


@dataclass
class _Plan:
    """One armed backend crash."""

    at_call: int
    partial_bytes: Optional[int] = None
    name: Optional[str] = None
    calls: int = 0
    fired: bool = False


class CrashingBackend:
    """Backend proxy that dies on the Nth call of a chosen verb.

    ``arm("append_many", partial_bytes=13, name="wal.log")`` makes the
    matching call durably write only the first 13 bytes of its batch
    and then raise — the worst-case torn tail.  ``arm("replace",
    at_call=1)`` crashes between the snapshot replace and the WAL
    truncation inside compaction.  Unarmed verbs pass straight
    through, so the proxy is safe to leave in place across a "reboot".
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self._plans: Dict[str, _Plan] = {}

    def arm(
        self,
        verb: str,
        at_call: int = 0,
        partial_bytes: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        """Schedule a crash on the ``at_call``-th matching ``verb`` call."""
        self._plans[verb] = _Plan(
            at_call=at_call, partial_bytes=partial_bytes, name=name
        )

    def disarm(self) -> None:
        """Forget every armed crash (the reboot path)."""
        self._plans.clear()

    def fired(self, verb: str) -> bool:
        """Whether the armed crash on ``verb`` went off."""
        plan = self._plans.get(verb)
        return plan is not None and plan.fired

    def _maybe_crash(self, verb: str, name: str, data: bytes = b"") -> None:
        plan = self._plans.get(verb)
        if plan is None or plan.fired:
            return
        if plan.name is not None and name != plan.name:
            return
        call = plan.calls
        plan.calls += 1
        if call != plan.at_call:
            return
        plan.fired = True
        if plan.partial_bytes is not None and data:
            torn = data[: plan.partial_bytes]
            if torn:
                # Durable partial write: the torn prefix reached disk
                # before the power died.
                self.inner.append(name, torn)
        raise SimulatedCrash(f"injected crash: {verb}({name!r}) call #{call}")

    # -- the backend surface, crash checks first ----------------------------

    def read(self, name: str) -> bytes:
        return self.inner.read(name)

    def append(self, name: str, data: bytes) -> None:
        self._maybe_crash("append", name, data)
        self.inner.append(name, data)

    def append_many(self, name: str, records: Iterable[bytes]) -> None:
        records = list(records)
        self._maybe_crash("append_many", name, b"".join(records))
        self.inner.append_many(name, records)

    def sync(self, name: str) -> None:
        self._maybe_crash("sync", name)
        self.inner.sync(name)

    def replace(self, name: str, data: bytes) -> None:
        self._maybe_crash("replace", name, data)
        self.inner.replace(name, data)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


@dataclass
class TortureCycle:
    """One crash/reboot/verify cycle's outcome."""

    phase: str
    at_flush: int
    crashed: bool
    #: LSNs whose tickets completed before the crash.
    acked: List[int] = field(default_factory=list)
    #: Records replay recovered after the reboot.
    recovered: int = 0


def run_crash_cycle(
    backend,
    policy: DurabilityPolicy,
    payloads: Sequence[bytes],
    crasher: Optional[FlushCrasher] = None,
    clock=None,
) -> List[int]:
    """Append ``payloads`` through a fresh store over ``backend`` with
    ``crasher`` armed, then kill the process image: volatile buffers
    are dropped, nothing else runs.  Returns the LSNs that were
    acknowledged (ticket done) at the moment of death.

    The injected :class:`SimulatedCrash` surfaces inline, from the
    append or flush that hit it; any other exception propagates — a
    torture harness must not eat real bugs.
    """
    store = DurableStore(backend, name="torture", policy=policy, clock=clock)
    if crasher is not None:
        store.writer.fault_hook = crasher
    tickets = []
    try:
        for payload in payloads:
            tickets.append(store.append(payload))
        store.writer.drain()
    except SimulatedCrash:
        pass
    # The power is off: whatever never reached the backend is gone.
    store.writer.discard_pending()
    return [t.lsn for t in tickets if t.done()]


def verify_recovery(
    backend, payloads: Sequence[bytes], acked: Sequence[int]
) -> int:
    """Reboot onto ``backend`` and assert the durability contract.

    Raises :class:`AssertionError` when replay is not a clean prefix of
    ``payloads`` or is missing an acknowledged record.  Returns how
    many records were recovered.
    """
    inner = backend.inner if isinstance(backend, CrashingBackend) else backend
    replayed = DurableStore(inner, name="torture-replay").replay()
    recovered = replayed.entries
    prefix = list(payloads[: len(recovered)])
    assert recovered == prefix, (
        f"replay is not a prefix of the append sequence: recovered "
        f"{len(recovered)} records, first divergence at "
        f"{next((i for i, (a, b) in enumerate(zip(recovered, prefix)) if a != b), '?')}"
    )
    lost = [lsn for lsn in acked if lsn >= len(recovered)]
    assert not lost, (
        f"acknowledged records lost after crash: LSNs {lost} "
        f"(recovered {len(recovered)} of {len(payloads)})"
    )
    return len(recovered)


def crash_at_every_fsync(
    make_backend: Callable[[], object],
    policy: DurabilityPolicy,
    payloads: Sequence[bytes],
    phases: Tuple[str, ...] = FLUSH_PHASES,
    clock_factory: Optional[Callable[[], object]] = None,
) -> List[TortureCycle]:
    """The full matrix: crash at every flush boundary, in every phase.

    For each phase, runs crash cycles at flush index 0, 1, 2, ... on a
    fresh backend from ``make_backend`` until a run completes without
    the crash firing (there were no more flushes to crash at), then a
    final crash-free control run.  Every cycle is verified with
    :func:`verify_recovery`.  Returns the per-cycle ledger.
    """
    cycles: List[TortureCycle] = []
    for phase in phases:
        at_flush = 0
        while at_flush <= len(payloads) + 1:
            backend = make_backend()
            crasher = FlushCrasher(phase, at_flush=at_flush)
            clock = clock_factory() if clock_factory is not None else None
            acked = run_crash_cycle(
                backend, policy, payloads, crasher, clock=clock
            )
            recovered = verify_recovery(backend, payloads, acked)
            cycles.append(
                TortureCycle(
                    phase=phase,
                    at_flush=at_flush,
                    crashed=crasher.fired,
                    acked=list(acked),
                    recovered=recovered,
                )
            )
            if not crasher.fired:
                break
            at_flush += 1
    return cycles
