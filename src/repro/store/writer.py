"""WalWriter — the group-commit durability pipeline.

One :class:`WalWriter` owns all appends to one WAL blob and turns the
:class:`~repro.store.policy.DurabilityPolicy` into mechanism:

* ``fsync_per_record`` — encode, append, fsync, return a done ticket.
  No buffering, no timers: byte-for-byte the original behavior.
* ``group`` — records are buffered (payloads, not yet encoded) and
  flushed as one ``append_many`` + one ``sync`` when the batch hits
  ``max_batch_bytes`` / ``max_batch_records``, at its
  :class:`~repro.runtime.clock.FlushPacer` deadline (the end of the
  current turn when the disk has been quiet for ``max_delay`` Clock
  seconds — every record one handler appends shares the fsync — else
  ``max_delay`` after the previous flush; the Coalescer's rule, the
  same class), or when a caller forces it (``flush()`` /
  ``ticket.wait()``).

Both run on the caller's thread; completion callbacks fire inside the
flush that made the record durable.

Crash semantics (what the torture suite pins): the buffer is
*volatile*.  A crash loses any record whose ticket never
completed; it never loses a completed one, and because flushes append
records strictly in LSN order, replay always recovers a clean prefix
of the append sequence.  :attr:`WalWriter.fault_hook` is the chaos
injection seam: it is called around every flush (``before_write``,
``after_write``, ``after_sync``) and may raise to simulate a crash at
exactly that boundary, on either backend.

A flush also appends the new WAL byte offset to a sidecar blob
(``wal.batches``, plain big-endian u64s, never fsynced) so
``store-inspect`` can show per-batch record counts and flush
boundaries offline.  The sidecar is advisory: recovery never reads it.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Tuple

from repro.runtime.clock import FlushPacer
from repro.store.policy import FSYNC_PER_RECORD, CommitTicket, DurabilityPolicy
from repro.store.wal import MAX_RECORD_BYTES, encode_record

#: Sidecar blob holding one big-endian u64 WAL byte offset per flush.
BATCH_INDEX_SUFFIX = ".batches"

#: Histogram buckets for flush batch sizes (1 – 4096 records).
_RECORD_BUCKETS: Tuple[float, ...] = tuple(float(1 << n) for n in range(0, 13))
#: Histogram buckets for flush batch bytes (64 B – 4 MiB).
_BYTE_BUCKETS: Tuple[float, ...] = tuple(float(1 << n) for n in range(6, 23))
#: Histogram buckets for commit latency (1 µs – 4 s).
_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    1e-6 * (4 ** n) for n in range(0, 12)
)


class WalWriter:
    """Batches appends to one WAL blob per the durability policy.

    Args:
        backend: the named-blob backend (see :mod:`repro.store.backend`).
        name: the WAL blob name (``wal.log``).
        policy: the :class:`DurabilityPolicy` to implement.
        clock: optional :class:`~repro.runtime.clock.Clock` for the
            ``max_delay`` flush deadline and commit latencies.  Without
            one, ``group`` flushes on the size triggers and on explicit
            ``flush()``/``wait()`` alone.
        label: ``node/namespace`` tag for metrics.
        metrics: optional :class:`~repro.obs.MetricsRegistry`.
    """

    def __init__(
        self,
        backend,
        name: str,
        policy: Optional[DurabilityPolicy] = None,
        clock=None,
        label: str = "",
        metrics=None,
    ) -> None:
        self.backend = backend
        self.name = name
        self.policy = policy or DurabilityPolicy()
        self.clock = clock
        self.label = label
        self.metrics = metrics
        if metrics is not None:
            # Series handles, resolved once: the observe calls below run
            # per record.
            self._flush_batches = metrics.counter(
                "store_flush_batches_total",
                "WAL flush batches written, by trigger",
                labels=("trigger",),
            )
            self._batch_records = metrics.histogram(
                "store_flush_batch_records",
                "Records per WAL flush batch",
                buckets=_RECORD_BUCKETS,
            ).labels()
            self._batch_bytes = metrics.histogram(
                "store_flush_batch_bytes",
                "Encoded bytes per WAL flush batch",
                buckets=_BYTE_BUCKETS,
            ).labels()
            self._commit_tickets = metrics.counter(
                "store_commit_tickets_total",
                "Commit tickets completed, by durability mode",
                labels=("mode",),
            ).labels(mode=self.policy.mode)
            self._commit_latency = metrics.histogram(
                "store_commit_latency_seconds",
                "Append-to-durable latency per record",
                buckets=_LATENCY_BUCKETS,
            ).labels() if clock is not None else None
        #: Chaos seam: called as ``fault_hook(phase, records, bytes)``
        #: with phase in {"before_write", "after_write", "after_sync"}
        #: around every flush; may raise to crash at that boundary.
        self.fault_hook: Optional[Callable[[str, int, int], None]] = None
        #: Next record's LSN (count of records ever appended here).
        self._lsn = 0
        #: Buffered (payload, ticket, enqueue_time) triples, oldest first.
        self._pending: List[Tuple[bytes, CommitTicket, float]] = []
        self._pending_bytes = 0
        #: Schedules the deadline flush of a batch that no size trigger
        #: or caller flushes first (needs a clock and a budget).
        self._pacer = (
            FlushPacer(clock, self.policy.max_delay, self.flush)
            if clock is not None and self.policy.max_delay > 0 else None
        )
        #: Lifetime counters (mirrored into metrics when present).
        self.flushes = 0
        self.records_written = 0
        self.batch_index_enabled = self.policy.batched
        #: WAL byte offset after the last flush — the sidecar's value.
        #: Starts at the existing WAL length so boundaries stay exact
        #: when a writer reopens a surviving log.
        self.bytes_written = (
            len(backend.read(name)) if self.batch_index_enabled else 0
        )

    # ------------------------------------------------------------------
    # Append / flush surface
    # ------------------------------------------------------------------

    def append(self, payload: bytes) -> CommitTicket:
        """Accept one record per the policy; returns its ticket."""
        if len(payload) > MAX_RECORD_BYTES:
            raise ValueError(
                f"WAL record of {len(payload)} bytes exceeds the "
                f"{MAX_RECORD_BYTES}-byte cap"
            )
        lsn = self._lsn
        self._lsn += 1
        if self.policy.mode == FSYNC_PER_RECORD:
            record = encode_record(payload)
            self._run_hook("before_write", 1, len(record))
            self.backend.append(self.name, record)
            self._run_hook("after_write", 1, len(record))
            self._run_hook("after_sync", 1, len(record))
            self.flushes += 1
            self.records_written += 1
            self.bytes_written += len(record)
            ticket = CommitTicket(lsn, done=True)
            self._observe_flush(1, len(record), "record")
            self._observe_commit(0.0)
            return ticket
        ticket = CommitTicket(lsn, waiter=self._ticket_waiter)
        self._pending.append((payload, ticket, self._now()))
        self._pending_bytes += len(payload) + 8  # header is 8 bytes
        if (
            self._pending_bytes >= self.policy.max_batch_bytes
            or len(self._pending) >= self.policy.max_batch_records
        ):
            self.flush("size")
        elif len(self._pending) == 1 and self._pacer is not None:
            self._pacer.batch_started()
        return ticket

    def flush(self, trigger: str = "explicit") -> None:
        """Write and fsync everything buffered."""
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._pending_bytes = 0
        if self._pacer is not None:
            self._pacer.flushed()
        self._write_batch(batch, trigger)

    def drain(self) -> None:
        """Flush pending work — afterwards every issued ticket is done."""
        self.flush("drain")

    def discard_pending(self) -> int:
        """Drop buffered records *without* writing them (the crash path:
        volatile buffers die with the node).  Their tickets never
        complete.  Returns how many records were dropped."""
        dropped = len(self._pending)
        self._pending = []
        self._pending_bytes = 0
        if self._pacer is not None:
            self._pacer.cancel()
        return dropped

    @property
    def pending_records(self) -> int:
        """Records accepted but not yet written."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # The flush pipeline
    # ------------------------------------------------------------------

    def _write_batch(
        self, batch: List[Tuple[bytes, CommitTicket, float]], trigger: str
    ) -> None:
        records = [encode_record(payload) for payload, _, _ in batch]
        nbytes = sum(len(r) for r in records)
        self._run_hook("before_write", len(records), nbytes)
        self.backend.append_many(self.name, records)
        self._run_hook("after_write", len(records), nbytes)
        self.backend.sync(self.name)
        self._run_hook("after_sync", len(records), nbytes)
        self.flushes += 1
        self.records_written += len(records)
        self.bytes_written += nbytes
        if self.batch_index_enabled:
            self._note_batch_boundary()
        self._observe_flush(len(records), nbytes, trigger)
        now = self._now()
        for _, ticket, enqueued in batch:
            self._observe_commit(max(0.0, now - enqueued))
            ticket._complete()

    def _ticket_waiter(self, ticket: CommitTicket) -> None:
        """Progress hook for ``ticket.wait()``: force the covering flush."""
        self.flush("wait")

    def _note_batch_boundary(self) -> None:
        """Append the post-flush WAL offset to the advisory sidecar."""
        offset = self.bytes_written
        self.backend.append_many(
            self.name + BATCH_INDEX_SUFFIX, [struct.pack(">Q", offset)]
        )

    def reset_batch_index(self, base_bytes: int = 0) -> None:
        """Restart the sidecar (called on WAL truncation/compaction)."""
        self.bytes_written = base_bytes
        if self.batch_index_enabled:
            self.backend.replace(self.name + BATCH_INDEX_SUFFIX, b"")

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _run_hook(self, phase: str, records: int, nbytes: int) -> None:
        if self.fault_hook is not None:
            self.fault_hook(phase, records, nbytes)

    def _observe_flush(self, records: int, nbytes: int, trigger: str) -> None:
        if self.metrics is None:
            return
        self._flush_batches.labels(trigger=trigger).inc()
        self._batch_records.observe(float(records))
        self._batch_bytes.observe(float(nbytes))

    def _observe_commit(self, latency: float) -> None:
        if self.metrics is None:
            return
        self._commit_tickets.inc()
        if self._commit_latency is not None:
            self._commit_latency.observe(latency)

    def __repr__(self) -> str:
        return (
            f"<WalWriter {self.label or self.name} mode={self.policy.mode} "
            f"pending={self.pending_records} flushes={self.flushes}>"
        )
