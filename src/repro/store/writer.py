"""WalWriter — the group-commit / async durability pipeline.

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
* ``async`` — the same batching, but the encode+write+fsync pipeline
  runs off the caller: on a realtime clock a daemon writer thread
  drains a queue (record encoding overlaps the previous batch's I/O);
  on the DES (or any deterministic clock) the drain is scheduled as
  ordinary clock events, so completions land at deterministic virtual
  times and digests stay pure in the seed.  Completion callbacks are
  always delivered on the clock's thread (via
  ``loop.call_soon_threadsafe`` when a thread is involved), so layers
  may pass upcalls from them safely.

Crash semantics (what the torture suite pins): the buffer and queue
are *volatile*.  A crash loses any record whose ticket never
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
import threading
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.runtime.clock import FlushPacer
from repro.store.policy import (
    ASYNC,
    FSYNC_PER_RECORD,
    CommitTicket,
    DurabilityPolicy,
)
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
            ``max_delay`` flush deadline and for marshalling completions.
            Without one, relaxed modes flush on the size triggers and
            on explicit ``flush()``/``wait()`` alone.
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
        # Threaded pipeline state (async mode on a realtime clock, or
        # async with no clock at all — e.g. a standalone benchmark).
        self._threaded = self.policy.mode == ASYNC and self._thread_allowed()
        self._queue: Deque[Tuple[bytes, CommitTicket, float]] = deque()
        self._cv = threading.Condition()
        self._inflight = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = False
        self._io_error: Optional[BaseException] = None

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
        entry = (payload, ticket, self._now())
        if self._threaded:
            ticket._ensure_event()
            self._start_thread()
            with self._cv:
                self._queue.append(entry)
                self._cv.notify()
            return ticket
        self._pending.append(entry)
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
        """Write and fsync everything buffered (synchronous path)."""
        if self._threaded:
            self._drain_queue()
            return
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._pending_bytes = 0
        if self._pacer is not None:
            self._pacer.flushed()
        self._write_batch(batch, trigger)

    def drain(self) -> None:
        """Flush pending work and, when threaded, wait for the queue to
        empty — afterwards every issued ticket is done."""
        if self._threaded:
            self._drain_queue()
        else:
            self.flush("drain")

    def discard_pending(self) -> int:
        """Drop buffered/queued records *without* writing them (the
        crash path: volatile buffers die with the node).  Their tickets
        never complete.  Returns how many records were dropped."""
        dropped = len(self._pending)
        self._pending = []
        self._pending_bytes = 0
        if self._pacer is not None:
            self._pacer.cancel()
        if self._threaded:
            with self._cv:
                dropped += len(self._queue)
                self._queue.clear()
        return dropped

    def close(self) -> None:
        """Drain and stop the writer thread (if any)."""
        try:
            self.drain()
        finally:
            if self._thread is not None:
                with self._cv:
                    self._stop = True
                    self._cv.notify()
                self._thread.join(timeout=5.0)
                self._thread = None

    @property
    def pending_records(self) -> int:
        """Records accepted but not yet written."""
        if self._threaded:
            with self._cv:
                return len(self._queue) + self._inflight
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
            self._complete(ticket)

    def _complete(self, ticket: CommitTicket) -> None:
        """Complete a ticket; its *callbacks* run on the clock's thread.

        The done flag and the cross-thread wait event always flip at
        once (the record is durable now); only callback delivery is
        rerouted: via ``call_soon`` on a deterministic clock (the ack
        becomes a scheduled event — the DES drain), via
        ``loop.call_soon_threadsafe`` from the writer thread (layers may
        pass upcalls from completion callbacks safely).
        """
        if self.policy.mode != ASYNC or self.clock is None:
            ticket._complete()
            return
        if self._threaded:
            loop = getattr(self.clock, "loop", None)
            if loop is not None and not loop.is_closed():
                try:
                    ticket._complete(dispatch=loop.call_soon_threadsafe)
                    return
                except RuntimeError:
                    pass  # loop shut down mid-flight; complete inline
            ticket._complete()
            return
        ticket._complete(dispatch=self.clock.call_soon)

    def _ticket_waiter(self, ticket: CommitTicket) -> None:
        """Progress hook for ``ticket.wait()``: force the covering flush
        (sync modes) or nudge the writer thread (threaded mode)."""
        if self._threaded:
            with self._cv:
                self._cv.notify()
        else:
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
    # The writer thread (async mode, realtime)
    # ------------------------------------------------------------------

    def _thread_allowed(self) -> bool:
        """Threads only where determinism cannot be harmed: a wall-clock
        engine (it has an asyncio ``loop``) or no clock at all.  A
        deterministic scheduler gets the clock-driven drain instead."""
        return self.clock is None or hasattr(self.clock, "loop")

    def _start_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._stop = False
            self._thread = threading.Thread(
                target=self._thread_main,
                name=f"wal-writer:{self.label or self.name}",
                daemon=True,
            )
            self._thread.start()

    def _thread_main(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stop:
                    self._cv.wait()
                if self._stop and not self._queue:
                    return
                batch: List[Tuple[bytes, CommitTicket, float]] = []
                size = 0
                while self._queue and len(batch) < self.policy.max_batch_records:
                    payload, ticket, enqueued = self._queue[0]
                    if batch and size + len(payload) + 8 > self.policy.max_batch_bytes:
                        break
                    self._queue.popleft()
                    batch.append((payload, ticket, enqueued))
                    size += len(payload) + 8
                self._inflight = len(batch)
            try:
                self._write_batch(batch, "queue")
            except BaseException as exc:  # noqa: BLE001 - surfaced to callers
                with self._cv:
                    self._io_error = exc
                    self._inflight = 0
                    self._cv.notify_all()
                return
            with self._cv:
                self._inflight = 0
                self._cv.notify_all()

    def _drain_queue(self) -> None:
        """Block until the writer thread has written everything queued
        (including the batch it may be mid-flush on)."""
        with self._cv:
            if self._io_error is None and (self._queue or self._inflight):
                self._start_thread()
            deadline = 60.0
            while self._io_error is None and (self._queue or self._inflight):
                self._cv.notify()
                if not self._cv.wait(timeout=1.0):
                    deadline -= 1.0
                    if deadline <= 0:
                        raise RuntimeError(
                            "WAL writer thread failed to drain"
                        )
            if self._io_error is not None:
                raise RuntimeError(
                    "WAL writer thread died"
                ) from self._io_error

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
