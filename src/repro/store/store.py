"""The durable store: WAL + atomic snapshot over one backend.

A :class:`DurableStore` is what a client (LOGGER, ReplicatedDict, the
state machine) holds: an append-only write-ahead log plus one snapshot
blob, both living in a :mod:`~repro.store.backend` backend, with all
WAL writes flowing through a :class:`~repro.store.writer.WalWriter`
that implements the store's :class:`~repro.store.policy
.DurabilityPolicy`.  The recovery contract:

* :meth:`append` accepts one update and returns a
  :class:`~repro.store.policy.CommitTicket` — under the default
  ``fsync_per_record`` policy the ticket is already done (the update
  is durable before anything is applied); under ``group`` the caller
  chooses ack-after-enqueue (ignore the ticket) or
  ack-after-durable (``ticket.wait()`` / ``add_done_callback``);
* :meth:`snapshot` atomically replaces the snapshot with the full state
  at some epoch and compacts (truncates) the WAL — after a snapshot the
  log only holds updates newer than it;
* :meth:`replay` returns ``(snapshot, epoch, entries)`` — the state to
  reinstall and the intact WAL suffix to re-apply on top — tolerating a
  torn tail or corrupt record by ignoring the damaged suffix.  Under
  ``group`` a crash may lose *buffered-but-unacknowledged* records; it never loses one whose ticket completed, and replay is
  always a clean prefix of the append sequence.

A :class:`StoreDomain` owns every store of one world, keyed by
``(node, namespace)``: node *names* survive crash/recover even though
endpoints and ports do not, which is what lets a re-incarnated process
find its own state.  Store handles are cached per key, so every caller
of ``domain.store(node, ns)`` shares one writer (and one pending
batch).  :class:`MemoryStoreDomain` backs the DES (state is part of
the pure function of the seed); :class:`FileStoreDomain` backs the
realtime substrate with real per-endpoint directories.  Worlds call
:meth:`~MemoryStoreDomain.bind_clock` at construction so ``group``
flush timers ride the same Clock seam as every protocol layer.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.store.backend import FileBackend, MemoryBackend
from repro.store.policy import CommitTicket, DurabilityPolicy, parse_policy
from repro.store.wal import WalScan, scan
from repro.store.writer import WalWriter

#: Blob names within one store's backend.
WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.bin"

#: Snapshot blob header: magic, version, epoch, crc32, payload length.
_SNAP_MAGIC = b"RSNP"
_SNAP_HEADER = struct.Struct(">4sIQII")
_SNAP_VERSION = 1


def encode_snapshot(state: bytes, epoch: int) -> bytes:
    """The snapshot blob for ``state`` taken at ``epoch``."""
    return _SNAP_HEADER.pack(
        _SNAP_MAGIC, _SNAP_VERSION, epoch, zlib.crc32(state), len(state)
    ) + state


def decode_snapshot(blob: bytes) -> Tuple[Optional[bytes], int]:
    """``(state, epoch)`` from a snapshot blob; ``(None, 0)`` when the
    blob is missing, torn, or fails its CRC — recovery then starts from
    genesis and replays the WAL alone."""
    if len(blob) < _SNAP_HEADER.size:
        return None, 0
    magic, version, epoch, crc, length = _SNAP_HEADER.unpack_from(blob)
    if magic != _SNAP_MAGIC or version != _SNAP_VERSION:
        return None, 0
    state = blob[_SNAP_HEADER.size:_SNAP_HEADER.size + length]
    if len(state) != length or zlib.crc32(state) != crc:
        return None, 0
    return state, epoch


@dataclass
class ReplayResult:
    """What :meth:`DurableStore.replay` recovered."""

    #: Last durable snapshot state, or ``None`` when starting fresh.
    snapshot: Optional[bytes]
    #: Epoch the snapshot was taken at (0 without a snapshot).
    epoch: int
    #: Intact WAL entries newer than the snapshot, oldest first.
    entries: List[bytes] = field(default_factory=list)
    #: Damage ignored during the read (never replayed).
    corrupt: int = 0
    truncated: bool = False


class DurableStore:
    """One client's durable state: a WAL and a snapshot on one backend."""

    def __init__(
        self,
        backend,
        name: str = "",
        metrics=None,
        policy: Optional[DurabilityPolicy] = None,
        clock=None,
    ) -> None:
        self.backend = backend
        #: ``node/namespace`` label for metrics and reports.
        self.name = name
        self.metrics = metrics
        self.clock = clock
        #: Records appended through this handle since open (not the
        #: on-disk total — replay reports that).
        self.appended = 0
        self._since_snapshot = 0
        self.writer = WalWriter(
            backend, WAL_NAME, policy=parse_policy(policy), clock=clock,
            label=name, metrics=metrics,
        )

    @property
    def policy(self) -> DurabilityPolicy:
        """The active durability policy."""
        return self.writer.policy

    def set_policy(self, policy) -> None:
        """Swap the durability policy (drains the old writer first)."""
        policy = parse_policy(policy)
        if policy == self.writer.policy:
            return
        self.writer.drain()
        self.writer = WalWriter(
            self.backend, WAL_NAME, policy=policy, clock=self.clock,
            label=self.name, metrics=self.metrics,
        )

    # -- writing -----------------------------------------------------------

    def append(self, payload: bytes) -> CommitTicket:
        """Append one update per the durability policy.

        Returns the record's :class:`CommitTicket`.  Under
        ``fsync_per_record`` it is done before this returns; under
        ``group`` use ``ticket.wait()`` or
        ``ticket.add_done_callback`` for ack-after-durable; the record's
        index is ``ticket.lsn``.
        """
        ticket = self.writer.append(payload)
        self.appended += 1
        self._since_snapshot += 1
        if self.metrics is not None:
            record_len = len(payload) + 8
            self._counter("store_wal_appends_total",
                          "Records appended to store WALs").inc()
            self._counter("store_wal_bytes_total",
                          "Bytes appended to store WALs").inc(record_len)
        return ticket

    def flush(self) -> None:
        """Force everything buffered to stable storage now."""
        self.writer.drain()

    def snapshot(self, state: bytes, epoch: int) -> CommitTicket:
        """Atomically install ``state`` as the snapshot and compact the WAL.

        Pending WAL records are drained first (they may be older than
        ``state``; truncating them unwritten would break the prefix
        contract for any ticket a caller is still holding).  The
        snapshot is then replaced before the log is truncated, so a
        crash between the two replays a few updates twice onto the
        *new* snapshot rather than losing any (clients' updates must be
        idempotent re-applications, which set/delete-style ops are).
        Returns a done ticket for the compaction itself, so callers
        (XFER install, toolkit clients) can thread it through the same
        ack plumbing as appends.
        """
        self.writer.drain()
        self.backend.replace(SNAPSHOT_NAME, encode_snapshot(state, epoch))
        self.backend.replace(WAL_NAME, b"")
        self.writer.reset_batch_index()
        self._since_snapshot = 0
        if self.metrics is not None:
            self._counter("store_snapshots_total",
                          "Snapshot/compaction cycles completed").inc()
            self.metrics.histogram(
                "store_snapshot_bytes",
                "Serialized state size at each snapshot",
                buckets=_SNAPSHOT_BUCKETS,
            ).observe(float(len(state)))
            self.metrics.gauge(
                "store_flush_frontier",
                "Appends made durable by the latest snapshot, per store",
                labels=("store",),
            ).labels(store=self.name).set(float(self.appended))
        return CommitTicket(self.appended - 1, done=True)

    # -- reading -----------------------------------------------------------

    def replay(self) -> ReplayResult:
        """Read back the snapshot and the intact WAL suffix (pending
        writes are drained first so the read is current)."""
        self.writer.drain()
        state, epoch = decode_snapshot(self.backend.read(SNAPSHOT_NAME))
        walscan: WalScan = scan(self.backend.read(WAL_NAME))
        result = ReplayResult(
            snapshot=state,
            epoch=epoch,
            entries=walscan.records,
            corrupt=walscan.corrupt,
            truncated=walscan.truncated,
        )
        if self.metrics is not None:
            self._counter("store_replays_total",
                          "WAL replays performed").inc()
            self._counter("store_replay_records_total",
                          "Intact records recovered by replays"
                          ).inc(len(result.entries))
            if result.corrupt or result.truncated:
                self._counter(
                    "store_replay_corrupt_total",
                    "Corrupt or torn WAL records detected and ignored",
                ).inc(result.corrupt + (1 if result.truncated else 0))
        return result

    def digest(self) -> str:
        """Content hash of the durable state (snapshot + intact WAL)."""
        digest = hashlib.sha256()
        replayed = self.replay()
        if replayed.snapshot is not None:
            digest.update(b"S" + replayed.snapshot)
        for entry in replayed.entries:
            digest.update(b"|" + entry)
        return digest.hexdigest()

    @property
    def since_snapshot(self) -> int:
        """Appends through this handle since the last compaction."""
        return self._since_snapshot

    def wal_bytes(self) -> int:
        """Current size of the WAL blob (pending writes drained first)."""
        self.writer.drain()
        return len(self.backend.read(WAL_NAME))

    def close(self) -> None:
        """Drain the writer and release backend resources."""
        self.writer.drain()
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def _counter(self, name: str, help_text: str):
        return self.metrics.counter(name, help_text)

    def __repr__(self) -> str:
        return (
            f"<DurableStore {self.name or '?'} mode={self.policy.mode} "
            f"appended={self.appended}>"
        )


#: Snapshot-size buckets (64 B – 16 MiB).
_SNAPSHOT_BUCKETS: Tuple[float, ...] = tuple(float(1 << n) for n in range(6, 25))


def _safe(part: str) -> str:
    """A path-safe rendering of a node or namespace name."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in part)


class _DomainBase:
    """Shared store-handle cache + clock plumbing for both domains."""

    def __init__(self, metrics=None, clock=None) -> None:
        self.metrics = metrics
        self.clock = clock
        self._stores: Dict[Tuple[str, str], DurableStore] = {}

    def bind_clock(self, clock) -> None:
        """Attach the world's Clock (flush timers, commit latency).

        Worlds call this right after construction; stores created
        earlier keep their old clock (usually none), stores created
        later use this one.
        """
        self.clock = clock

    def _get(self, node: str, namespace: str, policy, make_backend) -> DurableStore:
        key = (node, namespace)
        store = self._stores.get(key)
        if store is None:
            store = DurableStore(
                make_backend(), name=f"{node}/{namespace}",
                metrics=self.metrics, policy=parse_policy(policy),
                clock=self.clock,
            )
            self._stores[key] = store
        elif policy is not None:
            store.set_policy(policy)
        return store

    def flush_all(self) -> None:
        """Drain every store's pending writes (quiesce point)."""
        for store in self._stores.values():
            store.flush()

    def discard_pending(self, node: str) -> int:
        """Crash semantics: drop ``node``'s volatile write buffers
        without writing them (their tickets never complete).  Durable
        bytes are untouched.  Returns how many records were dropped."""
        dropped = 0
        for (owner, _ns), store in self._stores.items():
            if owner == node:
                dropped += store.writer.discard_pending()
        return dropped

    def _drop(self, node: str) -> None:
        for key in [k for k in self._stores if k[0] == node]:
            self._stores.pop(key).close()


class MemoryStoreDomain(_DomainBase):
    """The DES world's store domain: deterministic in-memory backends.

    Keyed by node *name*, so a store survives
    :meth:`~repro.core.process.Process._restart` (which destroys every
    endpoint) and is found again by the re-incarnated process — unless
    the fault plane's blank-slate recovery wipes it first.
    """

    def __init__(self, metrics=None, clock=None) -> None:
        super().__init__(metrics=metrics, clock=clock)
        self._backends: Dict[Tuple[str, str], MemoryBackend] = {}

    def store(
        self, node: str, namespace: str,
        policy: Optional[DurabilityPolicy] = None,
    ) -> DurableStore:
        """The durable store for ``(node, namespace)`` (created lazily,
        cached — every caller shares one handle and one write pipeline).
        ``policy`` reconfigures the store's durability when given."""
        def make_backend() -> MemoryBackend:
            return self._backends.setdefault((node, namespace), MemoryBackend())

        return self._get(node, namespace, policy, make_backend)

    def wipe(self, node: str) -> None:
        """Destroy every store of ``node`` (blank-slate recovery)."""
        self._drop(node)
        for key in [k for k in self._backends if k[0] == node]:
            del self._backends[key]

    def stores(self) -> List[Tuple[str, str]]:
        """Every ``(node, namespace)`` with state, sorted."""
        return sorted(self._backends)

    def close(self) -> None:
        """Drain writers; nothing on disk to release."""
        for store in self._stores.values():
            store.close()


class FileStoreDomain(_DomainBase):
    """Real files, one directory per ``(node, namespace)`` store.

    Layout: ``root/<node>/<namespace>/{wal.log,snapshot.bin}`` — the
    per-endpoint directory the realtime substrate journals into, and
    the input ``python -m repro store-inspect`` renders.

    With ``root=None`` an ephemeral temp directory is created and
    removed again by :meth:`close` (what :class:`~repro.runtime.world
    .RealtimeWorld` uses by default).
    """

    def __init__(
        self, root: Optional[str] = None, metrics=None, clock=None
    ) -> None:
        super().__init__(metrics=metrics, clock=clock)
        self.ephemeral = root is None
        self.root = root if root is not None else tempfile.mkdtemp(
            prefix="repro-store-"
        )
        os.makedirs(self.root, exist_ok=True)

    def store(
        self, node: str, namespace: str,
        policy: Optional[DurabilityPolicy] = None,
    ) -> DurableStore:
        def make_backend() -> FileBackend:
            path = os.path.join(self.root, _safe(node), _safe(namespace))
            return FileBackend(path)

        return self._get(node, namespace, policy, make_backend)

    def wipe(self, node: str) -> None:
        self._drop(node)
        shutil.rmtree(os.path.join(self.root, _safe(node)),
                      ignore_errors=True)

    def stores(self) -> List[Tuple[str, str]]:
        found = []
        try:
            nodes = sorted(os.listdir(self.root))
        except OSError:
            return []
        for node in nodes:
            node_dir = os.path.join(self.root, node)
            if not os.path.isdir(node_dir):
                continue
            for namespace in sorted(os.listdir(node_dir)):
                if os.path.isdir(os.path.join(node_dir, namespace)):
                    found.append((node, namespace))
        return found

    def close(self) -> None:
        """Drain writers, release file handles, and remove the backing
        directory if this domain created it."""
        for store in self._stores.values():
            store.close()
        if self.ephemeral:
            shutil.rmtree(self.root, ignore_errors=True)
