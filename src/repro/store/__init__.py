"""repro.store — durable state beneath one narrow seam.

The paper's Figure 1 lists *logging for tolerance of total crash
failures*; Section 9 treats state transfer to joiners as a core toolkit
capability.  This package is the durable half of both: a
substrate-neutral write-ahead log + snapshot store that protocol layers
and toolkit clients reach only through
:attr:`repro.core.layer.LayerContext.store` (the hourglass discipline —
one narrow waist, two substrates beneath it):

* :mod:`repro.store.wal` — the CRC'd, length-prefixed record codec with
  a tolerant reader (torn tails and bit flips are detected and ignored,
  never replayed);
* :mod:`repro.store.backend` — byte blobs in memory (DES) or real files
  with atomic replace (realtime); backends grow ``append_many``/``sync``
  so a whole batch can ride one fsync;
* :mod:`repro.store.policy` — :class:`DurabilityPolicy`
  (``fsync_per_record`` / ``group``) and the
  :class:`CommitTicket` every ``append`` now returns;
* :mod:`repro.store.writer` — :class:`WalWriter`, the group-commit
  pipeline implementing the policy under a bounded latency
  budget on the Clock seam;
* :class:`DurableStore` — append / atomic snapshot+compaction / replay
  over one backend;
* :class:`MemoryStoreDomain` / :class:`FileStoreDomain` — a world's
  stores keyed by ``(node, namespace)``, so node names (which survive
  crash/recover) find their state again;
* :mod:`repro.store.torture` — crash-at-every-fsync injection pinning
  that ``group`` recovers a clean prefix of acknowledged records;
* :mod:`repro.store.inspect` — ``python -m repro store-inspect``.

The in-band half is the XFER layer
(:class:`repro.layers.xfer.StateTransferLayer`): coordinator-driven
snapshot streaming to joiners over the ordinary stack.
"""

from repro.store.backend import FileBackend, MemoryBackend
from repro.store.inspect import find_stores, render_path, render_store
from repro.store.policy import (
    DURABILITY_MODES,
    FSYNC_PER_RECORD,
    GROUP,
    CommitTicket,
    DurabilityPolicy,
    parse_policy,
)
from repro.store.store import (
    DurableStore,
    FileStoreDomain,
    MemoryStoreDomain,
    ReplayResult,
    decode_snapshot,
    encode_snapshot,
)
from repro.store.wal import MAX_RECORD_BYTES, WalScan, encode_record, scan
from repro.store.writer import WalWriter

__all__ = [
    "CommitTicket",
    "DURABILITY_MODES",
    "DurabilityPolicy",
    "DurableStore",
    "FSYNC_PER_RECORD",
    "FileBackend",
    "FileStoreDomain",
    "GROUP",
    "MAX_RECORD_BYTES",
    "MemoryBackend",
    "MemoryStoreDomain",
    "ReplayResult",
    "WalScan",
    "WalWriter",
    "decode_snapshot",
    "encode_record",
    "encode_snapshot",
    "find_stores",
    "parse_policy",
    "render_path",
    "render_store",
    "scan",
]
