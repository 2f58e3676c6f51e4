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

from repro._lazy import lazy_exports

_EXPORTS = {
    "CommitTicket": "repro.store.policy",
    "DURABILITY_MODES": "repro.store.policy",
    "DurabilityPolicy": "repro.store.policy",
    "DurableStore": "repro.store.store",
    "FSYNC_PER_RECORD": "repro.store.policy",
    "FileBackend": "repro.store.backend",
    "FileStoreDomain": "repro.store.store",
    "GROUP": "repro.store.policy",
    "MAX_RECORD_BYTES": "repro.store.wal",
    "MemoryBackend": "repro.store.backend",
    "MemoryStoreDomain": "repro.store.store",
    "ReplayResult": "repro.store.store",
    "WalScan": "repro.store.wal",
    "WalWriter": "repro.store.writer",
    "decode_snapshot": "repro.store.store",
    "encode_record": "repro.store.wal",
    "encode_snapshot": "repro.store.store",
    "find_stores": "repro.store.inspect",
    "parse_policy": "repro.store.policy",
    "render_path": "repro.store.inspect",
    "render_store": "repro.store.inspect",
    "scan": "repro.store.wal",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
