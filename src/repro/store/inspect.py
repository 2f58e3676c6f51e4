"""Human-readable dumps of WALs and snapshots (``store-inspect``).

Works on any directory a :class:`~repro.store.store.FileStoreDomain`
wrote: point it at one store directory (holding ``wal.log`` /
``snapshot.bin``) or at a domain root and it renders every store found
underneath — snapshot epoch and size, then each WAL record with its
length, CRC verdict, and a payload preview.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import List

from repro.store.store import SNAPSHOT_NAME, WAL_NAME, decode_snapshot
from repro.store.wal import _HEADER, MAX_RECORD_BYTES
from repro.store.writer import BATCH_INDEX_SUFFIX


def _preview(payload: bytes, limit: int = 60) -> str:
    """Printable head of a payload; hex when it is not clean text."""
    head = payload[:limit]
    try:
        text = head.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is not None and all(32 <= ord(c) < 127 for c in text):
        rendered = text
    else:
        rendered = "0x" + head.hex()
    if len(payload) > limit:
        rendered += f"... (+{len(payload) - limit}B)"
    return rendered


def _batch_boundaries(path: str, wal_len: int) -> List[int]:
    """Flush-boundary WAL offsets from the advisory ``wal.log.batches``
    sidecar a ``group``-mode :class:`~repro.store.writer.WalWriter`
    leaves beside the log.  Tolerant by design: a truncated trailing
    u64 is dropped, and offsets beyond the WAL's current length (stale
    after an unsynced sidecar write or a torn tail) are ignored."""
    sidecar = os.path.join(path, WAL_NAME + BATCH_INDEX_SUFFIX)
    try:
        with open(sidecar, "rb") as fh:
            raw = fh.read()
    except OSError:
        return []
    offsets: List[int] = []
    for i in range(0, len(raw) - len(raw) % 8, 8):
        (offset,) = struct.unpack_from(">Q", raw, i)
        if offset <= wal_len:
            offsets.append(offset)
    return sorted(set(offsets))


def render_store(path: str) -> str:
    """Dump one store directory (``wal.log`` + ``snapshot.bin``)."""
    lines: List[str] = [f"store {path}"]
    snap_path = os.path.join(path, SNAPSHOT_NAME)
    if os.path.exists(snap_path):
        with open(snap_path, "rb") as fh:
            blob = fh.read()
        state, epoch = decode_snapshot(blob)
        if state is None:
            lines.append(f"  snapshot: INVALID ({len(blob)} bytes)")
        else:
            lines.append(
                f"  snapshot: epoch={epoch} state={len(state)}B "
                f"crc=ok"
            )
            lines.append(f"    {_preview(state)}")
    else:
        lines.append("  snapshot: none")

    wal_path = os.path.join(path, WAL_NAME)
    if not os.path.exists(wal_path):
        lines.append("  wal: none")
        return "\n".join(lines)
    with open(wal_path, "rb") as fh:
        data = fh.read()
    boundaries = _batch_boundaries(path, len(data))
    if boundaries:
        lines.append(
            f"  wal: {len(data)} bytes, {len(boundaries)} flush batches"
        )
    else:
        lines.append(f"  wal: {len(data)} bytes")
    # Walk record by record (rather than wal.scan) so damaged records
    # are *shown*, not just counted.
    boundary_set = set(boundaries)
    batch_records = 0
    offset, index = 0, 0
    if 0 in boundary_set:
        boundary_set.discard(0)
    while offset < len(data):
        if len(data) - offset < _HEADER.size:
            lines.append(
                f"    [{index}] TORN header ({len(data) - offset}B left)"
            )
            break
        length, crc = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        if length > MAX_RECORD_BYTES or len(data) - body_start < length:
            lines.append(
                f"    [{index}] TORN payload (want {length}B, "
                f"{len(data) - body_start}B left)"
            )
            break
        payload = data[body_start:body_start + length]
        verdict = "ok" if zlib.crc32(payload) == crc else "CRC MISMATCH"
        lines.append(f"    [{index}] {length}B crc={verdict} {_preview(payload)}")
        if verdict != "ok":
            lines.append("    (suffix after corrupt record is never replayed)")
            break
        offset = body_start + length
        index += 1
        batch_records += 1
        if offset in boundary_set:
            lines.append(
                f"    -- flush boundary @{offset}B "
                f"({batch_records} record{'s' if batch_records != 1 else ''})"
            )
            batch_records = 0
    if index == 0 and not data:
        lines.append("    (empty — compacted)")
    return "\n".join(lines)


def find_stores(path: str) -> List[str]:
    """Store directories at or beneath ``path`` (itself first)."""
    if os.path.exists(os.path.join(path, WAL_NAME)) or os.path.exists(
        os.path.join(path, SNAPSHOT_NAME)
    ):
        return [path]
    found: List[str] = []
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        if WAL_NAME in filenames or SNAPSHOT_NAME in filenames:
            found.append(dirpath)
    return found


def render_path(path: str) -> str:
    """Dump every store at or beneath ``path``."""
    stores = find_stores(path)
    if not stores:
        return f"no stores found under {path}"
    return "\n\n".join(render_store(store) for store in stores)
