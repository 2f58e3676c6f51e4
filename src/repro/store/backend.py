"""Storage backends: where one store's bytes actually live.

A backend is a tiny named-blob surface beneath the
:class:`~repro.store.store.DurableStore`:

* ``read`` / ``append`` / ``replace`` / ``delete`` / ``exists`` — the
  blob verbs.  ``append`` is *durable by itself*: the
  :class:`FileBackend` fsyncs before returning, which is exactly the
  ``fsync_per_record`` policy's cost.
* ``append_many(name, records)`` + ``sync(name)`` — the group-commit
  split: ``append_many`` stages many records with one write and **no**
  fsync; ``sync`` makes everything staged so far durable with one
  fsync.  The :class:`~repro.store.writer.WalWriter` batches through
  this pair.

Two implementations ship here:

* :class:`MemoryBackend` — byte-exact in-memory blobs.  The DES world's
  store domain hands these out so durable state is a pure function of
  the run (and survives :meth:`~repro.core.process.Process._restart`,
  which destroys every endpoint but not the world).
* :class:`FileBackend` — real files in one directory.  Appends go
  through a cached unbuffered file handle (no open/close per record);
  ``replace`` is write-to-temp + ``os.replace`` + fsync of the file
  **and of the containing directory**, so a rename is never lost to a
  crash between the data flush and the directory metadata flush.

Both produce byte-identical WAL/snapshot content for the same append
sequence, which is what lets ``python -m repro store-inspect`` and the
torture tests treat them interchangeably.
"""

from __future__ import annotations

import os
from typing import Dict, IO, Iterable


class MemoryBackend:
    """Named blobs in memory; the DES's deterministic 'disk'."""

    def __init__(self) -> None:
        self._blobs: Dict[str, bytearray] = {}

    def read(self, name: str) -> bytes:
        """The blob's bytes (empty if it does not exist)."""
        return bytes(self._blobs.get(name, b""))

    def append(self, name: str, data: bytes) -> None:
        """Append to the named blob, creating it if needed."""
        self._blobs.setdefault(name, bytearray()).extend(data)

    def append_many(self, name: str, records: Iterable[bytes]) -> None:
        """One extend for the whole batch."""
        blob = self._blobs.setdefault(name, bytearray())
        for record in records:
            blob.extend(record)

    def sync(self, name: str) -> None:
        """Memory is always 'durable' (within the simulated world)."""

    def replace(self, name: str, data: bytes) -> None:
        """Atomically replace the blob's contents."""
        self._blobs[name] = bytearray(data)

    def delete(self, name: str) -> None:
        """Remove the blob (missing is fine)."""
        self._blobs.pop(name, None)

    def exists(self, name: str) -> bool:
        """Whether the named blob exists."""
        return name in self._blobs

    def close(self) -> None:
        """Nothing to release; symmetry with :class:`FileBackend`."""


class FileBackend:
    """Named files under one directory, with atomic replace."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: Cached unbuffered append handles, one per name.  Opening the
        #: WAL once per flush (not once per record) is half the win of
        #: group commit; the other half is one fsync per batch.
        self._appenders: Dict[str, IO[bytes]] = {}

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def _appender(self, name: str) -> IO[bytes]:
        fh = self._appenders.get(name)
        if fh is None or fh.closed:
            # buffering=0: writes reach the OS immediately, so a read
            # through a separate descriptor always sees staged bytes
            # and ``sync`` has nothing hidden in userspace buffers.
            fh = open(self._path(name), "ab", buffering=0)
            self._appenders[name] = fh
        return fh

    def _drop_appender(self, name: str) -> None:
        fh = self._appenders.pop(name, None)
        if fh is not None and not fh.closed:
            fh.close()

    def read(self, name: str) -> bytes:
        try:
            with open(self._path(name), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def append(self, name: str, data: bytes) -> None:
        """Durable single-record append: write + fsync."""
        fh = self._appender(name)
        fh.write(data)
        os.fsync(fh.fileno())

    def append_many(self, name: str, records: Iterable[bytes]) -> None:
        """Stage a batch with one write and no fsync (pair with sync)."""
        data = b"".join(records)
        if data:
            self._appender(name).write(data)

    def sync(self, name: str) -> None:
        """One fsync covering everything staged on ``name``."""
        fh = self._appenders.get(name)
        if fh is not None and not fh.closed:
            os.fsync(fh.fileno())

    def replace(self, name: str, data: bytes) -> None:
        # Write-to-temp + rename: a crash at any point leaves either the
        # old contents or the new, never a torn mix.  The directory
        # fsync afterwards pins the *rename itself*: without it a crash
        # after os.replace can roll the directory entry back to the old
        # inode, which for snapshot-then-truncate compaction would pair
        # the OLD snapshot with the truncated WAL — losing updates.
        self._drop_appender(name)
        path = self._path(name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._sync_dir()

    def _sync_dir(self) -> None:
        flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
        try:
            fd = os.open(self.root, flags)
        except OSError:
            return  # platform without directory fds; best effort
        try:
            os.fsync(fd)
        except OSError:
            pass  # some filesystems refuse; the data fsync still held
        finally:
            os.close(fd)

    def delete(self, name: str) -> None:
        self._drop_appender(name)
        try:
            os.remove(self._path(name))
        except FileNotFoundError:
            pass

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def close(self) -> None:
        """Release every cached append handle."""
        for name in list(self._appenders):
            self._drop_appender(name)
