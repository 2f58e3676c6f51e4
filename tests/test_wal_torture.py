"""WAL torture: crash at every fsync, in every phase, in every mode.

The durability contract under test (see :mod:`repro.store.torture`):
whatever replay recovers after a crash is a clean **prefix** of the
append sequence, and that prefix contains every record whose
:class:`~repro.store.CommitTicket` completed before the crash.
Buffered-but-unacknowledged records may be lost — that is the deal
``group`` mode sells — but never silently reordered, mixed, or holed.

The matrix runs on both substrates' backends (the DES's
:class:`MemoryBackend` and the realtime :class:`FileBackend`) for both
durability policies, plus the torn-tail partial-write case, the
compaction crash windows, and the DES determinism pin: ``group`` mode
produces byte-identical WALs for a fixed ``(seed, scenario)``.
"""

import pytest

from repro import World
from repro.store import (
    DurabilityPolicy,
    DurableStore,
    FileBackend,
    MemoryBackend,
)
from repro.store.store import SNAPSHOT_NAME, WAL_NAME
from repro.store.torture import (
    CrashingBackend,
    FlushCrasher,
    SimulatedCrash,
    crash_at_every_fsync,
    run_crash_cycle,
    verify_recovery,
)
from repro.toolkit import ReplicatedDict

PAYLOADS = [b"update-%03d" % i for i in range(12)]

#: Small batches so a 12-record workload spans several flushes.
POLICIES = {
    "fsync_per_record": DurabilityPolicy(),
    "group": DurabilityPolicy(mode="group", max_batch_records=4),
}


def _file_backend_factory(tmp_path):
    counter = [0]

    def make():
        counter[0] += 1
        return FileBackend(str(tmp_path / f"cycle{counter[0]}"))

    return make


class TestCrashAtEveryFsync:
    @pytest.mark.parametrize("mode", sorted(POLICIES))
    def test_memory_substrate(self, mode):
        cycles = crash_at_every_fsync(MemoryBackend, POLICIES[mode], PAYLOADS)
        # verify_recovery already asserted prefix + acked-never-lost for
        # every cycle; pin that the matrix actually exercised crashes in
        # all three phases.
        crashed = [c for c in cycles if c.crashed]
        assert {c.phase for c in crashed} == {
            "before_write", "after_write", "after_sync"
        }
        # A before_write crash on the first flush must lose the whole
        # unacknowledged batch — the torture is real, not a no-op.
        first = next(
            c for c in crashed
            if c.phase == "before_write" and c.at_flush == 0
        )
        assert first.recovered < len(PAYLOADS)

    @pytest.mark.parametrize("mode", sorted(POLICIES))
    def test_file_substrate(self, mode, tmp_path):
        cycles = crash_at_every_fsync(
            _file_backend_factory(tmp_path), POLICIES[mode], PAYLOADS
        )
        crashed = [c for c in cycles if c.crashed]
        assert {c.phase for c in crashed} == {
            "before_write", "after_write", "after_sync"
        }

    def test_after_sync_crash_keeps_unacknowledged_durable_records(self):
        # A crash after the fsync but before ticket completion: the
        # records ARE durable, just never acknowledged.  Recovery may
        # return more than was acked — never less.
        backend = MemoryBackend()
        crasher = FlushCrasher("after_sync", at_flush=0)
        acked = run_crash_cycle(
            backend, POLICIES["group"], PAYLOADS, crasher
        )
        assert crasher.fired and acked == []
        recovered = verify_recovery(backend, PAYLOADS, acked)
        assert recovered > 0  # durable despite zero acknowledgments


class TestTornTail:
    @pytest.mark.parametrize("backend_kind", ["memory", "file"])
    def test_partial_batched_flush_never_replays(self, backend_kind, tmp_path):
        # The power dies mid-batch-write: only a byte-prefix of the
        # joined batch reaches the disk, shearing a record in half.
        # Replay must stop at the torn record and keep the clean prefix.
        inner = (
            MemoryBackend() if backend_kind == "memory"
            else FileBackend(str(tmp_path / "torn"))
        )
        backend = CrashingBackend(inner)
        # 12 records of (8B header + 10B payload): cut inside record 2
        # of the second 4-record batch.
        backend.arm(
            "append_many", at_call=1, partial_bytes=27, name=WAL_NAME
        )
        acked = run_crash_cycle(backend, POLICIES["group"], PAYLOADS)
        assert acked == [0, 1, 2, 3]  # first batch flushed cleanly
        recovered = verify_recovery(backend, PAYLOADS, acked)
        assert recovered == 5  # batch one + the one intact torn-batch record

    def test_sync_crash_loses_at_most_the_staged_batch(self, tmp_path):
        backend = CrashingBackend(FileBackend(str(tmp_path / "s")))
        backend.arm("sync", at_call=1, name=WAL_NAME)
        acked = run_crash_cycle(backend, POLICIES["group"], PAYLOADS)
        assert acked == [0, 1, 2, 3]
        verify_recovery(backend, PAYLOADS, acked)


class TestCompactionCrashWindows:
    def _loaded_store(self, backend, policy):
        store = DurableStore(backend, name="compaction", policy=policy)
        for payload in PAYLOADS:
            store.append(payload)
        return store

    @pytest.mark.parametrize("mode", sorted(POLICIES))
    def test_crash_before_snapshot_replace(self, mode):
        backend = CrashingBackend(MemoryBackend())
        store = self._loaded_store(backend, POLICIES[mode])
        backend.arm("replace", at_call=0, name=SNAPSHOT_NAME)
        with pytest.raises(SimulatedCrash):
            store.snapshot(b"STATE@12", epoch=12)
        store.writer.discard_pending()
        # Nothing replaced: the old snapshot (none) + the full WAL.
        replayed = DurableStore(backend.inner).replay()
        assert replayed.snapshot is None
        assert replayed.entries == PAYLOADS

    @pytest.mark.parametrize("mode", sorted(POLICIES))
    def test_crash_between_snapshot_replace_and_wal_truncate(self, mode):
        # The window the snapshot-then-truncate ordering exists for: the
        # new snapshot landed, the WAL truncation did not.  Replay sees
        # the new state plus the (now redundant, idempotent) updates —
        # duplicates, never loss.
        backend = CrashingBackend(MemoryBackend())
        store = self._loaded_store(backend, POLICIES[mode])
        backend.arm("replace", at_call=0, name=WAL_NAME)
        with pytest.raises(SimulatedCrash):
            store.snapshot(b"STATE@12", epoch=12)
        store.writer.discard_pending()
        replayed = DurableStore(backend.inner).replay()
        assert replayed.snapshot == b"STATE@12"
        assert replayed.epoch == 12
        assert replayed.entries == PAYLOADS

    def test_file_replace_fsyncs_directory(self, tmp_path, monkeypatch):
        # The satellite fix: os.replace alone leaves the rename in
        # volatile directory metadata; FileBackend.replace must fsync
        # the containing directory afterwards.
        import os as os_mod

        backend = FileBackend(str(tmp_path / "d"))
        backend.append(WAL_NAME, b"x")
        synced_dirs = []
        real_fsync = os_mod.fsync
        real_open = os_mod.open

        def spy_open(path, flags, *args):
            fd = real_open(path, flags, *args)
            if path == backend.root:
                synced_dirs.append(fd)
            return fd

        monkeypatch.setattr("os.open", spy_open)
        monkeypatch.setattr(
            "os.fsync",
            lambda fd: (
                synced_dirs.append(("synced", fd))
                if any(fd == d for d in synced_dirs)
                else real_fsync(fd)
            ),
        )
        backend.replace(SNAPSHOT_NAME, b"state")
        assert any(
            isinstance(entry, tuple) and entry[0] == "synced"
            for entry in synced_dirs
        ), "replace() must fsync the containing directory"
        backend.close()


class TestAckPlumbing:
    """LOGGER/XFER choose ack-after-durable vs ack-after-enqueue."""

    def test_logger_durable_ack_releases_in_order(self):
        world = World(seed=42, network="lan")
        stack = (
            "LOGGER(durability=group,ack=durable)"
            ":TOTAL:MBRSHIP:FRAG:NAK:COM"
        )
        handles = {}
        for node in ("a", "b"):
            handles[node] = world.process(node).endpoint().join(
                "grp", stack=stack
            )
            world.run(0.5)
        world.run(2.0)
        seen = []
        handles["b"].on_message = lambda d: seen.append(d.data)
        for i in range(6):
            handles["a"].cast(b"m%d" % i)
        world.run(2.0)
        # Delivery happened (so held upcalls were released), in order.
        assert seen == [b"m%d" % i for i in range(6)]
        logger = handles["b"].focus("LOGGER")
        info = logger.dump()
        assert info["ack"] == "durable" and info["held_upcalls"] == 0
        assert logger.store.policy.mode == "group"
        # Every released upcall's journal entry is already durable.
        assert len(logger.store.replay().entries) >= 6

    def test_xfer_durable_ack_syncs_after_snapshot_commit(self):
        world = World(seed=42, network="lan")
        stack = "XFER(ack=durable):TOTAL:MBRSHIP:FRAG:NAK:COM"
        policy = DurabilityPolicy(mode="group", max_batch_records=4)
        writer = ReplicatedDict(
            world.process("a").endpoint(), "grp", stack=stack,
            durable=True, policy=policy,
        )
        world.run(2.0)
        for i in range(5):
            writer.set(f"k{i}", i)
        world.run(2.0)
        joiner = ReplicatedDict(
            world.process("b").endpoint(), "grp", stack=stack,
            durable=True, policy=policy,
        )
        world.run(4.0)
        assert joiner.synced
        assert joiner.get("k3") == 3
        # The durable ack really went through the snapshot ticket: the
        # joiner's store holds the installed state on stable storage.
        replayed = joiner.store.replay()
        assert replayed.snapshot is not None
        xfer = joiner.handle.focus("XFER")
        assert xfer.ack == "durable"


class TestDesDeterminism:
    STACK = "XFER:TOTAL:MBRSHIP:FRAG:NAK:COM"

    def _run(self, seed: int, writes: int = 9):
        """A fixed stateful scenario: write, crash, recover, write more.
        Returns every store's raw WAL + snapshot bytes."""
        policy = DurabilityPolicy(mode="group", max_batch_records=4)
        world = World(seed=seed)
        dicts = {}
        for node in ("a", "b"):
            dicts[node] = ReplicatedDict(
                world.process(node).endpoint(), "grp", stack=self.STACK,
                durable=True, policy=policy,
            )
            world.run(1.0)
        world.run(2.0)
        for i in range(writes):
            dicts["a" if i % 2 else "b"].set(f"k{i}", i)
        world.run(2.0)
        world.crash("b")
        world.run(1.0)
        dicts["a"].set("after-crash", True)
        world.run(1.0)
        reborn = world.recover("b", stateful=True)
        dicts["b"] = ReplicatedDict(
            reborn.endpoint(), "grp", stack=self.STACK,
            durable=True, policy=policy,
        )
        world.run(3.0)
        world.store.flush_all()
        blobs = {}
        for node, namespace in world.store.stores():
            store = world.store.store(node, namespace)
            blobs[(node, namespace)] = (
                store.backend.read(WAL_NAME),
                store.backend.read(SNAPSHOT_NAME),
            )
        assert dicts["a"].digest() == dicts["b"].digest()
        return blobs

    def test_group_mode_wal_bytes_pure_in_seed(self):
        first = self._run(seed=11)
        second = self._run(seed=11)
        assert first.keys() == second.keys()
        assert any(wal for wal, _snap in first.values())
        assert first == second, "group-mode WALs must be byte-identical"

    def test_different_scenario_differs(self):
        # Sanity: the byte comparison above is not vacuous — a changed
        # workload changes the recorded bytes.
        assert self._run(seed=11) != self._run(seed=11, writes=5)
