"""Tests for the durable-state subsystem (repro.store)."""

import os
import struct
import time

import pytest

from repro.store import (
    MAX_RECORD_BYTES,
    CommitTicket,
    DurabilityPolicy,
    DurableStore,
    FileBackend,
    FileStoreDomain,
    MemoryBackend,
    MemoryStoreDomain,
    decode_snapshot,
    encode_record,
    encode_snapshot,
    parse_policy,
    render_store,
    scan,
)
from repro.store.store import SNAPSHOT_NAME, WAL_NAME


class TestWalCodec:
    def test_roundtrip(self):
        payloads = [b"", b"a", b"hello world", bytes(range(256))]
        data = b"".join(encode_record(p) for p in payloads)
        result = scan(data)
        assert result.records == payloads
        assert result.clean
        assert result.intact_bytes == len(data)

    def test_truncated_tail_detected_and_ignored(self):
        payloads = [b"one", b"two", b"three"]
        data = b"".join(encode_record(p) for p in payloads)
        # Cut mid-way through the last record's payload (torn append).
        torn = data[:-2]
        result = scan(torn)
        assert result.records == [b"one", b"two"]
        assert result.truncated
        assert not result.clean

    def test_torn_header_detected(self):
        data = encode_record(b"whole") + b"\x00\x00\x00"  # 3 header bytes
        result = scan(data)
        assert result.records == [b"whole"]
        assert result.truncated

    def test_bitflip_crc_detected_suffix_never_replayed(self):
        records = [encode_record(b"good-0"), encode_record(b"bad-1"),
                   encode_record(b"good-2")]
        data = bytearray(b"".join(records))
        # Flip one payload bit inside the middle record.
        flip_at = len(records[0]) + 8 + 2
        data[flip_at] ^= 0x40
        result = scan(bytes(data))
        # The intact prefix survives; the damaged record AND everything
        # after it are ignored — a later record is unattributable.
        assert result.records == [b"good-0"]
        assert result.corrupt == 1
        assert not result.clean

    def test_absurd_length_field_is_bounded(self):
        # A corrupted length must not trigger a giant allocation.
        data = struct.pack(">II", MAX_RECORD_BYTES + 1, 0) + b"x" * 64
        result = scan(data)
        assert result.records == []
        assert result.truncated

    def test_oversize_record_refused_at_write(self):
        store = DurableStore(MemoryBackend())
        with pytest.raises(ValueError):
            store.append(b"x" * (MAX_RECORD_BYTES + 1))


class TestSnapshotCodec:
    def test_roundtrip(self):
        blob = encode_snapshot(b'{"k": 1}', epoch=7)
        assert decode_snapshot(blob) == (b'{"k": 1}', 7)

    def test_damage_means_genesis(self):
        blob = bytearray(encode_snapshot(b"state", epoch=3))
        blob[-1] ^= 0x01
        assert decode_snapshot(bytes(blob)) == (None, 0)
        assert decode_snapshot(b"") == (None, 0)
        assert decode_snapshot(b"JUNK" + bytes(40)) == (None, 0)


class TestDurableStore:
    def test_append_replay(self):
        store = DurableStore(MemoryBackend())
        for i in range(5):
            store.append(f"u{i}".encode())
        replayed = store.replay()
        assert replayed.snapshot is None
        assert replayed.entries == [b"u0", b"u1", b"u2", b"u3", b"u4"]
        assert not replayed.corrupt and not replayed.truncated

    def test_snapshot_compacts_wal(self):
        store = DurableStore(MemoryBackend())
        for i in range(8):
            store.append(f"u{i}".encode())
        assert store.since_snapshot == 8
        store.snapshot(b"STATE@8", epoch=8)
        assert store.since_snapshot == 0
        assert store.wal_bytes() == 0
        store.append(b"u8")
        replayed = store.replay()
        assert replayed.snapshot == b"STATE@8"
        assert replayed.epoch == 8
        assert replayed.entries == [b"u8"]

    def test_crash_between_snapshot_and_truncate_loses_nothing(self):
        # Snapshot-then-truncate ordering: simulate the crash window by
        # installing the snapshot blob without clearing the WAL.  Replay
        # must return the new snapshot plus every entry — re-applying a
        # few updates twice beats losing any.
        backend = MemoryBackend()
        store = DurableStore(backend)
        store.append(b"u0")
        store.append(b"u1")
        backend.replace(SNAPSHOT_NAME, encode_snapshot(b"STATE@2", epoch=2))
        replayed = store.replay()
        assert replayed.snapshot == b"STATE@2"
        assert replayed.entries == [b"u0", b"u1"]

    def test_digest_covers_snapshot_and_entries(self):
        a, b = DurableStore(MemoryBackend()), DurableStore(MemoryBackend())
        for s in (a, b):
            s.snapshot(b"base", epoch=1)
            s.append(b"u0")
        assert a.digest() == b.digest()
        b.append(b"u1")
        assert a.digest() != b.digest()

    def test_replay_tolerates_damaged_suffix(self):
        backend = MemoryBackend()
        store = DurableStore(backend)
        store.append(b"good")
        wal = bytearray(backend.read(WAL_NAME))
        wal.extend(encode_record(b"evil"))
        wal[-2] ^= 0xFF  # corrupt the second record's payload
        backend.replace(WAL_NAME, bytes(wal))
        replayed = store.replay()
        assert replayed.entries == [b"good"]
        assert replayed.corrupt == 1


class TestMemoryStoreDomain:
    def test_keyed_by_node_and_namespace(self):
        domain = MemoryStoreDomain()
        domain.store("a", "x").append(b"ax")
        domain.store("a", "y").append(b"ay")
        domain.store("b", "x").append(b"bx")
        # A fresh handle for the same key sees the same backend.
        assert domain.store("a", "x").replay().entries == [b"ax"]
        assert domain.stores() == [("a", "x"), ("a", "y"), ("b", "x")]

    def test_wipe_is_per_node(self):
        domain = MemoryStoreDomain()
        domain.store("a", "x").append(b"ax")
        domain.store("b", "x").append(b"bx")
        domain.wipe("a")
        assert domain.store("a", "x").replay().entries == []
        assert domain.store("b", "x").replay().entries == [b"bx"]


class TestFileStoreDomain:
    def test_layout_and_persistence_across_domains(self, tmp_path):
        root = str(tmp_path / "store")
        domain = FileStoreDomain(root=root)
        store = domain.store("n1", "rdict.grp")
        store.append(b"u0")
        store.snapshot(b"STATE", epoch=1)
        store.append(b"u1")
        assert os.path.exists(
            os.path.join(root, "n1", "rdict.grp", "wal.log")
        )
        # A second domain over the same root finds the same state —
        # this is what survives a whole-process restart.
        fresh = FileStoreDomain(root=root)
        assert fresh.stores() == [("n1", "rdict.grp")]
        replayed = fresh.store("n1", "rdict.grp").replay()
        assert replayed.snapshot == b"STATE"
        assert replayed.entries == [b"u1"]

    def test_hostile_names_are_sanitized(self, tmp_path):
        root = str(tmp_path / "store")
        domain = FileStoreDomain(root=root)
        domain.store("../../evil", "ns/../up").append(b"u")
        # Nothing escaped the root: the hostile separators were
        # flattened into plain directory names.
        assert not os.path.exists(str(tmp_path.parent / "evil"))
        for dirpath, _dirs, _files in os.walk(root):
            assert os.path.realpath(dirpath).startswith(
                os.path.realpath(root)
            )
        assert os.sep not in "".join(os.listdir(root))

    def test_ephemeral_domain_cleans_up(self):
        domain = FileStoreDomain()
        domain.store("n", "ns").append(b"u")
        root = domain.root
        assert os.path.exists(root)
        domain.close()
        assert not os.path.exists(root)

    def test_wipe_removes_node_directory(self, tmp_path):
        domain = FileStoreDomain(root=str(tmp_path / "s"))
        domain.store("n1", "ns").append(b"u")
        domain.wipe("n1")
        assert domain.store("n1", "ns").replay().entries == []


class TestDurabilityPolicy:
    def test_parse_policy_coercions(self):
        assert parse_policy(None) == DurabilityPolicy()
        assert parse_policy("group").mode == "group"
        policy = DurabilityPolicy(mode="group", max_batch_records=7)
        assert parse_policy(policy) is policy
        with pytest.raises(ValueError):
            parse_policy("eventually")
        with pytest.raises(ValueError):
            parse_policy("async")
        with pytest.raises(TypeError):
            parse_policy(42)

    def test_validation(self):
        with pytest.raises(ValueError):
            DurabilityPolicy(max_batch_bytes=0)
        with pytest.raises(ValueError):
            DurabilityPolicy(max_delay=-1.0)
        assert not DurabilityPolicy().batched
        assert DurabilityPolicy(mode="group").batched


class TestCommitTicket:
    def test_append_returns_done_ticket_by_default(self):
        store = DurableStore(MemoryBackend())
        ticket = store.append(b"u0")
        assert isinstance(ticket, CommitTicket)
        assert ticket.done() and ticket.lsn == 0
        assert store.append(b"u1").lsn == 1

    def test_callback_fires_immediately_when_done(self):
        store = DurableStore(MemoryBackend())
        fired = []
        store.append(b"u0").add_done_callback(lambda t: fired.append(t.lsn))
        assert fired == [0]

    def test_group_mode_completes_at_covering_flush(self):
        policy = DurabilityPolicy(mode="group", max_batch_records=3)
        store = DurableStore(MemoryBackend(), policy=policy)
        fired = []
        tickets = []
        for i in range(5):
            ticket = store.append(b"u%d" % i)
            ticket.add_done_callback(lambda t: fired.append(t.lsn))
            tickets.append(ticket)
        # The third append hit max_batch_records: one flush covered 0-2.
        assert [t.done() for t in tickets] == [True] * 3 + [False] * 2
        assert fired == [0, 1, 2]
        assert tickets[4].wait()  # wait() forces the covering flush
        assert fired == [0, 1, 2, 3, 4]
        assert store.replay().entries == [b"u%d" % i for i in range(5)]


class TestWalWriterBehavior:
    def test_size_trigger_batches_per_fsync(self):
        backend = MemoryBackend()
        syncs = []
        original = backend.sync
        backend.sync = lambda name: (syncs.append(name), original(name))[1]
        policy = DurabilityPolicy(mode="group", max_batch_records=10)
        store = DurableStore(backend, policy=policy)
        for i in range(30):
            store.append(b"u%02d" % i)
        assert len(syncs) == 3  # 30 records, 3 fsyncs
        assert len(store.replay().entries) == 30

    def test_snapshot_drains_pending_before_compacting(self):
        policy = DurabilityPolicy(mode="group", max_batch_records=100)
        store = DurableStore(MemoryBackend(), policy=policy)
        tickets = [store.append(b"u%d" % i) for i in range(5)]
        # Nothing flushed yet; compaction must not lose the pending tail.
        snap_ticket = store.snapshot(b"STATE@5", epoch=5)
        assert snap_ticket.done()
        assert all(t.done() for t in tickets)
        replayed = store.replay()
        assert replayed.snapshot == b"STATE@5"
        assert replayed.entries == []

    def test_discard_pending_models_a_crash(self):
        policy = DurabilityPolicy(mode="group", max_batch_records=3)
        store = DurableStore(MemoryBackend(), policy=policy)
        tickets = [store.append(b"u%d" % i) for i in range(5)]
        dropped = store.writer.discard_pending()
        assert dropped == 2  # u3, u4 were still volatile
        assert not tickets[3].done() and not tickets[4].done()
        assert store.replay().entries == [b"u0", b"u1", b"u2"]

    def test_set_policy_drains_old_writer(self):
        store = DurableStore(
            MemoryBackend(),
            policy=DurabilityPolicy(mode="group", max_batch_records=100),
        )
        ticket = store.append(b"buffered")
        store.set_policy("fsync_per_record")
        assert ticket.done()  # the swap drained the old pipeline
        assert store.append(b"strict").done()
        assert store.replay().entries == [b"buffered", b"strict"]

    def test_default_mode_writes_no_sidecar(self):
        backend = MemoryBackend()
        store = DurableStore(backend)
        store.append(b"u0")
        assert not backend.exists("wal.log.batches")

    def test_batched_mode_sidecar_tracks_flush_offsets(self):
        backend = MemoryBackend()
        policy = DurabilityPolicy(mode="group", max_batch_records=2)
        store = DurableStore(backend, policy=policy)
        for i in range(4):
            store.append(b"u%d" % i)
        raw = backend.read("wal.log.batches")
        offsets = [
            struct.unpack_from(">Q", raw, i)[0] for i in range(0, len(raw), 8)
        ]
        wal_len = len(backend.read(WAL_NAME))
        assert offsets == [wal_len // 2, wal_len]
        store.snapshot(b"S", epoch=1)
        assert backend.read("wal.log.batches") == b""


class TestWalThroughputFloor:
    def test_group_mode_sustains_50k_durable_appends_per_s(self, tmp_path):
        """CI's perf-smoke gate: 64 B records on the file backend, timed
        to durable completion (the clock stops when every ticket is
        done).  Below the floor, group commit has regressed to something
        close to one fsync per record."""
        policy = DurabilityPolicy(mode="group")
        store = DurableStore(FileBackend(str(tmp_path)), name="floor", policy=policy)
        records = 2000
        started = time.perf_counter()
        for _ in range(records):
            last = store.append(b"u" * 64)
        store.flush()
        rate = records / (time.perf_counter() - started)
        assert last.done()
        store.close()
        assert rate >= 50_000


class TestBackendProtocol:
    def test_file_backend_append_many_one_write_then_sync(self, tmp_path):
        backend = FileBackend(str(tmp_path / "b"))
        backend.append_many("wal.log", [encode_record(b"x"), encode_record(b"y")])
        backend.sync("wal.log")
        assert scan(backend.read("wal.log")).records == [b"x", b"y"]
        backend.close()

    def test_file_backend_replace_invalidates_cached_appender(self, tmp_path):
        backend = FileBackend(str(tmp_path / "b"))
        backend.append("wal.log", encode_record(b"old"))
        backend.replace("wal.log", b"")
        backend.append("wal.log", encode_record(b"new"))
        # The append after replace must land in the *new* file, not the
        # replaced inode held by a stale descriptor.
        assert scan(backend.read("wal.log")).records == [b"new"]
        backend.close()


class TestDomainPolicyApi:
    def test_store_handles_are_cached_and_shared(self):
        domain = MemoryStoreDomain()
        first = domain.store("a", "x", policy="group")
        assert domain.store("a", "x") is first
        ticket = first.append(b"u0")
        # The shared handle sees the same pending pipeline.
        domain.flush_all()
        assert ticket.done()

    def test_policy_reconfigures_existing_store(self):
        domain = MemoryStoreDomain()
        store = domain.store("a", "x")
        assert store.policy.mode == "fsync_per_record"
        assert domain.store("a", "x", policy="group") is store
        assert store.policy.mode == "group"

    def test_discard_pending_is_per_node(self):
        domain = MemoryStoreDomain()
        policy = DurabilityPolicy(mode="group", max_batch_records=100)
        ta = domain.store("a", "x", policy=policy).append(b"ua")
        tb = domain.store("b", "x", policy=policy).append(b"ub")
        assert domain.discard_pending("a") == 1
        domain.flush_all()
        assert not ta.done() and tb.done()

    def test_wipe_forgets_cached_handle(self):
        domain = MemoryStoreDomain()
        domain.store("a", "x").append(b"ax")
        domain.wipe("a")
        fresh = domain.store("a", "x")
        assert fresh.replay().entries == []

    def test_file_domain_persists_batched_wal(self, tmp_path):
        root = str(tmp_path / "s")
        domain = FileStoreDomain(root=root)
        store = domain.store("n1", "ns", policy="group")
        tickets = [store.append(b"u%d" % i) for i in range(3)]
        domain.flush_all()
        assert all(t.done() for t in tickets)
        domain.close()
        again = FileStoreDomain(root=root).store("n1", "ns")
        assert again.replay().entries == [b"u0", b"u1", b"u2"]


class TestInspect:
    def test_render_marks_damage(self, tmp_path):
        root = str(tmp_path / "store")
        domain = FileStoreDomain(root=root)
        store = domain.store("n1", "ns")
        store.append(b"hello")
        store.append(b"world")
        path = os.path.join(root, "n1", "ns")
        wal_path = os.path.join(path, "wal.log")
        with open(wal_path, "r+b") as fh:
            data = bytearray(fh.read())
            data[-1] ^= 0xFF  # corrupt the last record
            fh.seek(0)
            fh.write(data)
        rendered = render_store(path)
        assert "crc=ok" in rendered and "hello" in rendered
        assert "CRC MISMATCH" in rendered
        assert "never replayed" in rendered

    def test_render_shows_flush_boundaries(self, tmp_path):
        root = str(tmp_path / "store")
        domain = FileStoreDomain(root=root)
        store = domain.store(
            "n1", "ns", policy=DurabilityPolicy(mode="group", max_batch_records=2)
        )
        for i in range(5):
            store.append(b"u%d" % i)
        domain.flush_all()
        rendered = render_store(os.path.join(root, "n1", "ns"))
        assert "3 flush batches" in rendered
        assert rendered.count("flush boundary") == 3
        assert "(2 records)" in rendered and "(1 record)" in rendered
        domain.close()

    def test_render_tolerates_stale_sidecar(self, tmp_path):
        root = str(tmp_path / "store")
        domain = FileStoreDomain(root=root)
        store = domain.store(
            "n1", "ns", policy=DurabilityPolicy(mode="group", max_batch_records=2)
        )
        store.append(b"aa")
        store.append(b"bb")
        domain.flush_all()
        domain.close()
        path = os.path.join(root, "n1", "ns")
        # Shear the WAL tail: the sidecar now points past the log (the
        # crash-after-sidecar-write case) plus a torn trailing u64.
        wal_path = os.path.join(path, "wal.log")
        with open(wal_path, "r+b") as fh:
            fh.truncate(os.path.getsize(wal_path) - 3)
        with open(wal_path + ".batches", "ab") as fh:
            fh.write(b"\x00\x00\x00")
        rendered = render_store(path)
        assert "TORN" in rendered  # damage still shown
        assert "flush boundary" not in rendered  # stale offsets ignored
