"""Tests for the XFER state-transfer layer and its toolkit clients."""

import pytest

from repro import World
from repro.errors import ConfigurationError
from repro.net.faults import FaultModel
from repro.toolkit import ReplicatedDict


def build(world, names, **kwargs):
    members = {}
    for name in names:
        endpoint = world.process(name).endpoint()
        members[name] = ReplicatedDict(endpoint, "xfer-grp", **kwargs)
        world.run(0.5)
    world.run(2.0)
    return members


class TestJoinerTransfer:
    def test_joiner_under_loss_converges_to_founder_contents(self, lan_world):
        founders = build(lan_world, ["a", "b"])
        founders["a"].set("color", "blue")
        # A value spanning several XFER chunks (chunk_size=1024).
        founders["b"].set("blob", "x" * 5000)
        lan_world.run(2.0)
        # NAK-visible loss: the snapshot stream and the catch-up casts
        # both have to survive retransmission.
        lan_world.set_faults(FaultModel(loss_rate=0.05))
        late = ReplicatedDict(
            lan_world.process("c").endpoint(), "xfer-grp"
        )
        lan_world.run(8.0)
        lan_world.set_faults(None)
        lan_world.run(2.0)
        assert late.synced
        assert late.get("color") == "blue"
        assert late.get("blob") == "x" * 5000
        digests = {m.digest() for m in (*founders.values(), late)}
        assert len(digests) == 1

    def test_updates_during_transfer_are_buffered_not_lost(self, lan_world):
        founders = build(lan_world, ["a", "b"])
        for i in range(6):
            founders["a"].set(f"k{i}", i)
        lan_world.run(2.0)
        late = ReplicatedDict(
            lan_world.process("c").endpoint(), "xfer-grp"
        )
        # Keep writing while the joiner is catching up.
        for i in range(6, 12):
            founders["b"].set(f"k{i}", i)
            lan_world.run(0.2)
        lan_world.run(4.0)
        assert late.synced
        assert {m.digest() for m in (*founders.values(), late)} == {
            late.digest()
        }
        assert all(late.get(f"k{i}") == i for i in range(12))


class TestResyncOnMerge:
    def test_minority_writes_discarded_after_heal(self, lan_world):
        members = build(lan_world, ["a", "b", "c", "d"])
        members["a"].set("base", 1)
        lan_world.run(1.0)
        members["d"].set("warm", 0)  # d acquires the TOTAL token
        lan_world.run(2.0)
        lan_world.partition(["a", "b", "c"], ["d"])
        # Write inside the pre-detection window: d still holds the token
        # and the stale full view, so it orders and applies its own cast
        # locally — the real divergence the merge has to repair (once
        # MBRSHIP detects the partition, the primary policy blocks the
        # minority outright).
        lan_world.run(0.3)
        members["d"].set("orphan", True)
        lan_world.run(0.5)
        assert members["d"].get("orphan") is True
        members["a"].set("majority", 2)
        lan_world.run(8.0)
        # Genuine divergence: a write the majority never saw.
        assert members["a"].get("orphan") is None
        lan_world.heal()
        lan_world.run(15.0)
        digests = {m.digest() for m in members.values()}
        assert len(digests) == 1
        # The coordinator's (majority) state won: the isolated write is
        # gone, the majority write is everywhere.
        assert members["d"].get("majority") == 2
        assert members["d"].get("orphan") is None
        assert members["d"]._xfer is not None
        assert members["d"]._xfer.resyncs >= 1


class TestXferRequired:
    def test_stack_without_xfer_is_rejected_at_construction(self, lan_world):
        endpoint = lan_world.process("a").endpoint()
        with pytest.raises(ConfigurationError, match="XFER"):
            ReplicatedDict(
                endpoint, "xfer-grp", stack="TOTAL:MBRSHIP:FRAG:NAK:COM"
            )
        # Fail fast means before the join: no half-built member is left.
        assert endpoint.groups() == {}

