"""Shared header frames: one datagram framed and decoded once per world.

The ISSUE 22 test surface.  Endpoints that share a process are handed
the *same* ``bytes`` by the network, and what those bytes say is a pure
function of them in the span modes (``aligned``, ``compact``), so
:meth:`HeaderRegistry.unmarshal` may keep it in a caller-owned
:class:`HeaderFrameStore`.  Pinned here, DES-exact:

* eight receivers of one multicast: one framing, one decode per span;
* a popped header is its receiver's own — dict, lists and maps;
* what is never shared: failures, ``table`` rows; a garbled copy is
  other bytes, so it is framed under its own and never served for them;
* the bound: a constant, oldest first;
* the arbitrary-bytes oracle of ``test_hotpath`` with a warm store;
* a lossy eight-member world behaves identically without the store.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import FaultModel, World, known_layers
from repro.core import headers as hdr
from repro.core.headers import (
    DEFAULT_REGISTRY, HeaderFrameStore, HeaderTableStore, make_channel_encoder,
)
from repro.core.headers.wire import _MAX_FRAMES, _Framed
from repro.core.message import Message
from repro.errors import HeaderError
from repro.net.packet import Packet

from conftest import join_group
from test_hotpath import (
    GRP, SPAN_MODES, SRC, build_sample, force_decode, golden_message,
)

# Loading the layer library registers every codec the samples carry.
known_layers()

STACK = "MBRSHIP:FRAG:NAK:CHKSUM:COM"
LAYERS = STACK.split(":")
RECEIVERS = [f"r{i}" for i in range(8)]


def lazy(data, frames, tables=None):
    return DEFAULT_REGISTRY.unmarshal(data, lazy=True, tables=tables, frames=frames)


class Fanout:
    """One sender and eight receivers of one group on one world.  The
    sender's datagrams are captured instead of sent and handed to the
    receivers' demux by hand, the same ``bytes`` object to each — what
    the DES network does, minus everything else it would deliver."""

    def __init__(self, mode="aligned"):
        self.world = World(seed=11, network="lan", wire_mode=mode)
        self.handles = join_group(self.world, ["s"] + RECEIVERS, STACK)
        self.sender = self.handles.pop("s")
        self.sent = []
        self.world.network.multicast = (
            lambda source, dests, data: self.sent.append(data))
        self.world.network.unicast = (
            lambda source, dest, data: self.sent.append(data))
        self.world.header_frames.clear()  # forming the group filled it

    def cast(self, body):
        self.sender.cast(body)
        (wire,) = self.sent
        self.sent.clear()
        return wire

    def hand(self, name, payload):
        """Hand ``payload`` to receiver ``name``; what its application got."""
        handle = self.handles[name]
        before = len(handle.delivery_log)
        self.endpoint(name)._on_packet(Packet(
            source=self.sender.endpoint_address, dest=handle.endpoint_address,
            payload=payload))
        return [d.data for d in handle.delivery_log[before:]]

    def endpoint(self, name):
        return self.world.process(name).endpoints[0]

    def chksum(self, name):
        return self.handles[name].focus("CHKSUM")


@pytest.fixture
def calls(monkeypatch):
    """Owner of every ``HeaderCodec.decode`` call, and every framing."""
    seen = {"decode": [], "framed": 0}
    decode, read_headers = hdr.HeaderCodec.decode, _Framed.read_headers

    def recording_decode(self, *args, **kwargs):
        seen["decode"].append(self.layer)
        return decode(self, *args, **kwargs)

    def recording_read(self, *args, **kwargs):
        seen["framed"] += 1
        return read_headers(self, *args, **kwargs)

    monkeypatch.setattr(hdr.HeaderCodec, "decode", recording_decode)
    monkeypatch.setattr(_Framed, "read_headers", recording_read)
    return seen


class TestOneDatagramEightReceivers:
    @pytest.mark.parametrize("mode", SPAN_MODES)
    def test_each_span_decodes_once_and_the_framing_runs_once(self, mode, calls):
        rig = Fanout(mode)
        wire = rig.cast(b"to all eight")
        calls["decode"].clear()
        calls["framed"] = 0
        for name in RECEIVERS:
            assert rig.hand(name, wire) == [b"to all eight"]
        assert sorted(calls["decode"]) == sorted(LAYERS)
        assert calls["framed"] == 1
        assert list(rig.world.header_frames) == [wire]
        assert all(rig.chksum(name).verified >= 1 for name in RECEIVERS)

    def test_a_garbled_copy_is_framed_as_its_own(self, calls):
        """A copy with a flipped body byte frames cleanly, so it is stored
        like any datagram — under the bytes it arrived as.  CHKSUM drops
        it; the seven clean copies share one framing of their own."""
        rig = Fanout()
        wire = rig.cast(b"seven clean, one not")
        flipped = bytearray(wire)
        flipped[-1] ^= 0x20  # a body byte: only CHKSUM can tell
        flipped = bytes(flipped)
        dropped = rig.chksum("r0").garbled_dropped
        assert rig.hand("r0", flipped) == []
        assert rig.chksum("r0").garbled_dropped == dropped + 1
        assert list(rig.world.header_frames) == [flipped]
        calls["framed"] = 0
        for name in RECEIVERS[1:]:
            assert rig.hand(name, wire) == [b"seven clean, one not"]
        assert calls["framed"] == 1
        assert list(rig.world.header_frames) == [flipped, wire]
        assert all(rig.chksum(name).garbled_dropped == 0
                   for name in RECEIVERS[1:])

    def test_a_truncated_datagram_fails_at_every_receiver(self):
        rig = Fanout()
        wire = rig.cast(b"cut short")
        cut = wire[:-3]
        for name in RECEIVERS:
            before = rig.endpoint(name).undecodable_packets
            assert rig.hand(name, cut) == []
            assert rig.endpoint(name).undecodable_packets == before + 1
        assert len(rig.world.header_frames) == 0  # failures are not remembered


class TestPrivacy:
    """Layers treat a popped header as theirs; behind the shared thunk
    it is — a copy of the dict and of every list and map in it."""

    @pytest.mark.parametrize("mode", SPAN_MODES)
    def test_mutations_at_one_receiver_are_invisible_to_the_rest(self, mode):
        wire = DEFAULT_REGISTRY.marshal(golden_message(), mode)
        pristine = dict(DEFAULT_REGISTRY.unmarshal(wire).headers())["MBRSHIP"]
        frames = HeaderFrameStore()
        received = [lazy(wire, frames) for _ in range(8)]
        assert len(frames) == 1
        for message in received:
            message.pop_header("NAK")
            message.pop_header("FRAG")
        vandal = received[0].peek_header("MBRSHIP")
        assert vandal is received[0].pop_header("MBRSHIP")  # its own, twice
        vandal["seq"] = -1
        vandal["extra"] = "field"
        vandal["members"].append("intruder")
        vandal["vector"][SRC] = 10**9
        vandal["vector"]["intruder"] = 0
        for message in received[1:]:
            assert message.pop_header("MBRSHIP") == pristine
        duplicate = lazy(wire, frames)  # a later copy of the same bytes
        assert dict(duplicate.headers())["MBRSHIP"] == pristine
        assert duplicate.body_bytes() == b"golden body"

    def test_receivers_share_thunks_and_the_body_view(self):
        wire = DEFAULT_REGISTRY.marshal(golden_message(), "compact")
        frames = HeaderFrameStore()
        first, second = lazy(wire, frames), lazy(wire, frames)
        assert first is not second
        assert first.header_entries() is not second.header_entries()
        for (_, a), (_, b) in zip(first.header_entries(), second.header_entries()):
            assert a is b and type(a) is not dict
        assert first.segments[0] is second.segments[0]
        assert isinstance(first.segments[0], memoryview)

    def test_nested_containers_are_copied_all_the_way_down(self):
        nested = hdr.HeaderCodec("NESTED", [
            ("rows", hdr.ListOf(hdr.ListOf(hdr.U8))),
            ("index", hdr.MapOf(hdr.U8, hdr.ListOf(hdr.U8))),
        ])
        value = nested.decode(nested.encode(
            {"rows": [[1, 2], [3]], "index": {7: [8, 9]}}))
        clone = nested.private_copy(value)
        clone["rows"][0].append(0)
        clone["index"][7].clear()
        assert value == {"rows": [[1, 2], [3]], "index": {7: [8, 9]}}

    def test_without_a_store_nothing_is_kept(self):
        wire = DEFAULT_REGISTRY.marshal(golden_message(), "aligned")
        first = DEFAULT_REGISTRY.unmarshal(wire, lazy=True)
        second = DEFAULT_REGISTRY.unmarshal(wire, lazy=True)
        for (_, a), (_, b) in zip(first.header_entries(), second.header_entries()):
            assert a is not b
        assert force_decode(first) == force_decode(second)


class TestWhatIsNotShared:
    def test_a_value_level_failure_raises_for_every_receiver(self):
        """A span that frames but does not decode is stored (the frame is
        good); the decode raises at each receiver's pop and is retried."""
        msg = Message(b"b")
        msg.push_header("FRAG", {"last": True})
        wire = bytearray(DEFAULT_REGISTRY.marshal(msg, "compact"))
        wire[6] += 1  # the frame now declares one byte more than FRAG has
        wire[8:8] = b"\x00"
        wire = bytes(wire)
        frames = HeaderFrameStore()
        for _ in range(3):
            with pytest.raises(HeaderError):
                lazy(wire, frames).pop_header("FRAG")

    @pytest.mark.parametrize("mode", SPAN_MODES)
    def test_truncations_are_never_remembered(self, mode):
        data = build_sample(mode)
        frames = HeaderFrameStore()
        for cut in range(len(data)):
            for _ in range(2):
                with pytest.raises(HeaderError):
                    lazy(data[:cut], frames)
        assert len(frames) == 0

    def test_eager_and_packed_never_touch_the_store(self):
        frames = HeaderFrameStore()
        DEFAULT_REGISTRY.unmarshal(build_sample("aligned"), frames=frames)
        DEFAULT_REGISTRY.unmarshal(build_sample("packed"), lazy=True, frames=frames)
        lazy(bytearray(build_sample("aligned")), frames)  # not hashable: not kept
        assert len(frames) == 0

    def test_table_rows_decode_per_receiver(self):
        """Two receivers, one store, the same bytes: the one that saw the
        install decodes, the one that lost it raises — a row is read
        against the receiver's own table, so it is never shared."""
        channel = make_channel_encoder(SRC, GRP, epoch=9)
        msg = Message(b"x")
        msg.push_header("COM", {"group": GRP, "source": SRC, "kind": 0})
        installing = DEFAULT_REGISTRY.marshal(msg, "table", channel=channel)
        referencing = DEFAULT_REGISTRY.marshal(msg, "table", channel=channel)
        assert len(referencing) < len(installing)
        frames, saw, lost = HeaderFrameStore(), HeaderTableStore(), HeaderTableStore()
        lazy(installing, frames, tables=saw)
        for _ in range(2):
            got = lazy(referencing, frames, tables=saw)
            assert got.pop_header("COM")["source"] == SRC
            with pytest.raises(HeaderError):
                lazy(referencing, frames, tables=lost)
        assert len(frames) == 0


class TestBound:
    def test_one_past_the_constant_evicts_the_oldest(self):
        frames = HeaderFrameStore()
        wires = []
        for i in range(_MAX_FRAMES + 1):
            msg = Message(b"distinct")
            msg.push_header("NAK", {"kind": 0, "era": 1, "seq": i})
            wires.append(DEFAULT_REGISTRY.marshal(msg, "compact"))
        for wire in wires[:-1]:
            lazy(wire, frames)
        assert len(frames) == _MAX_FRAMES and wires[0] in frames
        lazy(wires[-1], frames)
        assert len(frames) == _MAX_FRAMES
        assert wires[0] not in frames and wires[1] in frames and wires[-1] in frames
        # An evicted datagram is simply framed again; a hit does not
        # move an entry (oldest *stored* goes first).
        assert lazy(wires[0], frames).pop_header("NAK")["seq"] == 0
        assert wires[1] not in frames and len(frames) == _MAX_FRAMES

    def test_a_worlds_store_plateaus(self):
        rig = Fanout()
        for i in range(_MAX_FRAMES + 40):
            rig.hand("r0", rig.cast(b"%d" % i))
        assert len(rig.world.header_frames) == _MAX_FRAMES


class TestOracleWithAWarmStore:
    """``test_hotpath``'s oracle — the lazy path accepts and rejects what
    the eager path does and decodes to the same values — asked of a
    store: cold (first receiver) and warm (every later one)."""

    @staticmethod
    def verdict(unmarshal):
        try:
            return force_decode(unmarshal())
        except HeaderError:
            return "rejected"

    def check(self, data, frames):
        eager = self.verdict(lambda: DEFAULT_REGISTRY.unmarshal(data))
        cold = self.verdict(lambda: lazy(data, frames))
        warm = self.verdict(lambda: lazy(data, frames))
        assert cold == eager and warm == eager

    @pytest.mark.parametrize("mode", SPAN_MODES)
    def test_byte_flips_agree_with_eager(self, mode):
        data = build_sample(mode)
        frames = HeaderFrameStore()
        for pos in range(len(data)):
            garbled = bytearray(data)
            garbled[pos] ^= 0x5A
            self.check(bytes(garbled), frames)
        assert 0 < len(frames) <= _MAX_FRAMES

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=96), mode=st.sampled_from((0, 1)))
    def test_arbitrary_bytes_agree_with_eager(self, data, mode):
        frames = HeaderFrameStore()
        self.check(data, frames)
        # Steer the draw past the preamble so frames and spans get fuzzed.
        self.check(b"HR" + bytes((mode, len(data) % 4)) + data, frames)


class TestDeterminismWithoutTheStore:
    """The store changes what a world costs, never what it does."""

    @staticmethod
    def run(monkeypatch=None):
        world = World(
            seed=3, network="udp",
            fault_model=FaultModel(
                base_delay=0.002, jitter=0.001, loss_rate=0.05,
                duplicate_rate=0.02, garble_rate=0.01, reorder_rate=0.08),
        )
        if monkeypatch is not None:
            monkeypatch.setattr(world, "header_frames", None)
        names = [f"n{i}" for i in range(8)]
        handles = join_group(world, names, STACK)
        for i in range(40):
            handles[names[i % 8]].cast(b"m%d" % i)
            world.run(0.02)
        world.crash("n5")
        for i in range(40, 60):
            handles[names[i % 4]].cast(b"m%d" % i)
            world.run(0.02)
        world.run(6.0)
        return world, {
            "views": {n: [(v.view_id, tuple(v.members)) for v in h.view_history]
                      for n, h in handles.items()},
            "deliveries": {n: [(d.source, d.data) for d in h.delivery_log]
                           for n, h in handles.items()},
            "events": world.scheduler.events_executed,
            "network": world.network.stats.as_dict(),
        }

    def test_a_lossy_eight_member_world_is_identical_without_it(self, monkeypatch):
        shipped_world, shipped = self.run()
        bare_world, bare = self.run(monkeypatch)
        assert bare_world.header_frames is None
        assert len(shipped_world.header_frames) > 0
        assert shipped == bare
        assert shipped["network"]["packets_garbled"] > 0
        assert shipped["network"]["packets_lost"] > 0
        assert all(len(log) >= 40 for n, log in shipped["deliveries"].items()
                   if n != "n5")
