"""Bytes-first hot path: lazy unmarshal, table compression, coalescing.

The ISSUE 7 test surface:

* round-trip matrix — every wire mode x every registered layer codec;
* truncation / garble fuzzing — a damaged datagram either raises
  :class:`HeaderError` or decodes to a well-formed message, and the
  lazy path always agrees with the eager path (never a wrong decode);
* lazy-message parity with eager decode;
* table mode's one compacted header: every codec against its canonical
  encoding as the oracle, the sender template against the full walk,
  hostile rows, shapes and whole datagrams, and the one-pass steady
  state;
* bit-IO byte-aligned fast paths pinned against the bit-by-bit slow
  path at odd offsets;
* the integrity layers over the datagram's own bytes: the covered
  spans spelled out and equal on both sides in every wire mode, no two
  header stacks covering the same bytes, golden vectors, no encode by
  the layer and no decode of its own, every covered bit flip refused in
  every mode, header counts, mode bytes, lengths and padding covered,
  no datagram taken for loopback, the stricter verdict on non-canonical
  spans, moved frame boundaries refused by the sum itself, SIGN below
  CRYPT covering the nonce, and a seal above a layer that reshapes the
  body refused when the stack is built;
* batch-frame coalescing: round-trip, rejected-whole corruption, and
  the Clock-driven flush budget.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
import time
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import World, known_layers
from repro.core import headers as hdr
from repro.core.headers import (
    DEFAULT_REGISTRY,
    WIRE_MODES,
    BitReader,
    BitWriter,
    HeaderRegistry,
    HeaderTableStore,
    make_channel_encoder,
)
from repro.core.headers.table import _MAX_CHANNELS, _MAX_ENTRIES
from repro.core.events import Upcall, UpcallType, cast_down
from repro.core.message import Message
from repro.errors import HeaderError, StackError
from repro.net.address import EndpointAddress, GroupAddress
from repro.net.coalesce import Coalescer, decode_batch
from repro.net.packet import Packet
from repro.obs import ObsOptions
from repro.sim.scheduler import Scheduler

from conftest import join_group

# The codec tests marshal headers of layers no stack here has built;
# loading the layer library registers every codec.
known_layers()

SRC = EndpointAddress("alice", 1)
GRP = GroupAddress("grp")
_UINTS = (hdr.U8, hdr.U16, hdr.U32, hdr.U64)


def sample_value(ftype, salt: int):
    """A deterministic, type-appropriate value for any field type."""
    if ftype in _UINTS:
        return (salt * 7919 + 13) % (1 << ftype.bits)
    if ftype is hdr.BOOL:
        return salt % 2 == 0
    if ftype is hdr.F64:
        return salt * 0.4375  # exact in binary
    if ftype is hdr.BYTES8:
        return bytes([salt % 251]) * 8
    if ftype is hdr.TEXT:
        return f"value-{salt}"
    if ftype is hdr.VARBYTES:
        return bytes([salt % 251]) * (salt % 6 + 1)
    if ftype is hdr.ADDRESS:
        return EndpointAddress(f"node{salt % 5}", salt % 4)
    if ftype is hdr.GROUP:
        return GroupAddress(f"group{salt % 3}")
    kind = type(ftype).__name__
    if kind == "ListOf":
        return [sample_value(ftype.element, salt + i) for i in range(2)]
    if kind == "MapOf":
        return {
            sample_value(ftype.key, salt + i):
                sample_value(ftype.value, salt + i + 7)
            for i in range(2)
        }
    raise AssertionError(f"unhandled field type {kind}")


def full_header(codec, salt: int) -> dict:
    return {
        name: sample_value(ftype, salt + j)
        for j, (name, ftype) in enumerate(codec.fields)
    }


def registered_layers():
    return sorted(DEFAULT_REGISTRY._by_name)


def marshal_mode(registry, message, mode, channel=None):
    if mode == "table" and channel is None:
        channel = make_channel_encoder(SRC, GRP, epoch=9)
    return registry.marshal(message, mode, channel=channel)


def unmarshal_mode(registry, data, mode, lazy=False, tables=None):
    if mode == "table" and tables is None:
        tables = HeaderTableStore()
    return registry.unmarshal(data, lazy=lazy, tables=tables)


class TestRoundTripMatrix:
    """Every wire mode x every registered layer codec."""

    @pytest.mark.parametrize("mode", WIRE_MODES)
    @pytest.mark.parametrize("layer", registered_layers())
    def test_single_header_roundtrip(self, mode, layer):
        codec = DEFAULT_REGISTRY.codec_for(layer)
        header = full_header(codec, salt=3)
        msg = Message(b"matrix body")
        msg.push_header(layer, header)
        data = marshal_mode(DEFAULT_REGISTRY, msg, mode)
        for lazy in (False, True):
            if mode == "packed" and lazy:
                continue  # packed is a sequential bit stream: always eager
            out = unmarshal_mode(DEFAULT_REGISTRY, data, mode, lazy=lazy)
            assert out.pop_header(layer) == header
            assert out.body_bytes() == b"matrix body"

    @pytest.mark.parametrize("mode", WIRE_MODES)
    def test_full_stack_roundtrip(self, mode):
        layers = registered_layers()
        msg = Message(b"deep body")
        for i, layer in enumerate(layers):
            msg.push_header(layer, full_header(
                DEFAULT_REGISTRY.codec_for(layer), salt=i))
        data = marshal_mode(DEFAULT_REGISTRY, msg, mode)
        out = unmarshal_mode(DEFAULT_REGISTRY, data, mode)
        assert [(o, dict(h)) for o, h in out.headers()] == \
               [(o, dict(h)) for o, h in msg.headers()]
        assert out.body_bytes() == b"deep body"


def build_sample(mode, channel=None):
    msg = Message(b"fuzz body bytes")
    for i, layer in enumerate(("COM", "NAK", "FRAG", "TOTAL")):
        msg.push_header(layer, full_header(
            DEFAULT_REGISTRY.codec_for(layer), salt=i))
    return marshal_mode(DEFAULT_REGISTRY, msg, mode, channel=channel)


def force_decode(message):
    """Materialize every lazy header (what the layers do en route up)."""
    headers = message.headers()
    return headers, message.body_bytes()


class TestFuzzing:
    """Damaged datagrams: HeaderError or a clean decode, never a crash,
    and lazy always agrees with eager."""

    @pytest.mark.parametrize("mode", WIRE_MODES)
    def test_every_truncation_point_raises(self, mode):
        data = build_sample(mode)
        for cut in range(len(data)):
            with pytest.raises(HeaderError):
                unmarshal_mode(DEFAULT_REGISTRY, data[:cut], mode)

    @pytest.mark.parametrize("mode", ("aligned", "compact", "table"))
    def test_lazy_truncation_matches_eager(self, mode):
        data = build_sample(mode)
        for cut in range(len(data)):
            # Lazy does the same structural validation up front, so a
            # truncated datagram fails at unmarshal, not later.
            with pytest.raises(HeaderError):
                unmarshal_mode(DEFAULT_REGISTRY, data[:cut], mode, lazy=True)

    @pytest.mark.parametrize("mode", ("aligned", "compact", "table"))
    def test_byte_flips_lazy_agrees_with_eager(self, mode):
        data = build_sample(mode)
        for pos in range(len(data)):
            garbled = bytearray(data)
            garbled[pos] ^= 0x5A
            garbled = bytes(garbled)
            try:
                eager = force_decode(
                    unmarshal_mode(DEFAULT_REGISTRY, garbled, mode))
            except HeaderError:
                eager = "rejected"
            try:
                lazy = force_decode(
                    unmarshal_mode(DEFAULT_REGISTRY, garbled, mode, lazy=True))
            except HeaderError:
                lazy = "rejected"
            assert lazy == eager, f"divergence at byte {pos}"

    def test_packed_byte_flips_never_crash(self):
        data = build_sample("packed")
        for pos in range(len(data)):
            garbled = bytearray(data)
            garbled[pos] ^= 0x5A
            try:
                force_decode(unmarshal_mode(
                    DEFAULT_REGISTRY, bytes(garbled), "packed"))
            except HeaderError:
                pass


class TestLazyParity:
    @pytest.mark.parametrize("mode", ("aligned", "compact", "table"))
    def test_lazy_equals_eager(self, mode):
        data = build_sample(mode)
        eager = unmarshal_mode(DEFAULT_REGISTRY, data, mode)
        lazy = unmarshal_mode(DEFAULT_REGISTRY, data, mode, lazy=True)
        assert force_decode(lazy) == force_decode(eager)

    def test_lazy_body_is_a_view_until_asked(self):
        data = build_sample("compact")
        lazy = DEFAULT_REGISTRY.unmarshal(data, lazy=True)
        assert isinstance(lazy._segments[0], memoryview)
        assert lazy.body_bytes() == b"fuzz body bytes"

    def test_lazy_pop_and_peek_materialize(self):
        msg = Message(b"b")
        header = full_header(DEFAULT_REGISTRY.codec_for("FRAG"), salt=1)
        msg.push_header("FRAG", header)
        data = DEFAULT_REGISTRY.marshal(msg, "compact")
        lazy = DEFAULT_REGISTRY.unmarshal(data, lazy=True)
        assert lazy.peek_header("FRAG") == header
        assert lazy.pop_header("FRAG") == header


class TestHeaderTableMode:
    def test_steady_state_is_smaller(self):
        channel = make_channel_encoder(SRC, GRP, epoch=5)
        tables = HeaderTableStore()
        sizes = []
        for seq in range(4):
            msg = Message(b"steady")
            msg.push_header("COM", {"group": GRP, "source": SRC, "kind": 0})
            msg.push_header("NAK", {"kind": 0, "era": 1, "seq": 1000 + seq,
                                    "lo": 0, "hi": 0})
            data = DEFAULT_REGISTRY.marshal(msg, "table", channel=channel)
            out = DEFAULT_REGISTRY.unmarshal(data, tables=tables)
            assert out.pop_header("NAK")["seq"] == 1000 + seq
            assert out.pop_header("COM")["source"] == SRC
            sizes.append(len(data))
        # First datagram carries the installs; the rest reference them.
        assert sizes[1] < sizes[0]
        assert sizes[1] == sizes[2] == sizes[3]
        compact = len(DEFAULT_REGISTRY.marshal(msg, "compact"))
        assert sizes[1] < compact

    def test_lost_install_is_a_header_error_not_a_wrong_decode(self):
        channel = make_channel_encoder(SRC, GRP, epoch=5)
        first = build_sample("table", channel=channel)   # carries installs
        second = build_sample("table", channel=channel)  # references only
        fresh = HeaderTableStore()
        with pytest.raises(HeaderError):
            force_decode(DEFAULT_REGISTRY.unmarshal(second, tables=fresh))
        # A receiver that saw the installs decodes the same bytes fine.
        seen = HeaderTableStore()
        force_decode(DEFAULT_REGISTRY.unmarshal(first, tables=seen))
        force_decode(DEFAULT_REGISTRY.unmarshal(second, tables=seen))

    def test_refresh_all_makes_next_datagram_self_contained(self):
        channel = make_channel_encoder(SRC, GRP, epoch=5)
        build_sample("table", channel=channel)
        channel.refresh_all()
        refreshed = build_sample("table", channel=channel)
        late = HeaderTableStore()  # a member that just joined
        force_decode(DEFAULT_REGISTRY.unmarshal(refreshed, tables=late))

    def test_epoch_change_resets_receiver_table(self):
        old = make_channel_encoder(SRC, GRP, epoch=1)
        tables = HeaderTableStore()
        force_decode(DEFAULT_REGISTRY.unmarshal(
            build_sample("table", channel=old), tables=tables))
        # Same channel id, new epoch (a rejoined sender): stale entries
        # must not leak into the new incarnation.
        new = make_channel_encoder(SRC, GRP, epoch=2)
        force_decode(DEFAULT_REGISTRY.unmarshal(
            build_sample("table", channel=new), tables=tables))
        stale_refs = build_sample("table", channel=old)
        with pytest.raises(HeaderError):
            force_decode(DEFAULT_REGISTRY.unmarshal(stale_refs, tables=tables))

    def test_table_mode_requires_a_channel(self):
        msg = Message(b"x")
        msg.push_header("FRAG", {"last": True})
        with pytest.raises(HeaderError):
            DEFAULT_REGISTRY.marshal(msg, "table")


# ----------------------------------------------------------------------
# Presence-coded table rows
# ----------------------------------------------------------------------

class TestHotpathGate:
    """S10b and CI's perf-smoke gate.  Header bytes per wire mode and a
    seeded DES run of the Section 7 stack compare exactly: a drift is a
    wire change, not noise.  Codec throughput is machine-dependent, so
    it is checked as same-run ratios against generous floors."""

    SOURCE = EndpointAddress("node-a", 0)
    GROUP = GroupAddress("bench")

    def data_message(self, seq: int = 42) -> Message:
        """A data cast as it looks on the wire below the Section 7 stack."""
        message = Message(b"p" * 100)
        message.push_header(
            "TOTAL", {"kind": 0, "gseq": 17 + seq - 42, "holder": self.SOURCE}
        )
        message.push_header(
            "MBRSHIP", {"kind": 0, "vid": 3, "seq": seq, "origin": self.SOURCE}
        )
        message.push_header("FRAG", {"last": True})
        message.push_header("NAK", {"kind": 0, "era": 3, "seq": seq})
        message.push_header(
            "COM", {"group": self.GROUP, "source": self.SOURCE, "kind": 0}
        )
        return message

    def test_header_bytes_per_wire_mode(self):
        """Word alignment wastes bytes, packing wins, and the header
        table beats packing once the channel's table is warm.  FRAG
        carries one bit yet costs four aligned bytes."""
        message = self.data_message()
        sizes = {
            mode: DEFAULT_REGISTRY.header_overhead(message, mode)
            for mode in ("aligned", "compact", "packed")
        }
        channel = make_channel_encoder(self.SOURCE, self.GROUP, epoch=1)
        tables = HeaderTableStore()
        table = []
        for seq in range(42, 50):
            msg = self.data_message(seq)
            data = DEFAULT_REGISTRY.marshal(msg, "table", channel=channel)
            DEFAULT_REGISTRY.unmarshal(data, tables=tables)
            table.append(len(data) - msg.body_size - 8)
        assert sizes == {"aligned": 136, "compact": 129, "packed": 121}
        assert (table[0], table[-1]) == (60, 23)
        assert set(table[1:]) == {23}
        assert hdr.packed_bit_size(DEFAULT_REGISTRY, message) == 905

        frag = Message(b"x")
        frag.push_header("FRAG", {"last": True})
        assert hdr.packed_bit_size(DEFAULT_REGISTRY, frag) == 1
        assert DEFAULT_REGISTRY.header_overhead(frag, "aligned") == 4

    @pytest.mark.parametrize("wire_mode, coalesce, expected", [
        ("aligned", False, (200, 97, 33677)),
        ("table", {"max_delay": 0.002, "max_batch": 16}, (200, 88, 28530)),
    ])
    def test_section7_stack_datagrams_and_wire_bytes(
            self, wire_mode, coalesce, expected):
        """(delivered, datagrams, wire bytes) for 200 casts, seed 11."""
        world = World(
            seed=11, network="lan", wire_mode=wire_mode,
            trace=False, coalesce=coalesce,
        )
        handles = join_group(
            world, ["a", "b"], "TOTAL:MBRSHIP:FRAG:NAK:COM",
            group="bench", settle=0.4,
        )
        for index in range(200):
            handles["a"].cast(b"\x5a" * 120)
            if index % 16 == 15:
                world.run(0.05)
        world.run(5.0)
        stats = world.network.stats
        assert (
            len(handles["b"].delivery_log), stats.packets_sent, stats.bytes_sent
        ) == expected

    def test_codec_throughput_ratio_floors(self):
        """Table-mode marshal keeps at least half of aligned's rate, and
        a lazy top pop beats an eager full decode by 10 %."""

        def ops_per_s(fn, ops=20_000):
            fn()  # warm caches out of the timed window
            start = time.perf_counter()
            for _ in range(ops):
                fn()
            return ops / (time.perf_counter() - start)

        message = self.data_message()
        buf = bytearray()
        channel = make_channel_encoder(self.SOURCE, self.GROUP, epoch=1)
        marshal = DEFAULT_REGISTRY.marshal
        aligned = ops_per_s(lambda: marshal(message, "aligned", into=buf))
        table = ops_per_s(
            lambda: marshal(message, "table", channel=channel, into=buf)
        )
        data = marshal(message, "aligned")
        unmarshal = DEFAULT_REGISTRY.unmarshal
        eager = ops_per_s(lambda: unmarshal(data))
        lazy = ops_per_s(lambda: unmarshal(data, lazy=True).pop_header("COM"))
        assert table / aligned >= 0.5
        assert lazy / eager >= 1.1


_EDGE_INTS = (0, 1, 127, 128, 16383, 16384, 2**21, 2**32 - 1, 2**63, 2**64 - 1)


def value_strategy(ftype):
    if ftype in _UINTS:
        limit = 1 << ftype.bits
        return st.one_of(
            st.sampled_from([n for n in _EDGE_INTS if n < limit]),
            st.integers(0, limit - 1),
        )
    if ftype is hdr.BOOL:
        return st.booleans()
    if ftype is hdr.F64:
        return st.floats(allow_nan=False)
    if ftype is hdr.BYTES8:
        return st.binary(min_size=8, max_size=8)
    if ftype is hdr.TEXT:
        return st.text(max_size=12)
    if ftype is hdr.VARBYTES:
        return st.binary(max_size=12)
    if ftype is hdr.ADDRESS:
        return st.builds(EndpointAddress, st.sampled_from(["", "a", "node-b"]),
                         st.integers(0, 3))
    if ftype is hdr.GROUP:
        return st.builds(GroupAddress, st.sampled_from(["", "g", "grp-2"]))
    kind = type(ftype).__name__
    if kind == "ListOf":
        return st.lists(value_strategy(ftype.element), max_size=3)
    if kind == "MapOf":
        return st.dictionaries(value_strategy(ftype.key),
                               value_strategy(ftype.value), max_size=3)
    raise AssertionError(f"unhandled field type {kind}")


def header_strategy(codec):
    """Headers with each defaulted key omitted, at its default, or set."""
    fields = {}
    for name, ftype in codec.fields:
        choices = [value_strategy(ftype).map(lambda v: (True, v))]
        if name in codec.defaults:
            choices.append(st.just((False, None)))
            choices.append(st.just((True, codec.defaults[name])))
        fields[name] = st.one_of(choices)
    return st.fixed_dictionaries(fields).map(
        lambda picked: {k: v for k, (own, v) in picked.items() if own})


def table_roundtrip(layer, header, channel, tables):
    msg = Message(b"row")
    msg.push_header(layer, header)
    data = DEFAULT_REGISTRY.marshal(msg, "table", channel=channel)
    out = DEFAULT_REGISTRY.unmarshal(data, tables=tables)
    assert out.body_bytes() == b"row"
    return out.pop_header(layer)


def layer_id(layer):
    return DEFAULT_REGISTRY._by_name[layer][0]


def uvarint(value):
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    return bytes(out + bytes([value]))


def shape_bytes(*pairs):
    """A shape as the table stores it: ``(layer, bitmap)`` pairs."""
    return b"".join(bytes([layer_id(layer)]) + uvarint(bitmap)
                    for layer, bitmap in pairs)


def literal_shape(*pairs):
    """A shape section spelling the shape out: reference 0, length, bytes."""
    shape = shape_bytes(*pairs)
    return b"\x00" + uvarint(len(shape)) + shape


def raw_table_datagram(shape, fields, updates=(), count=1):
    """A table-mode datagram with a hand-written shape section and field
    run, channel 7 at epoch 1, and an empty body."""
    out = struct.pack(">HBB", 0x4852, 3, count) + struct.pack(">IHH", 7, 1, len(updates))
    for idx, raw in updates:
        out += struct.pack(">HH", idx, len(raw)) + raw
    return out + shape + fields + struct.pack(">I", 0)


def table_sections(data, body):
    """``(installs, shape section, field run)`` of a table datagram whose
    body is ``body`` (shape references below 0x80)."""
    (n_updates,) = struct.unpack_from(">H", data, 10)
    pos, installs = 12, []
    for _ in range(n_updates):
        idx, length = struct.unpack_from(">HH", data, pos)
        installs.append((idx, data[pos + 4:pos + 4 + length]))
        pos += 4 + length
    shape_end = pos + 1 if data[pos] else pos + 2 + data[pos + 1]
    assert data[len(data) - len(body):] == body
    return installs, data[pos:shape_end], data[shape_end:len(data) - len(body) - 4]


class TestPresenceCodedRows:
    @pytest.mark.parametrize("layer", registered_layers())
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_codec_matches_its_canonical_decode(self, layer, data):
        codec = DEFAULT_REGISTRY.codec_for(layer)
        first = data.draw(header_strategy(codec))
        second = data.draw(header_strategy(codec))
        channel = make_channel_encoder(SRC, GRP, epoch=2)
        full = make_channel_encoder(SRC, GRP, epoch=2)
        full.max_entries = 0  # every table-typed field falls back to a literal
        tables, no_tables = HeaderTableStore(), HeaderTableStore()
        # first: full walk with installs; again: template and references;
        # second: whatever the change of keys and values demands.
        for header in (first, first, second):
            expected = codec.decode(codec.encode(header))
            assert table_roundtrip(layer, header, channel, tables) == expected
            assert table_roundtrip(layer, header, full, no_tables) == expected
        assert not full._raws

    def test_default_valued_fields_cost_nothing(self):
        codec = DEFAULT_REGISTRY.codec_for("MBRSHIP")
        datagrams = []
        for header in ({"kind": 0}, dict(codec.defaults, kind=0)):
            msg = Message(b"b")
            msg.push_header("MBRSHIP", header)
            datagrams.append(DEFAULT_REGISTRY.marshal(
                msg, "table", channel=make_channel_encoder(SRC, GRP, epoch=2)))
        short, spelled = datagrams
        assert short == spelled
        assert table_sections(short, b"b") == (
            [(0, shape_bytes(("MBRSHIP", 0x01)))], b"\x01", b"\x00")

    def test_negative_zero_is_not_its_default(self):
        """Presence is decided by canonical bytes: -0.0 == 0.0, but it
        encodes differently, so it must travel."""
        channel, tables = make_channel_encoder(SRC, GRP, epoch=2), HeaderTableStore()
        for t0 in (0.0, -0.0, 0.0, -0.0):
            header = table_roundtrip("SYNC", {"kind": 0, "t0": t0}, channel, tables)
            assert struct.pack(">d", header["t0"]) == struct.pack(">d", t0)

    def test_absent_containers_are_fresh_per_header(self):
        channel = make_channel_encoder(SRC, GRP, epoch=2)
        tables = HeaderTableStore()
        header = {"kind": 0, "vid": 3, "seq": 9, "origin": SRC}
        one = table_roundtrip("MBRSHIP", header, channel, tables)
        one["members"].append(SRC)
        one["vector"][SRC] = 1
        two = table_roundtrip("MBRSHIP", header, channel, tables)
        assert two["members"] == [] and two["vector"] == {}
        assert DEFAULT_REGISTRY.codec_for("MBRSHIP").defaults["members"] == []

    def test_template_is_byte_identical_to_the_full_walk(self):
        """Same datagrams (rows *and* refresh installs) with and without it."""
        def run(use_template):
            channel = make_channel_encoder(SRC, GRP, epoch=4, refresh_every=8)
            datagrams = []
            for seq in list(range(120, 140)) + [0, 0, 2**21, 5]:
                msg = Message(b"t")
                msg.push_header("TOTAL", {"kind": 0, "gseq": seq, "epoch": 1})
                msg.push_header("MBRSHIP", {"kind": 0, "vid": 3, "seq": seq,
                                            "origin": SRC})
                msg.push_header("NAK", {"kind": 0, "era": 3, "seq": seq})
                # One header bails *after* a replayed reference (group).
                source = EndpointAddress("bob", 2) if seq == 130 else SRC
                msg.push_header("COM", {"group": GRP, "source": source, "kind": 0})
                if not use_template:
                    channel._template = None
                datagrams.append(
                    DEFAULT_REGISTRY.marshal(msg, "table", channel=channel))
            return datagrams, list(channel._uses)

        with_template, without = run(True), run(False)
        assert with_template == without
        # The run is long enough to have refreshed entries mid-stream.
        installs = [struct.unpack_from(">H", d, 10)[0] for d in with_template[0]]
        assert installs[0] > 0 and any(installs[1:])

    def test_reinstall_replaces_the_cached_value(self):
        table = HeaderTableStore().channel(1, 1)
        a, b = EndpointAddress("a", 1), EndpointAddress("b", 2)
        for addr in (a, b, a):
            raw = bytearray()
            hdr.ADDRESS.encode(addr, raw)
            table.install(0, bytes(raw))
            assert table.value(0, hdr.ADDRESS) == addr

    @pytest.mark.parametrize("layer, bitmap, fields, updates", [
        ("FRAG", 0x02, b"\x01", ()),                 # presence bit beyond the fields
        ("FRAG", 0x00, b"", ()),                     # required field absent
        ("NAK", 0x04, b"\x05", ()),                  # required `kind` absent
        ("NAK", 0x05, b"\x00\x80", ()),              # truncated varint
        ("NAK", 0x01, b"\xff" * 11 + b"\x01", ()),    # varint too long
        ("NAK", 0x01, b"\xac\x02", ()),              # 300 in a U8
        ("FRAG", 0x01, b"\x01\x00", ()),             # trailing byte
        ("COM", 0x07, b"\x05\x05\x00", ()),          # unknown table ref
        ("COM", 0x07, b"\x01\x01\x00", [(0, b"\x01g!")]),  # entry with trailing byte
        ("COM", 0x07, b"\x00\x09g", ()),             # literal longer than the datagram
    ])
    @pytest.mark.parametrize("lazy", (False, True))
    def test_hostile_rows_raise_header_error_at_unmarshal(
            self, layer, bitmap, fields, updates, lazy):
        with pytest.raises(HeaderError):
            DEFAULT_REGISTRY.unmarshal(
                raw_table_datagram(literal_shape((layer, bitmap)), fields, updates),
                lazy=lazy, tables=HeaderTableStore())

    @pytest.mark.parametrize("shape, fields, updates, count", [
        (b"", b"", (), 1),
        (b"\x00\x02\xee\x00", b"", (), 1),
        (b"\x05", b"\x01", (), 1),
        (b"\x01", b"\x01", [(0, bytes([layer_id("FRAG")]) + b"\x81")], 1),
        (b"\x01", b"\x01", [(0, shape_bytes(("FRAG", 1)) + b"!")], 1),
        (literal_shape(("FRAG", 1), ("FRAG", 1)), b"\x01\x01", (), 1),
        (literal_shape(("FRAG", 1)), b"\x01", (), 2),
        (b"\x00\x09" + shape_bytes(("FRAG", 1)), b"\x01", (), 1),
        (literal_shape(*[("FRAG", 1)] * 256), b"\x01" * 256, (), 255),
    ], ids=["no shape", "unknown layer id", "unknown shape reference",
            "truncated bitmap", "entry with trailing byte",
            "more headers than the preamble", "fewer headers than the preamble",
            "literal longer than the datagram", "more headers than a datagram holds"])
    @pytest.mark.parametrize("lazy", (False, True))
    def test_hostile_shapes_raise_header_error_at_unmarshal(
            self, shape, fields, updates, count, lazy):
        with pytest.raises(HeaderError):
            DEFAULT_REGISTRY.unmarshal(
                raw_table_datagram(shape, fields, updates, count),
                lazy=lazy, tables=HeaderTableStore())

    @pytest.mark.parametrize("layer", ("COM", "NAK", "MBRSHIP"))
    @settings(max_examples=300, deadline=None)
    @given(bitmap=st.integers(0, 0x7F), fields=st.binary(max_size=24))
    def test_arbitrary_rows_decode_or_raise_header_error(self, layer, bitmap, fields):
        try:
            message = DEFAULT_REGISTRY.unmarshal(
                raw_table_datagram(literal_shape((layer, bitmap)), fields,
                                   [(0, b"\x03a:1")]),
                tables=HeaderTableStore())
        except HeaderError:
            return
        header = message.pop_header(layer)
        assert set(header) == {
            name for name, _ in DEFAULT_REGISTRY.codec_for(layer).fields}


class TestReceiverTableBounds:
    """Indices and channel ids arrive from the wire; what a receiver
    keeps for them is bounded by constants, the sender's own among them."""

    def test_install_past_the_senders_bound_is_refused(self):
        shape = literal_shape(("FRAG", 1))  # FRAG {"last": True}
        tables = HeaderTableStore()
        inside = raw_table_datagram(shape, b"\x01", [(_MAX_ENTRIES - 1, b"\x01g")])
        DEFAULT_REGISTRY.unmarshal(inside, tables=tables)
        for idx in (_MAX_ENTRIES, 0xFFFF):
            with pytest.raises(HeaderError):
                DEFAULT_REGISTRY.unmarshal(
                    raw_table_datagram(shape, b"\x01", [(idx, b"\x01g")]),
                    tables=tables)
        assert list(tables.channel(7, 1).entries) == [_MAX_ENTRIES - 1]

    def test_a_full_sender_and_its_receiver_agree_on_the_bound(self):
        """Every install a sender can emit is one its receiver accepts."""
        channel = make_channel_encoder(SRC, GRP, epoch=3)
        tables = HeaderTableStore()
        for i in range(_MAX_ENTRIES + 50):  # the last ones go out as literals
            header = {"group": GroupAddress(f"g{i}"), "source": SRC, "kind": 0}
            assert table_roundtrip("COM", header, channel, tables) == header
        assert len(channel._raws) == _MAX_ENTRIES
        table = tables.channel(channel.channel_id, channel.epoch)
        assert len(table.entries) == _MAX_ENTRIES

    def test_channels_per_store_are_capped_oldest_first(self):
        tables = HeaderTableStore()
        shape = shape_bytes(("COM", 0x07))
        installing = bytearray(raw_table_datagram(
            b"\x03", b"\x01\x02\x00", [(0, b"\x01g"), (1, b"\x03a:1"), (2, shape)]))
        referencing = bytearray(raw_table_datagram(b"\x03", b"\x01\x02\x00"))

        def on_channel(datagram, channel_id):
            struct.pack_into(">I", datagram, 4, channel_id)
            return bytes(datagram)

        for channel_id in range(10**4):
            DEFAULT_REGISTRY.unmarshal(
                on_channel(installing, channel_id), tables=tables)
        assert len(tables._channels) == _MAX_CHANNELS
        # The newest channels are live; the oldest was evicted, which a
        # reference reports exactly as it reports a lost install.
        newest = DEFAULT_REGISTRY.unmarshal(
            on_channel(referencing, 10**4 - 1), tables=tables)
        assert newest.pop_header("COM")["group"] == GroupAddress("g")
        with pytest.raises(HeaderError):
            DEFAULT_REGISTRY.unmarshal(on_channel(referencing, 0), tables=tables)
        assert len(tables._channels) == _MAX_CHANNELS

    def test_cached_plans_are_bounded_by_the_entries(self):
        """A shape's plan is cached with its table entry, so plans are
        bounded as entries are; a reinstall drops the stale plan, and a
        literal shape is never cached."""
        tables = HeaderTableStore()
        for bitmap in range(1, 32, 2):  # NAK shapes, `kind` always present
            fields = b"\x00" * bin(bitmap).count("1")
            out = DEFAULT_REGISTRY.unmarshal(raw_table_datagram(
                b"\x01", fields, [(0, shape_bytes(("NAK", bitmap)))]), tables=tables)
            assert out.pop_header("NAK")["kind"] == 0
        table = tables.channel(7, 1)
        assert list(table._decoded) == [0]
        ((_, (count, steps)),) = table._decoded[0].values()
        assert count == 1 and len(steps) == 6  # the last shape's: NAK, all five fields
        DEFAULT_REGISTRY.unmarshal(raw_table_datagram(
            literal_shape(("NAK", 1)), b"\x00", [(0, b"\x01g")]), tables=tables)
        assert table._decoded == {}


class TestHostileTableDatagrams:
    """Wire bytes are hostile.  Valid, truncated, bit-flipped and random
    ``table`` datagrams, and shapes that break a rule, decode to headers
    that re-marshal to the same headers and body, or raise HeaderError:
    nothing else, and nothing hangs."""

    LAYERS = ("COM", "NAK", "FRAG", "MBRSHIP", "TOTAL", "STABLE")
    FLAWS = ("unknown layer id", "presence bit past the fields",
             "required field absent", "more headers than the datagram holds")

    @staticmethod
    def decodes_or_raises(data, tables):
        try:
            message = DEFAULT_REGISTRY.unmarshal(data, tables=tables)
        except HeaderError:
            return False
        again = unmarshal_mode(
            DEFAULT_REGISTRY, marshal_mode(DEFAULT_REGISTRY, message, "table"), "table")
        assert force_decode(again) == force_decode(message)
        return True

    def hostile_shape(self, data, channel):
        """A datagram on ``channel`` whose shape, installed or literal,
        breaks one rule."""
        layers = data.draw(st.lists(st.sampled_from(self.LAYERS), min_size=1, max_size=3))
        pairs = [[layer_id(layer), (1 << len(DEFAULT_REGISTRY.codec_for(layer).fields)) - 1]
                 for layer in layers]
        count = len(pairs)
        flaw = data.draw(st.sampled_from(self.FLAWS))
        i = data.draw(st.integers(0, len(pairs) - 1))
        codec = DEFAULT_REGISTRY.codec_for(layers[i])
        if flaw == "unknown layer id":
            pairs[i][0] = data.draw(st.sampled_from([0, len(DEFAULT_REGISTRY._by_id) + 1, 0xFF]))
        elif flaw == "presence bit past the fields":
            pairs[i][1] |= 1 << (len(codec.fields) + data.draw(st.integers(0, 3)))
        elif flaw == "required field absent":
            required = [bit for bit, (name, _) in enumerate(codec.fields)
                        if name not in codec.defaults]
            pairs[i][1] &= ~(1 << data.draw(st.sampled_from(required)))
        else:
            count = data.draw(st.integers(0, len(pairs) - 1))
        shape = b"".join(bytes([lid]) + uvarint(bitmap) for lid, bitmap in pairs)
        updates = b""
        if data.draw(st.booleans()):  # installed over a live entry
            idx = data.draw(st.integers(0, 3))
            updates, section = struct.pack(">HH", idx, len(shape)) + shape, uvarint(idx + 1)
        else:
            section = b"\x00" + uvarint(len(shape)) + shape
        return (struct.pack(">HBBIHH", 0x4852, 3, count, channel.channel_id,
                            channel.epoch, 1 if updates else 0)
                + updates + section + data.draw(st.binary(max_size=24))
                + struct.pack(">I", 0))

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_decodes_to_what_re_marshals_or_raises_header_error(self, data):
        layers = data.draw(st.lists(st.sampled_from(self.LAYERS), min_size=1, max_size=4))
        channel = make_channel_encoder(SRC, GRP, epoch=6)
        tables = HeaderTableStore()
        stream = []
        for _ in range(2):  # the first installs, the second references
            msg = Message(data.draw(st.binary(max_size=8)))
            for layer in layers:
                msg.push_header(layer, data.draw(
                    header_strategy(DEFAULT_REGISTRY.codec_for(layer))))
            stream.append(DEFAULT_REGISTRY.marshal(msg, "table", channel=channel))
        assert self.decodes_or_raises(stream[0], tables)
        wire = stream[1]
        damage = data.draw(st.sampled_from(
            ("valid", "truncated", "bit-flipped", "random", "hostile shape")))
        if damage == "truncated":
            wire = wire[:data.draw(st.integers(0, len(wire) - 1))]
        elif damage == "bit-flipped":
            garbled = bytearray(wire)
            for pos in data.draw(st.lists(st.integers(0, len(wire) - 1),
                                          min_size=1, max_size=3)):
                garbled[pos] ^= 1 << data.draw(st.integers(0, 7))
            wire = bytes(garbled)
        elif damage == "random":  # on the live channel, so its entries are read
            wire = wire[:10] + data.draw(st.binary(max_size=40))
        elif damage == "hostile shape":
            wire = self.hostile_shape(data, channel)
        decoded = self.decodes_or_raises(wire, tables)
        if damage in ("valid", "hostile shape"):
            assert decoded == (damage == "valid")


class TestOnePassSteadyState:
    """A steady ``cast_small`` message — the harness's stack, 64 B casts —
    is one shape reference and its fields: the sender replays its
    template, and the receiver decodes without a codec call."""

    STACK = ("TOTAL:MBRSHIP(join_timeout=0.2,stability_period=0.25):"
             "FRAG(max_size=900):NAK:COM")

    def test_steady_cast_is_one_reference_replayed_and_decoded_flat(self, monkeypatch):
        from repro.core.headers import table as table_mode

        world = World(seed=3, network="lan", wire_mode="table", trace=False)
        handles = []
        for name in "abc":
            handles.append(world.process(name).endpoint().join("bench", stack=self.STACK))
            world.run(0.3)
        assert world.run_while(lambda: all(h.view.size == 3 for h in handles))
        for i in range(20):  # warm-up: the shape is installed everywhere
            handles[0].cast(b"%08d" % i + b"." * 56)
            world.run(0.001)
        world.run(0.1)
        # Control traffic since (NAK status, stability) went out on the
        # same channel with other shapes: one cast re-primes the template.
        handles[0].cast(b"%08d" % 20 + b"." * 56)
        world.run(0.0)  # TOTAL releases a cast when the turn ends

        calls = {"walk": 0, "plan": 0, "codec": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(table_mode, "_walk", counted("walk", table_mode._walk))
        monkeypatch.setattr(table_mode, "_shape_plan",
                            counted("plan", table_mode._shape_plan))
        for cls in (hdr.HeaderCodec, hdr.HeaderCodec.__mro__[1]):
            for name, member in list(vars(cls).items()):
                if callable(member) and not name.startswith("__"):
                    monkeypatch.setattr(cls, name, counted("codec", member))
        sent = []
        monkeypatch.setattr(world.network, "multicast",
                            lambda source, dests, data: sent.append(bytes(data)))
        body = b"%08d" % 21 + b"." * 56
        handles[0].cast(body)
        world.run(0.0)
        (wire,) = sent
        installs, shape, fields = table_sections(wire, body)
        assert installs == [] and len(shape) == 1 and shape != b"\x00"
        # Header bytes, framing included (53 with a frame and a bitmap per header).
        assert len(wire) - len(body) <= 36
        assert calls == {"walk": 0, "plan": 0, "codec": 0}

        receiver = world.processes()["b"].endpoints[0]
        out = DEFAULT_REGISTRY.unmarshal(wire, lazy=True, tables=receiver._header_tables)
        assert calls == {"walk": 0, "plan": 0, "codec": 0}
        assert [owner for owner, _ in out.header_entries()] == [
            "TOTAL", "MBRSHIP", "FRAG", "NAK", "COM"]
        assert out.body_bytes() == body


class TestBitIOFastPath:
    """The byte-aligned fast paths must be invisible at every offset."""

    PAYLOAD = bytes(range(64))

    @pytest.mark.parametrize("offset", (0, 1, 3, 5, 7, 8, 11))
    def test_write_bytes_matches_per_byte_writes(self, offset):
        fast = BitWriter()
        fast.write(0x2A & ((1 << offset) - 1) if offset else 0, offset)
        fast.write_bytes(self.PAYLOAD)
        slow = BitWriter()
        slow.write(0x2A & ((1 << offset) - 1) if offset else 0, offset)
        for byte in self.PAYLOAD:
            slow.write(byte, 8)
        assert fast.getvalue() == slow.getvalue()

    @pytest.mark.parametrize("offset", (0, 1, 3, 5, 7, 8, 11))
    def test_read_bytes_matches_per_byte_reads(self, offset):
        writer = BitWriter()
        writer.write(0, offset)
        writer.write_bytes(self.PAYLOAD)
        data = writer.getvalue()
        fast = BitReader(data)
        fast.read(offset)
        assert fast.read_bytes(len(self.PAYLOAD)) == self.PAYLOAD
        slow = BitReader(data)
        slow.read(offset)
        assert bytes(slow.read(8) for _ in self.PAYLOAD) == self.PAYLOAD

    def test_read_bytes_zero_and_exhaustion(self):
        reader = BitReader(b"ab")
        assert reader.read_bytes(0) == b""
        assert reader.read_bytes(2) == b"ab"
        with pytest.raises(HeaderError):
            reader.read_bytes(1)


class _Recorder:
    """A four-byte seal hook that records what it covers and returns
    its CRC-32, as CHKSUM's does."""

    def __init__(self):
        self.seen = []

    def __call__(self, head, tail):
        self.seen.append((bytes(head), bytes(tail)))
        return struct.pack(">I", zlib.crc32(tail, zlib.crc32(head)))


def sealed_registry(*owners):
    """A registry of field-less codecs named ``owners`` (ids 1..) and one
    sealed codec ``"S"`` with a four-byte field (id 99)."""
    registry = HeaderRegistry()
    for layer_id, name in enumerate(owners, 1):
        registry.register(hdr.HeaderCodec(name, fields=[]), layer_id)
    registry.register(hdr.HeaderCodec("S", [("v", hdr.U32)], sealed=True), 99)
    return registry


def covered_by_sender(registry, owners, mode="aligned"):
    """What a seal below the empty headers ``owners`` covers."""
    msg = Message(b"body")
    for owner in owners:
        msg.push_header(owner, {})
    hook = _Recorder()
    msg.push_owned_header("S", {"v": hook})
    marshal_mode(registry, msg, mode)
    ((head, tail),) = hook.seen
    return head + tail


class TestCoveredBytesAreTheDatagrams:
    def test_covered_bytes_are_the_datagrams_own_spans(self):
        """Every byte ahead of the seal's value, then the body frame —
        spelled out for one ``aligned`` datagram."""
        registry = sealed_registry("XY")
        msg = Message(b"tail")
        msg.push_header("XY", {})
        hook = _Recorder()
        msg.push_owned_header("S", {"v": hook})
        wire = registry.marshal(msg, "aligned")
        head = (struct.pack(">HBB", 0x4852, 0, 2)    # preamble: 2 headers
                + struct.pack(">BH", 1, 0) + b"\x00"  # XY: frame, padding
                + struct.pack(">BH", 99, 4))          # S: its frame
        tail = struct.pack(">I", 4) + b"tail"
        assert hook.seen == [(head, tail)]
        assert wire == head + hook(head, tail) + b"\x00" + tail
        # The receiver records the same two spans of what arrived.
        entry = registry.unmarshal(wire, lazy=True).pop_entry("S")
        assert (bytes(entry.head), bytes(entry.tail)) == (head, tail)
        assert entry.span == hook(head, tail)

    @pytest.mark.parametrize("mode", WIRE_MODES)
    def test_distinct_header_stacks_cover_distinct_bytes(self, mode):
        """Owners ``"AB"`` + ``"C"`` and ``"A"`` + ``"BC"``, one header
        more or less, the same owners in the other order: wire ids,
        counts and lengths are covered, so no two stacks collide."""
        registry = sealed_registry("AB", "C", "A", "BC")
        stacks = [("AB", "C"), ("A", "BC"), ("AB",), ("C", "AB"), ()]
        covered = {covered_by_sender(registry, owners, mode)
                   for owners in stacks}
        assert len(covered) == len(stacks)

    def test_a_sealed_codec_has_one_fixed_width_field(self):
        for fields in ([], [("v", hdr.VARBYTES)],
                       [("v", hdr.U32), ("w", hdr.U32)]):
            with pytest.raises(HeaderError):
                hdr.HeaderCodec("S", fields, sealed=True)


# ----------------------------------------------------------------------
# CHKSUM / SIGN over the datagram's own bytes
# ----------------------------------------------------------------------

_GOLDEN_KEY = "golden-key"
#: What CHKSUM / SIGN cover of :func:`golden_message` cast down
#: ``<layer>:COM`` (:class:`IntegrityRig`) in ``aligned`` mode: the head
#: both layers share — the preamble and the three headers above, frames
#: and padding included — the layer's own frame, and the body frame.
#: Re-cut once, when the covered bytes became the datagram's own instead
#: of a re-encoding with owner names: if these move, every sum on the
#: wire moved.
_GOLDEN_HEAD = bytes.fromhex(
    "4852000501005100000000030000000000000000000000000000002907616c6963"
    "653a31000207616c6963653a3105626f623a3200000000000207616c6963653a31"
    "000000000000000705626f623a3200000000000000090a0001010d001d00000000"
    "03000000000000012c00000000000000000000000000000000"
)
_GOLDEN_FRAMES = {"CHKSUM": bytes.fromhex("040004"),
                  "SIGN": bytes.fromhex("160008")}
_GOLDEN_TAIL = struct.pack(">I", 11) + b"golden body"
_GOLDEN_CRC = 0x60A24701
_GOLDEN_MAC = bytes.fromhex("7d354cdc65c3e198")
#: The value each layer writes for the same cast in every mode (the
#: covered bytes differ by mode byte and layout).
_GOLDEN_ON_THE_WIRE = {
    "sum": {"aligned": "60a24701", "compact": "0d7a43d8",
            "packed": "99508b57", "table": "cc7f7e77"},
    "mac": {"aligned": "7d354cdc65c3e198", "compact": "5da95a59dc0b6668",
            "packed": "2050a42c701675c8", "table": "a5934d94cbe00a8c"},
}

#: (stack spec, the layer's drop counter, its header's verdict field)
INTEGRITY_LAYERS = [
    ("CHKSUM", "garbled_dropped", "sum"),
    (f"SIGN(key='{_GOLDEN_KEY}')", "rejected", "mac"),
]
SPAN_MODES = ("aligned", "compact")  # the modes that unmarshal lazily


def golden_message():
    """What CHKSUM/SIGN see on the way down the Section 7 stack."""
    bob = EndpointAddress("bob", 2)
    msg = Message(b"golden ")
    msg.add_segment(b"body")
    msg.push_header("MBRSHIP", {"kind": 0, "vid": 3, "seq": 41, "origin": SRC,
                                "members": [SRC, bob],
                                "vector": {SRC: 7, bob: 9}})
    msg.push_header("FRAG", {"last": True})
    msg.push_header("NAK", {"kind": 0, "era": 3, "seq": 300})
    return msg


def header_spans(data):
    """``{owner: (start, end)}`` of every header's bytes in an aligned or
    compact datagram, plus ``"body"``."""
    _, mode, n_headers = struct.unpack_from(">HBB", data, 0)
    offset, spans = 4, {}
    for _ in range(n_headers):
        layer_id, length = struct.unpack_from(">BH", data, offset)
        offset += 3
        spans[DEFAULT_REGISTRY._by_id[layer_id].layer] = (offset, offset + length)
        offset += length
        if mode == 0:
            offset += (-(3 + length)) % 4
    (body_len,) = struct.unpack_from(">I", data, offset)
    spans["body"] = (offset + 4, offset + 4 + body_len)
    return spans


def split_datagram(data):
    """``({owner: span bytes}, body)``, header order kept."""
    spans = header_spans(data)
    body = data[slice(*spans.pop("body"))]
    return {owner: data[start:end] for owner, (start, end) in spans.items()}, body


def join_datagram(mode_byte, frames, body):
    """The inverse of :func:`split_datagram`, lengths and padding redone."""
    out = bytearray(struct.pack(">HBB", 0x4852, mode_byte, len(frames)))
    for owner, span in frames.items():
        out += struct.pack(">BH", DEFAULT_REGISTRY._by_name[owner][0], len(span))
        out += span
        if mode_byte == 0:
            out += b"\x00" * ((-(3 + len(span))) % 4)
    return bytes(out + struct.pack(">I", len(body)) + body)


class IntegrityRig:
    """Two members on ``<layer>:COM``, in any wire mode.  ``a``'s
    datagrams are captured instead of sent and handed to ``b``'s demux by
    hand, which unmarshals every datagram lazily, whatever happened to
    its bytes."""

    def __init__(self, spec, mode, above="", obs=None):
        self.mode = mode
        self.world = World(seed=5, network="lan", wire_mode=mode, obs=obs)
        self.a = self.world.process("a").endpoint()
        self.b = self.world.process("b").endpoint()
        self.ha = self.a.join("grp", stack=f"{above}{spec}:COM")
        self.hb = self.b.join("grp", stack=f"{above}{spec}:COM")
        members = [self.ha.endpoint_address, self.hb.endpoint_address]
        self.ha.set_destinations(members)
        self.hb.set_destinations(members)
        self.sent = []
        self.world.network.multicast = (
            lambda source, dests, data: self.sent.append(bytes(data)))
        self.layer = self.hb.stack.layers[-2]

    def datagram(self, message):
        """``message`` — upper headers already pushed — cast down a's stack."""
        self.ha.stack.down(cast_down(message))
        return self.sent.pop()

    def cast(self, data):
        """The datagram of an application cast through the layers ``above``."""
        self.ha.cast(data)
        return self.sent.pop()

    def receive(self, data):
        """Hand ``data`` to b; returns what its application got from it."""
        before = len(self.hb.delivery_log)
        self.b._on_packet(Packet(
            source=self.ha.endpoint_address, dest=self.hb.endpoint_address,
            payload=data))
        return self.hb.delivery_log[before:]

    def undecodable(self):
        return self.b.undecodable_packets + self.hb.stack.undecodable_messages

    def sealed(self, data):
        """The layer's :class:`SealedHeader` in ``data``, as a receiver
        with a fresh table store reads it."""
        message = unmarshal_mode(DEFAULT_REGISTRY, data, self.mode)
        message.pop_header("COM")
        return message.pop_entry(self.layer.name)

    def covered_positions(self, data):
        """Offsets of the bytes the layer covers in ``data``, and of its value."""
        entry = self.sealed(data)
        start = len(entry.head)
        value = range(start, start + len(entry.span))
        head_and_tail = list(range(start)) + list(
            range(len(data) - len(entry.tail), len(data)))
        return head_and_tail, value

    def flip_is_refused(self, data):
        """``data`` is not delivered, and the layer let nothing through:
        it dropped it, or the datagram never reached it."""
        verified = self.layer.verified
        assert self.receive(data) == []
        assert self.layer.verified == verified


class TestCoveredBytes:
    """(a) Receiver and sender cover the same bytes of the same
    datagram, in every mode, and those bytes are pinned."""

    @pytest.mark.parametrize("layer", registered_layers())
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_mode_lazy_and_eager_covers_the_senders_bytes(self, layer, data):
        header = data.draw(header_strategy(DEFAULT_REGISTRY.codec_for(layer)))
        for mode in WIRE_MODES:
            msg = Message(b"seg one, ")
            msg.add_segment(b"seg two")
            msg.push_header(layer, header)
            hook = _Recorder()
            msg.push_owned_header("CHKSUM", {"sum": hook})
            wire = marshal_mode(DEFAULT_REGISTRY, msg, mode)
            ((head, tail),) = hook.seen
            # The definition: every byte ahead of the value, the body frame.
            assert wire[:len(head)] == head
            assert wire[len(head):len(head) + 4] == hook(head, tail)
            assert tail == struct.pack(">I", 16) + b"seg one, seg two"
            assert wire.endswith(tail)
            for lazy in (False, True):
                out = unmarshal_mode(DEFAULT_REGISTRY, wire, mode, lazy=lazy)
                entry = out.pop_entry("CHKSUM")
                assert bytes(entry.head) == head, (mode, lazy)
                assert bytes(entry.tail) == tail, (mode, lazy)
                assert entry.span == hook(head, tail)
                if lazy and mode in SPAN_MODES:
                    # The check read the spans; it decoded nothing.
                    assert type(out.header_entries()[0][1]) is not dict

    def test_golden_vector(self):
        for spec, _, field in INTEGRITY_LAYERS:
            rig = IntegrityRig(spec, "aligned")
            wire = rig.datagram(golden_message())
            spans = header_spans(wire)
            name = rig.layer.name
            covered = wire[:spans[name][0]] + wire[spans["body"][0] - 4:]
            assert covered == _GOLDEN_HEAD + _GOLDEN_FRAMES[name] + _GOLDEN_TAIL
            if field == "sum":
                assert zlib.crc32(covered) == _GOLDEN_CRC
                assert wire[slice(*spans[name])] == struct.pack(">I", _GOLDEN_CRC)
            else:
                assert hmac.new(_GOLDEN_KEY.encode(), covered,
                                hashlib.sha256).digest()[:8] == _GOLDEN_MAC
                assert wire[slice(*spans[name])] == _GOLDEN_MAC

    @pytest.mark.parametrize("mode", WIRE_MODES)
    @pytest.mark.parametrize("spec, counter, field", INTEGRITY_LAYERS)
    def test_golden_vector_on_the_wire(self, spec, counter, field, mode):
        rig = IntegrityRig(spec, mode)
        wire = rig.datagram(golden_message())
        assert rig.sealed(wire).span.hex() == _GOLDEN_ON_THE_WIRE[field][mode]
        (got,) = rig.receive(wire)
        assert got.data == b"golden body"
        assert rig.layer.verified == 1 and getattr(rig.layer, counter) == 0


class TestIntegritySpanPath:
    @pytest.fixture
    def codec_calls(self, monkeypatch):
        """Owner names of every ``HeaderCodec.encode`` / ``decode`` call."""
        calls = {"encode": [], "decode": []}
        for name in calls:
            real = getattr(hdr.HeaderCodec, name)

            def recording(self, *args, _real=real, _name=name, **kwargs):
                calls[_name].append(self.layer)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(hdr.HeaderCodec, name, recording)
        return calls

    @pytest.mark.parametrize("mode", WIRE_MODES)
    @pytest.mark.parametrize("spec, counter, field", INTEGRITY_LAYERS)
    def test_intact_datagram_costs_no_encode_and_one_decode(
            self, spec, counter, field, mode, codec_calls):
        """(b) The mechanism, deterministically: the layer encodes
        nothing on the way down (marshal encodes every header once), and
        on the way up it decodes nothing — the one decode is COM's, the
        demux reading the group — and hands the headers above it to the
        next layer still lazy."""
        rig = IntegrityRig(spec, mode)
        wire = rig.datagram(golden_message())
        # Down: marshal's one encode per header; the layer's is none.
        assert sorted(codec_calls["encode"]) == (
            ["COM", "FRAG", "MBRSHIP", "NAK"] if mode in SPAN_MODES else [])
        codec_calls["encode"].clear()
        (got,) = rig.receive(wire)
        assert codec_calls == {
            "encode": [], "decode": ["COM"] if mode in SPAN_MODES else []}
        entries = got.message.header_entries()
        assert [owner for owner, _ in entries] == ["MBRSHIP", "FRAG", "NAK"]
        if mode in SPAN_MODES:
            assert all(type(header) is not dict for _, header in entries)
        assert rig.layer.verified == 1

    @pytest.mark.parametrize("spec, counter, field", INTEGRITY_LAYERS)
    def test_an_observed_stack_still_verifies(self, spec, counter, field):
        """An observed stack peeks at each layer's header on the way in
        to size it; a peek decodes a copy of a sealed header and leaves
        the entry, spans and all, for its layer to check."""
        rig = IntegrityRig(spec, "aligned", obs=ObsOptions.full())
        (got,) = rig.receive(rig.datagram(golden_message()))
        assert got.data == b"golden body"
        assert rig.layer.verified == 1 and getattr(rig.layer, counter) == 0
        message = DEFAULT_REGISTRY.unmarshal(rig.datagram(golden_message()))
        message.pop_header("COM")
        entry = message.header_entries()[-1][1]
        assert message.peek_header(rig.layer.name) == entry.materialize()
        assert message.pop_entry(rig.layer.name) is entry

    @pytest.mark.parametrize("mode", WIRE_MODES)
    @pytest.mark.parametrize("spec, counter, field", INTEGRITY_LAYERS)
    def test_every_bit_flip_is_dropped(self, spec, counter, field, mode):
        """(c) Every flip of a covered bit, or of ``sum`` / ``mac``, is
        refused.  In the span modes a flip inside a header's value, the
        body or the verdict leaves the framing intact, and is counted by
        the layer itself — the BOOL's other seven bits included, which
        still decode to the sender's value (case (d))."""
        rig = IntegrityRig(spec, mode)
        wire = rig.datagram(golden_message())
        covered, value = rig.covered_positions(wire)
        for pos in covered + list(value):
            for bit in range(8):
                garbled = bytearray(wire)
                garbled[pos] ^= 1 << bit
                rig.flip_is_refused(bytes(garbled))
        assert rig.layer.verified == 0
        if mode not in SPAN_MODES:
            return
        spans = header_spans(wire)
        regions = [spans[name] for name in ("MBRSHIP", "FRAG", "NAK", "body")]
        regions.append((value.start, value.stop))
        for start, end in regions:
            for pos in range(start, end):
                for bit in range(8):
                    garbled = bytearray(wire)
                    garbled[pos] ^= 1 << bit
                    dropped = getattr(rig.layer, counter)
                    undecodable = rig.undecodable()
                    assert rig.receive(bytes(garbled)) == []
                    assert getattr(rig.layer, counter) == dropped + 1
                    assert rig.undecodable() == undecodable

    @pytest.mark.parametrize("mode", SPAN_MODES)
    @pytest.mark.parametrize("spec, counter, field", INTEGRITY_LAYERS)
    def test_non_canonical_span_fails_on_the_lazy_path_only(
            self, spec, counter, field, mode):
        """(d) A span that is not ``encode(decode(span))`` carrying a sum
        valid for its decoded *values*.  Eager unmarshal (TOTAL's pack
        records, never a datagram) reads the odd BOOL as the sender's
        value; the lazy path every datagram takes covers the bytes that
        arrived, they differ from what the sender summed, so it is
        dropped.  No honest encoder emits such a span."""
        rig = IntegrityRig(spec, mode)
        wire = rig.datagram(golden_message())
        start, end = header_spans(wire)["FRAG"]
        assert wire[start:end] == b"\x01"
        odd_bool = wire[:start] + b"\x02" + wire[end:]  # decodes to True
        # Four junk bytes inside the frame's declared length (four keeps
        # the aligned mode's padding where it was).
        junk = (wire[:start - 2] + struct.pack(">H", 5) + b"\x01junk"
                + wire[end:])
        eager = DEFAULT_REGISTRY.unmarshal(odd_bool)
        assert dict(eager.headers())["FRAG"] == {"last": True}
        with pytest.raises(HeaderError):
            DEFAULT_REGISTRY.unmarshal(junk)  # eager decode is exact too
        for forged in (odd_bool, junk):
            dropped = getattr(rig.layer, counter)
            assert rig.receive(forged) == []
            assert getattr(rig.layer, counter) == dropped + 1
        assert rig.undecodable() == 0


class TestEncryptThenMac:
    @pytest.mark.parametrize("mode", SPAN_MODES)
    def test_sign_below_crypt_covers_the_nonce_and_the_ciphertext(self, mode):
        """The body is covered as it travels: below CRYPT, SIGN covers
        the ciphertext and CRYPT's header, so a changed nonce — which
        would decrypt to other plaintext — is rejected before CRYPT
        sees it."""
        rig = IntegrityRig(f"SIGN(key='{_GOLDEN_KEY}')", mode, above="CRYPT:")
        wire = rig.cast(b"attack at dawn")
        assert b"dawn" not in wire
        start, end = header_spans(wire)["CRYPT"]
        for pos in (start + 7, len(wire) - 1):  # the nonce's last byte, the body's
            forged = bytearray(wire)
            forged[pos] ^= 0x01
            assert rig.receive(bytes(forged)) == []
        assert rig.layer.rejected == 2
        assert [got.data for got in rig.receive(wire)] == [b"attack at dawn"]

    @pytest.mark.parametrize("stack", [
        f"SIGN(key='{_GOLDEN_KEY}'):CRYPT:COM", "NAK:CHKSUM:COMPRESS:COM",
        "CHKSUM:FRAG:NAK:COM", "NAK:SIGN:NFRAG:COM"])
    def test_a_seal_above_a_layer_that_reshapes_the_body_is_refused(self, stack):
        """Above CRYPT or COMPRESS a seal would leave the header that
        decides what the body means uncovered (a changed nonce would be
        delivered as plaintext no member sent); above FRAG or NFRAG it
        would cover one fragment.  The stack is refused when built."""
        endpoint = World(seed=5, network="lan").process("a").endpoint()
        with pytest.raises(StackError, match="must sit below"):
            endpoint.join("grp", stack=stack)


def structure_positions(rig, wire, above):
    """``{what: offset}`` of the structural bytes of ``wire`` the layer
    covers: the header count, the mode byte, a length, padding (where
    the mode has them) and the body length.  ``above`` is the headers
    above the layer."""
    head_and_tail, value = rig.covered_positions(wire)
    tail = len(wire) - len(rig.sealed(wire).tail)
    where = {"header count": 3, "mode byte": 2, "body length": tail + 3}
    if rig.mode in SPAN_MODES:
        spans = header_spans(wire)
        where["frame length"] = spans["FRAG"][0] - 1
        if rig.mode == "aligned":
            # REALTIME's frame and span are eleven bytes: one pad byte.
            where["padding"] = spans["REALTIME"][1]
    elif rig.mode == "packed":
        where["block length"] = 5
        # Zero bits align the value to a byte after the ids and fields
        # above it and the layer's own id: the low bits of the byte
        # ahead of the value.
        bits = 8 + sum(8 + DEFAULT_REGISTRY.codec_for(owner).bit_size(header)
                       for owner, header in above)
        assert bits % 8  # so at least the lowest bit is padding
        where["padding"] = value.start - 1
    else:
        # The channel section: id, epoch, update count, then the first
        # install's index and length.
        where["install length"] = 4 + 8 + 3
    assert all(pos in head_and_tail for pos in where.values())
    return where


class TestStructureIsCovered:
    """Counts and lengths are covered bytes: a datagram whose header
    count, mode byte, lengths or padding were flipped is refused in every
    wire mode, by the sum itself whenever it still frames."""

    @pytest.mark.parametrize("mode", WIRE_MODES)
    @pytest.mark.parametrize("spec, counter, field", INTEGRITY_LAYERS)
    def test_each_structural_byte_flip_is_refused(self, spec, counter, field, mode):
        rig = IntegrityRig(spec, mode)
        message = golden_message()
        message.push_header("REALTIME", {"deadline": 1.5})
        above = message.headers()
        wire = rig.datagram(message)
        where = structure_positions(rig, wire, above)
        by_the_sum = set()
        for what, pos in where.items():
            for bit in range(8):
                if what == "padding" and mode == "packed" and bit:
                    continue  # the one pad bit known to be there
                garbled = bytearray(wire)
                garbled[pos] ^= 1 << bit
                dropped = getattr(rig.layer, counter)
                rig.flip_is_refused(bytes(garbled))
                if getattr(rig.layer, counter) == dropped + 1:
                    by_the_sum.add(what)
        # Where a flip leaves the datagram framing, it is the sum that
        # refuses it — bytes no header or body decode ever reads included.
        # (``table`` binds the body frame to the datagram's end itself.)
        framing = {"padding", "body length"} & set(where)
        if mode == "table":
            framing.discard("body length")
        assert framing <= by_the_sum
        assert rig.layer.verified == 0

    @pytest.mark.parametrize("spec, counter, field", INTEGRITY_LAYERS)
    def test_a_garbled_mode_byte_is_never_taken_for_loopback(
            self, spec, counter, field):
        """A looped-back message carries its layer's seal hook, a mark no
        datagram can: whatever a datagram's mode byte says, its sealed
        header arrives with the bytes it covers.  An ``aligned`` datagram
        garbled into ``packed`` is refused; a well-formed ``packed`` or
        ``table`` datagram whose header holds a plain value — what a
        decoded header looks like — is checked, and dropped by the
        layer; so is a decoded dict handed to the layer itself."""
        rig = IntegrityRig(spec, "aligned")
        wire = rig.datagram(golden_message())
        rig.flip_is_refused(wire[:2] + b"\x02" + wire[3:])
        plain = {field: b"\x00" * 8 if field == "mac" else 0}
        for mode in ("packed", "table"):
            msg = golden_message()
            msg.push_header(rig.layer.name, plain)
            msg.push_header("COM", {"group": GroupAddress("grp"), "kind": 0,
                                    "source": rig.ha.endpoint_address})
            dropped = getattr(rig.layer, counter)
            assert rig.receive(marshal_mode(DEFAULT_REGISTRY, msg, mode)) == []
            assert getattr(rig.layer, counter) == dropped + 1
        decoded = golden_message()
        decoded.push_header(rig.layer.name, plain)
        dropped = getattr(rig.layer, counter)
        rig.layer.handle_up(Upcall(UpcallType.CAST, message=decoded,
                                   source=rig.ha.endpoint_address))
        assert getattr(rig.layer, counter) == dropped + 1
        assert rig.layer.verified == 0


class TestFrameBoundariesAreBound:
    """A datagram whose frame boundaries were moved — body bytes declared
    part of the header above, or a whole header folded into the one above
    it — is other covered bytes: its lengths and its header count moved,
    so the sum itself refuses it.  A lazy header must also fill its span,
    so the owner's pop would refuse it too."""

    @pytest.mark.parametrize("mode", SPAN_MODES)
    @pytest.mark.parametrize("spec, counter, field", INTEGRITY_LAYERS)
    @pytest.mark.parametrize("moved", ("body bytes", "a whole header"))
    def test_moved_boundary_is_never_delivered(
            self, spec, counter, field, mode, moved):
        rig = IntegrityRig(spec, mode, above="FRAG:NAK:")
        wire = rig.cast(b"0123456789abcdef")
        (got,) = rig.receive(wire)
        assert got.data == b"0123456789abcdef"
        frames, body = split_datagram(wire)
        assert list(frames)[:2] == ["FRAG", "NAK"]  # covered in this order
        if moved == "body bytes":
            # ... |NAK|S_nak|body  ->  ... |NAK|S_nak + body[:5]|body[5:]
            frames["NAK"] += body[:5]
            body = body[5:]
        else:
            # FRAG|S_frag|NAK|S_nak  ->  FRAG|S_frag + NAK's frame + S_nak
            nak = frames.pop("NAK")
            frames["FRAG"] += struct.pack(">BH", layer_id("NAK"), len(nak)) + nak
        forged = join_datagram(wire[2], frames, body)
        assert rig.receive(forged) == []
        # The sum refused it: the layer counted it, nothing above saw it.
        assert rig.layer.verified == 1 and getattr(rig.layer, counter) == 1
        assert rig.undecodable() == 0

    @pytest.mark.parametrize("mode", SPAN_MODES)
    @pytest.mark.parametrize("layer", registered_layers())
    def test_lazy_header_must_fill_its_span(self, layer, mode):
        codec = DEFAULT_REGISTRY.codec_for(layer)
        header = full_header(codec, salt=3)
        span = codec.encode(header)
        for tail in (b"", b"\x00", b"junk"):
            data = join_datagram(SPAN_MODES.index(mode), {layer: span + tail}, b"b")
            # One rule: eager refuses a tail at unmarshal, lazy at the pop.
            message = DEFAULT_REGISTRY.unmarshal(data, lazy=True)
            if tail:
                with pytest.raises(HeaderError):
                    DEFAULT_REGISTRY.unmarshal(data)
                with pytest.raises(HeaderError):
                    message.pop_header(layer)
            else:
                assert DEFAULT_REGISTRY.unmarshal(data).pop_header(layer) == header
                assert message.pop_header(layer) == header


class _StubNet:
    mtu = 200

    def __init__(self):
        self.sent = []
        self.delivered = []

    def unicast(self, source, dest, payload):
        self.sent.append(("u", source, dest, bytes(payload)))

    def multicast(self, source, dests, payload):
        self.sent.append(("m", source, tuple(dests), bytes(payload)))

    def attach(self, address, deliver):
        self.deliver = deliver


A = EndpointAddress("a", 0)
B = EndpointAddress("b", 0)
C = EndpointAddress("c", 0)


def advance(clock, seconds=0.0):
    """Hand-crank the DES clock: end the current turn, then run on."""
    clock.run(until=clock.now + seconds)


class TestCoalescer:
    MAX_DELAY = 0.0005

    def make(self, **kw):
        net, clock = _StubNet(), Scheduler()
        return Coalescer(net, clock, max_delay=self.MAX_DELAY, **kw), net, clock

    def test_batch_roundtrip(self):
        co, net, clock = self.make(max_batch=3)
        payloads = [b"one", b"two", b"three"]
        for p in payloads:
            co.unicast(A, B, p)
        assert len(net.sent) == 1  # max_batch flush, no deadline needed
        kind, src, dst, wire = net.sent[0]
        assert (kind, src, dst) == ("u", A, B)
        assert decode_batch(wire) == payloads
        assert co.batches_sent == 1 and co.messages_batched == 3
        advance(clock, self.MAX_DELAY)  # its deadline was cancelled with it
        assert len(net.sent) == 1
        assert (co.flushes_idle, co.flushes_paced) == (0, 0)

    def test_singleton_flush_is_raw(self):
        co, net, clock = self.make()
        co.unicast(A, B, b"lonely")
        assert not net.sent  # not inside the producing call ...
        advance(clock)      # ... but at the end of its turn
        assert net.sent == [("u", A, B, b"lonely")]
        assert co.batches_sent == 0
        assert (co.flushes_idle, co.flushes_paced) == (1, 0)
        assert decode_batch(b"lonely") is None

    def test_mtu_forces_flush(self):
        co, net, clock = self.make(max_batch=100)
        co.unicast(A, B, b"x" * 120)
        co.unicast(A, B, b"y" * 120)  # cannot share a 200 B datagram
        assert len(net.sent) == 1
        assert decode_batch(net.sent[0][3]) is None  # singleton went raw
        # The forced flush counts as the wire's last use: the second
        # payload is spaced max_delay behind it, not sent this turn.
        advance(clock)
        assert len(net.sent) == 1
        advance(clock, self.MAX_DELAY)
        assert net.sent[1][3] == b"y" * 120
        assert (co.flushes_idle, co.flushes_paced) == (0, 1)

    def test_oversize_bypasses_after_flushing(self):
        co, net, clock = self.make()
        co.unicast(A, B, b"small")
        co.unicast(A, B, b"z" * 199)  # > mtu - overhead: straight down
        assert [p[3] for p in net.sent] == [b"small", b"z" * 199]
        advance(clock, self.MAX_DELAY)
        assert len(net.sent) == 2

    def test_multicast_and_unicast_do_not_mix(self):
        co, net, clock = self.make(max_batch=2)
        co.multicast(A, (B, C), b"m1")
        co.unicast(A, B, b"u1")
        co.multicast(A, (B, C), b"m2")
        kinds = [s[0] for s in net.sent]
        assert kinds == ["m"]  # multicast pair flushed; unicast pending
        advance(clock)
        assert net.sent[1:] == [("u", A, B, b"u1")]

    def test_cancelled_deadline_does_not_flush_the_next_batch(self):
        co, net, clock = self.make(max_batch=2)
        co.unicast(A, B, b"p1")          # arms the end-of-turn deadline
        co.unicast(A, B, b"p2")          # flushed by count: deadline cancelled
        co.unicast(A, B, b"p3")          # new batch, paced behind that flush
        advance(clock)                   # end of turn: nothing is due
        assert [decode_batch(s[3]) for s in net.sent] == [[b"p1", b"p2"]]
        advance(clock, self.MAX_DELAY)
        assert len(net.sent) == 2 and net.sent[1][3] == b"p3"
        assert (co.flushes_idle, co.flushes_paced) == (0, 1)

    def test_receive_unwraps_batches(self):
        co, net, clock = self.make(max_batch=2)
        got = []
        co.attach(B, got.append)
        co.unicast(A, B, b"r1")
        co.unicast(A, B, b"r2")
        wire = net.sent[0][3]
        net.deliver(Packet(source=A, dest=B, payload=wire, sent_at=1.0))
        assert [p.payload for p in got] == [b"r1", b"r2"]
        assert all(p.source == A and p.sent_at == 1.0 for p in got)

    def test_corrupt_batch_rejected_whole(self):
        co, net, clock = self.make(max_batch=2)
        got = []
        co.attach(B, got.append)
        co.unicast(A, B, b"c1")
        co.unicast(A, B, b"c2")
        wire = net.sent[0][3]
        for bad in (wire[:-1], wire + b"!", wire[:5]):
            net.deliver(Packet(source=A, dest=B, payload=bad))
        assert got == []
        assert co.batches_rejected == 3

    def test_non_batch_passes_through(self):
        co, net, clock = self.make()
        got = []
        co.attach(B, got.append)
        pkt = Packet(source=A, dest=B, payload=b"plain datagram")
        net.deliver(pkt)
        assert got == [pkt]


class TestCoalescedWorld:
    """End to end on the DES: the full stack over a coalescing network."""

    @staticmethod
    def run_workload(coalesce):
        stack = "TOTAL:MBRSHIP:FRAG(max_size=900):NAK:COM"
        world = World(seed=21, network="lan", wire_mode="table",
                      trace=False, coalesce=coalesce)
        ga = world.process("a").endpoint().join("grp", stack=stack)
        gb = world.process("b").endpoint().join("grp", stack=stack)
        world.run(3.0)
        assert ga.view is not None and ga.view.size == 2
        for i in range(30):
            ga.cast(b"c%02d" % i)
            gb.cast(b"d%02d" % i)
        world.run(5.0)
        assert len(ga.delivery_log) == 60 and len(gb.delivery_log) == 60
        assert [(d.source, d.data) for d in ga.delivery_log] == \
               [(d.source, d.data) for d in gb.delivery_log]
        return world

    def test_full_stack_delivery_with_coalescing(self):
        plain = self.run_workload(coalesce=False)
        batched = self.run_workload(coalesce=True)
        assert batched.network.batches_sent > 0
        assert batched.network.batches_rejected == 0
        # Same delivered messages, strictly fewer datagrams on the wire.
        assert (batched.network.inner.stats.packets_sent
                < plain.network.stats.packets_sent)


class TestCreditAdmission:
    """CREDIT admits a cast without a registry lookup, a clock read or a
    queue entry: only a cast that really waits pays for one."""

    STACK = "CREDIT:MBRSHIP:FRAG:NAK:COM"
    CASTS = 200

    def test_admission_is_lookup_free(self, monkeypatch):
        from repro import FlowVerdict
        from repro.obs.registry import MetricFamily

        world = World(seed=4, network="lan", trace=False)
        handles = []
        for i in range(8):
            handles.append(
                world.process(f"n{i}").endpoint().join("g", stack=self.STACK)
            )
            world.run(0.3)
        world.run(1.0)
        assert all(h.view.size == 8 for h in handles)
        sender = handles[0].focus("CREDIT")
        wait = world.metrics.get("flow_send_wait_seconds").labels()
        observed = wait.count
        calls = {"labels": 0, "_pending": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(MetricFamily, "labels",
                            counted("labels", MetricFamily.labels))
        monkeypatch.setattr(sender, "_pending",
                            counted("_pending", sender._pending))
        for i in range(self.CASTS):
            assert handles[0].cast(b"%04d" % i + b"." * 60) is FlowVerdict.ACCEPTED
        world.run(1.0)
        assert all(len(h.delivery_log) == self.CASTS for h in handles)
        assert calls == {"labels": 0, "_pending": 0}
        assert wait.count - observed == self.CASTS and wait.sum == 0.0
