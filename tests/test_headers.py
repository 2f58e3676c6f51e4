"""Unit and property tests for header codecs and the wire format."""

import pytest
from hypothesis import given, strategies as st

from repro.core.headers import (
    ADDRESS,
    BOOL,
    F64,
    GROUP,
    HeaderCodec,
    HeaderRegistry,
    ListOf,
    MapOf,
    TEXT,
    U8,
    U16,
    U32,
    U64,
    VARBYTES,
    packed_bit_size,
)
from repro.core.message import Message
from repro.errors import HeaderError
from repro.net.address import EndpointAddress, GroupAddress


def make_registry():
    registry = HeaderRegistry()
    registry.register(
        HeaderCodec(
            "T1",
            fields=[("a", U8), ("b", U32), ("flag", BOOL)],
            defaults={"flag": False},
        ),
        1,
    )
    registry.register(
        HeaderCodec(
            "T2",
            fields=[
                ("who", ADDRESS),
                ("grp", GROUP),
                ("items", ListOf(U16)),
                ("table", MapOf(ADDRESS, U64)),
                ("blob", VARBYTES),
                ("label", TEXT),
                ("ratio", F64),
            ],
        ),
        2,
    )
    return registry


class TestCodec:
    def test_encode_decode_roundtrip(self):
        registry = make_registry()
        codec = registry.codec_for("T1")
        blob = codec.encode({"a": 5, "b": 70000, "flag": True})
        assert codec.decode(blob) == {"a": 5, "b": 70000, "flag": True}

    def test_defaults_fill_missing_fields(self):
        codec = make_registry().codec_for("T1")
        assert codec.decode(codec.encode({"a": 1, "b": 2}))["flag"] is False

    def test_missing_required_field_raises(self):
        codec = make_registry().codec_for("T1")
        with pytest.raises(HeaderError):
            codec.encode({"a": 1})

    def test_rich_field_types_roundtrip(self):
        codec = make_registry().codec_for("T2")
        header = {
            "who": EndpointAddress("node-7", 3),
            "grp": GroupAddress("team"),
            "items": [1, 2, 65535],
            "table": {EndpointAddress("a", 0): 10, EndpointAddress("b", 1): 2**40},
            "blob": b"\x00\xff" * 10,
            "label": "héllo",
            "ratio": 0.25,
        }
        assert codec.decode(codec.encode(header)) == header

    def test_bit_size_bool_is_one_bit(self):
        codec = make_registry().codec_for("T1")
        # a:8 + b:32 + flag:1 = 41 bits — the paper's compaction argument.
        assert codec.bit_size({"a": 1, "b": 2, "flag": True}) == 41

    def test_duplicate_registration_rejected(self):
        registry = make_registry()
        with pytest.raises(HeaderError):
            registry.register(HeaderCodec("T1", fields=[]), 3)


class TestWireIds:
    """Every codec declares its wire id; the numbering never depends on
    which layers a process imported, or in what order."""

    #: The whole map.  An id that moves moves a byte of every datagram
    #: carrying that layer's header (``GOLDEN_LONE_CAST`` pins one).
    IDS = {
        "MBRSHIP": 1, "BMS": 2, "CAUSAL_TS": 3, "CHKSUM": 4, "COM": 5,
        "COMPRESS": 6, "CREDIT": 7, "CRYPT": 8, "FLUSH": 9, "FRAG": 10,
        "KEYDIST": 11, "LOCATE": 12, "NAK": 13, "NAK_MARKS": 14, "NFRAG": 15,
        "NNAK": 16, "STABLE": 17, "PINWHEEL": 18, "PRIO": 19, "REALTIME": 20,
        "RPC": 21, "SIGN": 22, "SYNC": 23, "TOTAL": 24, "VSS": 25, "XFER": 26,
    }

    def test_the_id_map_is_pinned(self):
        import repro.layers  # noqa: F401 -- populates DEFAULT_REGISTRY
        from repro.core.headers import DEFAULT_REGISTRY

        ids = {name: entry[0] for name, entry in DEFAULT_REGISTRY._by_name.items()}
        assert ids == self.IDS

    def test_a_taken_id_is_refused(self):
        registry = make_registry()
        with pytest.raises(HeaderError, match="taken by 'T1'"):
            registry.register(HeaderCodec("T3", fields=[]), 1)
        assert not registry.has("T3")

    @pytest.mark.parametrize("layer_id", (0, 256))
    def test_an_id_off_the_wire_byte_is_refused(self, layer_id):
        with pytest.raises(HeaderError):
            HeaderRegistry().register(HeaderCodec("T", fields=[]), layer_id)


class TestWireFormat:
    def test_marshal_unmarshal_roundtrip(self):
        registry = make_registry()
        msg = Message(b"payload")
        msg.push_header("T1", {"a": 1, "b": 2, "flag": True})
        data = registry.marshal(msg)
        back = registry.unmarshal(data)
        assert back.body_bytes() == b"payload"
        assert back.pop_header("T1") == {"a": 1, "b": 2, "flag": True}

    def test_header_stack_order_preserved(self):
        registry = make_registry()
        msg = Message(b"x")
        msg.push_header("T1", {"a": 1, "b": 2})
        msg.push_header(
            "T2",
            {
                "who": EndpointAddress("n", 0),
                "grp": GroupAddress("g"),
                "items": [],
                "table": {},
                "blob": b"",
                "label": "",
                "ratio": 0.0,
            },
        )
        back = registry.unmarshal(registry.marshal(msg))
        assert back.top_owner() == "T2"
        back.pop_header("T2")
        assert back.top_owner() == "T1"

    def test_compact_mode_smaller_than_aligned(self):
        registry = make_registry()
        msg = Message(b"x")
        msg.push_header("T1", {"a": 1, "b": 2, "flag": True})
        aligned = registry.marshal(msg, "aligned")
        compact = registry.marshal(msg, "compact")
        assert len(compact) < len(aligned)
        assert registry.unmarshal(compact).pop_header("T1") == {
            "a": 1,
            "b": 2,
            "flag": True,
        }

    def test_aligned_headers_word_padded(self):
        registry = make_registry()
        msg = Message()
        msg.push_header("T1", {"a": 1, "b": 2})
        overhead = registry.header_overhead(msg, "aligned")
        assert overhead % 4 == 0

    def test_packed_bit_size_below_wire_bytes(self):
        registry = make_registry()
        msg = Message()
        msg.push_header("T1", {"a": 1, "b": 2, "flag": True})
        bits = packed_bit_size(registry, msg)
        assert bits == 41
        assert bits < 8 * registry.header_overhead(msg, "compact")

    def test_bad_magic_rejected(self):
        registry = make_registry()
        with pytest.raises(HeaderError):
            registry.unmarshal(b"\x00\x00\x00\x00\x00\x00\x00\x00")

    def test_truncation_rejected(self):
        registry = make_registry()
        msg = Message(b"hello world")
        msg.push_header("T1", {"a": 1, "b": 2})
        data = registry.marshal(msg)
        with pytest.raises(HeaderError):
            registry.unmarshal(data[: len(data) // 2])

    def test_unknown_layer_rejected_on_marshal(self):
        registry = make_registry()
        msg = Message()
        msg.push_header("NOPE", {})
        with pytest.raises(HeaderError):
            registry.marshal(msg)

    def test_empty_message(self):
        registry = make_registry()
        back = registry.unmarshal(registry.marshal(Message()))
        assert back.body_bytes() == b""
        assert back.header_depth == 0


@given(
    a=st.integers(min_value=0, max_value=255),
    b=st.integers(min_value=0, max_value=2**32 - 1),
    flag=st.booleans(),
    body=st.binary(max_size=256),
    mode=st.sampled_from(["aligned", "compact"]),
)
def test_property_wire_roundtrip(a, b, flag, body, mode):
    registry = make_registry()
    msg = Message(body)
    msg.push_header("T1", {"a": a, "b": b, "flag": flag})
    back = registry.unmarshal(registry.marshal(msg, mode))
    assert back.body_bytes() == body
    assert back.pop_header("T1") == {"a": a, "b": b, "flag": flag}


@given(
    items=st.lists(st.integers(min_value=0, max_value=65535), max_size=20),
    label=st.text(max_size=40),
    blob=st.binary(max_size=64),
)
def test_property_rich_types_roundtrip(items, label, blob):
    registry = make_registry()
    codec = registry.codec_for("T2")
    header = {
        "who": EndpointAddress("n", 1),
        "grp": GroupAddress("g"),
        "items": items,
        "table": {},
        "blob": blob,
        "label": label,
        "ratio": 1.5,
    }
    assert codec.decode(codec.encode(header)) == header


class TestBitIO:
    def test_writer_reader_roundtrip(self):
        from repro.core.headers import BitReader, BitWriter

        writer = BitWriter()
        writer.write(1, 1)
        writer.write(5, 3)
        writer.write(300, 12)
        writer.write_bytes(b"xyz")
        data = writer.getvalue()
        reader = BitReader(data)
        assert reader.read(1) == 1
        assert reader.read(3) == 5
        assert reader.read(12) == 300
        assert reader.read_bytes(3) == b"xyz"

    def test_writer_rejects_overflow(self):
        from repro.core.headers import BitWriter
        from repro.errors import HeaderError

        with pytest.raises(HeaderError):
            BitWriter().write(8, 3)

    def test_reader_rejects_exhaustion(self):
        from repro.core.headers import BitReader
        from repro.errors import HeaderError

        with pytest.raises(HeaderError):
            BitReader(b"\x00").read(9)

    def test_bool_really_costs_one_bit(self):
        from repro.core.headers import BitWriter, BOOL

        writer = BitWriter()
        for _ in range(8):
            BOOL.encode_bits(True, writer)
        assert len(writer.getvalue()) == 1  # eight booleans in one byte


class TestPackedWireMode:
    def test_packed_roundtrip(self):
        registry = make_registry()
        msg = Message(b"payload")
        msg.push_header("T1", {"a": 9, "b": 123456, "flag": True})
        back = registry.unmarshal(registry.marshal(msg, "packed"))
        assert back.body_bytes() == b"payload"
        assert back.pop_header("T1") == {"a": 9, "b": 123456, "flag": True}

    def test_packed_smaller_than_compact_for_real_stacks(self):
        """A lone tiny header amortizes nothing (the block-length field
        eats the gain), but any realistic multi-layer stack of headers
        packs strictly smaller — the paper's per-stack precomputation
        argument."""
        registry = make_registry()
        msg = Message()
        for _ in range(3):  # a three-layer stack of T1 headers
            msg.push_header("T1", {"a": 1, "b": 2, "flag": True})
        packed = registry.header_overhead(msg, "packed")
        compact = registry.header_overhead(msg, "compact")
        aligned = registry.header_overhead(msg, "aligned")
        assert packed < compact < aligned

    def test_packed_rich_types_roundtrip(self):
        registry = make_registry()
        msg = Message(b"x")
        msg.push_header(
            "T2",
            {
                "who": EndpointAddress("node-7", 3),
                "grp": GroupAddress("team"),
                "items": [0, 65535, 7],
                "table": {EndpointAddress("a", 0): 2**40},
                "blob": b"\x00\xff" * 5,
                "label": "héllo",
                "ratio": -2.5,
            },
        )
        back = registry.unmarshal(registry.marshal(msg, "packed"))
        assert back.pop_header("T2")["table"] == {EndpointAddress("a", 0): 2**40}

    def test_packed_truncation_rejected(self):
        registry = make_registry()
        msg = Message(b"hello")
        msg.push_header("T1", {"a": 1, "b": 2})
        data = registry.marshal(msg, "packed")
        with pytest.raises(HeaderError):
            registry.unmarshal(data[:6])

    def test_unknown_mode_rejected(self):
        registry = make_registry()
        with pytest.raises(HeaderError):
            registry.marshal(Message(), "bitsoup")


@given(
    a=st.integers(min_value=0, max_value=255),
    b=st.integers(min_value=0, max_value=2**32 - 1),
    flag=st.booleans(),
    body=st.binary(max_size=128),
)
def test_property_packed_wire_roundtrip(a, b, flag, body):
    registry = make_registry()
    msg = Message(body)
    msg.push_header("T1", {"a": a, "b": b, "flag": flag})
    back = registry.unmarshal(registry.marshal(msg, "packed"))
    assert back.body_bytes() == body
    assert back.pop_header("T1") == {"a": a, "b": b, "flag": flag}
