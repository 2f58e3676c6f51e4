"""Field kinds, the per-layer codec and the canonical form.

What every wire mode shares: the four kinds of header field and their
two primitive encodings (bytes and bits), :class:`CanonicalCodec` — a
layer's declared fields encoded to *canonical bytes* — the sealed header
an integrity layer reads on the way up (:class:`SealedHeader`: its
value and the two spans of the datagram it covers), and the seam the
mode modules plug into (:class:`WireFormat`, the frame formats, the one
error wrapper and the one lookup that can miss).

The covered bytes are the datagram's own.  An integrity layer (CHKSUM,
SIGN) registers a *sealed* codec: one fixed-width field, which on the
way down holds the layer's seal hook instead of a value.  The wire
modes write a zeroed placeholder there, and
:meth:`~repro.core.headers.HeaderRegistry.marshal` patches in
``hook(head, tail)`` once the body is written: ``head`` is every byte
of the datagram ahead of the value — the preamble (magic, mode byte,
header count), every header above the layer with its frame, length and
padding, and the layer's own frame (in ``table`` mode, the channel
section and the shape too) — and ``tail`` the body frame (its length,
then the body) to the datagram's end.  Seals are applied in wire order, the top layer's first, so a
lower seal covers an upper one's final value.  On the way up the modes
push a :class:`SealedHeader` holding the value's bytes and views of the
same two spans of the datagram that arrived.
"""

from __future__ import annotations

import struct
from itertools import groupby
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, NoReturn, Optional, Sequence,
    Tuple,
)

from repro.core.message import Header
from repro.errors import HeaderError
from repro.net.address import EndpointAddress, GroupAddress

if TYPE_CHECKING:  # annotations only: wire imports this module, never the reverse
    from repro.core.headers.wire import BitReader, BitWriter

# ----------------------------------------------------------------------
# Framing and errors shared by every wire mode
# ----------------------------------------------------------------------

MAGIC = 0x4852  # "HR"

_PREAMBLE = struct.Struct(">HBB")
_FRAME = struct.Struct(">BH")
_BODY_LEN = struct.Struct(">I")

# The frames are exported as their bound pack / unpack_from functions,
# not as Struct objects: a name that arrived by import compiles to a
# plain attribute load and a fresh bound method at every call, which on
# the per-header path costs more than the struct work itself.

#: Datagram preamble: magic, mode byte, header count.
pack_preamble, unpack_preamble = _PREAMBLE.pack, _PREAMBLE.unpack_from
PREAMBLE_SIZE = _PREAMBLE.size
#: Per-header frame of the modes that frame headers: layer id, length.
pack_frame, unpack_frame = _FRAME.pack, _FRAME.unpack_from
FRAME_SIZE = _FRAME.size
#: Body frame: length, then the body to the end of the datagram.
pack_body_len, unpack_body_len = _BODY_LEN.pack, _BODY_LEN.unpack_from
BODY_LEN_SIZE = _BODY_LEN.size

#: Element count of a list or map field.
_COUNT = struct.Struct(">H")


def reraise(exc: Exception, context: str) -> NoReturn:
    """How a failure leaves a codec: as a :class:`HeaderError`, always.

    One that already is passes unchanged; anything else (``struct.error``,
    ``IndexError``, ``UnicodeDecodeError`` on hostile bytes, ...) is
    wrapped in one naming ``context``.  For ``except Exception as exc:``.
    """
    if isinstance(exc, HeaderError):
        raise exc
    raise HeaderError(f"{context}: {exc}") from exc


class Lookup(dict):
    """A dict whose misses raise :class:`HeaderError`: ``{what} {key!r}``.

    The registry's directories (codecs by layer name and by wire id,
    formats by mode) are read once per header or datagram on both paths;
    the error lives here so the reads are bare subscripts.
    """

    __slots__ = ("_what",)

    def __init__(self, what: str, items: Any = ()) -> None:
        super().__init__(items)
        self._what = what

    def __missing__(self, key: Any) -> NoReturn:
        raise HeaderError(f"{self._what} {key!r}")


# ----------------------------------------------------------------------
# Field kinds
# ----------------------------------------------------------------------


class FieldType:
    """One kind of header field: its canonical bytes and its packed bits.

    ``encode(value, out)`` appends the canonical bytes to a bytearray,
    ``decode(data, offset)`` returns the value there and the offset just
    past it, and ``byte_size(value)`` is the encoded size without
    building the bytes.  ``encode_bits(value, writer)`` and
    ``decode_bits(reader)`` are the same pair over a packed bit stream,
    and ``bit_size(value)`` the bits they use: the minimum the value
    needs.  Four kinds exist, below; each implements all six.
    """

    #: Encoded size in bytes when it does not depend on the value
    #: (``None`` for length-prefixed kinds).  Lets codecs precompute the
    #: fixed part of a header's wire size.
    fixed_byte_size: Optional[int] = None

    #: For the kinds whose decoded value is mutable (a list, a dict): a
    #: function returning a copy that shares nothing mutable with it.
    #: ``None`` where values are immutable and may be shared as they are.
    copy_value: Optional[Callable[[Any], Any]] = None


class Scalar(FieldType):
    """A fixed-width value: one struct code in bytes, ``bits`` bits packed.

    ``to_wire`` coerces a header value to what the struct code packs;
    unpacking gives the header value back.  The bit form is the low
    ``bits`` bits of the canonical bytes read as a big-endian integer —
    an unsigned int is itself, a float its IEEE-754 pattern, a bool the
    one bit of information the paper's FRAG example carries.
    """

    def __init__(self, code: str, bits: int, to_wire: Callable[[Any], Any]) -> None:
        packer = struct.Struct(">" + code)
        self._pack = packer.pack
        self._unpack_from = packer.unpack_from
        self.code = code
        self.bits = bits
        self.to_wire = to_wire
        self.fixed_byte_size = packer.size
        #: Unsigned integers are the scalars ``table`` re-codes (varints).
        self.unsigned = to_wire is int

    def encode(self, value: Any, out: bytearray) -> None:
        out += self._pack(self.to_wire(value))

    def decode(self, data: bytes, offset: int) -> Tuple[Any, int]:
        (value,) = self._unpack_from(data, offset)
        return value, offset + self.fixed_byte_size

    def byte_size(self, value: Any) -> int:
        return self.fixed_byte_size

    def bit_size(self, value: Any) -> int:
        return self.bits

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        raw = self._pack(self.to_wire(value))
        writer.write(int.from_bytes(raw, "big"), self.bits)

    def decode_bits(self, reader: BitReader) -> Any:
        raw = reader.read(self.bits).to_bytes(self.fixed_byte_size, "big")
        return self.decode(raw, 0)[0]


class Bytes(FieldType):
    """A length-prefixed byte string, and any value that converts to one.

    ``prefix`` is the struct code of the length (its width in bits is
    the packed form's length field too); ``to_bytes`` / ``from_bytes``
    convert between the header value and the bytes on the wire.
    """

    def __init__(
        self,
        prefix: str,
        to_bytes: Callable[[Any], bytes],
        from_bytes: Callable[[bytes], Any],
    ) -> None:
        packer = struct.Struct(">" + prefix)
        self._pack_len = packer.pack
        self._unpack_len = packer.unpack_from
        self._len_size = packer.size
        self._to_bytes = to_bytes
        self._from_bytes = from_bytes

    def encode(self, value: Any, out: bytearray) -> None:
        data = self._to_bytes(value)
        out += self._pack_len(len(data))
        out += data

    def decode(self, data: bytes, offset: int) -> Tuple[Any, int]:
        (length,) = self._unpack_len(data, offset)
        offset += self._len_size
        end = offset + length
        if end > len(data):
            raise HeaderError("truncated length-prefixed field")
        return self._from_bytes(data[offset:end]), end

    def byte_size(self, value: Any) -> int:
        return self._len_size + len(self._to_bytes(value))

    def bit_size(self, value: Any) -> int:
        return 8 * self.byte_size(value)

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        data = self._to_bytes(value)
        writer.write(len(data), 8 * self._len_size)
        writer.write_bytes(data)

    def decode_bits(self, reader: BitReader) -> Any:
        length = reader.read(8 * self._len_size)
        return self._from_bytes(reader.read_bytes(length))


class ListOf(FieldType):
    """A length-prefixed homogeneous list of another field type."""

    def __init__(self, element: FieldType):
        self.element = element
        inner = element.copy_value
        self.copy_value = list if inner is None else (
            lambda value: [inner(item) for item in value])

    def encode(self, value: Any, out: bytearray) -> None:
        items = list(value)
        out += _COUNT.pack(len(items))
        for item in items:
            self.element.encode(item, out)

    def decode(self, data: bytes, offset: int) -> Tuple[List[Any], int]:
        (count,) = _COUNT.unpack_from(data, offset)
        offset += _COUNT.size
        items: List[Any] = []
        for _ in range(count):
            item, offset = self.element.decode(data, offset)
            items.append(item)
        return items, offset

    def byte_size(self, value: Any) -> int:
        return 2 + sum(self.element.byte_size(item) for item in value)

    def bit_size(self, value: Any) -> int:
        return 16 + sum(self.element.bit_size(item) for item in value)

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        items = list(value)
        writer.write(len(items), 16)
        for item in items:
            self.element.encode_bits(item, writer)

    def decode_bits(self, reader: BitReader) -> List[Any]:
        count = reader.read(16)
        return [self.element.decode_bits(reader) for _ in range(count)]


def _sorted_items(value: Dict[Any, Any]) -> List[Tuple[Any, Any]]:
    """A map's entries in their one wire order (by key ``repr``)."""
    return sorted(value.items(), key=lambda kv: repr(kv[0]))


class MapOf(FieldType):
    """A length-prefixed map with typed keys and values."""

    def __init__(self, key: FieldType, value: FieldType):
        self.key = key
        self.value = value
        inner = value.copy_value  # keys are hashable: nothing to copy
        self.copy_value = dict if inner is None else (
            lambda value: {k: inner(v) for k, v in value.items()})

    def encode(self, value: Any, out: bytearray) -> None:
        items = _sorted_items(value)
        out += _COUNT.pack(len(items))
        for k, v in items:
            self.key.encode(k, out)
            self.value.encode(v, out)

    def decode(self, data: bytes, offset: int) -> Tuple[Dict[Any, Any], int]:
        (count,) = _COUNT.unpack_from(data, offset)
        offset += _COUNT.size
        result: Dict[Any, Any] = {}
        for _ in range(count):
            k, offset = self.key.decode(data, offset)
            result[k], offset = self.value.decode(data, offset)
        return result, offset

    def byte_size(self, value: Any) -> int:
        return 2 + sum(
            self.key.byte_size(k) + self.value.byte_size(v)
            for k, v in value.items()
        )

    def bit_size(self, value: Any) -> int:
        return 16 + sum(
            self.key.bit_size(k) + self.value.bit_size(v) for k, v in value.items()
        )

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        items = _sorted_items(value)
        writer.write(len(items), 16)
        for k, v in items:
            self.key.encode_bits(k, writer)
            self.value.encode_bits(v, writer)

    def decode_bits(self, reader: BitReader) -> Dict[Any, Any]:
        count = reader.read(16)
        result: Dict[Any, Any] = {}
        for _ in range(count):
            k = self.key.decode_bits(reader)
            result[k] = self.value.decode_bits(reader)
        return result


#: Shared singleton field types, used declaratively by layer modules.
U8 = Scalar("B", 8, int)
U16 = Scalar("H", 16, int)
U32 = Scalar("I", 32, int)
U64 = Scalar("Q", 64, int)
BOOL = Scalar("?", 1, bool)  # any non-zero byte reads as True
F64 = Scalar("d", 64, float)
BYTES8 = Scalar("8s", 64, bytes)  # exactly eight bytes (SIGN's truncated MAC)
VARBYTES = Bytes("I", bytes, bytes)
TEXT = Bytes("H", lambda value: str(value).encode("utf-8"),
             lambda raw: str(raw, "utf-8"))
ADDRESS = Bytes("B", EndpointAddress.marshal, EndpointAddress.unmarshal)
GROUP = Bytes("B", GroupAddress.marshal, GroupAddress.unmarshal)

FieldSpec = Tuple[str, FieldType]


# ----------------------------------------------------------------------
# Per-layer codec: the canonical form
# ----------------------------------------------------------------------


class CanonicalCodec:
    """Declarative codec for one layer's header.

    ``fields`` is an ordered list of ``(name, field_type)`` pairs, with
    optional per-field defaults in ``defaults``.  Encoding a header dict
    writes every declared field (missing ones take their default);
    decoding always yields the full dict.

    A ``sealed`` codec is an integrity layer's (the module docstring
    says what marshal does with it): one fixed-width field, which a
    header on its way down fills with a seal hook, ``hook(head, tail)``
    returning the field's bytes.
    """

    def __init__(
        self,
        layer: str,
        fields: Sequence[FieldSpec],
        defaults: Optional[Dict[str, Any]] = None,
        sealed: bool = False,
    ) -> None:
        self.layer = layer
        self.fields = list(fields)
        #: The field a seal hook fills (None: not sealed), and the zeros
        #: marshal writes there until the hook's value is known.
        self.seal_field: Optional[str] = None
        self.seal_placeholder = b""
        if sealed:
            width = len(self.fields) == 1 and self.fields[0][1].fixed_byte_size
            if not width:
                raise HeaderError(
                    f"{layer}: a sealed codec has one fixed-width field"
                )
            self.seal_field = self.fields[0][0]
            self.seal_placeholder = bytes(width)
        self.defaults = dict(defaults or {})
        # Precomputed split for wire_size: fixed-width fields contribute
        # a constant; only length-prefixed ones need the value.
        self._fixed_wire = sum(t.fixed_byte_size or 0 for _, t in self.fields)
        self._var_fields = [f for f in self.fields if f[1].fixed_byte_size is None]
        #: The fields :meth:`private_copy` must copy, with their copiers.
        self._containers = [
            (name, t.copy_value) for name, t in self.fields if t.copy_value
        ]
        self._plan = self._build_plan()

    def _build_plan(self) -> List[Tuple[Any, ...]]:
        """Compile the field list into an encode/decode plan.

        Consecutive scalars collapse into one precompiled
        :class:`struct.Struct` so a run is packed and unpacked in a
        single C call; everything else stays a per-field step.  Wire
        bytes are identical to the per-field path.
        """
        plan: List[Tuple[Any, ...]] = []
        for scalars, run in groupby(self.fields, lambda f: type(f[1]) is Scalar):
            if not scalars:
                plan.extend(("field", name, ftype) for name, ftype in run)
                continue
            names, kinds = zip(*run)
            packer = struct.Struct(">" + "".join(k.code for k in kinds))
            plan.append(("struct", packer, names, tuple(k.to_wire for k in kinds)))
        return plan

    def sealer(self, header: Header) -> Optional[Callable[[Any, Any], bytes]]:
        """The seal hook a header of this sealed codec carries, or None.

        A header whose field holds a value instead (one forwarded as it
        arrived) is written with that value, like any other header.
        """
        hook = header.get(self.seal_field)
        return hook if callable(hook) else None

    def value(self, header: Header, name: str) -> Any:
        """``header[name]``, else the field's default, else HeaderError."""
        if name in header:
            return header[name]
        if name in self.defaults:
            return self.defaults[name]
        raise HeaderError(f"{self.layer}: missing header field {name!r}")

    def encode(self, header: Header) -> bytes:
        """Encode ``header`` to exact (unpadded) bytes."""
        out = bytearray()
        for step in self._plan:
            if step[0] == "struct":
                _, packer, names, encs = step
                try:
                    out += packer.pack(
                        *[enc(self.value(header, name))
                          for name, enc in zip(names, encs)]
                    )
                except HeaderError:
                    raise  # a missing field: already attributed
                except Exception:
                    self._encode_run_slow(header, names, out)
            else:
                _, name, ftype = step
                value = self.value(header, name)
                try:
                    ftype.encode(value, out)
                except Exception as exc:
                    reraise(exc, f"{self.layer}: cannot encode field "
                                 f"{name!r}={value!r}")
        return bytes(out)

    def _encode_run_slow(
        self, header: Header, names: Sequence[str], out: bytearray
    ) -> None:
        """Re-run a failed struct run field-at-a-time to attribute the error."""
        by_name = dict(self.fields)
        for name in names:
            value = self.value(header, name)
            try:
                by_name[name].encode(value, out)
            except Exception as exc:
                reraise(exc, f"{self.layer}: cannot encode field "
                             f"{name!r}={value!r}")

    def decode(self, data: bytes) -> Header:
        """Decode bytes produced by :meth:`encode` back into a dict.

        Bytes after the last field raise :class:`HeaderError` (the lazy
        spans of ``wire`` say why).
        """
        header: Header = {}
        offset = 0
        for step in self._plan:
            if step[0] == "struct":
                _, packer, names, _ = step
                try:
                    values = packer.unpack_from(data, offset)
                except Exception as exc:
                    reraise(exc, f"{self.layer}: cannot decode fields {names}")
                offset += packer.size
                header.update(zip(names, values))
            else:
                _, name, ftype = step
                try:
                    header[name], offset = ftype.decode(data, offset)
                except Exception as exc:
                    reraise(exc, f"{self.layer}: cannot decode field {name!r}")
        if offset != len(data):
            raise HeaderError(
                f"{self.layer}: {len(data) - offset} bytes after the last field"
            )
        return header

    def private_copy(self, header: Header) -> Header:
        """A copy of a decoded ``header`` sharing nothing mutable with it.

        The dict and each list or map field are copied; every other
        value a field kind decodes to is immutable.
        """
        clone = header.copy()
        for name, copy in self._containers:
            clone[name] = copy(clone[name])
        return clone

    def bit_size(self, header: Header) -> int:
        """Bits this header would need in a packed single-header layout."""
        return sum(
            ftype.bit_size(header.get(name, self.defaults.get(name)))
            for name, ftype in self.fields
        )

    def wire_size(self, header: Header) -> int:
        """Exact :meth:`encode` output size in bytes, without encoding."""
        total = self._fixed_wire
        for name, ftype in self._var_fields:
            total += ftype.byte_size(self.value(header, name))
        return total


# ----------------------------------------------------------------------
# The seam the wire modes plug into
# ----------------------------------------------------------------------


class WireFormat:
    """One wire mode: the layout of a header stack inside a datagram.

    Every datagram is the preamble (magic, mode byte, header count), the
    mode's header section, the body's length and the body.  The registry
    writes and checks the first and the last two, and finds the format
    for the middle in its mode table — by :attr:`name` on the way down,
    by :attr:`mode_byte` on the way up.  A format is two methods, which
    raise :class:`HeaderError` and nothing else (:func:`reraise`):

    ``write_headers(out, headers, by_name, channel)`` appends the header
    section for ``headers`` — ``(owner, dict)`` pairs, bottom first — to
    the bytearray ``out``.  ``by_name`` maps an owner to ``(wire id,
    codec)``; ``channel`` is the sender's per-channel state, for the
    modes that keep any.  It returns the seals to apply, in wire order:
    ``(offset, hook)`` per sealed header carrying a hook, where
    ``offset`` is that of the placeholder it wrote into ``out``, at a
    byte boundary.

    ``read_headers(data, offset, count, by_id, message, lazy, tables)``
    pushes the ``count`` headers at ``data[offset:]`` onto ``message``
    and returns the offset of the body frame.  ``by_id`` maps a wire id
    to its codec (both directories raise for a miss, :class:`Lookup`);
    ``lazy`` permits deferring value decode, for the modes that can; a
    sealed header is always pushed as a :class:`SealedHeader`, its tail
    the body frame's offset on, and without ``lazy`` its value is
    decoded once to be checked.  ``tables`` is the receiver's
    per-channel state.
    """

    #: Whether what ``read_headers`` pushes with ``lazy`` is a function
    #: of the datagram's bytes alone and safe in several hands at once —
    #: the condition for keeping it in a :class:`HeaderFrameStore`.
    #: Decoded dicts are their owner's to change and ``table`` fields read
    #: the receiver's own tables, so only the span modes say yes.
    receiver_independent = False

    def __init__(self, name: str, mode_byte: int) -> None:
        self.name = name
        self.mode_byte = mode_byte


# ----------------------------------------------------------------------
# The covered bytes, as they arrived
# ----------------------------------------------------------------------


class SealedHeader:
    """A sealed header as it arrived: its value and the spans it covers.

    The wire modes push one for every header of a sealed codec, lazy or
    not: ``span`` is the value's bytes, ``head`` a view of every byte of
    the datagram ahead of them and ``tail`` a view of the body frame to
    the datagram's end (set once the header section is read).  The integrity layer compares ``span`` with its hook over
    ``head`` and ``tail`` — nothing is decoded or re-encoded — and a pop
    decodes ``span`` like any lazy header.  Every field is fixed once
    unmarshal returns, so the entry may be in many hands (message
    copies, a :class:`~repro.core.headers.HeaderFrameStore`); the check
    is each receiver's own.
    """

    __slots__ = ("codec", "span", "head", "tail")

    def __init__(self, codec: CanonicalCodec, span: bytes, head: Any) -> None:
        self.codec = codec
        self.span = span
        self.head = head
        self.tail: Any = None

    def materialize(self) -> Header:
        return self.codec.decode(bytes(self.span))
