"""Header codecs and the wire format.

Inside a process, headers are plain dictionaries pushed and popped on the
:class:`~repro.core.message.Message` header stack with no serialization
cost.  Only at the wire boundary (the COM layer) is a message marshalled
to bytes and back.

Section 10 of the paper identifies header handling as an overhead
source: "Layers push their own header onto the message.  For
convenience, this header is aligned to a word boundary.  This leads to
a considerable overhead of unused bits" — and proposes precomputing "a
single header in which the necessary fields are compacted".  We
implement both strategies so the trade-off can be measured:

* ``aligned`` — each header is encoded independently and padded to a
  32-bit boundary (the paper's production scheme).
* ``compact`` — headers are concatenated with no padding.
* ``packed`` — one bit-compacted header block (the Section 10 proposal
  made executable; :func:`packed_bit_size` is its analytic size).
* ``table`` — pay only for the fields you use: each header is a
  presence-coded row (a bitmap of the fields that differ from their
  defaults, then only those, ints as varints), and a per-channel
  HPACK-style dynamic table turns repetitive per-flow values (sender
  and group addresses) into one-byte references.

Receive-side cost is bounded by *lazy unmarshalling*: for ``aligned``
and ``compact`` :meth:`HeaderRegistry.unmarshal` can validate the
datagram's structure once and push lazy ``(codec, span)`` entries onto
the message, decoding a header only when its owning layer pops or peeks
it; the integrity layers cover the spans as they arrived
(:func:`content_chunks`).  ``table`` rows are a few bytes each and
decode in place in the unmarshal pass.  In all three the body can be
shared as a ``memoryview`` slice instead of a copied ``bytes``.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.message import Header, Message
from repro.errors import HeaderError
from repro.net.address import EndpointAddress, GroupAddress

# ----------------------------------------------------------------------
# Bit-level IO (the Section 10 "compacted single header" proposal)
# ----------------------------------------------------------------------


class BitWriter:
    """Accumulates values MSB-first into a byte stream."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, bits: int) -> None:
        """Append the low ``bits`` bits of ``value``."""
        if value < 0 or (bits < 64 and value >> bits):
            raise HeaderError(f"value {value} does not fit in {bits} bits")
        self._acc = (self._acc << bits) | value
        self._nbits += bits
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def write_bytes(self, data: bytes) -> None:
        """Append raw bytes (bit-aligned, not byte-aligned)."""
        if self._nbits == 0:
            # Cursor on a byte boundary: one bulk extend instead of a
            # shift-and-mask loop per byte.
            self._out += data
            return
        for byte in data:
            self.write(byte, 8)

    def getvalue(self) -> bytes:
        """Finish: pad the tail to a byte boundary and return the stream."""
        if self._nbits:
            pad = 8 - self._nbits
            self.write(0, pad)
        return bytes(self._out)

    @property
    def bit_length(self) -> int:
        """Bits written so far (before final padding)."""
        return len(self._out) * 8 + self._nbits


class BitReader:
    """Reads values MSB-first from a byte stream."""

    def __init__(self, data: bytes, offset_bits: int = 0) -> None:
        self._data = data
        self._pos = offset_bits

    def read(self, bits: int) -> int:
        """Consume and return ``bits`` bits as an unsigned integer."""
        end = self._pos + bits
        if end > len(self._data) * 8:
            raise HeaderError("bit stream exhausted")
        value = 0
        pos = self._pos
        remaining = bits
        while remaining:
            byte = self._data[pos // 8]
            avail = 8 - (pos % 8)
            take = min(avail, remaining)
            shift = avail - take
            chunk = (byte >> shift) & ((1 << take) - 1)
            value = (value << take) | chunk
            pos += take
            remaining -= take
        self._pos = pos
        return value

    def read_bytes(self, count: int) -> bytes:
        """Consume ``count`` bytes (bit-aligned)."""
        if count <= 0:
            return b""
        if self._pos % 8 == 0:
            # Cursor on a byte boundary: bulk-slice the backing buffer.
            start = self._pos // 8
            end = start + count
            if end > len(self._data):
                raise HeaderError("bit stream exhausted")
            self._pos += count * 8
            return bytes(self._data[start:end])
        return bytes(self.read(8) for _ in range(count))

    @property
    def position_bits(self) -> int:
        """Current read position in bits."""
        return self._pos


# ----------------------------------------------------------------------
# Field types
# ----------------------------------------------------------------------


class FieldType:
    """Encodes/decodes one header field and knows its ideal bit width."""

    #: Encoded size in bytes when it does not depend on the value
    #: (``None`` for length-prefixed types).  Lets codecs precompute the
    #: fixed part of a header's wire size.
    fixed_byte_size: Optional[int] = None

    def encode(self, value: Any, out: bytearray) -> None:
        raise NotImplementedError

    def decode(self, data: bytes, offset: int) -> Tuple[Any, int]:
        raise NotImplementedError

    def bit_size(self, value: Any) -> int:
        """Minimum bits this value needs in a bit-packed header."""
        raise NotImplementedError

    def byte_size(self, value: Any) -> int:
        """Exact :meth:`encode` output size, without building the bytes.

        The default really encodes; fixed- and length-prefixed types
        override with arithmetic so size queries (the observability
        plane's header accounting) stay off the allocation path.
        """
        out = bytearray()
        self.encode(value, out)
        return len(out)

    # Bit-packed forms; the default round-trips through the byte codec
    # so every field type works in packed mode even before it has a
    # hand-tuned bit layout.
    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        buffer = bytearray()
        self.encode(value, buffer)
        writer.write(len(buffer), 16)
        writer.write_bytes(bytes(buffer))

    def decode_bits(self, reader: BitReader) -> Any:
        length = reader.read(16)
        value, _ = self.decode(reader.read_bytes(length), 0)
        return value


class _UInt(FieldType):
    def __init__(self, fmt: str, bits: int):
        self._fmt = ">" + fmt
        self._bits = bits
        self._size = struct.calcsize(self._fmt)
        self.fixed_byte_size = self._size

    def encode(self, value: Any, out: bytearray) -> None:
        out += struct.pack(self._fmt, int(value))

    def decode(self, data: bytes, offset: int) -> Tuple[int, int]:
        (value,) = struct.unpack_from(self._fmt, data, offset)
        return value, offset + self._size

    def bit_size(self, value: Any) -> int:
        return self._bits

    def byte_size(self, value: Any) -> int:
        return self._size

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        writer.write(int(value), self._bits)

    def decode_bits(self, reader: BitReader) -> int:
        return reader.read(self._bits)


class _Bool(FieldType):
    fixed_byte_size = 1

    def encode(self, value: Any, out: bytearray) -> None:
        out.append(1 if value else 0)

    def decode(self, data: bytes, offset: int) -> Tuple[bool, int]:
        if offset >= len(data):
            raise HeaderError("truncated bool field")
        return bool(data[offset]), offset + 1

    def bit_size(self, value: Any) -> int:
        return 1  # the paper's FRAG example: one bit of real information

    def byte_size(self, value: Any) -> int:
        return 1

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        writer.write(1 if value else 0, 1)

    def decode_bits(self, reader: BitReader) -> bool:
        return bool(reader.read(1))


class _Float(FieldType):
    fixed_byte_size = 8

    def encode(self, value: Any, out: bytearray) -> None:
        out += struct.pack(">d", float(value))

    def decode(self, data: bytes, offset: int) -> Tuple[float, int]:
        (value,) = struct.unpack_from(">d", data, offset)
        return value, offset + 8

    def bit_size(self, value: Any) -> int:
        return 64

    def byte_size(self, value: Any) -> int:
        return 8

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        (as_int,) = struct.unpack(">Q", struct.pack(">d", float(value)))
        writer.write(as_int, 64)

    def decode_bits(self, reader: BitReader) -> float:
        (value,) = struct.unpack(">d", struct.pack(">Q", reader.read(64)))
        return value


class _VarBytes(FieldType):
    def encode(self, value: Any, out: bytearray) -> None:
        data = bytes(value)
        out += struct.pack(">I", len(data))
        out += data

    def decode(self, data: bytes, offset: int) -> Tuple[bytes, int]:
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        end = offset + length
        if end > len(data):
            raise HeaderError("truncated bytes field")
        return data[offset:end], end

    def bit_size(self, value: Any) -> int:
        return 32 + 8 * len(bytes(value))

    def byte_size(self, value: Any) -> int:
        return 4 + len(bytes(value))

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        data = bytes(value)
        writer.write(len(data), 32)
        writer.write_bytes(data)

    def decode_bits(self, reader: BitReader) -> bytes:
        return reader.read_bytes(reader.read(32))


class _Text(FieldType):
    def encode(self, value: Any, out: bytearray) -> None:
        data = str(value).encode("utf-8")
        out += struct.pack(">H", len(data))
        out += data

    def decode(self, data: bytes, offset: int) -> Tuple[str, int]:
        (length,) = struct.unpack_from(">H", data, offset)
        offset += 2
        end = offset + length
        if end > len(data):
            raise HeaderError("truncated text field")
        return data[offset:end].decode("utf-8"), end

    def bit_size(self, value: Any) -> int:
        return 16 + 8 * len(str(value).encode("utf-8"))

    def byte_size(self, value: Any) -> int:
        return 2 + len(str(value).encode("utf-8"))

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        data = str(value).encode("utf-8")
        writer.write(len(data), 16)
        writer.write_bytes(data)

    def decode_bits(self, reader: BitReader) -> str:
        return reader.read_bytes(reader.read(16)).decode("utf-8")


class _Address(FieldType):
    def encode(self, value: Any, out: bytearray) -> None:
        data = value.marshal()
        out.append(len(data))
        out += data

    def decode(self, data: bytes, offset: int) -> Tuple[EndpointAddress, int]:
        if offset >= len(data):
            raise HeaderError("truncated address field")
        length = data[offset]
        offset += 1
        end = offset + length
        if end > len(data):
            raise HeaderError("truncated address field")
        return EndpointAddress.unmarshal(data[offset:end]), end

    def bit_size(self, value: Any) -> int:
        return 8 + 8 * len(value.marshal())

    def byte_size(self, value: Any) -> int:
        return 1 + len(value.marshal())

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        data = value.marshal()
        writer.write(len(data), 8)
        writer.write_bytes(data)

    def decode_bits(self, reader: BitReader) -> "EndpointAddress":
        return EndpointAddress.unmarshal(reader.read_bytes(reader.read(8)))


class _Group(FieldType):
    def encode(self, value: Any, out: bytearray) -> None:
        data = value.marshal()
        out.append(len(data))
        out += data

    def decode(self, data: bytes, offset: int) -> Tuple[GroupAddress, int]:
        if offset >= len(data):
            raise HeaderError("truncated group field")
        length = data[offset]
        offset += 1
        end = offset + length
        if end > len(data):
            raise HeaderError("truncated group field")
        return GroupAddress.unmarshal(data[offset:end]), end

    def bit_size(self, value: Any) -> int:
        return 8 + 8 * len(value.marshal())

    def byte_size(self, value: Any) -> int:
        return 1 + len(value.marshal())

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        data = value.marshal()
        writer.write(len(data), 8)
        writer.write_bytes(data)

    def decode_bits(self, reader: BitReader) -> "GroupAddress":
        return GroupAddress.unmarshal(reader.read_bytes(reader.read(8)))


class ListOf(FieldType):
    """A length-prefixed homogeneous list of another field type."""

    def __init__(self, element: FieldType):
        self.element = element

    def encode(self, value: Any, out: bytearray) -> None:
        items = list(value)
        out += struct.pack(">H", len(items))
        for item in items:
            self.element.encode(item, out)

    def decode(self, data: bytes, offset: int) -> Tuple[List[Any], int]:
        (count,) = struct.unpack_from(">H", data, offset)
        offset += 2
        items: List[Any] = []
        for _ in range(count):
            item, offset = self.element.decode(data, offset)
            items.append(item)
        return items, offset

    def bit_size(self, value: Any) -> int:
        return 16 + sum(self.element.bit_size(item) for item in value)

    def byte_size(self, value: Any) -> int:
        return 2 + sum(self.element.byte_size(item) for item in value)

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        items = list(value)
        writer.write(len(items), 16)
        for item in items:
            self.element.encode_bits(item, writer)

    def decode_bits(self, reader: BitReader) -> List[Any]:
        count = reader.read(16)
        return [self.element.decode_bits(reader) for _ in range(count)]


class MapOf(FieldType):
    """A length-prefixed map with typed keys and values."""

    def __init__(self, key: FieldType, value: FieldType):
        self.key = key
        self.value = value

    def encode(self, value: Any, out: bytearray) -> None:
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        out += struct.pack(">H", len(items))
        for k, v in items:
            self.key.encode(k, out)
            self.value.encode(v, out)

    def decode(self, data: bytes, offset: int) -> Tuple[Dict[Any, Any], int]:
        (count,) = struct.unpack_from(">H", data, offset)
        offset += 2
        result: Dict[Any, Any] = {}
        for _ in range(count):
            k, offset = self.key.decode(data, offset)
            v, offset = self.value.decode(data, offset)
            result[k] = v
        return result, offset

    def bit_size(self, value: Any) -> int:
        return 16 + sum(
            self.key.bit_size(k) + self.value.bit_size(v) for k, v in value.items()
        )

    def byte_size(self, value: Any) -> int:
        return 2 + sum(
            self.key.byte_size(k) + self.value.byte_size(v)
            for k, v in value.items()
        )

    def encode_bits(self, value: Any, writer: BitWriter) -> None:
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
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
U8 = _UInt("B", 8)
U16 = _UInt("H", 16)
U32 = _UInt("I", 32)
U64 = _UInt("Q", 64)
BOOL = _Bool()
F64 = _Float()
VARBYTES = _VarBytes()
TEXT = _Text()
ADDRESS = _Address()
GROUP = _Group()

FieldSpec = Tuple[str, FieldType]


def _bool_to_byte(value: Any) -> int:
    return 1 if value else 0


# ----------------------------------------------------------------------
# Per-layer codec
# ----------------------------------------------------------------------


class HeaderCodec:
    """Declarative codec for one layer's header.

    ``fields`` is an ordered list of ``(name, field_type)`` pairs, with
    optional per-field defaults in ``defaults``.  Encoding a header dict
    writes every declared field (missing ones take their default);
    decoding always yields the full dict.
    """

    def __init__(
        self,
        layer: str,
        fields: Sequence[FieldSpec],
        defaults: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.layer = layer
        owner = layer.encode("utf-8")
        #: The owner name as the integrity layers frame it (content_chunks).
        self.owner_frame = struct.pack(">H", len(owner)) + owner
        self.fields = list(fields)
        self.defaults = dict(defaults or {})
        # Precomputed split for wire_size: fixed-width fields contribute
        # a constant; only length-prefixed ones need the value.
        self._fixed_wire = 0
        self._var_fields: List[FieldSpec] = []
        for name, ftype in self.fields:
            fixed = ftype.fixed_byte_size
            if fixed is not None:
                self._fixed_wire += fixed
            else:
                self._var_fields.append((name, ftype))
        self._plan = self._build_plan()
        # Table-mode row decode: every field at its default (None where
        # there is none) in declaration order, and the per-bitmap plans.
        self._row_base: Header = {
            name: self.defaults.get(name) for name, _ in self.fields
        }
        self._row_plans: Dict[int, Tuple[Any, ...]] = {}

    def _build_plan(self) -> List[Tuple[Any, ...]]:
        """Compile the field list into an encode/decode plan.

        Consecutive fixed-width fields (unsigned ints, bools, floats)
        collapse into one precompiled :class:`struct.Struct` so a run is
        packed and unpacked in a single C call; everything else stays a
        per-field step.  Wire bytes are identical to the per-field path.
        """
        plan: List[Tuple[Any, ...]] = []
        run: List[Tuple[str, Optional[Callable], Optional[Callable]]] = []
        run_fmt = ""

        def flush_run() -> None:
            nonlocal run, run_fmt
            if not run:
                return
            packer = struct.Struct(">" + run_fmt)
            names = tuple(n for n, _, _ in run)
            encs = tuple(e for _, e, _ in run)
            decs = tuple(d for _, _, d in run)
            plan.append(("struct", packer, names, encs, decs))
            run = []
            run_fmt = ""

        for name, ftype in self.fields:
            kind = type(ftype)
            if kind is _UInt:
                run.append((name, int, None))
                run_fmt += ftype._fmt[1]
            elif kind is _Bool:
                run.append((name, _bool_to_byte, bool))
                run_fmt += "B"
            elif kind is _Float:
                run.append((name, float, None))
                run_fmt += "d"
            else:
                flush_run()
                plan.append(("field", name, ftype))
        flush_run()
        return plan

    def _value(self, header: Header, name: str) -> Any:
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
                _, packer, names, encs, _ = step
                try:
                    out += packer.pack(
                        *[enc(self._value(header, name))
                          for name, enc in zip(names, encs)]
                    )
                except HeaderError:
                    raise
                except Exception:
                    # Re-run field-at-a-time to attribute the error.
                    self._encode_run_slow(header, names, out)
            else:
                _, name, ftype = step
                value = self._value(header, name)
                try:
                    ftype.encode(value, out)
                except HeaderError:
                    raise
                except Exception as exc:
                    raise HeaderError(
                        f"{self.layer}: cannot encode field "
                        f"{name!r}={value!r}: {exc}"
                    ) from exc
        return bytes(out)

    def _encode_run_slow(
        self, header: Header, names: Sequence[str], out: bytearray
    ) -> None:
        """Per-field fallback for a failed struct run: precise errors."""
        by_name = dict(self.fields)
        for name in names:
            value = self._value(header, name)
            try:
                by_name[name].encode(value, out)
            except HeaderError:
                raise
            except Exception as exc:
                raise HeaderError(
                    f"{self.layer}: cannot encode field {name!r}={value!r}: {exc}"
                ) from exc

    def decode(self, data: bytes, exact: bool = False) -> Header:
        """Decode bytes produced by :meth:`encode` back into a dict.

        Bytes after the last field are ignored, or with ``exact`` raise
        :class:`HeaderError` (see :class:`_LazyHeader`).
        """
        header: Header = {}
        offset = 0
        for step in self._plan:
            if step[0] == "struct":
                _, packer, names, _, decs = step
                try:
                    values = packer.unpack_from(data, offset)
                except Exception as exc:
                    raise HeaderError(
                        f"{self.layer}: cannot decode fields {names}: {exc}"
                    ) from exc
                offset += packer.size
                for name, dec, value in zip(names, decs, values):
                    header[name] = dec(value) if dec is not None else value
            else:
                _, name, ftype = step
                try:
                    header[name], offset = ftype.decode(data, offset)
                except HeaderError:
                    raise
                except Exception as exc:
                    raise HeaderError(
                        f"{self.layer}: cannot decode field {name!r}: {exc}"
                    ) from exc
        if exact and offset != len(data):
            raise HeaderError(
                f"{self.layer}: {len(data) - offset} bytes after the last field"
            )
        return header

    def encode_table(self, header: Header, channel: "HeaderChannelEncoder") -> bytes:
        """Encode ``header`` as a presence-coded row for ``channel``.

        The row is one LEB128 bitmap — bit *i* set when declared field
        *i* differs from the codec default — then only those fields,
        typed by the codec: unsigned ints as bare varints; addresses,
        groups, text and bytes as a varint reference into the channel
        table (``0``: the table is full, the canonical encoding
        follows); everything else canonical.

        A header with the same keys as the last one this layer sent on
        the channel takes the *template* path: non-int fields must equal
        their cached values and replay their byte spans and table
        touches, and only the ints re-encode.
        """
        template = channel._templates.get(self.layer)
        if template is not None:
            blob = self._encode_from_template(header, channel, template)
            if blob is not None:
                return blob
        out = bytearray()
        bitmap = 0
        segments = []
        touches = []
        defaults = self.defaults
        for bit, (name, ftype) in enumerate(self.fields):
            dflt = defaults.get(name, _REQUIRED)
            value = header.get(name, dflt)
            if value is _REQUIRED:
                raise HeaderError(f"{self.layer}: missing header field {name!r}")
            present = dflt is _REQUIRED or value != dflt
            start = len(out)
            idx = None
            if present:
                bitmap |= 1 << bit
                try:
                    idx = self._encode_row_field(name, ftype, value, channel, out)
                except HeaderError:
                    raise
                except Exception as exc:
                    raise HeaderError(
                        f"{self.layer}: cannot encode field "
                        f"{name!r}={value!r}: {exc}"
                    ) from exc
            if name not in header:
                continue
            if type(ftype) is _UInt:
                segments.append((True, name, dflt, present, 1 << ftype._bits))
            else:
                if type(value) in (list, dict):
                    value = value.copy()  # the caller may reuse its container
                segments.append((False, name, value, bytes(out[start:])))
                if idx is not None:
                    touches.append(idx)
        prefix = bytearray()
        _write_uvarint(prefix, bitmap)
        if len(segments) == len(header):
            # (A header with keys the codec does not declare would make
            # the template's equal-length-means-equal-keys test unsound;
            # it takes this walk every time.)
            channel._templates[self.layer] = (
                bytes(prefix), tuple(segments), tuple(touches))
        return bytes(prefix + out)

    def _encode_from_template(
        self, header: Header, channel: "HeaderChannelEncoder", template
    ) -> Optional[bytes]:
        """Re-encode against the cached template; None means bail.

        Bytes and table touches are identical to the full walk's.  Any
        surprise — different keys, a changed address, an int that
        crossed its default or is not a plain in-range int — falls back
        to the full walk, which raises or re-caches.
        """
        prefix, segments, touches = template
        if len(header) != len(segments):
            return None
        out = bytearray(prefix)
        append = out.append
        get = header.get
        for seg in segments:
            if seg[0]:
                _, name, dflt, present, limit = seg
                number = get(name, _REQUIRED)
                if (type(number) is not int or not 0 <= number < limit
                        or (number != dflt) is not present):
                    return None
                if not present:
                    continue
                if number < 0x80:
                    append(number)
                elif number < 0x4000:
                    append((number & 0x7F) | 0x80)
                    append(number >> 7)
                else:
                    _write_uvarint(out, number)
            else:
                _, name, value, span = seg
                if get(name, _REQUIRED) != value:
                    return None
                out += span
        # Only now that nothing can bail: the full walk would count them again.
        for idx in touches:
            channel.touch(idx)
        return bytes(out)

    def _encode_row_field(
        self,
        name: str,
        ftype: FieldType,
        value: Any,
        channel: "HeaderChannelEncoder",
        out: bytearray,
    ) -> Optional[int]:
        """Append one present field; returns the table entry it references."""
        kind = type(ftype)
        if kind is _UInt:
            number = int(value)
            if number < 0 or number >> ftype._bits:
                raise HeaderError(
                    f"{self.layer}: {number} does not fit unsigned field {name!r}"
                )
            _write_uvarint(out, number)
            return None
        if kind in _TABLE_KINDS:
            raw = bytearray()
            ftype.encode(value, raw)
            idx = channel.intern(bytes(raw))
            if idx is not None:
                _write_uvarint(out, idx + 1)
                return idx
            out.append(0)
            out += raw
            return None
        ftype.encode(value, out)
        return None

    def _row_plan(self, bitmap: int) -> Tuple[Any, ...]:
        """Decode plan for one presence bitmap, validated and cached.

        ``(steps, fresh)``: the present fields as ``(name, code, ftype)``
        and the absent fields whose default is a list or map, which every
        decoded header must own a copy of.
        """
        if bitmap >> len(self.fields):
            raise HeaderError(
                f"{self.layer}: presence bit beyond the {len(self.fields)} "
                f"declared fields"
            )
        steps = []
        fresh = []
        for bit, (name, ftype) in enumerate(self.fields):
            if bitmap >> bit & 1:
                kind = type(ftype)
                code = (_ROW_INT if kind is _UInt
                        else _ROW_REF if kind in _TABLE_KINDS else _ROW_CANONICAL)
                steps.append((name, code, ftype))
            elif name not in self.defaults:
                raise HeaderError(
                    f"{self.layer}: required field {name!r} absent from row"
                )
            elif isinstance(self.defaults[name], (list, dict)):
                fresh.append((name, self.defaults[name]))
        plan = (tuple(steps), tuple(fresh))
        # Bitmaps arrive from the wire: cap what a hostile sender can
        # make us remember.  Real traffic uses a handful per codec.
        if len(self._row_plans) < _ROW_PLAN_CAP:
            self._row_plans[bitmap] = plan
        return plan

    def decode_row(
        self, data: bytes, pos: int, end: int, table: "_ChannelTable"
    ) -> Header:
        """Decode the row :meth:`encode_table` wrote at ``data[pos:end]``.

        Reads in place (no slice); absent fields take the codec default.
        """
        try:
            bitmap = data[pos]
            pos += 1
            if bitmap >= 0x80:
                bitmap, pos = _read_uvarint(data, pos - 1)
            plan = self._row_plans.get(bitmap)
            if plan is None:
                plan = self._row_plan(bitmap)
            header = self._row_base.copy()
            for name, code, ftype in plan[0]:
                if code == _ROW_INT:
                    value = data[pos]
                    pos += 1
                    if value >= 0x80:
                        value, pos = _read_uvarint(data, pos - 1)
                        if value >> ftype._bits:
                            raise HeaderError(f"{value} overflows field {name!r}")
                    header[name] = value
                elif code == _ROW_REF:
                    ref = data[pos]
                    pos += 1
                    if ref >= 0x80:
                        ref, pos = _read_uvarint(data, pos - 1)
                    if ref:
                        header[name] = table.value(ref - 1, ftype)
                    else:
                        header[name], pos = ftype.decode(data, pos)
                else:
                    header[name], pos = ftype.decode(data, pos)
            for name, default in plan[1]:
                header[name] = default.copy()
        except HeaderError:
            raise
        except Exception as exc:
            raise HeaderError(f"{self.layer}: corrupt table row: {exc}") from exc
        if pos != end:
            raise HeaderError(
                f"{self.layer}: table row's fields end at byte {pos}, "
                f"its frame at {end}"
            )
        return header

    def bit_size(self, header: Header) -> int:
        """Bits this header would need in a packed single-header layout."""
        total = 0
        for name, ftype in self.fields:
            value = header.get(name, self.defaults.get(name))
            total += ftype.bit_size(value)
        return total

    def wire_size(self, header: Header) -> int:
        """Exact :meth:`encode` output size in bytes, without encoding."""
        total = self._fixed_wire
        for name, ftype in self._var_fields:
            if name in header:
                value = header[name]
            elif name in self.defaults:
                value = self.defaults[name]
            else:
                raise HeaderError(f"{self.layer}: missing header field {name!r}")
            total += ftype.byte_size(value)
        return total

    def encode_bits(self, header: Header, writer: BitWriter) -> None:
        """Append this header's fields to a packed bit stream."""
        for name, ftype in self.fields:
            if name in header:
                value = header[name]
            elif name in self.defaults:
                value = self.defaults[name]
            else:
                raise HeaderError(f"{self.layer}: missing header field {name!r}")
            try:
                ftype.encode_bits(value, writer)
            except HeaderError:
                raise
            except Exception as exc:
                raise HeaderError(
                    f"{self.layer}: cannot bit-encode field {name!r}={value!r}: {exc}"
                ) from exc

    def decode_bits(self, reader: BitReader) -> Header:
        """Read this header's fields from a packed bit stream."""
        header: Header = {}
        for name, ftype in self.fields:
            try:
                header[name] = ftype.decode_bits(reader)
            except HeaderError:
                raise
            except Exception as exc:
                raise HeaderError(
                    f"{self.layer}: cannot bit-decode field {name!r}: {exc}"
                ) from exc
        return header


# ----------------------------------------------------------------------
# Header-table compression (the "table" wire mode)
# ----------------------------------------------------------------------
#
# HPACK-style: each sender channel (one per endpoint × group) owns a
# dynamic table mapping small indices to canonically-encoded field
# values.  Installs ride in an eagerly-applied updates section of the
# datagram preamble; steady-state rows then carry a presence bitmap,
# varints and one-byte references (HeaderCodec.encode_table).  Unknown
# references raise HeaderError — the datagram is rejected whole and the
# sender's periodic refresh re-installs the entry, so loss heals without
# acks.

#: Field types whose values intern into the channel table.
_TABLE_KINDS = (_Address, _Group, _Text, _VarBytes)

#: Row decode steps: bare varint, table reference, canonical encoding.
_ROW_INT, _ROW_REF, _ROW_CANONICAL = range(3)

#: Presence bitmaps whose decode plan a codec will cache.
_ROW_PLAN_CAP = 64

#: Stands in for the default of a field that has none: no header value
#: is ever equal to it, so such a field is always present in a row.
_REQUIRED = object()


def _write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    size = len(data)
    while True:
        if offset >= size:
            raise HeaderError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise HeaderError("varint too long")


class HeaderChannelEncoder:
    """Sender-side dynamic table for one wire channel.

    A channel is one sender endpoint's stream into one group; the COM
    layer owns the encoder and passes it to
    :meth:`HeaderRegistry.marshal` in ``table`` mode.  ``epoch``
    distinguishes encoder incarnations on the same channel id so a
    receiver discards stale entries after a rejoin.
    """

    __slots__ = ("channel_id", "epoch", "refresh_every", "max_entries",
                 "_by_raw", "_raws", "_uses", "_pending", "_templates")

    def __init__(
        self,
        channel_id: int,
        epoch: int,
        refresh_every: int = 64,
        max_entries: int = 4096,
    ) -> None:
        self.channel_id = channel_id & 0xFFFFFFFF
        self.epoch = epoch & 0xFFFF
        #: Every entry is re-installed after this many references, so a
        #: receiver that lost the original install datagram recovers.
        self.refresh_every = refresh_every
        self.max_entries = max_entries
        self._by_raw: Dict[bytes, int] = {}
        self._raws: List[bytes] = []
        self._uses: List[int] = []
        #: Installs/refreshes to emit in the next datagram's preamble.
        self._pending: List[Tuple[int, bytes]] = []
        #: layer -> (bitmap bytes, per-key segments, entries referenced)
        #: of the last header that layer sent here
        #: (HeaderCodec._encode_from_template).
        self._templates: Dict[str, Tuple[Any, ...]] = {}

    def intern(self, raw: bytes) -> Optional[int]:
        """Index for ``raw``, installing it if new; None if table full."""
        idx = self._by_raw.get(raw)
        if idx is None:
            if len(self._raws) >= self.max_entries:
                return None
            idx = len(self._raws)
            self._raws.append(raw)
            self._uses.append(0)
            self._by_raw[raw] = idx
            self._pending.append((idx, raw))
            return idx
        self.touch(idx)
        return idx

    def touch(self, idx: int) -> None:
        """Count one reference; schedules a periodic refresh install."""
        uses = self._uses[idx] + 1
        if uses >= self.refresh_every:
            self._pending.append((idx, self._raws[idx]))
            uses = 0
        self._uses[idx] = uses

    def refresh_all(self) -> None:
        """Re-emit every entry in the next datagram.

        Called when the channel's audience changes (a new member joined
        the destination set): the newcomer missed every earlier install,
        so the next datagram must be self-contained.
        """
        self._pending = list(enumerate(self._raws))
        self._uses = [0] * len(self._uses)

    def take_updates(self) -> List[Tuple[int, bytes]]:
        """Drain the installs to ship with the datagram being built."""
        updates = self._pending
        self._pending = []
        return updates


class _ChannelTable:
    """Receiver-side entries for one channel (one epoch's worth)."""

    __slots__ = ("epoch", "entries", "_decoded")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.entries: Dict[int, bytes] = {}
        # Decoded-value cache, index -> {field type: value}: repetitive
        # values (addresses above all) are parsed once per install, not
        # once per message.
        self._decoded: Dict[int, Dict[FieldType, Any]] = {}

    def install(self, idx: int, raw: bytes) -> None:
        self.entries[idx] = raw
        self._decoded.pop(idx, None)

    def value(self, idx: int, ftype: FieldType) -> Any:
        try:
            return self._decoded[idx][ftype]
        except KeyError:
            pass
        raw = self.entries.get(idx)
        if raw is None:
            raise HeaderError(
                f"unknown header-table index {idx} (install lost?)"
            )
        value, used = ftype.decode(raw, 0)
        if used != len(raw):
            raise HeaderError(f"header-table entry {idx} has trailing bytes")
        self._decoded.setdefault(idx, {})[ftype] = value
        return value


class HeaderTableStore:
    """Receiver-side table state, one per receiving endpoint.

    Keyed by channel id; an epoch change (sender rejoined, new encoder)
    resets that channel's entries.  Kept per-receiver — never shared
    across simulated nodes — so each receiver's view of a channel
    depends only on the datagrams *it* saw (per-receiver loss fidelity).
    """

    __slots__ = ("_channels",)

    def __init__(self) -> None:
        self._channels: Dict[int, _ChannelTable] = {}

    def channel(self, channel_id: int, epoch: int) -> _ChannelTable:
        table = self._channels.get(channel_id)
        if table is None or table.epoch != epoch:
            table = _ChannelTable(epoch)
            self._channels[channel_id] = table
        return table


def make_channel_encoder(
    source: Any, group: Any, epoch: int, refresh_every: int = 64
) -> HeaderChannelEncoder:
    """Build the sender-side encoder for one (endpoint, group) channel.

    The channel id is a stable 4-byte hash of the marshalled addresses,
    so both sides derive it without negotiation messages.
    """
    import hashlib

    digest = hashlib.blake2b(
        source.marshal() + b"|" + group.marshal(), digest_size=4
    ).digest()
    return HeaderChannelEncoder(
        int.from_bytes(digest, "big"), epoch, refresh_every=refresh_every
    )


class _LazyHeader:
    """A deferred header: its codec and its span of the datagram.

    ``span`` is the header's bytes exactly as they arrived.  Two
    customers: :meth:`Message.pop_header` / ``peek_header`` call
    :meth:`materialize` on first access, and the integrity layers cover
    the span itself (:func:`content_chunks`) without decoding it.
    Decoding is a pure function of the immutable span, so thunks may be
    shared by message copies.

    The header must fill its span.  The covered bytes carry no span
    lengths, so a datagram re-framed to declare body bytes, or a whole
    upper header, part of the header below covers the same byte string
    and passes CHKSUM / SIGN; but fields are self-delimiting, so refusing
    a tail here (the stack then drops the message) binds the boundaries.
    """

    __slots__ = ("codec", "span")

    def __init__(self, codec: "HeaderCodec", span: bytes) -> None:
        self.codec = codec
        self.span = span

    def materialize(self) -> Header:
        return self.codec.decode(bytes(self.span), exact=True)


# ----------------------------------------------------------------------
# Registry and wire format
# ----------------------------------------------------------------------

_MAGIC = 0x4852  # "HR"
_MODE_ALIGNED = 0
_MODE_COMPACT = 1
_MODE_PACKED = 2  # the Section 10 proposal: one bit-compacted header block
_MODE_TABLE = 3   # header-table compression (HPACK-style, per channel)
_WORD = 4  # paper: headers aligned to a (32-bit) word boundary

_MODE_BYTES = {"aligned": _MODE_ALIGNED, "compact": _MODE_COMPACT,
               "packed": _MODE_PACKED, "table": _MODE_TABLE}

#: Wire modes every world accepts; validation lives here so the DES and
#: realtime worlds stay in lockstep when a mode is added.
WIRE_MODES = ("aligned", "compact", "packed", "table")

#: Preamble extension for table mode: channel id, epoch, update count.
_TABLE_PREAMBLE = struct.Struct(">IHH")
_TABLE_UPDATE = struct.Struct(">HH")
_ROW_FRAME = struct.Struct(">BH")
_BODY_LEN = struct.Struct(">I")


class HeaderRegistry:
    """Maps layer names to codecs and numeric wire identifiers.

    Identifiers are assigned at registration time; because every node in
    a simulation shares one Python process (and registration happens at
    import), sender and receiver always agree on the numbering — the
    single system-wide message format the paper calls for.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, Tuple[int, HeaderCodec]] = {}
        self._by_id: Dict[int, HeaderCodec] = {}

    def register(self, codec: HeaderCodec) -> HeaderCodec:
        """Register ``codec``; re-registering the same layer name is an error."""
        if codec.layer in self._by_name:
            raise HeaderError(f"codec for layer {codec.layer!r} already registered")
        layer_id = len(self._by_id) + 1
        if layer_id > 0xFF:
            raise HeaderError("too many registered header codecs")
        self._by_name[codec.layer] = (layer_id, codec)
        self._by_id[layer_id] = codec
        return codec

    def codec_for(self, layer: str) -> HeaderCodec:
        """The codec registered for ``layer`` (raises if absent)."""
        try:
            return self._by_name[layer][1]
        except KeyError:
            raise HeaderError(f"no codec registered for layer {layer!r}") from None

    def has(self, layer: str) -> bool:
        """Whether ``layer`` has a registered codec."""
        return layer in self._by_name

    # -- wire format ----------------------------------------------------

    def marshal(
        self,
        message: Message,
        mode: str = "aligned",
        channel: Optional[HeaderChannelEncoder] = None,
        into: Optional[bytearray] = None,
    ) -> bytes:
        """Flatten ``message`` (headers + body) to wire bytes.

        Modes: ``aligned`` (per-layer headers padded to word boundaries,
        the 1995 production scheme), ``compact`` (per-layer, unpadded),
        ``packed`` (the Section 10 proposal: one bit-compacted header
        block with no per-header framing — FRAG's boolean really costs
        one bit on the wire), ``table`` (header-table compression;
        requires the sender's per-channel ``channel`` encoder).

        ``into`` lets hot send paths reuse one scratch buffer: the
        datagram is built there (the buffer is cleared first) and the
        returned ``bytes`` is a copy of its final contents.
        """
        try:
            mode_byte = _MODE_BYTES[mode]
        except KeyError:
            raise HeaderError(f"unknown wire mode {mode!r}") from None
        headers = message.iter_headers()
        if into is None:
            out = bytearray()
        else:
            out = into
            out.clear()
        out += struct.pack(">HBB", _MAGIC, mode_byte, len(headers))
        if mode_byte == _MODE_PACKED:
            writer = BitWriter()
            for owner, header in headers:
                try:
                    layer_id, codec = self._by_name[owner]
                except KeyError:
                    raise HeaderError(
                        f"no codec registered for layer {owner!r}"
                    ) from None
                writer.write(layer_id, 8)
                codec.encode_bits(header, writer)
            blob = writer.getvalue()
            out += struct.pack(">H", len(blob))
            out += blob
        elif mode_byte == _MODE_TABLE:
            if channel is None:
                raise HeaderError(
                    "table wire mode needs a per-channel encoder "
                    "(HeaderRegistry.marshal(..., channel=...))"
                )
            blobs: List[Tuple[int, bytes]] = []
            for owner, header in headers:
                try:
                    layer_id, codec = self._by_name[owner]
                except KeyError:
                    raise HeaderError(
                        f"no codec registered for layer {owner!r}"
                    ) from None
                blobs.append((layer_id, codec.encode_table(header, channel)))
            # Installs must precede the rows that reference them, so
            # they ride in the preamble.
            updates = channel.take_updates()
            out += _TABLE_PREAMBLE.pack(
                channel.channel_id, channel.epoch, len(updates)
            )
            for idx, raw in updates:
                out += _TABLE_UPDATE.pack(idx, len(raw))
                out += raw
            for layer_id, blob in blobs:
                out += _ROW_FRAME.pack(layer_id, len(blob))
                out += blob
        else:
            for owner, header in headers:
                try:
                    layer_id, codec = self._by_name[owner]
                except KeyError:
                    raise HeaderError(
                        f"no codec registered for layer {owner!r}"
                    ) from None
                blob = codec.encode(header)
                out += struct.pack(">BH", layer_id, len(blob))
                out += blob
                if mode_byte == _MODE_ALIGNED:
                    pad = (-(3 + len(blob))) % _WORD
                    out += b"\x00" * pad
        body = message.body_bytes()
        out += struct.pack(">I", len(body))
        out += body
        return bytes(out)

    def unmarshal(
        self,
        data: bytes,
        lazy: bool = False,
        tables: Optional[HeaderTableStore] = None,
    ) -> Message:
        """Rebuild a :class:`Message` from wire bytes.

        Raises :class:`HeaderError` on any corruption it can detect;
        corruption confined to the body passes through silently, which
        is exactly why the checksum layer exists.

        With ``lazy=True`` (``aligned`` and ``compact`` only — ``packed``
        is a single sequential bit stream and ``table`` rows decode in
        place, both always here) the datagram's structure is validated
        once, but each header is decoded only when its owning layer pops
        or peeks it, and the body is shared as a ``memoryview`` slice
        (in ``table`` mode too).  Lazy and eager decode accept and
        reject exactly the same datagrams *at unmarshal*; laziness only
        moves *when* a value-level ``HeaderError`` surfaces (at access
        instead of here), which is why receive paths feed known-garbled
        packets through the eager path.  Past unmarshal the lazy path
        is stricter about spans that are not ``encode(decode(span))``:
        bytes after a lazy header's last field raise at access
        (:class:`_LazyHeader` says why), where eager decode ignores
        them; and the integrity layers cover the span as it arrived
        (:func:`content_chunks`), so a ``BOOL`` byte of ``0x02`` or junk
        inside a frame's declared length fails CHKSUM / SIGN even with
        a sum valid for the decoded values, where the eager path
        re-encodes the values and passes it.

        ``tables`` carries the receiver's per-channel state for ``table``
        mode; without it each datagram gets a throwaway store (only
        self-contained datagrams — ones installing everything they
        reference — decode).
        """
        try:
            magic, mode_byte, n_headers = struct.unpack_from(">HBB", data, 0)
        except struct.error as exc:
            raise HeaderError(f"short packet: {exc}") from exc
        if magic != _MAGIC:
            raise HeaderError(f"bad magic 0x{magic:04x}")
        offset = 4
        message = Message()
        if mode_byte == _MODE_PACKED:
            return self._unmarshal_packed(data, offset, n_headers, message)
        if mode_byte == _MODE_TABLE:
            return self._unmarshal_table(data, offset, n_headers, message, lazy, tables)
        if mode_byte not in (_MODE_ALIGNED, _MODE_COMPACT):
            raise HeaderError(f"bad mode byte {mode_byte}")
        # Structural scan: frame every header span and the body before
        # decoding anything, so truncation is caught here even when the
        # per-header decode happens lazily later.
        spans: List[Tuple[HeaderCodec, int, int]] = []
        size = len(data)
        aligned = mode_byte == _MODE_ALIGNED
        by_id = self._by_id
        try:
            for _ in range(n_headers):
                layer_id, length = struct.unpack_from(">BH", data, offset)
                offset += 3
                end = offset + length
                if end > size:
                    raise HeaderError("truncated header")
                codec = by_id.get(layer_id)
                if codec is None:
                    raise HeaderError(f"unknown header id {layer_id}")
                spans.append((codec, offset, length))
                offset = end
                if aligned:
                    offset += (-(3 + length)) % _WORD
            (body_len,) = struct.unpack_from(">I", data, offset)
            offset += 4
            if offset + body_len > size:
                raise HeaderError("truncated body")
        except HeaderError:
            raise
        except Exception as exc:
            raise HeaderError(f"corrupt packet: {exc}") from exc
        if lazy:
            push_lazy = message.push_lazy_header
            for codec, start, length in spans:
                push_lazy(
                    codec.layer, _LazyHeader(codec, data[start : start + length])
                )
            if body_len:
                message.add_segment(memoryview(data)[offset : offset + body_len])
        else:
            push = message.push_owned_header
            for codec, start, length in spans:
                push(codec.layer, codec.decode(bytes(data[start : start + length])))
            message.add_segment(bytes(data[offset : offset + body_len]))
        return message

    def _unmarshal_table(
        self,
        data: bytes,
        offset: int,
        n_headers: int,
        message: Message,
        lazy: bool,
        tables: Optional[HeaderTableStore],
    ) -> Message:
        """Table mode: apply the preamble, decode every row in place.

        Rows are a few bytes each, so they decode here in the one pass
        over the datagram (no per-header thunk, slice or re-dispatch);
        ``lazy`` only decides whether the body is shared or copied.
        """
        if type(data) is not bytes:
            data = bytes(data)
        table, offset = self._apply_table_preamble(data, offset, tables)
        size = len(data)
        by_id = self._by_id
        push = message.push_owned_header
        try:
            for _ in range(n_headers):
                layer_id, length = _ROW_FRAME.unpack_from(data, offset)
                offset += 3
                end = offset + length
                if end > size:
                    raise HeaderError("truncated header")
                codec = by_id.get(layer_id)
                if codec is None:
                    raise HeaderError(f"unknown header id {layer_id}")
                push(codec.layer, codec.decode_row(data, offset, end, table))
                offset = end
            (body_len,) = _BODY_LEN.unpack_from(data, offset)
            offset += 4
            if offset + body_len > size:
                raise HeaderError("truncated body")
        except HeaderError:
            raise
        except Exception as exc:
            raise HeaderError(f"corrupt packet: {exc}") from exc
        body = memoryview(data) if lazy else data
        message.add_segment(body[offset : offset + body_len])
        return message

    def _apply_table_preamble(
        self,
        data: bytes,
        offset: int,
        tables: Optional[HeaderTableStore],
    ) -> Tuple[_ChannelTable, int]:
        """Parse channel id / epoch / updates; returns the live table."""
        try:
            channel_id, epoch, n_updates = _TABLE_PREAMBLE.unpack_from(
                data, offset
            )
            offset += _TABLE_PREAMBLE.size
            store = tables if tables is not None else HeaderTableStore()
            table = store.channel(channel_id, epoch)
            for _ in range(n_updates):
                idx, length = _TABLE_UPDATE.unpack_from(data, offset)
                offset += _TABLE_UPDATE.size
                end = offset + length
                if end > len(data):
                    raise HeaderError("truncated table update")
                table.install(idx, bytes(data[offset:end]))
                offset = end
        except HeaderError:
            raise
        except Exception as exc:
            raise HeaderError(f"corrupt table preamble: {exc}") from exc
        return table, offset

    def _unmarshal_packed(
        self, data: bytes, offset: int, n_headers: int, message: Message
    ) -> Message:
        try:
            (blob_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            blob = data[offset : offset + blob_len]
            if len(blob) != blob_len:
                raise HeaderError("truncated packed header block")
            offset += blob_len
            reader = BitReader(blob)
            for _ in range(n_headers):
                layer_id = reader.read(8)
                codec = self._by_id.get(layer_id)
                if codec is None:
                    raise HeaderError(f"unknown header id {layer_id}")
                message.push_owned_header(codec.layer, codec.decode_bits(reader))
            (body_len,) = struct.unpack_from(">I", data, offset)
            offset += 4
            body = data[offset : offset + body_len]
            if len(body) != body_len:
                raise HeaderError("truncated body")
        except HeaderError:
            raise
        except Exception as exc:
            raise HeaderError(f"corrupt packed packet: {exc}") from exc
        message.add_segment(body)
        return message

    def header_overhead(self, message: Message, mode: str = "aligned") -> int:
        """Wire bytes spent on headers (everything except the body)."""
        return len(self.marshal(message, mode)) - message.body_size - 8


def content_chunks(registry: HeaderRegistry, message: Message) -> Iterator[bytes]:
    """The bytes an integrity layer covers, in order, as chunks.

    Checksumming and signing cover everything pushed *above* the layer:
    per header, bottom first, the owner's name length-prefixed
    (``>H`` + UTF-8) and then the header's canonical bytes
    (:meth:`HeaderCodec.encode`); after the headers, the body segments.
    A header that is still lazy contributes the span that arrived — in
    ``aligned``/``compact`` mode those *are* the sender's canonical
    bytes — and stays lazy, so a receiver verifies the datagram it got
    without decoding or re-encoding what sits above it; a dict is
    encoded.  The layers fold the chunks (``zlib.crc32(chunk, crc)``,
    ``hmac.update``) and build no joined buffer.

    Owner names are length-prefixed: bare concatenation let distinct
    stacks collide (owners ``"AB"`` + ``"C"`` framed identically to
    ``"A"`` + ``"BC"`` when the encoded headers lined up), which an
    attacker — or plain bad luck — could use to swap headers without
    moving the checksum.  The prefix makes the framing injective.
    """
    for owner, header in message.header_entries():
        if type(header) is dict:
            codec = registry.codec_for(owner)
            yield codec.owner_frame
            yield codec.encode(header)
        else:
            yield header.codec.owner_frame
            yield header.span
    yield from message.segments


def canonical_content(registry: HeaderRegistry, message: Message) -> bytes:
    """:func:`content_chunks` joined: the covered bytes as one string."""
    return b"".join(content_chunks(registry, message))


def packed_bit_size(registry: HeaderRegistry, message: Message) -> int:
    """Bits needed by the paper's proposed precomputed single header.

    At stack-build time Horus would compute one compacted layout from
    every layer's field declarations; per message the cost is just the
    sum of the fields' natural bit widths — no per-header tags, lengths,
    or padding.
    """
    total = 0
    for owner, header in message.headers():
        total += registry.codec_for(owner).bit_size(header)
    return total


#: The process-wide default registry; layer modules register here at import.
DEFAULT_REGISTRY = HeaderRegistry()


def register(
    layer: str,
    fields: Sequence[FieldSpec],
    defaults: Optional[Dict[str, Any]] = None,
) -> HeaderCodec:
    """Shorthand: build a codec and register it on the default registry."""
    return DEFAULT_REGISTRY.register(HeaderCodec(layer, fields, defaults))
