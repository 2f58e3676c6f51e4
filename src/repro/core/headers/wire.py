"""The wire modes built from the canonical form: aligned, compact, packed.

``aligned`` and ``compact`` frame each header's canonical bytes on its
own, which is what lets a receiver leave them undecoded
(:class:`_LazyHeader`); ``packed`` is Section 10's proposal made
executable, one bit-compacted block over :class:`BitWriter` /
:class:`BitReader` (:func:`packed_bit_size` is its analytic size).
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core.headers.codecs import (
    FRAME_SIZE, CanonicalCodec, WireFormat, pack_frame, reraise, unpack_frame,
)
from repro.core.message import Header, Message
from repro.errors import HeaderError

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


class BitReader:
    """Reads values MSB-first from a byte stream."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

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


# ----------------------------------------------------------------------
# aligned / compact: one frame per header
# ----------------------------------------------------------------------


class _LazyHeader:
    """A deferred header: its codec and its span of the datagram.

    ``span`` is the header's bytes exactly as they arrived.  Two
    customers: :meth:`Message.pop_header` / ``peek_header`` call
    :meth:`materialize` on first access, and the integrity layers cover
    the span itself (:func:`content_chunks`) without decoding it.
    Decoding is a pure function of the immutable span, so a thunk may be
    in many hands — message copies, and through a
    :class:`HeaderFrameStore` every receiver of the datagram: it decodes
    once, keeps that value to itself and gives each caller a private
    copy (:meth:`CanonicalCodec.private_copy`), so a layer may do what
    it likes to a header it popped.  A decode that raises is not kept;
    it raises again for the next caller.

    The header must fill its span.  The covered bytes carry no span
    lengths, so a datagram re-framed to declare body bytes, or a whole
    upper header, part of the header below covers the same byte string
    and passes CHKSUM / SIGN; but fields are self-delimiting, so refusing
    a tail here (the stack then drops the message) binds the boundaries.
    """

    __slots__ = ("codec", "span", "_value")

    def __init__(self, codec: CanonicalCodec, span: bytes) -> None:
        self.codec = codec
        self.span = span
        self._value: Any = None

    def materialize(self) -> Header:
        value = self._value
        if value is None:
            value = self._value = self.codec.decode(bytes(self.span), exact=True)
        return self.codec.private_copy(value)


#: Datagrams a frame store remembers; the oldest-stored goes first.  One
#: is wanted from its first receiver to its last, a few milliseconds of
#: traffic; each entry pins its datagram's bytes, so the bound is also
#: the store's memory.
_MAX_FRAMES = 256


class HeaderFrameStore(dict):
    """What clean datagrams said, by their bytes: datagram -> framed message.

    Owned by whoever hosts several receivers (a world) and passed to
    :meth:`HeaderRegistry.unmarshal`, which is the only writer and gives
    each receiver a ``shallow_copy`` of the stored message: its own
    header list over the same :class:`_LazyHeader` thunks and the same
    body view.  Content-addressed, so a receiver is only ever given the
    frame of bytes it was itself handed.
    """

    __slots__ = ()

    def remember(self, data: bytes, message: Message) -> None:
        if len(self) >= _MAX_FRAMES:
            del self[next(iter(self))]  # insertion order: the oldest
        self[data] = message


class _Framed(WireFormat):
    """Per header: its frame (layer id, length), the canonical bytes, and
    zeros up to a multiple of ``word`` bytes.

    ``aligned`` pads to the paper's 32-bit word (the 1995 production
    scheme, whose "considerable overhead of unused bits" Section 10
    laments); ``compact`` is the same with a word of one byte.
    """

    receiver_independent = True  # spans in, thunks out: no receiver state

    def __init__(self, name: str, mode_byte: int, word: int) -> None:
        super().__init__(name, mode_byte)
        self._word = word

    def write_headers(self, out, headers, by_name, channel):
        word = self._word
        for owner, header in headers:
            layer_id, codec = by_name[owner]
            blob = codec.encode(header)
            out += pack_frame(layer_id, len(blob))
            out += blob
            out += b"\x00" * (-(FRAME_SIZE + len(blob)) % word)

    def read_headers(self, data, offset, count, by_id, message, lazy, tables):
        """Frame every span; decode now, or with ``lazy`` push the span.

        Truncation is caught here either way; laziness only defers the
        value-level decode to the owning layer's pop or peek.
        """
        size = len(data)
        word = self._word
        push = message.push_lazy_header if lazy else message.push_owned_header
        try:
            for _ in range(count):
                layer_id, length = unpack_frame(data, offset)
                offset += FRAME_SIZE
                end = offset + length
                if end > size:
                    raise HeaderError("truncated header")
                codec = by_id[layer_id]
                if lazy:
                    push(codec.layer, _LazyHeader(codec, data[offset:end]))
                else:
                    push(codec.layer, codec.decode(bytes(data[offset:end])))
                offset = end + -(FRAME_SIZE + length) % word
        except Exception as exc:
            reraise(exc, "corrupt packet")
        return offset


# ----------------------------------------------------------------------
# packed: one bit-compacted block
# ----------------------------------------------------------------------

_BLOCK_LEN = struct.Struct(">H")


class _Packed(WireFormat):
    """A ``>H`` byte count, then one bit stream: per header an 8-bit
    layer id and every declared field at its natural bit width — no
    per-header length, no padding; FRAG's boolean really costs one bit.
    A sequential stream cannot be skipped over, so decode is never lazy.
    """

    def write_headers(self, out, headers, by_name, channel):
        writer = BitWriter()
        for owner, header in headers:
            layer_id, codec = by_name[owner]
            writer.write(layer_id, 8)
            for name, ftype in codec.fields:
                value = codec.value(header, name)
                try:
                    ftype.encode_bits(value, writer)
                except Exception as exc:
                    reraise(exc, f"{codec.layer}: cannot bit-encode field "
                                 f"{name!r}={value!r}")
        blob = writer.getvalue()
        out += _BLOCK_LEN.pack(len(blob))
        out += blob

    def read_headers(self, data, offset, count, by_id, message, lazy, tables):
        try:
            (blob_len,) = _BLOCK_LEN.unpack_from(data, offset)
            offset += _BLOCK_LEN.size
            blob = data[offset : offset + blob_len]
            if len(blob) != blob_len:
                raise HeaderError("truncated packed header block")
            reader = BitReader(blob)
            for _ in range(count):
                codec = by_id[reader.read(8)]
                header: Header = {}
                for name, ftype in codec.fields:
                    header[name] = ftype.decode_bits(reader)
                message.push_owned_header(codec.layer, header)
        except Exception as exc:
            reraise(exc, "corrupt packed packet")
        return offset + blob_len


def packed_bit_size(registry: Any, message: Message) -> int:
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


#: This module's entries in the registry's mode table.
FORMATS = (
    _Framed("aligned", 0, 4), _Framed("compact", 1, 1), _Packed("packed", 2),
)
