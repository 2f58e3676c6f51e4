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
* ``table`` — the Section 10 proposal as the production format: one
  *shape* (which layers, which fields differ from their defaults),
  interned in a per-channel HPACK-style dynamic table like the
  repetitive per-flow values (sender and group addresses), then only
  the present fields of every header, ints as varints.

Receive-side cost is bounded by *lazy unmarshalling*: for ``aligned``
and ``compact`` :meth:`HeaderRegistry.unmarshal` can validate the
datagram's structure once and push lazy ``(codec, span)`` entries onto
the message, decoding a header only when its owning layer pops or peeks
it; the integrity layers cover the spans as they arrived
(:func:`content_chunks`).  ``table`` fields are a few bytes each and
decode in place, in one pass over the datagram.  In every mode the body
can be shared as a ``memoryview`` slice instead of a copied ``bytes``.

What a clean ``aligned`` / ``compact`` datagram says is a pure function
of its bytes, so receivers that share a process need not each work it
out: ``unmarshal`` takes the caller's :class:`HeaderFrameStore`
(``frames=``; a world owns one, its endpoints pass it) and a datagram
that unmarshalled before is neither framed nor decoded again.

* *Shared:* the framing (every later receiver gets a fresh message whose
  own header list points at the same lazy headers), each decoded value
  (a lazy header decodes once; every pop or peek gets a private copy —
  the dict and each list and map in it — so a popped header is still its
  layer's to change) and the body view.
* *Not shared:* ``table`` headers, which read the receiver's own channel
  tables, and ``packed`` (a :class:`WireFormat` says whether its frames
  are ``receiver_independent``); the integrity sums — CHKSUM and SIGN
  fold the spans at every receiver, a check is not a value to hand
  round; packets the fault model garbled, which take the eager path and
  neither read nor fill the store; failures — a datagram that does not
  frame is stored nowhere and raises at every receiver, a span that
  does not decode raises at every pop.
* *Bounded:* a module constant of entries, oldest-stored first, each
  pinning one datagram's bytes.  Content-addressed: a receiver gets the
  frame of bytes it was itself handed, so what one receiver lost,
  another's copy cannot supply.
* *Who benefits:* a world hosting several members of a group — every
  DES test, soak and experiment.  One member per process pays a dict
  probe and an insert per datagram and gains nothing; ``table`` mode
  pays one attribute test.

The package is cut along those lines: ``codecs`` holds what every mode
shares (field kinds, a codec's canonical bytes, the covered bytes);
``wire`` (aligned, compact, packed) and ``table`` each write their modes'
layouts, once, as :class:`WireFormat` objects; this module is the public
surface and the :class:`HeaderRegistry`, which frames every datagram the
same way and finds the format for the part in between in one mode table.
A new format is one more module against that table.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Sequence

from repro.core.headers.codecs import (
    ADDRESS, BODY_LEN_SIZE, BOOL, F64, GROUP, MAGIC, PREAMBLE_SIZE, TEXT, U8,
    U16, U32, U64, VARBYTES, FieldSpec, FieldType, ListOf, Lookup, MapOf,
    WireFormat, content_chunks, pack_body_len, pack_preamble,
    unpack_body_len, unpack_preamble,
)
from repro.core.headers.table import (
    FORMATS as _TABLE_FORMATS, HeaderChannelEncoder, HeaderCodec,
    HeaderTableStore, make_channel_encoder,
)
from repro.core.headers.wire import (
    FORMATS as _WIRE_FORMATS, BitReader, BitWriter, HeaderFrameStore,
    packed_bit_size,
)
from repro.core.message import Message
from repro.errors import HeaderError

__all__ = [
    "ADDRESS", "BOOL", "F64", "GROUP", "TEXT", "U8", "U16", "U32", "U64",
    "VARBYTES", "ListOf", "MapOf", "FieldSpec", "FieldType",
    "HeaderCodec", "HeaderRegistry", "DEFAULT_REGISTRY", "register",
    "WIRE_MODES", "WireFormat",
    "HeaderChannelEncoder", "HeaderTableStore", "make_channel_encoder",
    "HeaderFrameStore",
    "BitReader", "BitWriter", "packed_bit_size",
    "content_chunks", "HEADER_RESERVE",
]

#: Bytes of an MTU left for one message's headers where a layer sizes a
#: body to share a datagram: TOTAL's packs and FRAG's runs keep their
#: bodies within ``mtu - HEADER_RESERVE``.  Measured: the widest stack
#: of registered layers that can sit below TOTAL without FRAG
#: (TOTAL:STABLE:PINWHEEL:MERGE:VSS:FLUSH:MBRSHIP:PRIO:REALTIME:KEYDIST:
#: COMPRESS:SIGN:CRYPT:NAK:CHKSUM:COM) puts 300 B of headers on a pack
#: in ``aligned`` mode, 286 ``compact``, 260 ``packed`` and 111
#: ``table``, with 16-character endpoint and group names;
#: TOTAL:MBRSHIP:NAK:COM puts 160 B in ``aligned`` mode.  Names are the
#: only fields that vary: about 2 B per endpoint-name and 1 B per
#: group-name character.
HEADER_RESERVE = 512

#: The mode table: every wire format, by the name ``marshal`` is given
#: and by the mode byte ``unmarshal`` reads.
_FORMATS = Lookup(
    "unknown wire mode",
    ((fmt.name, fmt) for fmt in _WIRE_FORMATS + _TABLE_FORMATS),
)
_FORMATS_BY_BYTE = Lookup(
    "bad mode byte", ((fmt.mode_byte, fmt) for fmt in _FORMATS.values())
)

#: Wire modes every world accepts; validation lives here so the DES and
#: realtime worlds stay in lockstep when a mode is added.
WIRE_MODES = tuple(_FORMATS)


class HeaderRegistry:
    """Maps layer names to codecs and numeric wire identifiers.

    Identifiers are assigned at registration time; because every node in
    a simulation shares one Python process (and registration happens at
    import), sender and receiver always agree on the numbering — the
    single system-wide message format the paper calls for.
    """

    def __init__(self) -> None:
        #: layer name -> (wire id, codec), and wire id -> codec.
        self._by_name = Lookup("no codec registered for layer")
        self._by_id = Lookup("unknown header id")

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
        return self._by_name[layer][1]

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

        ``mode`` is one of :data:`WIRE_MODES` (the module docstring says
        what each buys); ``table`` requires the sender's per-channel
        ``channel`` encoder.

        ``into`` lets hot send paths reuse one scratch buffer: the
        datagram is built there (the buffer is cleared first) and the
        returned ``bytes`` is a copy of its final contents.
        """
        fmt = _FORMATS[mode]
        headers = message.iter_headers()
        if into is None:
            out = bytearray()
        else:
            out = into
            out.clear()
        out += pack_preamble(MAGIC, fmt.mode_byte, len(headers))
        fmt.write_headers(out, headers, self._by_name, channel)
        body = message.body_bytes()
        out += pack_body_len(len(body))
        out += body
        return bytes(out)

    def unmarshal(
        self,
        data: bytes,
        lazy: bool = False,
        tables: Optional[HeaderTableStore] = None,
        frames: Optional[HeaderFrameStore] = None,
    ) -> Message:
        """Rebuild a :class:`Message` from wire bytes.

        Raises :class:`HeaderError` on any corruption it can detect;
        corruption confined to the body passes through silently, which
        is exactly why the checksum layer exists.

        With ``lazy=True`` the body is shared as a ``memoryview`` slice
        of ``data`` and, in ``aligned`` and ``compact`` mode (``packed``
        is a single sequential bit stream and ``table`` fields decode
        in place, both always here), the datagram's structure is validated
        once but each header is decoded only when its owning layer pops
        or peeks it.  Lazy and eager decode accept and reject exactly
        the same datagrams *at unmarshal*; laziness only moves *when* a
        value-level ``HeaderError`` surfaces (at access instead of
        here), which is why receive paths feed known-garbled packets
        through the eager path.  Past unmarshal the lazy path is
        stricter about spans that are not ``encode(decode(span))``:
        bytes after a lazy header's last field raise at access
        (``wire._LazyHeader`` says why), where eager decode ignores
        them; and the integrity layers cover the span as it arrived
        (:func:`content_chunks`), so a ``BOOL`` byte of ``0x02`` or junk
        inside a frame's declared length fails CHKSUM / SIGN even with
        a sum valid for the decoded values, where the eager path
        re-encodes the values and passes it.

        ``tables`` carries the receiver's per-channel state for ``table``
        mode; without it each datagram gets a throwaway store (only
        self-contained datagrams — ones installing everything they
        reference — decode).

        ``frames`` is the caller's :class:`HeaderFrameStore`, for a caller
        that hands byte-identical datagrams to several receivers (a world
        hosting several members).  On the lazy path of a mode whose
        frames are receiver-independent, a datagram that unmarshalled
        before is not framed again: the receiver gets a fresh message
        over the stored lazy headers and body view.  The result is the
        one unmarshal without a store gives; only successes are stored.
        """
        try:
            magic, mode_byte, n_headers = unpack_preamble(data, 0)
        except struct.error as exc:
            raise HeaderError(f"short packet: {exc}") from exc
        if magic != MAGIC:
            raise HeaderError(f"bad magic 0x{magic:04x}")
        fmt = _FORMATS_BY_BYTE[mode_byte]
        shared = (
            frames is not None and fmt.receiver_independent and lazy
            and type(data) is bytes  # hashable, immutable
        )
        if shared:
            framed = frames.get(data)
            if framed is not None:
                return framed.shallow_copy()
        message = Message()
        offset = fmt.read_headers(
            data, PREAMBLE_SIZE, n_headers, self._by_id, message, lazy, tables
        )
        try:
            (body_len,) = unpack_body_len(data, offset)
        except struct.error as exc:
            raise HeaderError(f"corrupt packet: {exc}") from exc
        offset += BODY_LEN_SIZE
        end = offset + body_len
        if end > len(data):
            raise HeaderError("truncated body")
        if body_len:
            message.add_segment(
                memoryview(data)[offset:end] if lazy else bytes(data[offset:end])
            )
        if shared:
            # The stored message is never handed out, so it stays lazy.
            frames.remember(data, message)
            return message.shallow_copy()
        return message

    def header_overhead(self, message: Message, mode: str = "aligned") -> int:
        """Wire bytes spent on headers (everything except the body)."""
        framing = PREAMBLE_SIZE + BODY_LEN_SIZE
        return len(self.marshal(message, mode)) - message.body_size - framing


#: The process-wide default registry; layer modules register here at import.
DEFAULT_REGISTRY = HeaderRegistry()


def register(
    layer: str,
    fields: Sequence[FieldSpec],
    defaults: Optional[Dict[str, Any]] = None,
) -> HeaderCodec:
    """Shorthand: build a codec and register it on the default registry."""
    return DEFAULT_REGISTRY.register(HeaderCodec(layer, fields, defaults))
