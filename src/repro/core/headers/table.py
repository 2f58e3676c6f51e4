"""The ``table`` wire mode: one compacted header per message.

A header's presence bitmap sets bit *i* when field *i* is not its
default (by canonical bytes: ``-0.0`` is not ``0.0``); the ordered
``(layer id, bitmap)`` pairs are the message's *shape*.  HPACK-style,
each sender channel (endpoint × group) owns a dynamic table of
canonically-encoded values — the shape and repetitive field values
(addresses) — so they cost one byte; installs ride in an updates section
ahead of them.  Then come every header's present fields, bottom first,
ints as varints, and no per-header frame: Section 10's single compacted
header.  An unknown reference rejects the datagram whole, and periodic
refreshes heal lost installs without acks.  The sender replays a
template of the last shape it sent; the receiver decodes every field in
one loop over the shape's plan, built once per install.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.headers.codecs import (
    BODY_LEN_SIZE, Bytes, CanonicalCodec, FieldSpec, FieldType, ListOf, MapOf,
    Scalar, WireFormat, reraise, unpack_body_len,
)
from repro.core.message import Header
from repro.errors import HeaderError

#: Step kinds.  A shape's decode plan: an int (a bare varint), a table
#: reference, a canonical encoding, the next header (its codec's
#: defaults), a list or map default to copy.  A channel's encode
#: template: _INT, _HEAD and _SPAN, the recorded bytes of any other
#: field.  _INT is 0, so ``if not kind`` picks out the common case.
_INT, _REF, _CANONICAL, _HEAD, _FRESH, _SPAN = range(6)

#: Entries per channel table.  The sender stops interning here (later
#: values go out as literals) and the receiver refuses an install at or
#: past it: indices arrive from the wire, and the table they fill is kept.
_MAX_ENTRIES = 4096

#: Channels one receiver keeps tables for; the oldest-installed goes
#: first.  Channel ids arrive from the wire too.  An evicted live
#: channel heals at its sender's next refresh, like any lost install.
_MAX_CHANNELS = 1024

#: Stands in for the default of a field that has none: no header value
#: is ever equal to it, so such a field is always present.
_REQUIRED = object()

#: ``_ChannelTable._decoded`` key of an entry's shape plan.
_SHAPE = object()


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


def _canonical(ftype: FieldType, value: Any) -> bytes:
    out = bytearray()
    ftype.encode(value, out)
    return bytes(out)


def _exact(ftype: FieldType) -> bool:
    """Whether equal values of this kind encode alike (``-0.0 == 0.0`` do not)."""
    if type(ftype) is ListOf:
        return _exact(ftype.element)
    if type(ftype) is MapOf:
        return _exact(ftype.key) and _exact(ftype.value)
    return not (type(ftype) is Scalar and ftype.to_wire is float)


# ----------------------------------------------------------------------
# One header per message
# ----------------------------------------------------------------------


class HeaderCodec(CanonicalCodec):
    """What layers declare and the registry holds: the canonical form
    every mode sees, plus the per-field facts ``table`` reads."""

    def __init__(
        self,
        layer: str,
        fields: Sequence[FieldSpec],
        defaults: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(layer, fields, defaults)
        #: What a decoded header starts from: every field at its default
        #: (None where there is none), in declaration order.
        self._row_base: Header = {
            name: self.defaults.get(name) for name, _ in self.fields
        }
        #: Per declared field: name, kind, decode step, default (or
        #: ``_REQUIRED``), whether equal values encode alike.
        self._row_fields = tuple(
            (name, ftype,
             _REF if type(ftype) is Bytes
             else _INT if type(ftype) is Scalar and ftype.unsigned
             else _CANONICAL,
             self.defaults.get(name, _REQUIRED), _exact(ftype))
            for name, ftype in self.fields
        )


def _encode_field(ftype, code, value, channel, out) -> Optional[int]:
    """Append one present field; returns the table entry it references."""
    if code == _INT:
        number = int(value)
        if number < 0 or number >> ftype.bits:
            raise ValueError(f"does not fit {ftype.bits} unsigned bits")
        _write_uvarint(out, number)
        return None
    if code == _REF:
        raw = _canonical(ftype, value)
        idx = channel.intern(raw)
        if idx is not None:
            _write_uvarint(out, idx + 1)
            return idx
        out.append(0)
        out += raw
        return None
    ftype.encode(value, out)
    return None


def _walk(headers, by_name, channel, out) -> Tuple[Any, ...]:
    """Encode every present field to ``out``, intern the shape, and
    return the template :func:`_replay` follows: ``(by_name, header
    count, segments, entries referenced, shape reference)``.  Segments
    are ``None`` if a header has a key its codec does not declare (the
    replay's equal-count-means-equal-keys test would be unsound)."""
    shape = bytearray()
    segments: List[Tuple[Any, ...]] = []
    touches = []
    replayable = True
    for slot, (owner, header) in enumerate(headers):
        layer_id, codec = by_name[owner]
        segments.append((_HEAD, slot, owner, len(header)))
        bitmap = 0
        declared = 0
        for bit, (name, ftype, code, dflt, exact) in enumerate(codec._row_fields):
            if name not in header:
                if dflt is _REQUIRED:
                    raise HeaderError(f"{codec.layer}: missing header field {name!r}")
                continue  # the default: costs nothing
            declared += 1
            value = header[name]
            start = len(out)
            idx = None
            try:
                present = dflt is _REQUIRED or value is not dflt and (
                    value != dflt or code != _INT
                    and _canonical(ftype, value) != _canonical(ftype, dflt))
                if present:
                    bitmap |= 1 << bit
                    idx = _encode_field(ftype, code, value, channel, out)
            except Exception as exc:
                reraise(exc, f"{codec.layer}: cannot encode field "
                             f"{name!r}={value!r}")
            if code == _INT and present:
                # -1 is no uint's value: a required int is never at its default.
                segments.append((_INT, name, -1 if dflt is _REQUIRED else dflt,
                                 1 << ftype.bits))
                continue
            if ftype.copy_value is not None and type(value) in (list, dict):
                value = ftype.copy_value(value)  # the caller may reuse its container
            segments.append((_SPAN, name, value, bytes(out[start:]), exact))
            if idx is not None:
                touches.append(idx)
        replayable = replayable and declared == len(header)
        shape.append(layer_id)
        _write_uvarint(shape, bitmap)
    ref = bytearray()
    idx = channel.intern(bytes(shape))
    if idx is None:  # the table is full: the shape itself follows
        ref.append(0)
        _write_uvarint(ref, len(shape))
        ref += shape
    else:
        _write_uvarint(ref, idx + 1)
        touches.append(idx)
    return (by_name, len(headers), tuple(segments) if replayable else None,
            tuple(touches), bytes(ref))


def _replay(headers, template, out) -> bool:
    """Encode ``headers`` against the channel's template; False means bail.

    Bytes and table touches are identical to :func:`_walk`'s.  Any
    surprise — other owners or keys, a changed non-int value, an int
    that crossed its default or is not a plain in-range int — bails,
    and the caller takes the full walk, which raises or re-caches.
    """
    segments = template[2]
    if segments is None or len(headers) != template[1]:
        return False
    append = out.append
    get = None
    for seg in segments:
        kind = seg[0]
        if not kind:  # _INT
            _, name, dflt, limit = seg
            number = get(name)
            if type(number) is not int or not 0 <= number < limit or number == dflt:
                return False
            if number < 0x80:
                append(number)
            elif number < 0x4000:
                append((number & 0x7F) | 0x80)
                append(number >> 7)
            else:
                _write_uvarint(out, number)
        elif kind == _SPAN:
            _, name, value, span, exact = seg
            current = get(name)
            if current is not value and (
                    not exact or type(current) is not type(value)
                    or current != value):
                return False
            out += span
        else:
            _, slot, owner, size = seg
            current_owner, header = headers[slot]
            if current_owner != owner or len(header) != size:
                return False
            get = header.get
    return True


def _shape_plan(raw: bytes, by_id) -> Tuple[int, Tuple[Any, ...]]:
    """Decode plan of one shape, validated: its header count, and its
    steps as ``(kind, name, field type)``, or ``(_HEAD, owner, codec
    defaults)`` ahead of each header's fields and ``(_FRESH, name,
    default)`` for each absent list or map field, which every decoded
    header must own a copy of."""
    steps = []
    count = pos = 0
    while pos < len(raw):
        if count == 0xFF:
            raise HeaderError("shape of more headers than a datagram holds")
        count += 1
        codec = by_id[raw[pos]]
        bitmap, pos = _read_uvarint(raw, pos + 1)
        if bitmap >> len(codec.fields):
            raise HeaderError(
                f"{codec.layer}: presence bit beyond the {len(codec.fields)} "
                f"declared fields"
            )
        steps.append((_HEAD, codec.layer, codec._row_base))
        for bit, (name, ftype, code, dflt, _) in enumerate(codec._row_fields):
            if bitmap >> bit & 1:
                steps.append((code, name, ftype))
            elif dflt is _REQUIRED:
                raise HeaderError(
                    f"{codec.layer}: required field {name!r} absent from shape"
                )
            elif isinstance(dflt, (list, dict)):
                steps.append((_FRESH, name, dflt))
    return count, tuple(steps)


def _read_fields(data: bytes, pos: int, steps, table: "_ChannelTable", message) -> int:
    """Decode the field run at ``data[pos:]`` by a plan's ``steps`` and
    push the headers onto ``message``; returns the offset past it."""
    decoded = table._decoded
    entries = []
    header = None  # every plan opens with a _HEAD step
    for kind, name, arg in steps:
        if not kind:  # _INT
            value = data[pos]
            pos += 1
            if value >= 0x80:
                if data[pos] < 0x80:
                    value = value & 0x7F | data[pos] << 7
                    pos += 1
                else:
                    value, pos = _read_uvarint(data, pos - 1)
                if value >> arg.bits:
                    raise HeaderError(f"{value} overflows field {name!r}")
            header[name] = value
        elif kind == _REF:
            ref = data[pos]
            pos += 1
            if ref >= 0x80:
                ref, pos = _read_uvarint(data, pos - 1)
            if not ref:
                header[name], pos = arg.decode(data, pos)
            else:
                try:
                    header[name] = decoded[ref - 1][arg]
                except KeyError:
                    header[name] = table.value(ref - 1, arg)
        elif kind == _HEAD:
            header = arg.copy()
            entries.append((name, header))
        elif kind == _FRESH:
            header[name] = arg.copy()
        else:
            header[name], pos = arg.decode(data, pos)
    message.push_owned_headers(entries)
    return pos


# ----------------------------------------------------------------------
# Channel tables
# ----------------------------------------------------------------------


class HeaderChannelEncoder:
    """Sender-side dynamic table for one wire channel.

    A channel is one sender endpoint's stream into one group; the COM
    layer owns the encoder and passes it to
    :meth:`HeaderRegistry.marshal` in ``table`` mode.  ``epoch``
    distinguishes encoder incarnations on the same channel id so a
    receiver discards stale entries after a rejoin.
    """

    __slots__ = ("channel_id", "epoch", "refresh_every", "max_entries",
                 "_by_raw", "_raws", "_uses", "_pending", "_template")

    def __init__(
        self,
        channel_id: int,
        epoch: int,
        refresh_every: int = 64,
        max_entries: int = _MAX_ENTRIES,
    ) -> None:
        self.channel_id = channel_id & 0xFFFFFFFF
        self.epoch = epoch & 0xFFFF
        #: Every entry is re-installed after this many references, so a
        #: receiver that lost the original install datagram recovers.
        self.refresh_every = refresh_every
        self.max_entries = min(max_entries, _MAX_ENTRIES)
        self._by_raw: Dict[bytes, int] = {}
        self._raws: List[bytes] = []
        self._uses: List[int] = []
        #: Installs/refreshes to emit in the next datagram's preamble.
        self._pending: List[Tuple[int, bytes]] = []
        #: What :func:`_walk` made of the last message sent here.
        self._template: Optional[Tuple[Any, ...]] = None

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
        self.touch((idx,))
        return idx

    def touch(self, indices: Sequence[int]) -> None:
        """Count one reference to each entry; schedules periodic
        refresh installs."""
        uses, every = self._uses, self.refresh_every
        for idx in indices:
            count = uses[idx] + 1
            if count >= every:
                self._pending.append((idx, self._raws[idx]))
                count = 0
            uses[idx] = count

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
        # Decoded-value cache, index -> {field type, or _SHAPE: value}:
        # repetitive values (addresses, the shape's plan) are parsed
        # once per install, not once per message.
        self._decoded: Dict[int, Dict[Any, Any]] = {}

    def install(self, idx: int, raw: bytes) -> None:
        if idx >= _MAX_ENTRIES:
            raise HeaderError(
                f"header-table index {idx} past the {_MAX_ENTRIES}-entry bound"
            )
        self.entries[idx] = raw
        self._decoded.pop(idx, None)

    def _raw(self, idx: int) -> bytes:
        raw = self.entries.get(idx)
        if raw is None:
            raise HeaderError(
                f"unknown header-table index {idx} (install lost?)"
            )
        return raw

    def value(self, idx: int, ftype: FieldType) -> Any:
        try:
            return self._decoded[idx][ftype]
        except KeyError:
            pass
        raw = self._raw(idx)
        value, used = ftype.decode(raw, 0)
        if used != len(raw):
            raise HeaderError(f"header-table entry {idx} has trailing bytes")
        self._decoded.setdefault(idx, {})[ftype] = value
        return value

    def shape(self, idx: int, by_id) -> Tuple[Any, ...]:
        """The decode plan of the shape at ``idx`` (a plan holds the
        codecs of one registry directory, ``by_id``)."""
        cached = self._decoded.get(idx, {}).get(_SHAPE)
        if cached is None or cached[0] is not by_id:
            plan = _shape_plan(self._raw(idx), by_id)
            cached = self._decoded.setdefault(idx, {})[_SHAPE] = (by_id, plan)
        return cached[1]


class HeaderTableStore:
    """Receiver-side table state, one per receiving endpoint.

    Keyed by channel id; an epoch change (sender rejoined, new encoder)
    resets that channel's entries.  Kept per-receiver — never shared
    across simulated nodes — so each receiver's view of a channel
    depends only on the datagrams *it* saw (per-receiver loss fidelity).
    A :class:`~repro.core.headers.HeaderFrameStore` *is* shared, and keeps
    that fidelity because it is keyed by a datagram's whole content: a
    receiver is only given frames for bytes it was itself handed, and
    table-mode datagrams never enter it.
    """

    __slots__ = ("_channels",)

    def __init__(self) -> None:
        self._channels: Dict[int, _ChannelTable] = {}

    def channel(self, channel_id: int, epoch: int) -> _ChannelTable:
        channels = self._channels
        table = channels.get(channel_id)
        if table is None or table.epoch != epoch:
            if table is None and len(channels) >= _MAX_CHANNELS:
                del channels[next(iter(channels))]  # insertion order: the oldest
            table = _ChannelTable(epoch)
            channels[channel_id] = table
        return table


def make_channel_encoder(
    source: Any, group: Any, epoch: int, refresh_every: int = 64
) -> HeaderChannelEncoder:
    """Build the sender-side encoder for one (endpoint, group) channel.

    The channel id is a stable 4-byte hash of the marshalled addresses,
    so both sides derive it without negotiation messages.
    """
    digest = hashlib.blake2b(
        source.marshal() + b"|" + group.marshal(), digest_size=4
    ).digest()
    return HeaderChannelEncoder(
        int.from_bytes(digest, "big"), epoch, refresh_every=refresh_every
    )


# ----------------------------------------------------------------------
# The datagram layout
# ----------------------------------------------------------------------

#: Ahead of the shape: channel id, epoch, update count; then per update
#: its table index and length, and the entry's canonical bytes.
_CHANNEL = struct.Struct(">IHH")
_UPDATE = struct.Struct(">HH")


class _Table(WireFormat):
    """The channel section (installs must precede what references
    them), the shape — a varint table reference, or ``0``, a varint
    length and the shape's bytes — then every present field of every
    header, bottom first, in declaration order.
    """

    def write_headers(self, out, headers, by_name, channel):
        if channel is None:
            raise HeaderError(
                "table wire mode needs a per-channel encoder "
                "(HeaderRegistry.marshal(..., channel=...))"
            )
        fields = bytearray()
        template = channel._template
        if (template is not None and template[0] is by_name
                and _replay(headers, template, fields)):
            channel.touch(template[3])
        else:
            del fields[:]
            template = channel._template = _walk(headers, by_name, channel, fields)
        # Encoding the fields and the shape is what queues the installs.
        updates = channel.take_updates()
        out += _CHANNEL.pack(channel.channel_id, channel.epoch, len(updates))
        for idx, raw in updates:
            out += _UPDATE.pack(idx, len(raw))
            out += raw
        out += template[4]
        out += fields

    def read_headers(self, data, offset, count, by_id, message, lazy, tables):
        """Apply the installs, then decode every field in one pass,
        whatever ``lazy`` says.  The body frame must end the datagram
        exactly: with no per-header lengths, that binds the fields' end.
        Without a store a datagram must install all it references."""
        if type(data) is not bytes:
            data = bytes(data)
        size = len(data)
        try:
            channel_id, epoch, n_updates = _CHANNEL.unpack_from(data, offset)
            offset += _CHANNEL.size
            store = tables if tables is not None else HeaderTableStore()
            table = store.channel(channel_id, epoch)
            for _ in range(n_updates):
                idx, length = _UPDATE.unpack_from(data, offset)
                offset += _UPDATE.size
                end = offset + length
                if end > size:
                    raise HeaderError("truncated table update")
                table.install(idx, bytes(data[offset:end]))
                offset = end
            ref = data[offset]
            offset += 1
            if ref >= 0x80:
                ref, offset = _read_uvarint(data, offset - 1)
            if ref:
                plan = table.shape(ref - 1, by_id)
            else:
                length, offset = _read_uvarint(data, offset)
                end = offset + length
                if end > size:
                    raise HeaderError("truncated shape")
                plan = _shape_plan(data[offset:end], by_id)
                offset = end
            if plan[0] != count:
                raise HeaderError(f"shape of {plan[0]} headers in a datagram of {count}")
            offset = _read_fields(data, offset, plan[1], table, message)
            (body_len,) = unpack_body_len(data, offset)
        except Exception as exc:
            reraise(exc, "corrupt packet")
        if offset + BODY_LEN_SIZE + body_len != size:
            raise HeaderError(
                f"table fields end at byte {offset}, not where the body "
                f"frame puts them"
            )
        return offset


#: This module's entry in the registry's mode table.
FORMATS = (_Table("table", 3),)
