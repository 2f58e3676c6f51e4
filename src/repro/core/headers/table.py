"""The ``table`` wire mode: presence-coded rows over per-channel tables.

Pay only for the fields you use.  Each header is a row — a bitmap of
the fields that differ from their defaults, then only those, ints as
varints — and, HPACK-style, each sender channel (one per endpoint ×
group) owns a dynamic table mapping small indices to canonically-encoded
field values, so repetitive per-flow values (sender and group addresses)
cost one byte.  Installs ride in an eagerly-applied updates section
ahead of the rows.  Unknown references raise HeaderError — the datagram
is rejected whole and the sender's periodic refresh re-installs the
entry, so loss heals without acks.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.headers.codecs import (
    FRAME_SIZE, Bytes, CanonicalCodec, FieldSpec, FieldType, Scalar,
    WireFormat, pack_frame, reraise, unpack_frame,
)
from repro.core.message import Header
from repro.errors import HeaderError

#: Row decode steps: bare varint, table reference, canonical encoding.
_ROW_INT, _ROW_REF, _ROW_CANONICAL = range(3)

#: Presence bitmaps whose decode plan a codec will cache.
_ROW_PLAN_CAP = 64

#: Entries per channel table.  The sender stops interning here (later
#: values go out as literals) and the receiver refuses an install at or
#: past it: indices arrive from the wire, and the table they fill is kept.
_MAX_ENTRIES = 4096

#: Channels one receiver keeps tables for; the oldest-installed goes
#: first.  Channel ids arrive from the wire too.  An evicted live
#: channel heals at its sender's next refresh, like any lost install.
_MAX_CHANNELS = 1024

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


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------


class HeaderCodec(CanonicalCodec):
    """A layer's codec: the canonical form, plus its presence-coded row.

    The row form keeps per-codec state (the all-defaults header, the
    decode plan per bitmap), so it is the codec layers declare and the
    registry holds; :class:`CanonicalCodec` is what the other modes see.
    """

    def __init__(
        self,
        layer: str,
        fields: Sequence[FieldSpec],
        defaults: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(layer, fields, defaults)
        # Row decode: every field at its default (None where there is
        # none) in declaration order, and the per-bitmap plans.
        self._row_base: Header = {
            name: self.defaults.get(name) for name, _ in self.fields
        }
        self._row_plans: Dict[int, Tuple[Any, ...]] = {}

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
            value = self.value(header, name)
            dflt = defaults.get(name, _REQUIRED)
            present = dflt is _REQUIRED or value != dflt
            start = len(out)
            idx = None
            if present:
                bitmap |= 1 << bit
                try:
                    idx = self._encode_row_field(name, ftype, value, channel, out)
                except Exception as exc:
                    reraise(exc, f"{self.layer}: cannot encode field "
                                 f"{name!r}={value!r}")
            if name not in header:
                continue
            if type(ftype) is Scalar and ftype.unsigned:
                segments.append((True, name, dflt, present, 1 << ftype.bits))
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
        if kind is Scalar and ftype.unsigned:
            number = int(value)
            if number < 0 or number >> ftype.bits:
                raise HeaderError(
                    f"{self.layer}: {number} does not fit unsigned field {name!r}"
                )
            _write_uvarint(out, number)
            return None
        if kind is Bytes:
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
                code = (_ROW_REF if kind is Bytes
                        else _ROW_INT if kind is Scalar and ftype.unsigned
                        else _ROW_CANONICAL)
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
                        if value >> ftype.bits:
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
        except Exception as exc:
            reraise(exc, f"{self.layer}: corrupt table row")
        if pos != end:
            raise HeaderError(
                f"{self.layer}: table row's fields end at byte {pos}, "
                f"its frame at {end}"
            )
        return header


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
                 "_by_raw", "_raws", "_uses", "_pending", "_templates")

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
        if idx >= _MAX_ENTRIES:
            raise HeaderError(
                f"header-table index {idx} past the {_MAX_ENTRIES}-entry bound"
            )
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

#: Ahead of the rows: channel id, epoch, update count; then per update
#: its table index and length, and the entry's canonical bytes.
_CHANNEL = struct.Struct(">IHH")
_UPDATE = struct.Struct(">HH")


class _Table(WireFormat):
    """The channel section (installs must precede the rows that
    reference them), then per header its frame (layer id, length) and
    its row.
    """

    def write_headers(self, out, headers, by_name, channel):
        if channel is None:
            raise HeaderError(
                "table wire mode needs a per-channel encoder "
                "(HeaderRegistry.marshal(..., channel=...))"
            )
        blobs: List[Tuple[int, bytes]] = []
        for owner, header in headers:
            layer_id, codec = by_name[owner]
            blobs.append((layer_id, codec.encode_table(header, channel)))
        # Encoding the rows is what queues the installs they need.
        updates = channel.take_updates()
        out += _CHANNEL.pack(channel.channel_id, channel.epoch, len(updates))
        for idx, raw in updates:
            out += _UPDATE.pack(idx, len(raw))
            out += raw
        for layer_id, blob in blobs:
            out += pack_frame(layer_id, len(blob))
            out += blob

    def read_headers(self, data, offset, count, by_id, message, lazy, tables):
        """Apply the installs, decode every row in place.

        Rows are a few bytes each, so they decode here in the one pass
        over the datagram (no per-header thunk, slice or re-dispatch)
        whatever ``lazy`` says.  Without a store the datagram gets a
        throwaway one, so it must install all it references.
        """
        if type(data) is not bytes:
            data = bytes(data)
        size = len(data)
        push = message.push_owned_header
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
            for _ in range(count):
                layer_id, length = unpack_frame(data, offset)
                offset += FRAME_SIZE
                end = offset + length
                if end > size:
                    raise HeaderError("truncated header")
                codec = by_id[layer_id]
                push(codec.layer, codec.decode_row(data, offset, end, table))
                offset = end
        except Exception as exc:
            reraise(exc, "corrupt packet")
        return offset


#: This module's entry in the registry's mode table.
FORMATS = (_Table("table", 3),)
