"""The Horus message object.

Section 3 of the paper: "The message object is a local storage structure
optimized for its purpose.  Its interface includes operations to push
and pop protocol headers, much like a stack. ... A message object can
contain pointers to data located in the address space of the
application ... this permits Horus to pass messages up and down a stack
with no copying of the data."

We reproduce both aspects:

* **Header stack** — layers push a header on the way down and pop their
  own header on the way up.  Headers are tagged with the owning layer's
  name so a layer only ever pops what it pushed.
* **Zero-copy body** — the body is a list of byte segments (an iovec);
  fragmentation and reassembly slice and concatenate segment *lists*,
  never the bytes themselves, until the wire boundary flattens them.
  Segments may be ``memoryview`` slices over a received datagram, so a
  delivered body shares the datagram buffer until someone asks for
  :meth:`Message.body_bytes`.

Received messages may additionally carry **lazy headers**: in the
``aligned`` and ``compact`` wire modes the unmarshaller pushes
placeholder entries that hold a ``(codec, span)`` pair — the header's
bytes as they arrived — instead of a decoded dict, and the dict is
materialized only when the owning layer pops or peeks it (see
:meth:`Message.push_lazy_header`).  Layers never observe the
difference — every accessor materializes on demand, except
:meth:`Message.header_entries`, through which the integrity layers
(CHKSUM, SIGN) read the arrived bytes of the headers above them without
decoding them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import MessageError

Header = Dict[str, Any]


class Message:
    """A message travelling through a protocol stack.

    The pushed-header stack grows as the message descends (each layer
    appends) and shrinks as a received message ascends (each layer pops
    its own).  The message that is sent is a different object from the
    message that is delivered (Section 3); :meth:`copy` and the
    marshalling layer enforce that.
    """

    __slots__ = ("_headers", "_segments")

    def __init__(self, body: bytes = b"") -> None:
        self._headers: List[Tuple[str, Header]] = []
        self._segments: List[bytes] = [body] if body else []

    # ------------------------------------------------------------------
    # Header stack
    # ------------------------------------------------------------------

    def push_header(self, layer: str, header: Header) -> None:
        """Push ``header`` owned by ``layer`` onto the header stack."""
        self._headers.append((layer, dict(header)))

    def push_owned_header(self, layer: str, header: Header) -> None:
        """Push a header dict whose ownership transfers to the message.

        Hot-path variant of :meth:`push_header`: no defensive copy, so
        the caller must not keep (or mutate) its reference.  Layers that
        build a fresh literal dict per push use this.
        """
        self._headers.append((layer, header))

    def push_owned_headers(self, entries: Iterable[Tuple[str, Header]]) -> None:
        """:meth:`push_owned_header` for ``(layer, header)`` pairs, bottom first."""
        self._headers.extend(entries)

    def push_lazy_header(self, layer: str, entry: Any) -> None:
        """Push a deferred header owned by ``layer``.

        ``entry`` is a :class:`repro.core.headers.wire._LazyHeader` or
        anything shaped like one: ``materialize()`` returns the header
        dict (raising ``HeaderError`` on corrupt bytes), ``span`` is the
        header's bytes as they arrived and ``codec`` its
        :class:`~repro.core.headers.HeaderCodec` (the integrity layers
        read those two through :meth:`header_entries`).  Used by the wire
        unmarshaller so a received message decodes a header only when
        its owning layer actually pops or peeks it.
        """
        self._headers.append((layer, entry))

    def pop_header(self, layer: str) -> Header:
        """Pop the top header, which must belong to ``layer``.

        Raises :class:`MessageError` on an empty stack or an ownership
        mismatch — both indicate a mis-stacked protocol, the exact bug
        class the common interface exists to prevent.
        """
        if not self._headers:
            raise MessageError(f"layer {layer!r} popped an empty header stack")
        owner, header = self._headers[-1]
        if owner != layer:
            raise MessageError(
                f"layer {layer!r} tried to pop header owned by {owner!r}"
            )
        self._headers.pop()
        if type(header) is not dict:
            header = header.materialize()
        return header

    def peek_header(self, layer: Optional[str] = None) -> Optional[Header]:
        """Return the top header without popping.

        With ``layer`` given, returns ``None`` unless the top header is
        owned by that layer; without it, returns whatever is on top (or
        ``None`` when the stack is empty).
        """
        if not self._headers:
            return None
        owner, header = self._headers[-1]
        if layer is not None and owner != layer:
            return None
        if type(header) is not dict:
            header = header.materialize()
            self._headers[-1] = (owner, header)
        return header

    def top_owner(self) -> Optional[str]:
        """Name of the layer owning the top header, or ``None``."""
        if not self._headers:
            return None
        return self._headers[-1][0]

    @property
    def header_depth(self) -> int:
        """Number of headers currently pushed."""
        return len(self._headers)

    def headers(self) -> List[Tuple[str, Header]]:
        """A snapshot of the header stack, bottom-of-stack first.

        Materializes any lazy entries and copies every dict: for
        inspection (tests, size accounting), not for the hot path.
        """
        entries = self._headers
        out: List[Tuple[str, Header]] = []
        for i, (owner, h) in enumerate(entries):
            if type(h) is not dict:
                h = h.materialize()
                entries[i] = (owner, h)
            out.append((owner, dict(h)))
        return out

    def iter_headers(self) -> List[Tuple[str, Header]]:
        """The header stack, bottom-first, materialized but NOT copied.

        Hot-path variant of :meth:`headers` for the marshaller's
        read-only walk: callers must not mutate the dicts.
        """
        entries = self._headers
        for i, (owner, h) in enumerate(entries):
            if type(h) is not dict:
                entries[i] = (owner, h.materialize())
        return entries

    def header_entries(self) -> List[Tuple[str, Any]]:
        """The header stack, bottom-first, as stored: nothing decoded.

        Each entry is ``(owner, header)`` where ``header`` is a dict or
        — ``type(header) is not dict`` — a lazy entry still holding its
        datagram span, which this walk leaves lazy.  The one reader is
        the integrity layers' covered-bytes walk
        (:func:`repro.core.headers.content_chunks`); callers must not
        mutate the list or the dicts.
        """
        return self._headers

    # ------------------------------------------------------------------
    # Body segments (iovec)
    # ------------------------------------------------------------------

    def add_segment(self, data: bytes) -> None:
        """Append a body segment without copying existing segments.

        Segments are bytes-like: plain ``bytes`` or ``memoryview``
        slices over a received datagram (zero-copy delivery).
        """
        if data:
            self._segments.append(data)

    @property
    def segments(self) -> List[bytes]:
        """The body's segment list (do not mutate)."""
        return self._segments

    @property
    def body_size(self) -> int:
        """Total body size in bytes, without flattening."""
        return sum(len(s) for s in self._segments)

    def body_bytes(self) -> bytes:
        """Flatten the body to one byte string (the only copying point)."""
        segments = self._segments
        if len(segments) == 1:
            seg = segments[0]
            return seg if type(seg) is bytes else bytes(seg)
        return b"".join(segments)

    def slice_body(self, start: int, end: int) -> List[bytes]:
        """Return the segments covering ``[start, end)`` of the body.

        Used by the fragmentation layers: slicing yields (at most two
        partial and many whole) segment references, not a copied blob.
        A partial cut of a ``bytes`` segment is a ``memoryview`` over it,
        so a fragment shares its parent's buffer.
        """
        if start < 0 or end < start:
            raise MessageError(f"bad body slice [{start}, {end})")
        out: List[bytes] = []
        offset = 0
        for seg in self._segments:
            seg_end = offset + len(seg)
            lo = max(start, offset)
            hi = min(end, seg_end)
            if lo < hi:
                if lo == offset and hi == seg_end:
                    out.append(seg)
                elif type(seg) is bytes:
                    out.append(memoryview(seg)[lo - offset : hi - offset])
                else:
                    out.append(seg[lo - offset : hi - offset])
            offset = seg_end
            if offset >= end:
                break
        return out

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def copy(self) -> "Message":
        """Deep-copy headers, share body segments (bytes are immutable).

        Lazy entries are shared, not materialized: each copy decodes its
        own dict on first access (decoding is a pure function of the
        immutable datagram bytes, so sharing the thunk is safe).
        """
        clone = Message()
        clone._headers = [
            (owner, dict(h) if type(h) is dict else h)
            for owner, h in self._headers
        ]
        clone._segments = list(self._segments)
        return clone

    def shallow_copy(self) -> "Message":
        """Copy the stacks, share the header dicts.

        For retransmission buffers: layers never mutate a header dict
        after pushing it (they build a fresh dict per push and only read
        popped ones), so a buffered message needs its own header *list*
        (pushes/pops on one side must not show on the other) but can
        share the dicts themselves.  Re-send paths deep-:meth:`copy`
        the buffered message before pushing new headers onto it.
        """
        clone = Message()
        clone._headers = list(self._headers)
        clone._segments = list(self._segments)
        return clone

    def __repr__(self) -> str:
        owners = [owner for owner, _ in self._headers]
        return f"<Message headers={owners} body={self.body_size}B>"
