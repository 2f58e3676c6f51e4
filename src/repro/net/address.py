"""Addresses.

Horus has a *single* address format shared by every layer — the paper
(Section 12) calls this out as the thing that makes layers mixable,
in contrast to STREAMS and the x-kernel where each module invents its
own addressing.  Two address kinds exist:

* :class:`EndpointAddress` — names one communication endpoint.  Used for
  membership: views are lists of endpoint addresses.
* :class:`GroupAddress` — names a group.  Messages are addressed to
  groups, never directly to endpoints (Section 3).

Both are named tuples: every per-peer table in the stack is keyed by an
address, so hashing and equality run in C.  Hash values are those of the
plain field tuple.
"""

from __future__ import annotations

from typing import NamedTuple

_WIRE_ENCODING = "utf-8"


class EndpointAddress(NamedTuple):
    """Globally unique name of a communication endpoint.

    ``node`` identifies the simulated process/machine; ``port``
    distinguishes multiple endpoints within one process (a process may
    stack several endpoints, Section 4).
    """

    node: str
    port: int = 0

    def marshal(self) -> bytes:
        """Encode for inclusion in a wire header."""
        return f"{self.node}:{self.port}".encode(_WIRE_ENCODING)

    @classmethod
    def unmarshal(cls, data: bytes) -> "EndpointAddress":
        """Decode an address previously produced by :meth:`marshal`."""
        text = data.decode(_WIRE_ENCODING)
        node, _, port = text.rpartition(":")
        return cls(node=node, port=int(port))

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"


class GroupAddress(NamedTuple):
    """Name of a process group.

    The group address is what applications send to; the set of endpoints
    behind it is tracked by the membership layers.
    """

    name: str

    def marshal(self) -> bytes:
        """Encode for inclusion in a wire header."""
        return self.name.encode(_WIRE_ENCODING)

    @classmethod
    def unmarshal(cls, data: bytes) -> "GroupAddress":
        """Decode an address previously produced by :meth:`marshal`."""
        return cls(name=data.decode(_WIRE_ENCODING))

    def __str__(self) -> str:
        return self.name
