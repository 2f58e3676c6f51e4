"""LOCATE — resource location (Figure 1: "resource location, in the internet").

Members advertise named resources ("printer", "db-primary", ...); any
member resolves a name to the endpoints currently offering it.  The
registry replicates by multicast, re-synchronizes joiners at each view
change, and prunes offers from departed members — so resolution
reflects the live membership, not stale registrations (the advantage
over a plain name server).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.core.view import View
from repro.net.address import EndpointAddress

_OFFER = 0  # member -> group: I provide <name>
_WITHDRAW = 1  # member -> group: I no longer provide <name>

_NOBODY = EndpointAddress("", 0)

hdr.register(
    "LOCATE", wire_id=12,
    fields=[
        ("kind", hdr.U8),
        ("resource", hdr.TEXT),
        ("provider", hdr.ADDRESS),
    ],
    defaults={"resource": "", "provider": _NOBODY},
)


@register_layer
class ResourceLocationLayer(Layer):
    """Replicated resource offers with membership-aware resolution.

    Application surface (via ``focus("LOCATE")``)::

        locate = handle.focus("LOCATE")
        locate.offer("printer")
        locate.resolve("printer")   # -> [EndpointAddress, ...]
    """

    name = "LOCATE"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.view: Optional[View] = None
        #: resource name -> providers, in offer order.
        self._providers: Dict[str, List[EndpointAddress]] = {}
        self._my_offers: Set[str] = set()
        self.offers_seen = 0

    # ------------------------------------------------------------------
    # Application surface
    # ------------------------------------------------------------------

    def offer(self, resource: str) -> None:
        """Advertise that this endpoint provides ``resource``."""
        self._my_offers.add(resource)
        self._announce(_OFFER, resource)

    def withdraw(self, resource: str) -> None:
        """Stop advertising ``resource``."""
        self._my_offers.discard(resource)
        self._announce(_WITHDRAW, resource)

    def resolve(self, resource: str) -> List[EndpointAddress]:
        """Current live providers of ``resource``, oldest offer first."""
        return list(self._providers.get(resource, []))

    def resources(self) -> List[str]:
        """All resource names with at least one live provider."""
        return sorted(name for name, p in self._providers.items() if p)

    # ------------------------------------------------------------------

    def _announce(self, kind: int, resource: str) -> None:
        message = Message()
        message.push_header(
            self.name,
            {"kind": kind, "resource": resource, "provider": self.endpoint},
        )
        self.pass_down(Downcall(DowncallType.CAST, message=message))

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self._on_view(upcall.view)
            self.pass_up(upcall)
            return
        message = upcall.message
        if (
            upcall.type is not UpcallType.CAST
            or message is None
            or message.peek_header(self.name) is None
        ):
            self.pass_up(upcall)
            return
        header = message.pop_header(self.name)
        providers = self._providers.setdefault(header["resource"], [])
        provider = header["provider"]
        if header["kind"] == _OFFER:
            self.offers_seen += 1
            if provider not in providers:
                providers.append(provider)
        else:
            if provider in providers:
                providers.remove(provider)

    def _on_view(self, view: View) -> None:
        """Prune dead providers; re-announce ours for any joiners."""
        self.view = view
        member_set = set(view.members)
        for providers in self._providers.values():
            providers[:] = [p for p in providers if p in member_set]
        for resource in sorted(self._my_offers):
            self._announce(_OFFER, resource)

    def dump(self):
        info = super().dump()
        info.update(
            my_offers=sorted(self._my_offers),
            resources={
                name: [str(p) for p in providers]
                for name, providers in self._providers.items()
                if providers
            },
            offers_seen=self.offers_seen,
        )
        return info
