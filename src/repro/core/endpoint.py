"""Communication endpoints.

Section 3: "The endpoint object models the communicating entity.  An
endpoint has an address, and can send and receive messages ... messages
are not addressed to endpoints, but to groups."  An endpoint owns one
network attachment and a protocol stack per joined group; incoming
packets are demultiplexed to the right stack by the group address the
COM layer placed in the outermost header.

The endpoint sits exactly on the execution-substrate seam: it reaches
time only through the process's Clock-shaped guarded scheduler and the
network only through the attach/unicast/multicast contract, so the same
endpoint (and every stack it builds) runs on the discrete-event
simulation and on the realtime engine + OS-UDP transport unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.group import DeliveredMessage, GroupHandle
from repro.core.layer import LayerContext
from repro.core.stack import Stack, StackConfig
from repro.obs import ObsOptions
from repro.core.view import View
from repro.core.headers import HeaderTableStore
from repro.errors import EndpointError, HeaderError
from repro.net.address import EndpointAddress, GroupAddress
from repro.net.packet import Packet

#: The stack used when the caller does not specify one: virtual
#: synchrony over reliable FIFO multicast — the paper's Section 7
#: example minus the optional TOTAL ordering.
DEFAULT_STACK = "MBRSHIP:FRAG:NAK:COM"


class Endpoint:
    """One communication endpoint of a process.

    Created via :meth:`repro.core.process.Process.endpoint`; do not
    construct directly.
    """

    def __init__(self, process: Any, address: EndpointAddress) -> None:
        self.process = process
        self.address = address
        self.destroyed = False
        self._groups: Dict[GroupAddress, GroupHandle] = {}
        self._stacks: Dict[GroupAddress, Stack] = {}
        #: Packets dropped because they could not be parsed (garbling).
        self.undecodable_packets = 0
        #: Packets for groups this endpoint has not joined.
        self.misrouted_packets = 0
        #: Receiver-side header-table state, one per endpoint so each
        #: receiver's channel tables depend only on the datagrams it saw.
        self._header_tables = HeaderTableStore()
        process.world.network.attach(address, self._on_packet)

    # ------------------------------------------------------------------
    # Joining groups
    # ------------------------------------------------------------------

    def join(
        self,
        group: str,
        stack: Union[str, StackConfig] = DEFAULT_STACK,
        on_message: Optional[Callable[[DeliveredMessage], None]] = None,
        on_view: Optional[Callable[[View], None]] = None,
        on_stable: Optional[Callable[[Dict[Any, Any]], None]] = None,
        on_problem: Optional[Callable[[EndpointAddress], None]] = None,
        on_exit: Optional[Callable[[], None]] = None,
        overrides: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> GroupHandle:
        """Join ``group`` through a protocol stack built from ``stack``.

        ``stack`` is either a :class:`~repro.core.stack.StackConfig` or
        a spec string in the paper's top-to-bottom colon notation, e.g.
        ``"TOTAL:MBRSHIP:FRAG:NAK:COM"`` (``overrides`` then applies;
        with a config it must be left at its default).
        Returns the group handle (Table 1's ``join`` downcall "join
        group and return handle").
        """
        self._check_alive()
        group_addr = GroupAddress(group)
        if group_addr in self._groups:
            raise EndpointError(f"{self.address} already joined {group}")
        if isinstance(stack, StackConfig):
            if overrides is not None:
                raise EndpointError(
                    "pass overrides inside the StackConfig, not alongside it"
                )
            config = stack
        else:
            config = StackConfig(spec=stack, overrides=overrides)
        handle = GroupHandle(
            endpoint_address=self.address,
            group=group_addr,
            on_message=on_message,
            on_view=on_view,
            on_stable=on_stable,
            on_problem=on_problem,
            on_exit=on_exit,
        )
        world = self.process.world
        context = LayerContext(
            scheduler=self.process.guarded_scheduler,
            network=world.network,
            endpoint=self.address,
            group=group_addr,
            rng=world.rng.stream(f"stack.{self.address}.{group}"),
            trace=world.trace,
            registry=world.registry,
            wire_mode=world.wire_mode,
            directory=world.directory,
            process=self.process,
            metrics=getattr(world, "metrics", None),
            spans=getattr(world, "spans", None),
            store=getattr(world, "store", None),
            obs=getattr(world, "obs", None) or ObsOptions(),
        )
        built = config.build(context, handle.deliver_upcall)
        handle.attach_stack(built)
        self._groups[group_addr] = handle
        self._stacks[group_addr] = built
        built.start()
        built.down(Downcall(DowncallType.JOIN))
        return handle

    def group(self, group: str) -> GroupHandle:
        """The handle for a previously joined group."""
        try:
            return self._groups[GroupAddress(group)]
        except KeyError:
            raise EndpointError(f"{self.address} has not joined {group}") from None

    def groups(self) -> Dict[GroupAddress, GroupHandle]:
        """Snapshot of all joined groups."""
        return dict(self._groups)

    # ------------------------------------------------------------------
    # Packet demultiplexing
    # ------------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        """Network delivery callback: decode, demux by group, hand to stack."""
        if self.destroyed or not self.process.alive:
            return
        world = self.process.world
        try:
            # Structure is validated here; headers decode as their
            # layers pop them.  The world's frame store serves the other
            # endpoints of this process, which are handed the same bytes.
            message = world.registry.unmarshal(
                packet.payload,
                lazy=True,
                tables=self._header_tables,
                frames=world.header_frames,
            )
        except HeaderError:
            # Garbled beyond parsing; without a checksum layer this is
            # all the protection there is (the paper's Section 2 point).
            self.undecodable_packets += 1
            return
        try:
            # This decodes the bottom header; a value-level failure
            # surfaces here and drops the packet.  (Table rows, lost
            # installs included, already failed above.)
            bottom = message.peek_header()
        except HeaderError:
            self.undecodable_packets += 1
            return
        group_name = None
        if bottom is not None:
            group_name = bottom.get("group")
        if group_name is None:
            self.undecodable_packets += 1
            return
        stack = self._stacks.get(group_name)
        if stack is None:
            self.misrouted_packets += 1
            return
        upcall = Upcall(
            type=UpcallType.CAST,
            message=message,
            source=packet.source,
        )
        stack.deliver_from_network(upcall)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def destroy(self) -> None:
        """Table 1's ``destroy``: leave everything and detach (idempotent)."""
        if self.destroyed:
            return
        self.destroyed = True
        for handle in list(self._groups.values()):
            if not handle.left:
                handle.leave()
        for stack in self._stacks.values():
            stack.stop()
        network = self.process.world.network
        if network.attached(self.address):
            network.detach(self.address)

    def _check_alive(self) -> None:
        if self.destroyed:
            raise EndpointError(f"endpoint {self.address} was destroyed")
        if not self.process.alive:
            raise EndpointError(f"process {self.process.name} has crashed")

    def __repr__(self) -> str:
        return f"<Endpoint {self.address} groups={len(self._groups)}>"
