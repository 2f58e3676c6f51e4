"""The unified fault-plane API.

:class:`FaultPlane` names the one fault-injection vocabulary every
substrate speaks, with uniform node naming (plain strings, the same
names the worlds use for processes and the networks use for addresses):

* ``crash(node)`` — fail-stop the node: it stops sending, receiving,
  and (at the world level) executing timers, immediately.
* ``recover(node, stateful=False)`` — bring a crashed node back.
  Recovery never resumes in-memory state: the node's endpoints are gone
  and it must re-join its groups through the MBRSHIP join/merge path,
  exactly as a rebooted machine would.  ``stateful=False`` models a
  *replaced* machine (the node's durable stores are wiped too);
  ``stateful=True`` models a *rebooted* one — the stores survive, so
  clients replay their WALs and catch the delta over XFER.
* ``partition(*components)`` — split connectivity into node-name
  components (unlisted nodes form an implicit extra component).
* ``heal()`` — remove all partitions.
* ``set_faults(model)`` — install a :class:`~repro.net.faults.FaultModel`
  (loss/duplication/garbling/delay); ``None`` restores a pristine path.
* ``node_alive(node)`` — observe a node's crash state.

Four objects implement it, at two altitudes:

* substrate level — :class:`repro.net.network.Network` (simulated
  links) and :class:`repro.runtime.transport.UdpTransport` (real UDP
  with emulated partitions and software fault injection);
* process level — :class:`repro.core.process.World` and
  :class:`repro.runtime.world.RealtimeWorld`, which add fail-stop
  process semantics (timers die with the process) on top of their
  network's plane and record every op in the world trace and the
  ``chaos_ops_total`` metric.

Chaos scenarios (:mod:`repro.chaos.scenario`) target the world-level
plane; tests that want surgical link control can reach the substrate
plane directly.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, runtime_checkable

from repro.net.faults import FaultModel


@runtime_checkable
class FaultPlane(Protocol):
    """The uniform fault-injection surface (see module docstring).

    This is a :class:`typing.Protocol`: implementations do not inherit
    from it, they simply provide the methods.  ``isinstance(obj,
    FaultPlane)`` checks structurally.
    """

    def crash(self, node: str) -> None:
        """Fail-stop ``node`` immediately."""
        ...

    def recover(self, node: str, stateful: bool = False) -> object:
        """Bring a crashed ``node`` back: blank slate by default,
        durable stores intact when ``stateful``."""
        ...

    def node_alive(self, node: str) -> bool:
        """Whether ``node`` is currently up."""
        ...

    def partition(self, *components: Iterable[str]) -> None:
        """Split connectivity into node-name components."""
        ...

    def heal(self) -> None:
        """Remove all partitions."""
        ...

    def set_faults(self, model: Optional[FaultModel]) -> None:
        """Install a fault model; ``None`` restores a pristine path."""
        ...
