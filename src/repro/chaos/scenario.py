"""The declarative chaos-scenario DSL.

A :class:`Scenario` is a *timeline*: a tuple of timestamped operations
(crash, recover, partition, heal, set_faults, inject_load) applied to a
stack under test on either execution substrate.  Scenarios are frozen,
hashable, JSON-round-trippable values — the properties the rest of the
chaos engine leans on:

* the generator builds them from a seeded rng, so the same seed always
  produces the same timeline;
* the runner serializes them into violation reports, so a soak failure
  ships with everything needed to replay it;
* the shrinker edits them structurally (dropping ops) without ever
  touching a live world.

Times are seconds from the start of the fault phase (after the group
has formed); on the DES they are virtual seconds, on the realtime
substrate wall-clock seconds — the timeline is substrate-neutral.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.net.faults import FaultModel

#: The default stack chaos scenarios exercise: virtual synchrony over
#: reliable FIFO multicast (the Section 7 example minus TOTAL), with
#: CHKSUM below NAK so garble faults become clean, retransmittable
#: losses instead of undetected corruption.
DEFAULT_CHAOS_STACK = "MBRSHIP:FRAG:NAK:CHKSUM:COM"

#: The stack stateful scenarios exercise: the default chaos stack plus
#: TOTAL (so replicated-dict updates apply in one order everywhere) and
#: XFER on top (so recovered nodes catch the delta their WAL missed).
STATEFUL_CHAOS_STACK = "XFER:TOTAL:MBRSHIP:FRAG:NAK:CHKSUM:COM"

#: The stack overload scenarios exercise: the default chaos stack with
#: CREDIT on top, so fan-in storms and slow receivers meet bounded
#: queues and receiver-granted windows instead of unbounded FIFOs.
#: ``shed_policy=block`` keeps the FIFO oracle intact (a blocked cast is
#: never sent, so it is simply not recorded as offered).
OVERLOAD_CHAOS_STACK = (
    "CREDIT(window=8192,max_queue=64):MBRSHIP:FRAG:NAK:CHKSUM:COM"
)


@dataclass(frozen=True)
class ChaosOp:
    """One timestamped operation of a scenario timeline."""

    at: float

    #: Operation tag used by serialization; subclasses override.
    kind = "noop"

    def label(self) -> str:
        """The op without its time: ``crash(n2)``."""
        args = ", ".join(
            str(getattr(self, f.name)) for f in fields(self) if f.name != "at"
        )
        return f"{self.kind}({args})"

    def describe(self) -> str:
        """Human-readable ``t=1.50 crash(n2)`` form."""
        return f"t={self.at:.2f} {self.label()}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; inverse of :func:`op_from_dict`."""
        data: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            data[f.name] = getattr(self, f.name)
        return data


@dataclass(frozen=True)
class Crash(ChaosOp):
    """Fail-stop a node."""

    node: str = ""
    kind = "crash"


@dataclass(frozen=True)
class Recover(ChaosOp):
    """Recover a crashed node; the runner re-joins it via MBRSHIP merge."""

    node: str = ""
    kind = "recover"


@dataclass(frozen=True)
class Partition(ChaosOp):
    """Split the nodes into components (tuples keep the op hashable)."""

    components: Tuple[Tuple[str, ...], ...] = ()
    kind = "partition"

    def label(self) -> str:
        groups = " | ".join(",".join(c) for c in self.components)
        return f"partition({groups})"


@dataclass(frozen=True)
class Heal(ChaosOp):
    """Remove all partitions."""

    kind = "heal"


@dataclass(frozen=True)
class SetFaults(ChaosOp):
    """Swap the fault model (stored as sorted items to stay hashable)."""

    faults: Tuple[Tuple[str, float], ...] = ()
    kind = "set_faults"

    @classmethod
    def of(cls, at: float, **params: float) -> "SetFaults":
        """Build from keyword fault-model parameters."""
        return cls(at=at, faults=tuple(sorted(params.items())))

    def model(self) -> FaultModel:
        """The :class:`FaultModel` this op installs."""
        return FaultModel(**dict(self.faults))

    def label(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.faults)
        return f"set_faults({params})"


@dataclass(frozen=True)
class InjectLoad(ChaosOp):
    """Cast ``count`` messages of ``size`` bytes from ``node``."""

    node: str = ""
    count: int = 1
    size: int = 32
    kind = "inject_load"


@dataclass(frozen=True)
class SlowReceiver(ChaosOp):
    """Throttle ``node``'s application consumption to ``rate`` bytes/s.

    Turns the node into the slow receiver of a fan-in storm via the
    CREDIT layer's ``set_consume_rate``; ``rate=0`` restores instant
    consumption.  A no-op on stacks without a CREDIT layer.
    """

    node: str = ""
    rate: float = 4096.0
    kind = "slow_receiver"


@dataclass(frozen=True)
class FaninStorm(ChaosOp):
    """Every live node except ``target`` casts ``count`` messages.

    The complement of :class:`InjectLoad`: load converges *on* a node
    instead of radiating from one, which is what exercises per-group
    windows (the slowest receiver gates every sender).
    """

    target: str = ""
    count: int = 20
    size: int = 256
    kind = "fanin_storm"


@dataclass(frozen=True)
class WanSqueeze(ChaosOp):
    """Swap in a narrow, jittery WAN-like fault model.

    A convenience over :class:`SetFaults` with a palette tuned to
    squeeze flow control rather than break reliability: high latency
    and reordering, mild loss.
    """

    base_delay: float = 0.08
    jitter: float = 0.04
    loss_rate: float = 0.02
    reorder_rate: float = 0.2
    reorder_delay: float = 0.05
    kind = "wan_squeeze"

    def model(self) -> FaultModel:
        """The :class:`FaultModel` this op installs."""
        return FaultModel(
            base_delay=self.base_delay,
            jitter=self.jitter,
            loss_rate=self.loss_rate,
            reorder_rate=self.reorder_rate,
            reorder_delay=self.reorder_delay,
        )


_OP_KINDS: Dict[str, Type[ChaosOp]] = {
    cls.kind: cls
    for cls in (Crash, Recover, Partition, Heal, SetFaults, InjectLoad,
                SlowReceiver, FaninStorm, WanSqueeze)
}


def op_from_dict(data: Dict[str, Any]) -> ChaosOp:
    """Rebuild an op from its :meth:`ChaosOp.to_dict` form."""
    payload = dict(data)
    kind = payload.pop("kind")
    cls = _OP_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown chaos op kind {kind!r}")
    if cls is Partition:
        payload["components"] = tuple(
            tuple(component) for component in payload["components"]
        )
    elif cls is SetFaults:
        payload["faults"] = tuple(
            (str(k), float(v)) for k, v in payload["faults"]
        )
    return cls(**payload)


@dataclass(frozen=True)
class Scenario:
    """A named, replayable failure storm against one stack."""

    name: str
    nodes: Tuple[str, ...]
    ops: Tuple[ChaosOp, ...]
    stack: str = DEFAULT_CHAOS_STACK
    #: Length of the fault phase; ops all fire inside it.
    duration: float = 6.0
    #: Post-storm grace: how long the runner lets the healed, fully
    #: recovered group converge before verification.
    settle: float = 20.0
    #: Stateful runs replace raw group handles with durable
    #: :class:`~repro.toolkit.replicated_data.ReplicatedDict` clients,
    #: recover crashed nodes with ``stateful=True`` (WAL replay + XFER
    #: catch-up), and add the state-convergence check.
    stateful: bool = False

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.ops, key=lambda op: op.at))
        object.__setattr__(self, "ops", ordered)

    def with_ops(self, ops: Tuple[ChaosOp, ...]) -> "Scenario":
        """A copy of this scenario with a different timeline (shrinking)."""
        return Scenario(
            name=self.name,
            nodes=self.nodes,
            ops=tuple(ops),
            stack=self.stack,
            duration=self.duration,
            settle=self.settle,
            stateful=self.stateful,
        )

    def describe(self) -> str:
        """The full timeline, one op per line."""
        header = (
            f"scenario {self.name}: nodes={','.join(self.nodes)} "
            f"stack={self.stack} duration={self.duration:.1f}s"
            + (" stateful" if self.stateful else "")
        )
        lines = [header] + [f"  {op.describe()}" for op in self.ops]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; inverse of :func:`scenario_from_dict`."""
        return {
            "name": self.name,
            "nodes": list(self.nodes),
            "stack": self.stack,
            "duration": self.duration,
            "settle": self.settle,
            "stateful": self.stateful,
            "ops": [op.to_dict() for op in self.ops],
        }

    def signature(self) -> str:
        """Digest of the timeline itself (not of any execution)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    """Rebuild a scenario from its :meth:`Scenario.to_dict` form."""
    return Scenario(
        name=str(data["name"]),
        nodes=tuple(data["nodes"]),
        ops=tuple(op_from_dict(op) for op in data["ops"]),
        stack=str(data.get("stack", DEFAULT_CHAOS_STACK)),
        duration=float(data.get("duration", 6.0)),
        settle=float(data.get("settle", 20.0)),
        stateful=bool(data.get("stateful", False)),
    )


def load_scenarios(path: str) -> List[Scenario]:
    """Read a JSON file holding one scenario or a list of them."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "scenarios" in data:
        data = [entry["scenario"] for entry in data["scenarios"]]
    if isinstance(data, dict):
        data = [data]
    return [scenario_from_dict(entry) for entry in data]
