"""Replicated state machines over totally ordered multicast.

The second tier of the paper's three-tier picture (Section 9): "The
second tier closely resembles a state machine, and implements higher
level programming abstractions."  Commands are multicast through a
TOTAL stack; every replica applies the identical sequence to a
deterministic ``apply`` function, so replica state never diverges —
across crashes, joins, and view changes.

With the default stack a joining replica receives the coordinator's
``(state, applied_log)`` snapshot through the stack's
:class:`~repro.layers.xfer.StateTransferLayer` before applying new
commands, so late replicas start from the group's history instead of
``initial``.  With ``durable=True`` every applied command is also
journaled to the world's store domain (WAL keyed by
``(node, "rsm.<group>")``) and replayed on ``stateful=True`` recovery.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, List, Optional

from repro.core.endpoint import Endpoint
from repro.core.group import DeliveredMessage

#: apply(state, command) -> new state.  Must be deterministic.
ApplyFn = Callable[[Any, Any], Any]

DEFAULT_STACK = "XFER:TOTAL:MBRSHIP:FRAG:NAK:COM"


class ReplicatedStateMachine:
    """One replica of a deterministic state machine.

    >>> rsm = ReplicatedStateMachine(endpoint, "counters", apply_fn,
    ...                              initial={})
    >>> rsm.submit({"op": "incr", "key": "hits"})
    >>> # after world.run(...): rsm.state reflects every applied command

    Commands are JSON-serializable values; ``apply_fn`` receives the
    current state and one command and returns the next state.  The
    state itself must be JSON-serializable for snapshot transfer and
    durable journaling to work.

    A subclass replicates another kind of state by overriding ``_apply``
    (False: a foreign command, not journaled), ``_state_bytes`` (what is
    snapshotted, transferred and digested), ``_load`` (adopt such bytes;
    False if undecodable), ``_namespace`` and the payload ``_tag``.
    """

    _namespace = "rsm"
    _tag = b""

    def __init__(
        self,
        endpoint: Endpoint,
        group: str,
        apply_fn: ApplyFn,
        initial: Any = None,
        stack: str = DEFAULT_STACK,
        durable: bool = False,
        namespace: Optional[str] = None,
        snapshot_every: int = 64,
        policy: Any = None,
    ) -> None:
        self.apply_fn = apply_fn
        self.state = initial
        #: Every command applied, in order (identical at all replicas).
        self.applied_log: List[Any] = []
        self.store = None
        self._snapshot_every = max(1, int(snapshot_every))
        #: Commands replayed from a previous incarnation's journal.
        self.recovered_commands = 0
        #: Whether a previous incarnation's snapshot was restored.
        self.recovered_snapshot = False
        if durable:
            domain = getattr(endpoint.process.world, "store", None)
            if domain is None:
                raise ValueError(
                    "durable=True needs a world with a store domain"
                )
            self.store = domain.store(
                endpoint.address.node, namespace or f"{self._namespace}.{group}",
                policy=policy,
            )
            self._replay_journal()
        self.handle = endpoint.join(group, stack=stack, on_message=self._deliver)
        xfers = self.handle.focus_all("XFER")
        self._xfer = xfers[0] if xfers else None
        if self._xfer is not None:
            self._xfer.bind(provider=self._state_bytes, installer=self._install)

    def submit(self, command: Any) -> bytes:
        """Replicate one command (applies everywhere in total order);
        returns the cast payload bytes."""
        payload = self._tag + json.dumps(command, sort_keys=True).encode("utf-8")
        self.handle.cast(payload)
        return payload

    def digest(self) -> str:
        """SHA-256 over the snapshot bytes — equal digests mean equal
        replicated state (the chaos runner's convergence oracle)."""
        return hashlib.sha256(self._state_bytes()).hexdigest()

    @property
    def synced(self) -> bool:
        """Whether this replica holds the group's history (always true
        without an XFER layer, which cannot transfer it)."""
        return self._xfer.synced if self._xfer is not None else True

    def _deliver(self, delivered: DeliveredMessage) -> None:
        data = delivered.data
        if not data.startswith(self._tag):
            return  # foreign traffic
        body = data[len(self._tag):]
        if self._execute(body) and self.store is not None:
            self.store.append(body)
            if self.store.since_snapshot >= self._snapshot_every:
                self.store.snapshot(self._state_bytes(), epoch=0)

    def _execute(self, body: bytes) -> bool:
        try:
            command = json.loads(body.decode("utf-8"))
        except ValueError:
            return False  # foreign traffic; a command is always JSON
        return self._apply(command)

    # ------------------------------------------------------------------
    # The replicated state: override these three to replicate another kind
    # ------------------------------------------------------------------

    def _apply(self, command: Any) -> bool:
        self.state = self.apply_fn(self.state, command)
        self.applied_log.append(command)
        return True

    def _state_bytes(self) -> bytes:
        return json.dumps(
            {"state": self.state, "applied_log": self.applied_log},
            sort_keys=True,
        ).encode("utf-8")

    def _load(self, state: bytes) -> bool:
        try:
            decoded = json.loads(state.decode("utf-8")) if state else {}
        except ValueError:
            return False
        if not isinstance(decoded, dict):
            return False
        self.state = decoded.get("state")
        self.applied_log = list(decoded.get("applied_log", ()))
        return True

    # ------------------------------------------------------------------
    # XFER installation and durable journaling
    # ------------------------------------------------------------------

    def _install(self, state: bytes, epoch: int):
        if not self._load(state):
            return None  # undecodable: keep what we have
        if self.store is not None:
            # The transferred state supersedes the journal: compact.
            # The ticket lets XFER's ack="durable" defer sync to disk.
            return self.store.snapshot(self._state_bytes(), epoch=epoch)
        return None

    def _replay_journal(self) -> None:
        replayed = self.store.replay()
        if replayed.snapshot is not None:
            self.recovered_snapshot = self._load(replayed.snapshot)
        for record in replayed.entries:
            self._execute(record)
        self.recovered_commands = len(replayed.entries)

    def __repr__(self) -> str:
        return (
            f"<ReplicatedStateMachine {self.handle.endpoint_address} "
            f"applied={len(self.applied_log)}>"
        )
