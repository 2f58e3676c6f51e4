"""A replicated dictionary with state transfer to joiners.

"It is straightforward to implement replicated data ... in Horus"
(Section 9).  Updates ride totally ordered multicast; a member that
joins mid-life receives a snapshot from the coordinator (the paper's
"joining a group and obtaining its state") before applying updates, so
late replicas converge to the same contents as founding ones.

State transfer is delegated to the stack's
:class:`~repro.layers.xfer.StateTransferLayer`: the dict binds a
provider (serialize my contents) and an installer (adopt the
coordinator's contents) and the layer handles snapshot streaming,
joiner buffering, and re-streaming across view changes.  XFER is the
only state-transfer path: a stack without it is rejected at construction.

With ``durable=True`` the dict also journals every applied update to
the world's store domain (a write-ahead log keyed by
``(node, "rdict.<group>")``), compacting into a snapshot every
``snapshot_every`` updates.  A process recovered with
``stateful=True`` replays the journal before re-joining, then catches
the delta over XFER.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.core.endpoint import Endpoint
from repro.core.group import DeliveredMessage
from repro.core.stack import parse_stack_spec
from repro.errors import ConfigurationError

DEFAULT_STACK = "XFER:TOTAL:MBRSHIP:FRAG:NAK:COM"


class ReplicatedDict:
    """A key-value map replicated across a process group.

    >>> shared = ReplicatedDict(endpoint, "config")
    >>> shared.set("timeout", 30)
    >>> # after world.run(...): shared.get("timeout") == 30 at every member

    Args:
        stack: protocol stack spec; must include an ``XFER`` layer (the
            default does), which carries state transfer to joiners.
        durable: journal applied updates to the world's store domain so
            ``stateful=True`` recovery replays them.
        namespace: store namespace (default ``"rdict.<group>"``).
        snapshot_every: compact the WAL into a snapshot after this many
            journaled updates (durable mode only).
        policy: the journal's :class:`~repro.store.DurabilityPolicy`
            (or mode string: ``fsync_per_record``, ``group``,
            ``async``).  Relaxed modes batch journal fsyncs; a crash
            may lose the tail of *applied-but-unflushed* updates, which
            stateful recovery then catches back up over XFER.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        group: str,
        stack: str = DEFAULT_STACK,
        durable: bool = False,
        namespace: Optional[str] = None,
        snapshot_every: int = 64,
        policy: Any = None,
    ) -> None:
        if all(name != "XFER" for name, _ in parse_stack_spec(stack)):
            raise ConfigurationError(
                f"ReplicatedDict needs an XFER layer for state transfer to "
                f"joiners; stack {stack!r} has none"
            )
        self._data: Dict[str, Any] = {}
        self._snapshot_every = max(1, int(snapshot_every))
        self.store = None
        #: Updates replayed from a previous incarnation's journal.
        self.recovered_updates = 0
        #: Whether a previous incarnation's snapshot was restored.
        self.recovered_snapshot = False
        self._address = endpoint.address
        if durable:
            domain = getattr(endpoint.process.world, "store", None)
            if domain is None:
                raise ValueError(
                    "durable=True needs a world with a store domain"
                )
            self.store = domain.store(
                self._address.node, namespace or f"rdict.{group}",
                policy=policy,
            )
            self._replay_journal()
        self.handle = endpoint.join(group, stack=stack, on_message=self._deliver)
        self._xfer = self.handle.focus("XFER", topmost=True)
        self._xfer.bind(provider=self._provide, installer=self._install)

    # ------------------------------------------------------------------
    # Application surface
    # ------------------------------------------------------------------

    def set(self, key: str, value: Any) -> bytes:
        """Replicated write; returns the cast payload bytes."""
        return self._cast({"op": "set", "key": key, "value": value})

    def delete(self, key: str) -> bytes:
        """Replicated delete; returns the cast payload bytes."""
        return self._cast({"op": "del", "key": key})

    def get(self, key: str, default: Any = None) -> Any:
        """Local read of the replicated state."""
        return self._data.get(key, default)

    def snapshot(self) -> Dict[str, Any]:
        """A copy of the full local state."""
        return dict(self._data)

    def digest(self) -> str:
        """SHA-256 over the canonical JSON contents — equal digests mean
        equal replicated state (the chaos runner's convergence oracle)."""
        return hashlib.sha256(self._state_bytes()).hexdigest()

    @property
    def synced(self) -> bool:
        """Whether this member has the authoritative state (joiners are
        unsynced until their snapshot arrives)."""
        return self._xfer.synced

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    # Replication machinery
    # ------------------------------------------------------------------

    def _cast(self, update: Dict[str, Any]) -> bytes:
        payload = b"U" + json.dumps(update, sort_keys=True).encode("utf-8")
        self.handle.cast(payload)
        return payload

    def _state_bytes(self) -> bytes:
        return json.dumps(self._data, sort_keys=True).encode("utf-8")

    def _deliver(self, delivered: DeliveredMessage) -> None:
        self._apply(delivered.data[1:])  # strip the b"U" update tag

    # ------------------------------------------------------------------
    # XFER callbacks
    # ------------------------------------------------------------------

    def _provide(self) -> bytes:
        return self._state_bytes()

    def _install(self, state: bytes, epoch: int):
        try:
            self._data = json.loads(state.decode("utf-8")) if state else {}
        except ValueError:
            self._data = {}
        if self.store is not None:
            # The transferred state supersedes the journal: compact.
            # Returning the commit ticket lets an XFER layer configured
            # with ack="durable" defer sync until the state is on disk.
            return self.store.snapshot(self._state_bytes(), epoch=epoch)
        return None

    # ------------------------------------------------------------------
    # Applying and journaling updates
    # ------------------------------------------------------------------

    def _apply(self, payload: bytes, persist: bool = True) -> None:
        try:
            update = json.loads(payload.decode("utf-8"))
        except ValueError:
            return  # foreign traffic (e.g. chaos probe payloads); skip
        op = update.get("op")
        if op == "set":
            self._data[update["key"]] = update["value"]
        elif op == "del":
            self._data.pop(update["key"], None)
        else:
            return
        if persist and self.store is not None:
            self.store.append(payload)
            if self.store.since_snapshot >= self._snapshot_every:
                self.store.snapshot(self._state_bytes(), epoch=0)

    def _replay_journal(self) -> None:
        replayed = self.store.replay()
        if replayed.snapshot is not None:
            try:
                self._data = json.loads(replayed.snapshot.decode("utf-8"))
                self.recovered_snapshot = True
            except ValueError:
                self._data = {}
        for record in replayed.entries:
            self._apply(record, persist=False)
        self.recovered_updates = len(replayed.entries)

    def __repr__(self) -> str:
        state = "synced" if self.synced else "syncing"
        return f"<ReplicatedDict {self._address} {state} n={len(self)}>"
