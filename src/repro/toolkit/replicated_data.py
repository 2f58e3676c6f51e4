"""A replicated dictionary with state transfer to joiners.

"It is straightforward to implement replicated data ... in Horus"
(Section 9) once total order and a state machine exist: a
:class:`ReplicatedDict` is a
:class:`~repro.toolkit.state_machine.ReplicatedStateMachine` over a
dict, so casting, journaling (a WAL keyed ``(node, "rdict.<group>")``),
compaction, replay and XFER state transfer are the state machine's.
Updates are tagged ``b"U"``; a cast that is not a well-formed ``set``
or ``del`` update is foreign traffic (e.g. chaos probe payloads) and is
skipped.  The dict alone is snapshotted and transferred, with no
command log, so a joiner's transfer costs O(state), not O(history).
XFER is the only state-transfer path: a stack without it is rejected
at construction.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.core.endpoint import Endpoint
from repro.core.stack import parse_stack_spec
from repro.errors import ConfigurationError
from repro.toolkit.state_machine import DEFAULT_STACK, ReplicatedStateMachine


class ReplicatedDict(ReplicatedStateMachine):
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
            (or mode string: ``fsync_per_record``, ``group``).
            ``group`` batches journal fsyncs; a crash
            may lose the tail of *applied-but-unflushed* updates, which
            stateful recovery then catches back up over XFER.
    """

    _namespace = "rdict"
    _tag = b"U"

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
        super().__init__(
            endpoint, group, None, initial={}, stack=stack, durable=durable,
            namespace=namespace, snapshot_every=snapshot_every, policy=policy,
        )

    def set(self, key: str, value: Any) -> bytes:
        """Replicated write; returns the cast payload bytes."""
        return self.submit({"op": "set", "key": key, "value": value})

    def delete(self, key: str) -> bytes:
        """Replicated delete; returns the cast payload bytes."""
        return self.submit({"op": "del", "key": key})

    def get(self, key: str, default: Any = None) -> Any:
        """Local read of the replicated state."""
        return self.state.get(key, default)

    def snapshot(self) -> Dict[str, Any]:
        """A copy of the full local state."""
        return dict(self.state)

    def __len__(self) -> int:
        return len(self.state)

    def _apply(self, update: Any) -> bool:
        if not isinstance(update, dict) or "key" not in update:
            return False
        key = update["key"]
        if isinstance(key, (list, dict)):
            return False  # unhashable, so no key of ours
        op = update.get("op")
        if op == "set" and "value" in update:
            self.state[key] = update["value"]
        elif op == "del":
            self.state.pop(key, None)
        else:
            return False
        return True

    def _state_bytes(self) -> bytes:
        return json.dumps(self.state, sort_keys=True).encode("utf-8")

    def _load(self, state: bytes) -> bool:
        try:
            decoded = json.loads(state.decode("utf-8")) if state else {}
        except ValueError:
            return False
        if not isinstance(decoded, dict):
            return False
        self.state = decoded
        return True

    def __repr__(self) -> str:
        state = "synced" if self.synced else "syncing"
        return (
            f"<ReplicatedDict {self.handle.endpoint_address} {state} "
            f"n={len(self)}>"
        )
