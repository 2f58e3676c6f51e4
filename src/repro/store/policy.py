"""Durability policies and commit tickets — the redesigned commit API.

The store keeps one narrow verb (``append``) and widens what happens
underneath it.  A :class:`DurabilityPolicy` names *when* an appended
record becomes durable:

* ``fsync_per_record`` — every append is written and fsynced before
  ``append`` returns (the original behavior, and the default).  The
  returned ticket is already done.
* ``group`` — appends are buffered and flushed as one write + one
  fsync when the batch reaches ``max_batch_bytes`` / ``max_batch_records``
  or at its deadline: the end of the appending turn when the disk has
  been quiet for ``max_delay`` seconds of Clock time, else ``max_delay``
  after the previous flush (the :class:`~repro.runtime.clock.FlushPacer`
  rule it shares with :class:`repro.net.coalesce.Coalescer`).
  ``append`` returns immediately; the ticket completes at the flush
  that covers it.

Both run on the caller's thread: a stack runs on one event queue per
endpoint, and the write and fsync are part of the turn that needs them.

Every ``append`` returns a :class:`CommitTicket` carrying the record's
LSN.  Callers choose their acknowledgment discipline per record:
ack-after-enqueue (just return), or ack-after-durable
(``ticket.wait()`` / ``ticket.add_done_callback``).  The recovery
contract for ``group``: a crash may lose *buffered* records,
but replay always recovers a clean **prefix** of the append sequence
that includes every record whose ticket completed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

#: The two durability modes, in decreasing strictness.
FSYNC_PER_RECORD = "fsync_per_record"
GROUP = "group"

DURABILITY_MODES = (FSYNC_PER_RECORD, GROUP)


@dataclass(frozen=True)
class DurabilityPolicy:
    """How a store's appends become durable (frozen: share freely).

    Replaces ad-hoc backend kwargs: one policy object travels from
    ``StoreDomain.store(node, ns, policy=...)`` down to the
    :class:`~repro.store.writer.WalWriter` unchanged.
    """

    #: One of :data:`DURABILITY_MODES`.
    mode: str = FSYNC_PER_RECORD
    #: Flush when the buffered batch reaches this many encoded bytes.
    max_batch_bytes: int = 256 * 1024
    #: Flush when the buffered batch reaches this many records.
    max_batch_records: int = 4096
    #: Flush budget in Clock seconds: the longest a buffered record may
    #: wait for its flush, and the closest two deadline flushes may
    #: follow each other — a record that finds the disk quiet for this
    #: long is flushed at the end of its turn (needs a bound clock;
    #: without one, flushes happen on the size triggers and on
    #: ``wait()`` / ``flush()`` alone).
    max_delay: float = 0.002

    def __post_init__(self) -> None:
        if self.mode not in DURABILITY_MODES:
            raise ValueError(
                f"unknown durability mode {self.mode!r}; "
                f"expected one of {DURABILITY_MODES}"
            )
        if self.max_batch_bytes <= 0 or self.max_batch_records <= 0:
            raise ValueError("batch limits must be positive")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")

    @property
    def batched(self) -> bool:
        """Whether appends are deferred past the ``append`` call."""
        return self.mode != FSYNC_PER_RECORD


def parse_policy(value) -> DurabilityPolicy:
    """A :class:`DurabilityPolicy` from a policy, mode string, or None.

    The coercion point for layer/CLI config: ``parse_policy("group")``,
    ``parse_policy(policy)``, ``parse_policy(None)`` (the default
    policy) all work.
    """
    if value is None:
        return DurabilityPolicy()
    if isinstance(value, DurabilityPolicy):
        return value
    if isinstance(value, str):
        return DurabilityPolicy(mode=value)
    raise TypeError(f"cannot interpret {value!r} as a DurabilityPolicy")


class CommitTicket:
    """One append's receipt: its LSN plus a durability future.

    A ticket is *done* once the record it names is on stable storage
    (written and fsynced, or appended to the deterministic in-memory
    blob).  ``fsync_per_record`` tickets are born done; ``group``
    tickets complete at the flush that covers them.
    """

    __slots__ = ("lsn", "_done", "_callbacks", "_waiter")

    def __init__(
        self,
        lsn: int,
        done: bool = False,
        waiter: Optional[Callable[["CommitTicket"], None]] = None,
    ) -> None:
        #: Log sequence number: the record's index in this store handle's
        #: append sequence.
        self.lsn = lsn
        self._done = done
        self._callbacks: List[Callable[["CommitTicket"], None]] = []
        #: How to make progress when a caller waits on this ticket
        #: (the writer's flush hook); None once done.
        self._waiter = None if done else waiter

    # -- the future surface ------------------------------------------------

    def done(self) -> bool:
        """Whether the record is durable."""
        return self._done

    def wait(self) -> bool:
        """Make the record durable now; returns :meth:`done`.

        This *forces* the covering flush, so a ticket can never deadlock
        waiting for a timer that only fires when the world runs.
        """
        if not self._done and self._waiter is not None:
            self._waiter(self)
        return self._done

    def add_done_callback(self, fn: Callable[["CommitTicket"], None]) -> None:
        """Run ``fn(ticket)`` once durable (immediately if already)."""
        if self._done:
            fn(self)
            return
        self._callbacks.append(fn)

    # -- writer side -------------------------------------------------------

    def _complete(self) -> None:
        """Mark durable and fire callbacks.  Idempotent."""
        if self._done:
            return
        self._done = True
        self._waiter = None
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        state = "durable" if self._done else "pending"
        return f"<CommitTicket lsn={self.lsn} {state}>"
