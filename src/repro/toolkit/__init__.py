"""Isis-style tools over the Horus core (Section 1).

"Isis supported process groups with mechanisms for joining a group ...
and communicating with groups using atomic, ordered multicasts.  These
primitive functions were used to support tools for locking and
replicating data, load-balancing, guaranteed execution, primary-backup
fault-tolerance, parallel computation, and system control and
management.  Horus focuses on the core of Isis, implementing a very
powerful process group communication architecture which can be used in
support of Isis-like tools."

This package is those tools, rebuilt on the reproduction's public API —
nothing here touches layer internals; everything goes through
:class:`~repro.core.group.GroupHandle`:

* :class:`~repro.toolkit.state_machine.ReplicatedStateMachine` —
  deterministic command replication over totally ordered multicast.
* :class:`~repro.toolkit.replicated_data.ReplicatedDict` — a replicated
  key-value map: a state machine over a dict, whose dict alone is
  snapshotted and transferred to joiners.
* :class:`~repro.toolkit.lock.DistributedLock` — mutual exclusion from
  total order, with crash-safe lock recovery via view changes.
* :class:`~repro.toolkit.primary_backup.PrimaryBackup` — primary-backup
  fault tolerance with automatic failover.
* :class:`~repro.toolkit.load_balancer.LoadBalancer` — coordination-free
  work partitioning by view rank.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DistributedLock": "repro.toolkit.lock",
    "GuaranteedExecutor": "repro.toolkit.guaranteed",
    "LoadBalancer": "repro.toolkit.load_balancer",
    "PrimaryBackup": "repro.toolkit.primary_backup",
    "ReplicatedDict": "repro.toolkit.replicated_data",
    "ReplicatedStateMachine": "repro.toolkit.state_machine",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
