"""Membership support services.

The MBRSHIP protocol layer itself lives in :mod:`repro.layers.mbrship`;
this package holds the surrounding services the paper describes:

* :class:`~repro.membership.directory.GroupDirectory` — the rendezvous
  (name) service endpoints use to find an existing view of a group.
* :class:`~repro.membership.failure_detector.TimeoutFailureDetector` —
  inaccurate, timeout-based failure suspicion.
* :class:`~repro.membership.external_fd.ExternalFailureDetector` — the
  Section 5 "external service [that] picks up communication
  problem-reports ... fed to all instances of the MBRSHIP layer".
* :mod:`~repro.membership.partition_models` — the Section 9 policies:
  primary partition, extended virtual synchrony, Relacs view synchrony.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ExtendedVirtualSynchrony": "repro.membership.partition_models",
    "ExternalFailureDetector": "repro.membership.external_fd",
    "GroupDirectory": "repro.membership.directory",
    "PartitionPolicy": "repro.membership.partition_models",
    "PrimaryPartition": "repro.membership.partition_models",
    "RelacsViewSynchrony": "repro.membership.partition_models",
    "TimeoutFailureDetector": "repro.membership.failure_detector",
    "partition_policy": "repro.membership.partition_models",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
