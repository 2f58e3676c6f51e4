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

from repro.membership.directory import GroupDirectory
from repro.membership.external_fd import ExternalFailureDetector
from repro.membership.failure_detector import TimeoutFailureDetector
from repro.membership.partition_models import (
    ExtendedVirtualSynchrony,
    PartitionPolicy,
    PrimaryPartition,
    RelacsViewSynchrony,
    partition_policy,
)

__all__ = [
    "ExtendedVirtualSynchrony",
    "ExternalFailureDetector",
    "GroupDirectory",
    "PartitionPolicy",
    "PrimaryPartition",
    "RelacsViewSynchrony",
    "TimeoutFailureDetector",
    "partition_policy",
]
