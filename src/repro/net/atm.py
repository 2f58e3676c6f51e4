"""ATM-like network.

The paper's performance testbed was an ATM network ("Very lightweight
protocol stacks permit Horus users to obtain the performance of an ATM
network with almost no overhead", Section 11).  We model AAL5 semantics:
very low latency, negligible loss, and a bounded service data unit.  The
default MTU is deliberately modest so that the FRAG layer has real work
to do, as in the paper's Section 7 stack.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.faults import FaultModel
from repro.net.network import Network
from repro.sim.scheduler import Scheduler


class AtmNetwork(Network):
    """Low-latency, near-lossless, small-MTU network (property P1).

    ATM carries 48-byte cell payloads; AAL5 reassembles cells into
    service data units.  We charge a per-cell serialization cost on top
    of the base propagation delay so that larger packets take
    proportionally longer, which is what makes fragmentation threshold
    choices measurable in the Section 10 benchmarks.
    """

    default_mtu = 9180  # classical IP-over-ATM default MTU

    #: Seconds of serialization time per 53-byte cell (155 Mbit/s link).
    cell_time = 53 * 8 / 155_000_000

    def __init__(
        self,
        scheduler: Scheduler,
        fault_model: Optional[FaultModel] = None,
        rng: Optional[random.Random] = None,
        mtu: Optional[int] = None,
        name: str = "atm",
        metrics=None,
    ) -> None:
        if fault_model is None:
            # ATM links are effectively loss-free at protocol timescales.
            fault_model = FaultModel(base_delay=50e-6, jitter=5e-6)
        super().__init__(
            scheduler, fault_model=fault_model, rng=rng, mtu=mtu, name=name,
            metrics=metrics,
        )

    def _serialization_time(self, payload: bytes) -> float:
        """One cell time per 48 payload bytes, at least one cell."""
        return max(1, (len(payload) + 47) // 48) * self.cell_time
