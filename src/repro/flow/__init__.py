"""repro.flow — the overload plane's load generator.

Flow control itself is the ``CREDIT`` stack layer
(:mod:`repro.layers.credit`).  This package holds
:mod:`repro.flow.loadgen`, the open-loop load generator behind
``python -m repro load``, reporting SLO-style goodput, tail latency,
shed counts, and retransmit-buffer high-water marks on either
substrate.
"""

from repro.flow.loadgen import LoadConfig, LoadReport, run_load

__all__ = [
    "LoadConfig",
    "LoadReport",
    "run_load",
]
