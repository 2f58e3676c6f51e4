"""The unified observability plane.

One instrumentation API for both execution substrates:

* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms with labeled series.  The network/transport stats objects
  are views over it, and the per-layer HCPI seam feeds it.
* :class:`SpanRecorder` / :class:`MessageSpan` — message-path spans:
  per-layer down/up entry-exit timestamps and header bytes
  pushed/popped, recorded by a :class:`StackObserver` wrapping every
  layer's ``down``/``up`` the same way.
* :mod:`repro.obs.exporters` — JSON-lines snapshots (deterministic on
  the DES).
* :mod:`repro.obs.report` — the ``python -m repro obs-report`` tables.

Enable per-layer instrumentation by constructing a world with
``obs=ObsOptions(layer_metrics=True, spans=True)``; network and
transport counters are always registry-backed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.exporters import (
    read_jsonl,
    render_jsonl,
    snapshot_records,
    write_jsonl,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    SIZE_BUCKETS,
    TIME_BUCKETS,
)
from repro.obs.report import (
    render_flow_report,
    render_layer_report,
    render_network_report,
    render_store_report,
)
from repro.obs.spans import MessageSpan, SpanEvent, SpanRecorder, StackObserver


@dataclass
class ObsOptions:
    """What a world instruments beyond the always-on network counters.

    Attributes:
        layer_metrics: feed per-layer event counters, self-time
            histograms, and header-byte counters from the HCPI seam.
        spans: record full message-path spans (implies the per-crossing
            bookkeeping even where metrics alone would not need it).
        max_spans: bound on retained spans (oldest evicted first).
        sample: observe every Nth stack traversal in detail (1 = all).
            Sampled-out traversals skip the per-crossing hook almost
            entirely (head-based sampling: two integer ops per
            crossing), which is what keeps the realtime hot path
            cheap.  Per-layer *event counts* stay exact regardless —
            the observer counts every crossing it sees, sampled out or
            not — as does the traversal counter; self-time, header
            bytes, and spans become 1-in-N statistics.
    """

    layer_metrics: bool = False
    spans: bool = False
    max_spans: int = 10_000
    sample: int = 1

    @classmethod
    def full(cls, max_spans: int = 10_000) -> "ObsOptions":
        """Everything on, every traversal timed — what DES snapshots use."""
        return cls(layer_metrics=True, spans=True, max_spans=max_spans)

    @classmethod
    def production(cls, sample: int = 32) -> "ObsOptions":
        """Exact event counters plus 1/``sample`` detailed traversals
        (timing, header bytes, spans): the low-overhead realtime
        configuration."""
        return cls(layer_metrics=True, spans=True, sample=sample)

    @classmethod
    def off(cls) -> "ObsOptions":
        """Layer seam fully dark (network counters remain)."""
        return cls(layer_metrics=False, spans=False)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MessageSpan",
    "MetricFamily",
    "MetricsRegistry",
    "ObsOptions",
    "SIZE_BUCKETS",
    "SpanEvent",
    "SpanRecorder",
    "StackObserver",
    "TIME_BUCKETS",
    "read_jsonl",
    "render_flow_report",
    "render_jsonl",
    "render_layer_report",
    "render_network_report",
    "render_store_report",
    "snapshot_records",
    "write_jsonl",
]
