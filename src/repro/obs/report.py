"""Render human-readable reports from observability snapshots.

Input is the parsed JSONL snapshot (:func:`repro.obs.exporters.read_jsonl`);
output is the per-layer latency/byte table the ``python -m repro
obs-report`` subcommand prints — the "where did this message spend its
time" answer the Section 10 analysis needs before any hot path is
touched.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import ConfigurationError


def _table(headers: List[str], rows: List[List[Any]]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.1f}us"


def _layer_rollup(metrics: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Aggregate stack_layer_* series into one record per layer."""
    layers: Dict[str, Dict[str, float]] = {}

    def slot(layer: str) -> Dict[str, float]:
        return layers.setdefault(layer, {
            "down_events": 0, "up_events": 0,
            "down_seconds": 0.0, "up_seconds": 0.0,
            "down_timed": 0, "up_timed": 0,
            "bytes_pushed": 0, "bytes_popped": 0,
        })

    for record in metrics:
        labels = record.get("labels", {})
        layer = labels.get("layer")
        direction = labels.get("direction")
        if layer is None or direction not in ("down", "up"):
            continue
        name = record["name"]
        if name == "stack_layer_events_total":
            slot(layer)[f"{direction}_events"] += record["value"]
        elif name == "stack_layer_self_seconds":
            agg = slot(layer)
            agg[f"{direction}_seconds"] += record["sum"]
            agg[f"{direction}_timed"] += record["count"]
        elif name == "stack_header_bytes_total":
            key = "bytes_pushed" if direction == "down" else "bytes_popped"
            slot(layer)[key] += record["value"]
    return layers


def render_layer_report(snapshot: Dict[str, Any]) -> str:
    """The per-layer table: events, self-time, and header bytes."""
    layers = _layer_rollup(snapshot.get("metrics", []))
    if not layers:
        raise ConfigurationError(
            "snapshot has no stack_layer_* series; was the run made with "
            "layer instrumentation enabled (ObsOptions(layer_metrics=True))?"
        )
    ordered = sorted(
        layers.items(),
        key=lambda kv: (-(kv[1]["down_seconds"] + kv[1]["up_seconds"]), kv[0]),
    )
    rows: List[List[Any]] = []
    for layer, agg in ordered:
        # Means come from the histogram's own count: under sampled
        # timing (ObsOptions.sample > 1) only every Nth traversal is
        # clocked, so dividing by the exact event counter would bias
        # the mean low.
        down_mean = (agg["down_seconds"] / agg["down_timed"]
                     if agg["down_timed"] else 0.0)
        up_mean = (agg["up_seconds"] / agg["up_timed"]
                   if agg["up_timed"] else 0.0)
        rows.append([
            layer,
            int(agg["down_events"]),
            _fmt_seconds(agg["down_seconds"]),
            _fmt_seconds(down_mean),
            int(agg["up_events"]),
            _fmt_seconds(agg["up_seconds"]),
            _fmt_seconds(up_mean),
            int(agg["bytes_pushed"]),
            int(agg["bytes_popped"]),
        ])
    totals = [
        "TOTAL (all layers)",
        sum(int(a["down_events"]) for _, a in ordered),
        _fmt_seconds(sum(a["down_seconds"] for _, a in ordered)),
        "",
        sum(int(a["up_events"]) for _, a in ordered),
        _fmt_seconds(sum(a["up_seconds"] for _, a in ordered)),
        "",
        sum(int(a["bytes_pushed"]) for _, a in ordered),
        sum(int(a["bytes_popped"]) for _, a in ordered),
    ]
    rows.append(totals)
    table = _table(
        ["layer", "down ev", "down self", "down mean",
         "up ev", "up self", "up mean", "hdrB pushed", "hdrB popped"],
        rows,
    )
    sections = [table]
    span_section = _render_span_summary(snapshot.get("spans", []))
    if span_section:
        sections.append(span_section)
    meta = snapshot.get("meta", {})
    if meta:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        sections.append(f"meta: {pairs}")
    return "\n\n".join(sections)


def _render_span_summary(spans: List[Dict[str, Any]]) -> str:
    if not spans:
        return ""
    by_direction: Dict[str, List[float]] = {}
    for span in spans:
        duration = span.get("finished", 0.0) - span.get("started", 0.0)
        by_direction.setdefault(span.get("direction", "?"), []).append(duration)
    rows = []
    for direction in sorted(by_direction):
        durations = sorted(by_direction[direction])
        count = len(durations)
        mean = sum(durations) / count
        p50 = durations[count // 2]
        rows.append([
            direction, count, _fmt_seconds(mean), _fmt_seconds(p50),
            _fmt_seconds(durations[-1]),
        ])
    return "spans (retained traversals):\n" + _table(
        ["direction", "count", "mean", "p50", "max"], rows
    )


def render_store_report(snapshot: Dict[str, Any]) -> str:
    """Durable-store and state-transfer series (store_* / xfer_*).

    Raises :class:`~repro.errors.ConfigurationError` when the snapshot
    has none — the caller can then simply omit the section.
    """
    rows: List[List[Any]] = []
    for record in snapshot.get("metrics", []):
        name = record["name"]
        if not name.startswith(("store_", "xfer_")):
            continue
        labels = record.get("labels", {})
        if record.get("type") == "histogram":
            mean = record["sum"] / record["count"] if record["count"] else 0.0
            if name.endswith("_seconds"):
                shown = _fmt_seconds(mean)
            else:
                shown = f"{mean:.0f}B"
            value = f"n={record['count']} mean={shown}"
        else:
            value = int(record["value"])
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        rows.append([name, label_text, value])
    if not rows:
        raise ConfigurationError(
            "snapshot has no store_*/xfer_* series; was the run made "
            "with a store domain in use?"
        )
    rows.sort(key=lambda row: (row[0], row[1]))
    return "store (durable state & transfer):\n" + _table(
        ["metric", "labels", "value"], rows
    )


def render_flow_report(snapshot: Dict[str, Any]) -> str:
    """Flow-control series (flow_*): credit outstanding, shed/block
    counts, queue high-water marks, grant traffic.

    Raises :class:`~repro.errors.ConfigurationError` when the snapshot
    has none — the caller can then simply omit the section (a run
    without a CREDIT layer has nothing to report).
    """
    rows: List[List[Any]] = []
    for record in snapshot.get("metrics", []):
        name = record["name"]
        if not name.startswith("flow_"):
            continue
        labels = record.get("labels", {})
        if record.get("type") == "histogram":
            mean = record["sum"] / record["count"] if record["count"] else 0.0
            if name.endswith("_seconds"):
                shown = _fmt_seconds(mean)
            else:
                shown = f"{mean:.0f}B"
            value = f"n={record['count']} mean={shown}"
        else:
            value = int(record["value"])
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        rows.append([name, label_text, value])
    if not rows:
        raise ConfigurationError(
            "snapshot has no flow_* series; was a CREDIT layer stacked "
            "during the run?"
        )
    rows.sort(key=lambda row: (row[0], row[1]))
    return "flow (credit & overload):\n" + _table(
        ["metric", "labels", "value"], rows
    )


def render_network_report(snapshot: Dict[str, Any]) -> str:
    """Counters of every network/transport component in the snapshot."""
    rows: List[List[Any]] = []
    for record in snapshot.get("metrics", []):
        name = record["name"]
        if not name.startswith(("net_", "transport_", "runtime_")):
            continue
        labels = record.get("labels", {})
        if record.get("type") == "histogram":
            mean = record["sum"] / record["count"] if record["count"] else 0.0
            value = f"n={record['count']} mean={_fmt_seconds(mean)}"
        elif name.endswith("_seconds"):
            value = _fmt_seconds(record["value"])
        else:
            value = int(record["value"])
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        rows.append([name, label_text, value])
    if not rows:
        return "no net_*/transport_*/runtime_* series in snapshot"
    return _table(["metric", "labels", "value"], rows)
