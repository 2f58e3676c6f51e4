"""Open-loop load generation with SLO-style reporting.

An *open-loop* generator schedules message arrivals from a clock, not
from completions: senders offer load at a configured rate whether or
not the system keeps up, which is the only honest way to measure an
overload plane (a closed loop self-throttles and hides the cliff).

The generator builds a fan-in topology — ``senders`` producer nodes
multicasting into one group that also contains a designated receiver —
on either substrate, drives seeded Poisson arrivals for ``duration``
seconds, and reports:

* **goodput** — payload bytes per second actually delivered at the
  receiver during the measurement window;
* **latency** — p50/p99/max of send-to-delivery time (the send
  timestamp rides in the payload, so no side channel is needed), from
  an :class:`~repro.obs.registry.Histogram`;
* **verdict counts** — accepted / queued / shed / blocked, straight
  from the :class:`~repro.core.events.FlowVerdict` each cast returns;
* **high-water marks** — per-sender CREDIT queue depth and NAK
  retransmission-buffer size, sampled through the ``dump`` downcall
  during the storm (the numbers the acceptance bound is about).

On the DES the whole report is a pure function of ``(seed, config)``:
``python -m repro load --substrate sim`` prints the same report
byte-for-byte on every run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.registry import Histogram

#: Stack template used when the caller does not supply one.  CREDIT on
#: top (only application traffic is charged), reliable FIFO below.
DEFAULT_LOAD_STACK = (
    "CREDIT(window={window},manager={manager},max_queue={max_queue},"
    "shed_policy={shed_policy}):MBRSHIP:FRAG:NAK:COM"
)

_STAMP = struct.Struct("!d")  # send-time, leading the payload
_SAMPLE_PERIOD = 0.05  # high-water sampling cadence during the storm


@dataclass
class LoadConfig:
    """One load run, fully specified (and therefore fully replayable).

    Attributes:
        senders: number of producer nodes fanning into the receiver.
        rate: per-sender offered arrival rate, messages/second.
        size: payload size in bytes (floored at the timestamp size).
        duration: storm length in seconds.
        seed: world seed; on the DES it pins the entire report.
        substrate: ``"sim"`` or ``"realtime"``.
        stack: explicit stack spec; ``None`` builds one from
            ``window``/``manager``/``max_queue``/``shed_policy`` via
            :data:`DEFAULT_LOAD_STACK`.
        window / manager / max_queue / shed_policy: CREDIT parameters
            for the default stack (ignored when ``stack`` is given).
        consume_rate: receiver consumption rate in bytes/second
            (``None`` = the receiver keeps up; small values make it the
            slow receiver of the fan-in storm).
        drain: extra seconds after the storm for in-flight deliveries.
    """

    senders: int = 4
    rate: float = 200.0
    size: int = 256
    duration: float = 5.0
    seed: int = 0
    substrate: str = "sim"
    stack: Optional[str] = None
    window: int = 16384
    manager: str = "fixed"
    max_queue: int = 64
    shed_policy: str = "block"
    consume_rate: Optional[float] = None
    drain: float = 2.0

    def resolved_stack(self) -> str:
        if self.stack is not None:
            return self.stack
        return DEFAULT_LOAD_STACK.format(
            window=self.window,
            manager=self.manager,
            max_queue=self.max_queue,
            shed_policy=self.shed_policy,
        )

    def validate(self) -> None:
        if self.senders < 1:
            raise ConfigurationError("need at least one sender")
        if self.rate <= 0 or self.duration <= 0:
            raise ConfigurationError("rate and duration must be positive")
        if self.substrate not in ("sim", "realtime"):
            raise ConfigurationError(
                f"unknown substrate {self.substrate!r} (sim | realtime)"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "senders": self.senders,
            "rate": self.rate,
            "size": self.size,
            "duration": self.duration,
            "seed": self.seed,
            "substrate": self.substrate,
            "stack": self.resolved_stack(),
            "consume_rate": self.consume_rate,
        }


@dataclass
class LoadReport:
    """What one load run measured (see module docstring)."""

    config: LoadConfig
    offered: int = 0
    offered_bytes: int = 0
    accepted: int = 0
    queued: int = 0
    shed: int = 0
    blocked: int = 0
    delivered: int = 0
    delivered_bytes: int = 0
    goodput_bps: float = 0.0
    goodput_mps: float = 0.0
    #: Wire-level accounting over the measurement window (storm +
    #: drain): what the substrate actually put on the medium, next to
    #: the application-level goodput so coalescing's amortization (many
    #: app messages per datagram) is visible in the same report.
    wire_bytes: int = 0
    datagrams: int = 0
    wire_bytes_per_s: float = 0.0
    datagrams_per_s: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    queue_highwater: int = 0
    nak_buffer_highwater: int = 0
    grants_sent: int = 0
    grants_received: int = 0
    sender_dumps: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def delivery_ratio(self) -> float:
        """Delivered / offered (goodput efficiency, 0..1)."""
        return self.delivered / self.offered if self.offered else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "offered": self.offered,
            "offered_bytes": self.offered_bytes,
            "accepted": self.accepted,
            "queued": self.queued,
            "shed": self.shed,
            "blocked": self.blocked,
            "delivered": self.delivered,
            "delivered_bytes": self.delivered_bytes,
            "delivery_ratio": round(self.delivery_ratio, 6),
            "goodput_bps": round(self.goodput_bps, 3),
            "goodput_mps": round(self.goodput_mps, 3),
            "wire_bytes": self.wire_bytes,
            "datagrams": self.datagrams,
            "wire_bytes_per_s": round(self.wire_bytes_per_s, 3),
            "datagrams_per_s": round(self.datagrams_per_s, 3),
            "latency_ms": {
                "p50": round(self.p50_ms, 3),
                "p99": round(self.p99_ms, 3),
                "max": round(self.max_ms, 3),
            },
            "queue_highwater": self.queue_highwater,
            "nak_buffer_highwater": self.nak_buffer_highwater,
            "grants_sent": self.grants_sent,
            "grants_received": self.grants_received,
        }

    def render(self) -> str:
        cfg = self.config
        lines = [
            "flow load report (open-loop)",
            f"  substrate={cfg.substrate} seed={cfg.seed}",
            f"  stack: {cfg.resolved_stack()}",
            (
                f"  workload: {cfg.senders} senders x {cfg.rate:g} msg/s "
                f"x {cfg.size} B for {cfg.duration:g} s"
            ),
            (
                "  receiver: consume_rate="
                + (
                    f"{cfg.consume_rate:g} B/s (slow)"
                    if cfg.consume_rate is not None
                    else "unlimited"
                )
            ),
            "",
            f"  offered    {self.offered:>8d} msgs  {self.offered_bytes} B",
            (
                f"  verdicts   accepted={self.accepted} queued={self.queued} "
                f"shed={self.shed} blocked={self.blocked}"
            ),
            (
                f"  delivered  {self.delivered:>8d} msgs  "
                f"{self.delivered_bytes} B  "
                f"(ratio {self.delivery_ratio:.3f})"
            ),
            (
                f"  goodput    {self.goodput_bps:.1f} B/s  "
                f"({self.goodput_mps:.1f} msg/s)"
            ),
            (
                f"  wire       {self.wire_bytes_per_s:.1f} B/s  "
                f"({self.datagrams_per_s:.1f} datagrams/s, "
                f"{self.wire_bytes} B / {self.datagrams} datagrams total)"
            ),
            (
                f"  latency    p50={self.p50_ms:.2f} ms  "
                f"p99={self.p99_ms:.2f} ms  max={self.max_ms:.2f} ms"
            ),
            (
                f"  high-water sender queue={self.queue_highwater}  "
                f"nak retransmit buffer={self.nak_buffer_highwater} msgs"
            ),
            (
                f"  grants     sent={self.grants_sent} "
                f"received={self.grants_received}"
            ),
        ]
        return "\n".join(lines)


def _make_world(config: LoadConfig, instrument: bool = False):
    from repro.sim.rand import derive_seed

    seed = derive_seed(config.seed, "flow.load")
    obs = None
    if instrument:
        from repro.obs import ObsOptions

        obs = ObsOptions(layer_metrics=True)
    if config.substrate == "sim":
        from repro.core.process import World

        return World(seed=seed, network="lan", obs=obs)
    from repro.runtime.world import RealtimeWorld

    return RealtimeWorld(seed=seed, obs=obs)


def run_load(
    config: LoadConfig, metrics_out: Optional[str] = None
) -> LoadReport:
    """Execute one open-loop load run and return its report.

    ``metrics_out`` additionally writes the world's observability
    snapshot (including the ``flow_*`` series) as JSONL for
    ``python -m repro obs-report``.
    """
    config.validate()
    world = _make_world(config, instrument=metrics_out is not None)
    try:
        report = _run(world, config)
        if metrics_out is not None:
            world.write_metrics(metrics_out, meta={"tool": "load"})
        return report
    finally:
        if config.substrate == "realtime":
            world.close()


def _run(world, config: LoadConfig) -> LoadReport:
    report = LoadReport(config=config)
    stack = config.resolved_stack()
    group = "load"
    latency = Histogram({})

    def on_delivery(delivered) -> None:
        report.delivered += 1
        report.delivered_bytes += len(delivered.data)
        if len(delivered.data) >= _STAMP.size:
            (sent_at,) = _STAMP.unpack_from(delivered.data)
            latency.observe(world.now - sent_at)

    receiver = world.process("recv").endpoint().join(group, stack=stack)
    receiver.on_message = on_delivery
    senders = []
    for index in range(config.senders):
        handle = world.process(f"s{index}").endpoint().join(group, stack=stack)
        # Senders fan *in*: their own delivery logs are not the
        # measurement, so drop copies on the floor cheaply.
        handle.on_message = lambda _delivered: None
        senders.append(handle)
        world.run(0.3)
    full = config.senders + 1
    world.run_while(
        lambda: all(
            h.view is not None and h.view.size == full
            for h in [receiver] + senders
        ),
        timeout=30.0 if config.substrate == "sim" else 10.0,
    )

    if config.consume_rate is not None:
        for layer in receiver.focus_all("CREDIT"):
            layer.set_consume_rate(config.consume_rate)

    # Schedule the whole open-loop arrival process up front: seeded
    # Poisson arrivals per sender, independent of completions.
    rng = world.rng.stream("flow.loadgen")
    start = world.now
    pad = b"." * max(0, config.size - _STAMP.size)

    def fire(handle) -> None:
        payload = _STAMP.pack(world.now) + pad
        report.offered += 1
        report.offered_bytes += len(payload)
        verdict = handle.cast(payload)
        name = verdict.value if verdict is not None else "accepted"
        if name == "accepted":
            report.accepted += 1
        elif name == "queued":
            report.queued += 1
        elif name == "shed":
            report.shed += 1
        elif name == "blocked":
            report.blocked += 1

    for handle in senders:
        at = 0.0
        while True:
            at += rng.expovariate(config.rate)
            if at >= config.duration:
                break
            world.scheduler.call_at(start + at, fire, handle)

    # Sample the overload plane's high-water marks during the storm.
    def sample() -> None:
        for handle in senders:
            for layer in handle.focus_all("CREDIT"):
                report.queue_highwater = max(
                    report.queue_highwater, layer.queue_depth
                )
            for info in handle.dump():
                if info.get("name") == "NAK":
                    report.nak_buffer_highwater = max(
                        report.nak_buffer_highwater, info.get("buffered", 0)
                    )

    ticks = int(config.duration / _SAMPLE_PERIOD)
    for tick in range(1, ticks + 1):
        world.scheduler.call_at(start + tick * _SAMPLE_PERIOD, sample)

    # Wire counters over the measurement window only (join/settle
    # traffic above is excluded).  Both substrates expose the same
    # NetworkStats surface; sim worlds reach it through the network
    # (which may be a Coalescer — it delegates ``stats``).
    wire = getattr(world, "stats", None)
    if wire is None:
        wire = world.network.stats
    wire_bytes_before = int(wire.bytes_sent)
    datagrams_before = int(wire.packets_sent)

    world.run(config.duration)
    sample()
    world.run(max(config.drain, 0.0))
    sample()

    # Fold in the final layer dumps (queue depths may have peaked
    # between samples; CREDIT tracks its own high-water mark).
    for handle in senders:
        for info in handle.dump():
            if info.get("name") == "CREDIT":
                report.sender_dumps.append(info)
                report.queue_highwater = max(
                    report.queue_highwater, info.get("max_queue_depth", 0)
                )
                report.grants_received += info.get("grants_received", 0)
    for info in receiver.dump():
        if info.get("name") == "CREDIT":
            report.grants_sent += info.get("grants_sent", 0)

    window = config.duration + max(config.drain, 0.0)
    report.goodput_bps = report.delivered_bytes / window
    report.goodput_mps = report.delivered / window
    report.wire_bytes = int(wire.bytes_sent) - wire_bytes_before
    report.datagrams = int(wire.packets_sent) - datagrams_before
    report.wire_bytes_per_s = report.wire_bytes / window
    report.datagrams_per_s = report.datagrams / window
    report.p50_ms = latency.percentile(50) * 1000.0
    report.p99_ms = latency.percentile(99) * 1000.0
    report.max_ms = latency.max * 1000.0
    return report
