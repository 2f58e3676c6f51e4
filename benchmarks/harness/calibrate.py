"""Speed calibration: timed slices rescaled to a reference machine.

This box's speed drifts under the benchmark: a fixed pure-Python loop
took 1.08-1.56 ms in consecutive 5 s buckets, and allocation and UDP
syscall cost wander by a further ~10 % on their own schedule.  That is
more than any bound worth having, so every timed slice (20-40 ms) is
preceded by one run of a fixed reference load, and the slice's wall and
CPU time are rescaled to a machine on which that load takes
``REF_PROBE_S``.  Both sides of a comparison are scaled alike, so ratios
between commits are unaffected; README.md, "Speed calibration".
"""

from __future__ import annotations

import socket
import statistics
import time
from typing import Any, Dict, List

#: What one run of the reference load takes on the reference machine.
REF_PROBE_S = 0.001


class SpeedProbe:
    """The reference load: ~1 ms, a third each of the three things the
    program spends its time on - interpreter arithmetic, allocation, and
    UDP loopback syscalls.

    A probe of arithmetic alone follows the big frequency-like swings but
    is blind to the slower ~10 % drift in memory and kernel cost; over
    3 s windows of ``cast_small`` it left 6.9 % spread (inter-quartile /
    median; raw 9.9 %), the three-part load 2.8 %.
    """

    def __init__(self) -> None:
        self._tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._rx.bind(("127.0.0.1", 0))
        # Loopback delivers before sendto returns; never hang if it did not.
        self._rx.settimeout(1.0)
        self._to = self._rx.getsockname()
        self._datagram = bytes(900)

    def __call__(self) -> float:
        """Seconds one run of the reference load takes right now."""
        start = time.perf_counter()
        x = 0
        for i in range(7000):
            x += i * i % 7
        for _ in range(8):
            table = {i: (i, i) for i in range(200)}
            buffer = bytearray(30000)
            chunks = [bytes(40) for _ in range(200)]
        send, receive, datagram, to = self._tx.sendto, self._rx.recvfrom, self._datagram, self._to
        for _ in range(60):
            send(datagram, to)
            receive(65536)
        return time.perf_counter() - start

    def close(self) -> None:
        self._tx.close()
        self._rx.close()


class Slices:
    """Timed slices of one phase, each with its own speed calibration."""

    def __init__(self) -> None:
        self.ops = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.scaled_wall = 0.0
        self.scaled_cpu = 0.0
        self.started = time.perf_counter()
        self.ended = self.started
        #: (probe seconds, ops, wall, cpu) per slice, for the --out report.
        self.rows: List[Any] = []

    def add(self, probe_s: float, ops: int, wall: float, cpu: float) -> None:
        self.rows.append((probe_s, ops, wall, cpu))
        scale = REF_PROBE_S / probe_s
        self.ops += ops
        self.wall += wall
        self.cpu += cpu
        self.scaled_wall += wall * scale
        self.scaled_cpu += cpu * scale
        self.ended = time.perf_counter()

    def rates(self, payload_bytes: int) -> Dict[str, float]:
        ops = max(self.ops, 1)
        per_s = self.ops / self.scaled_wall if self.scaled_wall else 0.0
        return {
            "throughput_ops_per_s": per_s,
            "goodput_mb_per_s": per_s * payload_bytes / 1e6,
            "cpu_us_per_op": self.scaled_cpu / ops * 1e6,
        }

    @property
    def whole_window_ops_per_s(self) -> float:
        span = self.ended - self.started
        return self.ops / span if span else 0.0


def setup_seconds(spawned_at: float, probes: List[float]) -> float:
    """Spawn -> now, with the CPU share rescaled the way a slice is.

    The time set-up spends waiting (join timeouts, socket round trips)
    does not depend on how fast the box is right now; its CPU time does.
    """
    wall = time.monotonic() - spawned_at
    cpu = min(time.process_time(), wall)
    return wall - cpu + cpu * REF_PROBE_S / statistics.median(probes)
