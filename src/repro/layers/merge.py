"""MERGE — automatic view merging (property P16, Section 9).

Sits above a membership layer and removes the one manual step left
after a partition heals: noticing the other component exists.  The
layer periodically consults the group directory; when it sees a
registered endpoint outside the current view, it issues the ``merge``
downcall toward it (the membership layer does the actual absorbing, or
asks to be absorbed, per its own older-view rule).

Only the coordinator probes, so a healed two-component group generates
one merge request per probe period, not N².

Properties (Table 3): requires P3, P4, P8, P9, P10, P11, P12, P15;
provides P16.
"""

from __future__ import annotations

from typing import Optional

from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.stack import register_layer
from repro.core.view import View


@register_layer
class AutoMergeLayer(Layer):
    """Directory-driven automatic merging after partitions heal.

    Config:
        probe_period (float): directory check period (default 1.0 s).
    """

    name = "MERGE"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.probe_period = float(config.get("probe_period", 1.0))
        self.view: Optional[View] = None
        self._probe = None
        self.merges_initiated = 0

    def start(self) -> None:
        self._probe = self.periodic(self.probe_period, self._probe_tick)
        self._probe.start()

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self.view = upcall.view
        self.pass_up(upcall)

    def _probe_tick(self) -> None:
        directory = self.context.directory
        if (
            directory is None
            or self.view is None
            or self.view.members[0] != self.endpoint
        ):
            return
        for candidate in directory.lookup(self.group):
            if candidate == self.endpoint or self.view.contains(candidate):
                continue
            self.merges_initiated += 1
            self.trace("auto_merge", contact=candidate)
            self.pass_down(
                Downcall(DowncallType.MERGE, extra={"contact": candidate})
            )
            return  # one probe per tick is enough

    def dump(self):
        info = super().dump()
        info.update(
            probe_period=self.probe_period,
            merges_initiated=self.merges_initiated,
        )
        return info
