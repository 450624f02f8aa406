"""ShareBackup's last routing resort: degrade to the fat-tree baseline.

ShareBackup's whole point is that routing never changes — failover makes
the logical topology whole again, so flows keep their static ECMP pins
(the "Stop Rerouting!" of the title).  But when the *recovery machinery
itself* fails — backup pool exhausted, circuit switches refusing to
reconfigure (:mod:`repro.chaos`) — a slot can stay dark, and a pinned
flow through it would stall forever.

:class:`FallbackRouter` is the controller's escape hatch for exactly that
case: it behaves as :class:`~repro.routing.static.StaticEcmpRouter` while
ShareBackup is winning, and once the controller reports a degraded slot
(:meth:`activate`) it becomes the
:class:`~repro.routing.reroute_global.GlobalOptimalRerouteRouter` of the
paper's §2.2 fat-tree baseline — the architecture gracefully degrades to
the thing it set out to beat, instead of stranding traffic.
"""

from __future__ import annotations

from ..topology.fattree import FatTree
from .paths import Path
from .reroute_global import GlobalOptimalRerouteRouter
from .router import LoadMap, Router
from .static import StaticEcmpRouter

__all__ = ["FallbackRouter"]


class FallbackRouter(Router):
    """Static ECMP until :meth:`activate`; global optimal rerouting after.

    Activation is one-way and applies to the whole fabric: once any slot
    is beyond backup recovery, every flow hitting a failure reroutes (the
    healthy ones were recovered in place and never repath anyway).
    """

    name = "sharebackup/fallback"

    def __init__(self, tree: FatTree) -> None:
        self.tree = tree
        self._static = StaticEcmpRouter(tree)
        self._reroute = GlobalOptimalRerouteRouter(tree)
        self.degraded = False

    def activate(self) -> None:
        """The controller degraded a slot to rerouting: switch personality."""
        self.degraded = True

    def initial_path(
        self, src_host: str, dst_host: str, flow_label: int
    ) -> Path | None:
        if self.degraded:
            return self._reroute.initial_path(src_host, dst_host, flow_label)
        return self._static.initial_path(src_host, dst_host, flow_label)

    def repath(
        self,
        src_host: str,
        dst_host: str,
        flow_label: int,
        old_path: Path | None,
        link_load: LoadMap,
    ) -> Path | None:
        if self.degraded:
            return self._reroute.repath(
                src_host, dst_host, flow_label, old_path, link_load
            )
        return self._static.repath(
            src_host, dst_host, flow_label, old_path, link_load
        )
