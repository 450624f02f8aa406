"""Routers without repair — the degenerate baselines.

``StaticEcmpRouter`` pins flows by ECMP and never changes the pin: a flow
whose path is hit by a failure simply stalls until the element is
repaired.  This models a network with no failure recovery at all, and is
the reference point for the "affected flows/coflows" analysis of
Figures 1(a) and 1(b), where a flow counts as affected exactly when its
(static) path traverses a failed node or link.
"""

from __future__ import annotations

from ..topology.fattree import FatTree
from .ecmp import EcmpSelector
from .paths import Path
from .router import LoadMap, Router

__all__ = ["StaticEcmpRouter"]


class StaticEcmpRouter(Router):
    """ECMP placement, no rerouting: failures stall flows until repair."""

    name = "static-ecmp"

    def __init__(self, tree: FatTree) -> None:
        self.tree = tree
        self.selector = EcmpSelector(tree)

    def initial_path(
        self, src_host: str, dst_host: str, flow_label: int
    ) -> Path | None:
        # Placement ignores failures on purpose: the pin is the pre-failure
        # ECMP choice; the simulator will stall the flow if the path is down.
        return self.selector.select(src_host, dst_host, flow_label)

    def repath(
        self,
        src_host: str,
        dst_host: str,
        flow_label: int,
        old_path: Path | None,
        link_load: LoadMap,
    ) -> Path | None:
        # Re-derive the deterministic pin (selection ignores failures, so
        # this is always the same pre-failure ECMP path) and only hand it
        # back when it is whole again: repair resumes the flow in place.
        pin = self.selector.select(src_host, dst_host, flow_label)
        if pin is not None and pin.is_operational(self.tree):
            return pin
        return None  # stalled until repair restores the pinned path
