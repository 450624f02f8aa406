"""Fat-tree baseline: ECMP with *global optimal rerouting*.

Section 2.2 of the paper: "Under failures, fat-tree uses global optimal
rerouting."  We realise the globally-informed ideal as follows: a flow
whose path is hit by a failure is re-pinned onto one of the *surviving
equal-length* shortest paths, choosing the path whose most-loaded
directed segment carries the fewest flows (ties broken by flow hash so
the choice stays deterministic).  This is the best a rerouting scheme can
do without adding hops: the alternative path set of a fat-tree always
has minimum length, so fat-tree suffers **no path dilation** (Table 3) —
but the surviving paths share fewer links, so congestion and therefore
bandwidth loss are unavoidable, which is exactly the effect Figure 1(c)
quantifies.

Fat-tree pays for this with **upstream repair**: a downward failure
(e.g. a core→agg link) can only be avoided by choices made near the
*source* (a different core), so failure information must propagate
upstream before rerouting is possible.  The recovery *timing* cost of
that propagation is modelled in :mod:`repro.core.recovery`; here we
compute only the steady state after rerouting, matching the paper's
methodology ("we simulate the final states after failures without the
transient dynamics").
"""

from __future__ import annotations

from ..topology.fattree import FatTree
from .ecmp import EcmpSelector, flow_hash
from .paths import Path
from .router import LoadMap, Router

__all__ = ["GlobalOptimalRerouteRouter"]


class GlobalOptimalRerouteRouter(Router):
    """ECMP initial placement + least-loaded surviving-shortest-path repair."""

    name = "fat-tree/global-optimal"

    def __init__(self, tree: FatTree) -> None:
        self.tree = tree
        self.selector = EcmpSelector(tree)

    def initial_path(
        self, src_host: str, dst_host: str, flow_label: int
    ) -> Path | None:
        return self.selector.select(
            src_host, dst_host, flow_label, operational_only=True
        )

    def repath(
        self,
        src_host: str,
        dst_host: str,
        flow_label: int,
        old_path: Path | None,
        link_load: LoadMap,
    ) -> Path | None:
        candidates = self.selector.paths(src_host, dst_host, operational_only=True)
        if not candidates:
            return None
        best: Path | None = None
        best_key: tuple[int, int] | None = None
        for path in candidates:
            segments = path.segments(self.tree, flow_label)
            worst = max((link_load.get(seg, 0) for seg in segments), default=0)
            key = (worst, flow_hash(flow_label, path.nodes) % (1 << 16))
            if best_key is None or key < best_key:
                best, best_key = path, key
        return best
