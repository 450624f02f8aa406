"""Measured reproduction of Table 3: per-architecture failure behaviour.

The paper's Table 3 asserts three qualitative properties per
architecture (no bandwidth loss? / no path dilation? / no upstream
repair?).  Instead of restating the table, this module *measures* the
three properties from a controlled experiment:

1. pin a reference flow set (a rack-level permutation: every rack sends
   one flow to the next rack — inter-pod heavy, so core/agg elements
   matter) and record max-min throughput and per-flow paths;
2. inject a failure and let the architecture's recovery mechanism act
   (rerouting policies repath; ShareBackup swaps in a backup switch);
3. re-measure:

   * **bandwidth loss** — aggregate max-min throughput dropped;
   * **path dilation** — some flow ends on a longer path;
   * **upstream repair** — some flow's new path diverges from the old
     one *before* the hop where the failure would be detected, i.e.
     recovery needed a decision upstream of the failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..routing.ecmp import EcmpSelector
from ..routing.paths import DirectedSegment, Path
from ..routing.router import Router
from ..simulation.fairshare import max_min_rates
from ..topology.fattree import FatTree

__all__ = ["Characteristics", "PermutationProbe", "divergence_is_upstream"]


@dataclass(frozen=True)
class Characteristics:
    """One Table 3 row, measured."""

    architecture: str
    bandwidth_loss: bool
    path_dilation: bool
    upstream_repair: bool

    def table_row(self) -> tuple[str, str, str, str]:
        def mark(bad: bool) -> str:
            return "x" if bad else "OK"

        return (
            self.architecture,
            mark(self.bandwidth_loss),
            mark(self.path_dilation),
            mark(self.upstream_repair),
        )


def divergence_is_upstream(old: Path, new: Path, detection_index: int) -> bool:
    """True when ``new`` departs from ``old`` before the detection hop.

    ``detection_index`` is the index of the first broken hop on the old
    path; the switch at that index is the one that locally detects the
    failure.  A repair is *local* (no upstream involvement) when the new
    path is identical up to and including that switch.
    """
    limit = min(detection_index + 1, len(old.nodes), len(new.nodes))
    for i in range(limit):
        if old.nodes[i] != new.nodes[i]:
            return True
    return False


class PermutationProbe:
    """Throughput/path probe over a saturating host permutation.

    Every host of rack ``r`` sends one flow to the same-positioned host of
    rack ``r + k/2`` — an all-inter-pod permutation that loads the fabric
    at full bisection.  At that operating point any lost core/aggregation
    capacity *must* show up as aggregate max-min throughput loss, which is
    what makes the bandwidth-loss column of Table 3 measurable rather
    than asserted.
    """

    def __init__(self, tree: FatTree, router: Router) -> None:
        self.tree = tree
        self.router = router
        self.flows: dict[int, tuple[str, str]] = {}
        fid = 1
        for rack in range(tree.num_racks):
            dst_rack = (rack + tree.half) % tree.num_racks  # force inter-pod
            for h in range(tree.hosts_per_edge):
                src = f"H.{rack // tree.half}.{rack % tree.half}.{h}"
                dst = f"H.{dst_rack // tree.half}.{dst_rack % tree.half}.{h}"
                self.flows[fid] = (src, dst)
                fid += 1
        self.paths: dict[int, Path | None] = {}

    def pin_initial(self, greedy: bool = False) -> None:
        """Pin every probe flow.

        ``greedy=False`` uses the router's hash-ECMP placement.
        ``greedy=True`` places flows sequentially on the least-loaded
        shortest path (via ``router.repath`` with an accumulating load
        map).  Greedy placement makes the before/after throughput
        comparison *placement-fair*: both sides get the same placement
        quality, so any drop is genuinely lost capacity, not hash
        (bad) luck.  Use it with load-aware routers (global-optimal).
        """
        if not greedy:
            for fid, (src, dst) in self.flows.items():
                self.paths[fid] = self.router.initial_path(src, dst, fid)
            return
        load: dict[DirectedSegment, int] = {}
        for fid in sorted(self.flows):
            src, dst = self.flows[fid]
            path = self.router.repath(src, dst, fid, None, load)
            self.paths[fid] = path
            if path is not None:
                for seg in path.segments(self.tree, fid):
                    load[seg] = load.get(seg, 0) + 1

    def repath_broken(self) -> dict[int, tuple[Path, Path, int]]:
        """Repath flows whose pins broke; returns {fid: (old, new, detection)}."""
        self.router.on_topology_change()
        load: dict[DirectedSegment, int] = {}
        for fid, path in self.paths.items():
            if path is not None and path.is_operational(self.tree):
                for seg in path.segments(self.tree, fid):
                    load[seg] = load.get(seg, 0) + 1
        changed: dict[int, tuple[Path, Path, int]] = {}
        for fid in sorted(self.paths):
            old = self.paths[fid]
            if old is None or old.is_operational(self.tree):
                continue
            detection = self._detection_index(old)
            src, dst = self.flows[fid]
            new = self.router.repath(src, dst, fid, old, load)
            if new is not None and new.is_operational(self.tree):
                self.paths[fid] = new
                for seg in new.segments(self.tree, fid):
                    load[seg] = load.get(seg, 0) + 1
                changed[fid] = (old, new, detection)
            else:
                self.paths[fid] = None
        return changed

    def throughput(self) -> float:
        """Aggregate max-min throughput of the currently pinned flows."""
        capacities: dict[DirectedSegment, float] = {}
        for link in self.tree.links.values():
            capacities[DirectedSegment(link.link_id, True)] = link.capacity
            capacities[DirectedSegment(link.link_id, False)] = link.capacity
        flow_segments = {
            fid: path.segments(self.tree, fid)
            for fid, path in self.paths.items()
            if path is not None and path.is_operational(self.tree)
        }
        rates = max_min_rates(flow_segments, capacities)
        return sum(rates.values())

    def _detection_index(self, path: Path) -> int:
        tree = self.tree
        for i, (a, b) in enumerate(zip(path.nodes, path.nodes[1:])):
            if not tree.hop_is_operational(a, b):
                return i
        return len(path.nodes) - 1

    # ------------------------------------------------------------------

    def measure(
        self, architecture: str, inject, recover=None, greedy: bool = False
    ) -> Characteristics:
        """Full probe: pin → inject() → (recover()) → repath → compare.

        ``inject`` mutates the topology (e.g. fail a core switch);
        ``recover`` is the architecture's hardware recovery (ShareBackup's
        controller swap; None for rerouting-only architectures);
        ``greedy`` selects placement-fair initial pinning (see
        :meth:`pin_initial`).
        """
        self.pin_initial(greedy=greedy)
        base_throughput = self.throughput()
        base_hops = {
            fid: p.hops for fid, p in self.paths.items() if p is not None
        }

        inject()
        if recover is not None:
            recover()
        changed = self.repath_broken()

        after_throughput = self.throughput()
        tolerance = 1e-6 * max(base_throughput, 1.0)
        bandwidth_loss = after_throughput < base_throughput - tolerance

        dilation = any(
            self.paths[fid] is not None and self.paths[fid].hops > base_hops[fid]
            for fid in base_hops
        )
        upstream = any(
            divergence_is_upstream(old, new, det)
            for old, new, det in changed.values()
        )
        return Characteristics(
            architecture=architecture,
            bandwidth_loss=bandwidth_loss,
            path_dilation=dilation,
            upstream_repair=upstream,
        )
