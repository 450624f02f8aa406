"""F10 baseline: local rerouting with bounded detours (Liu et al., NSDI'13).

F10 recovers from failures *locally*: the switch adjacent to the failure
redirects traffic immediately, without waiting for failure information to
propagate upstream.  When the redirect target is a same-level sibling the
path length is unchanged; when no equal-length escape exists the switch
"bounces" the packet one level the wrong way and back — the paper's
"local three-hop rerouting" — which dilates the path by two hops and
concentrates load on the detour links.  Section 2.2 of the ShareBackup
paper finds that this dilation makes F10's post-failure CCT *worse* than
fat-tree's globally rerouted CCT; reproducing that ordering is the point
of this module.

Detour construction, by failure position on the original path
``H → E → A → C → A' → E' → H'``:

* **up-hop failure (E–A or A dead)** — the edge switch picks another live
  aggregation parent and a live core under it: equal length, no dilation.
* **A–C link or C dead** — detected at ``A``; bounce down to a sibling
  edge, up through a different aggregation to a different core:
  ``A → E″ → A″ → C″`` replaces ``A → C`` (+2 hops).
* **C–A′ link or A′ dead** — detected at ``C``; bounce into a *third* pod
  and back through a different core: ``C → A‴ → C″ → A*`` replaces
  ``C → A′`` (+2 hops).  This is where F10's AB wiring earns its keep:
  the third pod's aggregation switch reaches cores the failed one did
  not.
* **A′–E′ link** — detected at ``A′``; bounce via a sibling edge of the
  destination pod: ``A′ → E″ → A″ → E′`` (+2 hops).
* **E′ dead or a host link dead** — hosts are single-homed; no rerouting
  scheme can help: the flow is disconnected.

Candidates at each choice point are filtered for operationality and the
final path is verified end-to-end; if the local detour cannot be built
(cascaded failures), the router falls back to any surviving shortest
path, and only then reports disconnection.
"""

from __future__ import annotations

from ..topology.base import NodeKind
from ..topology.fattree import FatTree
from .ecmp import EcmpSelector, flow_hash
from .paths import Path
from .router import LoadMap, Router

__all__ = ["F10LocalRerouteRouter"]


class F10LocalRerouteRouter(Router):
    """ECMP initial placement + F10-style local (possibly 3-hop) repair."""

    name = "f10/local-rerouting"

    def __init__(self, tree: FatTree) -> None:
        self.tree = tree
        self.selector = EcmpSelector(tree)

    # ------------------------------------------------------------------

    def initial_path(
        self, src_host: str, dst_host: str, flow_label: int
    ) -> Path | None:
        """Failure-*oblivious* ECMP pin, locally detoured if already broken.

        F10's defining property is that upstream switches do not learn
        about failures: a new flow hashes onto its path as if the network
        were healthy, and the switch adjacent to a failure bounces the
        packets locally.  Modelling the pin as failure-aware would
        silently grant F10 the global convergence it explicitly avoids
        (and would erase the path dilation the paper measures).
        """
        pin = self.selector.select(src_host, dst_host, flow_label)
        if pin is None:
            return None
        if pin.is_operational(self.tree):
            return pin
        detour = self._local_detour(pin, flow_label)
        if detour is not None:
            return detour
        # Local repair impossible — fall back to any surviving shortest
        # path (F10 ultimately converges through its pushback protocol).
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
        if old_path is None:
            # Stalled flow retrying after a topology change.
            return self.initial_path(src_host, dst_host, flow_label)
        if old_path.is_operational(self.tree):
            return old_path

        detour = self._local_detour(old_path, flow_label)
        if detour is not None:
            return detour
        return self.selector.select(
            src_host, dst_host, flow_label, operational_only=True
        )

    # ------------------------------------------------------------------
    # detour construction
    # ------------------------------------------------------------------

    def _local_detour(self, old: Path, label: int) -> Path | None:
        nodes = old.nodes
        broken = self._first_broken_hop(nodes)
        if broken is None:
            return None
        tree = self.tree

        if len(nodes) == 3:  # H - E - H': nothing local to try
            return None

        src_host, src_edge = nodes[0], nodes[1]
        dst_host, dst_edge = nodes[-1], nodes[-2]
        # Unrecoverable endpoints.
        if not (
            tree.hop_is_operational(src_host, src_edge)
            and tree.hop_is_operational(dst_edge, dst_host)
        ):
            return None

        if len(nodes) == 5:  # intra-pod: H E A E' H'
            return self._detour_intra_pod(nodes, broken, label)
        return self._detour_inter_pod(nodes, broken, label)

    def _detour_intra_pod(self, nodes, broken: int, label: int) -> Path | None:
        src_host, src_edge, agg, dst_edge, dst_host = nodes
        tree = self.tree
        if broken == 1 or not tree.nodes[agg].up:
            # E–A failed: any other live parent reaching both edges works
            # (equal length; this is F10's free sibling failover).
            for alt in self._pick(self._live_aggs(src_edge, dst_edge), label, "ia"):
                return Path((src_host, src_edge, alt, dst_edge, dst_host))
            return None
        # A–E' failed: bounce via a sibling edge (+2 hops).
        siblings = self._sibling_edges(agg, {src_edge, dst_edge})
        for mid_edge in self._pick(siblings, label, "ib"):
            alts = self._live_aggs(mid_edge, dst_edge, exclude={agg})
            for alt in self._pick(alts, label, "ic"):
                path = Path(
                    (src_host, src_edge, agg, mid_edge, alt, dst_edge, dst_host)
                )
                if path.is_operational(tree):
                    return path
        return None

    def _detour_inter_pod(self, nodes, broken: int, label: int) -> Path | None:
        src_host, src_edge, agg, core, dst_agg, dst_edge, dst_host = nodes
        tree = self.tree
        dst_pod = tree.nodes[dst_edge].pod

        agg_dead = not tree.nodes[agg].up
        core_dead = not tree.nodes[core].up
        dst_agg_dead = not tree.nodes[dst_agg].up

        if broken == 1 or agg_dead:
            # E–A failed: edge-level sibling failover, equal length.
            alt_aggs = self._live_aggs_of_edge(src_edge, exclude={agg})
            for alt_agg in self._pick(alt_aggs, label, "e1"):
                cores = self._cores_reaching(alt_agg, dst_pod)
                for alt_core in self._pick(cores, label, "e2"):
                    path = self._descend(
                        (src_host, src_edge, alt_agg, alt_core),
                        dst_pod, dst_edge, dst_host,
                    )
                    if path is not None:
                        return path
            return None

        if broken == 2 or core_dead:
            # A–C failed, detected at A: bounce down-up inside the source
            # pod (A → E″ → A″ → C″), +2 hops.
            mid_edges = self._sibling_edges(agg, {src_edge})
            for mid_edge in self._pick(mid_edges, label, "a1"):
                alt_aggs = self._live_aggs_of_edge(mid_edge, exclude={agg})
                for alt_agg in self._pick(alt_aggs, label, "a2"):
                    cores = self._cores_reaching(alt_agg, dst_pod)
                    for alt_core in self._pick(cores, label, "a3"):
                        path = self._descend(
                            (src_host, src_edge, agg, mid_edge, alt_agg, alt_core),
                            dst_pod,
                            dst_edge,
                            dst_host,
                        )
                        if path is not None:
                            return path
            return None

        if broken == 3 or dst_agg_dead:
            # C–A′ failed, detected at C: bounce through a third pod
            # (C → A‴ → C″), +2 hops.
            src_pod = tree.nodes[src_edge].pod
            third_aggs = self._live_down_aggs(
                core, exclude_pods={src_pod, dst_pod}
            )
            for third_agg in self._pick(third_aggs, label, "c1"):
                cores = self._cores_reaching(third_agg, dst_pod, exclude={core})
                for alt_core in self._pick(cores, label, "c2"):
                    path = self._descend(
                        (src_host, src_edge, agg, core, third_agg, alt_core),
                        dst_pod,
                        dst_edge,
                        dst_host,
                    )
                    if path is not None:
                        return path
            return None

        # A′–E′ failed, detected at A′: bounce via a sibling edge of the
        # destination pod (A′ → E″ → A″ → E′), +2 hops.
        siblings = self._sibling_edges(dst_agg, {dst_edge})
        for mid_edge in self._pick(siblings, label, "d1"):
            alt_aggs = self._live_aggs(mid_edge, dst_edge, exclude={dst_agg})
            for alt_agg in self._pick(alt_aggs, label, "d2"):
                path = Path(
                    (src_host, src_edge, agg, core, dst_agg, mid_edge,
                     alt_agg, dst_edge, dst_host)
                )
                if path.is_operational(tree):
                    return path
        return None

    # ------------------------------------------------------------------
    # candidate generators (all operational-filtered, deterministic order)
    # ------------------------------------------------------------------

    def _descend(
        self, prefix: tuple[str, ...], dst_pod: int, dst_edge: str, dst_host: str
    ) -> Path | None:
        """Complete ``prefix`` (ending at a core) down into the destination."""
        core = prefix[-1]
        for down_agg in self._live_down_aggs(core, include_pods={dst_pod}):
            path = Path(prefix + (down_agg, dst_edge, dst_host))
            if path.is_operational(self.tree):
                return path
        return None

    def _live_aggs(
        self, edge_a: str, edge_b: str, exclude: set[str] = frozenset()
    ) -> list[str]:
        """Aggregation switches with operational links to both edges."""
        tree = self.tree
        out = []
        for other, _ in tree.up_neighbors(edge_a):
            node = tree.nodes[other]
            if node.kind is not NodeKind.AGGREGATION or node.is_backup:
                continue
            if other in exclude:
                continue
            if tree.hop_is_operational(other, edge_b):
                out.append(other)
        return sorted(set(out))

    def _live_aggs_of_edge(
        self, edge: str, exclude: set[str] = frozenset()
    ) -> list[str]:
        tree = self.tree
        return sorted(
            {
                other
                for other, _ in tree.up_neighbors(edge)
                if tree.nodes[other].kind is NodeKind.AGGREGATION
                and not tree.nodes[other].is_backup
                and other not in exclude
            }
        )

    def _sibling_edges(self, agg: str, exclude: set[str]) -> list[str]:
        tree = self.tree
        return sorted(
            {
                other
                for other, _ in tree.up_neighbors(agg)
                if tree.nodes[other].kind is NodeKind.EDGE
                and not tree.nodes[other].is_backup
                and other not in exclude
            }
        )

    def _cores_reaching(
        self, agg: str, dst_pod: int, exclude: set[str] = frozenset()
    ) -> list[str]:
        """Cores live-adjacent to ``agg`` that still have a live door into
        ``dst_pod``."""
        tree = self.tree
        out = []
        for core, _ in tree.up_neighbors(agg):
            node = tree.nodes[core]
            if node.kind is not NodeKind.CORE or node.is_backup or core in exclude:
                continue
            if self._live_down_aggs(core, include_pods={dst_pod}):
                out.append(core)
        return sorted(set(out))

    def _live_down_aggs(
        self,
        core: str,
        include_pods: set[int] | None = None,
        exclude_pods: set[int] = frozenset(),
    ) -> list[str]:
        tree = self.tree
        out = []
        for other, _ in tree.up_neighbors(core):
            node = tree.nodes[other]
            if node.kind is not NodeKind.AGGREGATION or node.is_backup:
                continue
            if include_pods is not None and node.pod not in include_pods:
                continue
            if node.pod in exclude_pods:
                continue
            out.append(other)
        return sorted(set(out))

    def _pick(self, candidates: list[str], label: int, salt: str) -> list[str]:
        """Deterministically rotate candidates by flow hash, so different
        flows spread over different detours (as F10's hashing would)."""
        if not candidates:
            return []
        start = flow_hash(label, salt) % len(candidates)
        return candidates[start:] + candidates[:start]

    # ------------------------------------------------------------------

    def _first_broken_hop(self, nodes: tuple[str, ...]) -> int | None:
        """Index ``i`` of the first non-operational hop ``nodes[i]→nodes[i+1]``."""
        tree = self.tree
        for i, (a, b) in enumerate(zip(nodes, nodes[1:])):
            if not tree.hop_is_operational(a, b):
                return i
        return None
