"""The closed-form shortest-path model of a k-ary fat tree.

Fat-tree, F10's AB fat-tree and the Aspen variant are all folded Clos
networks: every host-to-host route climbs to the lowest common level and
descends, so the shortest paths have a fixed shape:

* same edge switch:          ``H → E → H'``                      (2 hops)
* same pod, different edge:  ``H → E → A → E' → H'``             (4 hops)
* different pods:            ``H → E → A → C → A' → E' → H'``    (6 hops)

Within a pod there is one path per aggregation index ``i``.  Between
pods ``p`` and ``q`` there is one per ``(i, core)`` pair, where the cores
are those :meth:`~repro.topology.fattree.FatTree.core_of_pod` wires to
aggregation ``i`` of ``p`` and ``A'`` is the one aggregation of ``q`` that
:meth:`~repro.topology.fattree.FatTree.agg_of_core` names.  Those two
accessors are the only encoding of agg→core wiring, so F10's skew and
Aspen's duplicated parents need no code here.  With ``operational_only``
each hop is tested with :meth:`~repro.topology.base.Topology.hop_is_operational`.

Candidates come in *name* order: aggregation indices and cores sorted as
strings, so ``A.0.10`` precedes ``A.0.2`` and ``C.10`` precedes ``C.8``.
ECMP hashes into this list, so the order is part of every pinned route.

Paths also carry their *directed segment* view — the per-direction link
capacities the fluid simulator allocates bandwidth over.  Directions
matter: a full-duplex link congested host-bound may be idle core-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..topology.base import Topology
from ..topology.fattree import FatTree, agg_name, core_name

__all__ = [
    "Path",
    "DirectedSegment",
    "enumerate_paths",
    "enumerate_edge_paths",
]


@dataclass(frozen=True, eq=False)
class DirectedSegment:
    """One direction of one physical link: the unit of capacity allocation.

    Hash and equality are hand-rolled over the packed integer key: the
    max-min allocator hashes segments tens of millions of times per
    trace replay, and the dataclass-generated tuple hash dominated the
    profile before this.
    """

    link_id: int
    #: True when traversing from ``link.a`` to ``link.b``.
    forward: bool

    def __hash__(self) -> int:
        return (self.link_id << 1) | self.forward

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DirectedSegment)
            and self.link_id == other.link_id
            and self.forward == other.forward
        )

    def __repr__(self) -> str:
        arrow = "->" if self.forward else "<-"
        return f"<seg {self.link_id}{arrow}>"


@dataclass(frozen=True)
class Path:
    """An ordered node sequence from source host to destination host."""

    nodes: tuple[str, ...]

    @property
    def hops(self) -> int:
        """Number of links traversed."""
        return len(self.nodes) - 1

    @property
    def src(self) -> str:
        return self.nodes[0]

    @property
    def dst(self) -> str:
        return self.nodes[-1]

    def segments(
        self, topo: Topology, flow_label: int = 0
    ) -> tuple[DirectedSegment, ...]:
        """Resolve into directed link segments against ``topo``.

        Parallel links (Aspen-style duplicated wiring) are load-balanced:
        the operational candidates of a hop are indexed by a hash of
        ``flow_label``, so distinct flows spread across the parallel pair
        and the pair's capacity actually aggregates.  With a single
        candidate (every plain fat-tree hop) the choice is the identity.
        If no candidate is operational the lowest-id link is returned so
        callers can still inspect a dead path's geometry.
        """
        segs: list[DirectedSegment] = []
        for hop, (a, b) in enumerate(zip(self.nodes, self.nodes[1:])):
            candidates = sorted(topo.links_between(a, b), key=lambda l: l.link_id)
            if not candidates:
                raise ValueError(f"path hop {a}->{b} has no link")
            operational = [
                l for l in candidates if topo.link_is_operational(l.link_id)
            ]
            if not operational:
                link = candidates[0]
            elif len(operational) == 1:
                link = operational[0]
            else:
                from .ecmp import flow_hash

                link = operational[flow_hash(flow_label, hop) % len(operational)]
            segs.append(DirectedSegment(link.link_id, forward=(link.a == a)))
        return tuple(segs)

    def is_operational(self, topo: Topology) -> bool:
        return topo.path_is_operational(self.nodes)

    def __repr__(self) -> str:
        return "Path(" + " > ".join(self.nodes) + ")"


def enumerate_edge_paths(
    tree: FatTree,
    src_edge: str,
    dst_edge: str,
    operational_only: bool = False,
) -> list[tuple[str, ...]]:
    """All shortest switch-level sequences from ``src_edge`` to ``dst_edge``,
    in name order.

    These are the host-independent middles of host-to-host paths: every
    host pair behind the same two edges shares the same candidate set.
    """
    if src_edge == dst_edge:
        return [(src_edge,)]
    live = tree.hop_is_operational if operational_only else None
    src_pod = tree.nodes[src_edge].pod
    dst_pod = tree.nodes[dst_edge].pod
    ports = range(tree.half)
    # The last hop depends only on the destination aggregation index.
    dst_aggs = [agg_name(dst_pod, j) for j in ports]
    down_ok = [live is None or live(agg, dst_edge) for agg in dst_aggs]
    middles: list[tuple[str, ...]] = []
    for i in sorted(ports, key=str):
        agg = agg_name(src_pod, i)
        if live is not None and not live(src_edge, agg):
            continue
        if src_pod == dst_pod:
            if down_ok[i]:
                middles.append((src_edge, agg, dst_edge))
            continue
        cores = {tree.core_of_pod(src_pod, i, port) for port in ports}
        for c in sorted(cores, key=str):
            j = tree.agg_of_core(c, dst_pod)
            if not down_ok[j]:
                continue
            core = core_name(c)
            if live is None or (live(agg, core) and live(core, dst_aggs[j])):
                middles.append((src_edge, agg, core, dst_aggs[j], dst_edge))
    return middles


def enumerate_paths(
    tree: FatTree,
    src_host: str,
    dst_host: str,
    operational_only: bool = False,
) -> list[Path]:
    """All shortest up/down paths between two hosts.

    With ``operational_only`` the enumeration skips failed nodes/links,
    yielding the surviving equal-length path set (what ideal rerouting
    chooses from).  Longer detour paths are *not* produced here — those
    are the business of :mod:`repro.routing.reroute_f10`.
    """
    if src_host == dst_host:
        raise ValueError("source and destination host are identical")
    src_edge = tree.edge_of_host(src_host)
    dst_edge = tree.edge_of_host(dst_host)
    if operational_only and not (
        tree.hop_is_operational(src_host, src_edge)
        and tree.hop_is_operational(dst_host, dst_edge)
    ):
        return []
    middles = enumerate_edge_paths(tree, src_edge, dst_edge, operational_only)
    return [Path((src_host,) + middle + (dst_host,)) for middle in middles]
