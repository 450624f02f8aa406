"""k-ary fat-tree builder (Al-Fares et al., SIGCOMM'08).

The fat-tree is the substrate ShareBackup augments, the topology of the
paper's failure study (Section 2.2), and the cost baseline of Table 2.

Naming convention (mirrors the paper's Table 1):

* ``E.{pod}.{idx}``   — edge switch :math:`E_{pod,idx}`
* ``A.{pod}.{idx}``   — aggregation switch :math:`A_{pod,idx}`
* ``C.{idx}``         — core switch :math:`C_{idx}` (global index)
* ``H.{pod}.{edge}.{h}`` — the ``h``-th host under an edge switch

Wiring: edge ``j`` of every pod connects to all ``k/2`` aggregation
switches of its pod; aggregation switch ``i`` connects to cores
``i*(k/2) .. i*(k/2)+k/2-1`` (row ``i`` of the core grid); every edge
switch serves ``hosts_per_edge`` hosts.

``hosts_per_edge`` defaults to ``k/2`` (the canonical 1:1 fat-tree).  The
paper's failure study maps a 10:1 oversubscribed 150-rack trace onto a
``k=16`` fat-tree; passing ``hosts_per_edge = 10 * k/2`` reproduces that
oversubscription: each edge switch then terminates ten times more host
bandwidth than it has uplink bandwidth.
"""

from __future__ import annotations

from .addressing import Address, FatTreeAddressPlan
from .base import DEFAULT_LINK_CAPACITY, Node, NodeKind, Topology

__all__ = ["FatTree", "edge_name", "agg_name", "core_name", "host_name"]


def edge_name(pod: int, index: int) -> str:
    return f"E.{pod}.{index}"


def agg_name(pod: int, index: int) -> str:
    return f"A.{pod}.{index}"


def core_name(index: int) -> str:
    return f"C.{index}"


def host_name(pod: int, edge: int, h: int) -> str:
    return f"H.{pod}.{edge}.{h}"


class FatTree(Topology):
    """A complete ``k``-ary fat-tree.

    Attributes:
        k: Port count of each switch and the number of pods.
        half: ``k/2`` — edge/agg switches per pod, hosts per edge (at 1:1).
        hosts_per_edge: Hosts attached to each edge switch.
        plan: The :class:`FatTreeAddressPlan` used for switch addresses.
    """

    def __init__(
        self,
        k: int,
        hosts_per_edge: int | None = None,
        link_capacity: float = DEFAULT_LINK_CAPACITY,
        name: str | None = None,
    ) -> None:
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree parameter k must be even and >= 2, got {k}")
        super().__init__(name or f"fattree-k{k}")
        self.k = k
        self.half = k // 2
        self.hosts_per_edge = self.half if hosts_per_edge is None else hosts_per_edge
        if self.hosts_per_edge < 1:
            raise ValueError("hosts_per_edge must be >= 1")
        self.link_capacity = link_capacity
        self.plan = FatTreeAddressPlan(k)
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        self._add_cores()
        for pod in range(self.k):
            self._add_pod(pod)

    def _add_cores(self) -> None:
        for c in range(self.half * self.half):
            self.add_node(
                Node(
                    core_name(c),
                    NodeKind.CORE,
                    pod=None,
                    index=c,
                    attrs={"address": self.plan.core_address(c)},
                )
            )

    def _add_pod(self, pod: int) -> None:
        for i in range(self.half):
            self.add_node(
                Node(
                    edge_name(pod, i),
                    NodeKind.EDGE,
                    pod=pod,
                    index=i,
                    attrs={"address": self.plan.edge_address(pod, i)},
                )
            )
            self.add_node(
                Node(
                    agg_name(pod, i),
                    NodeKind.AGGREGATION,
                    pod=pod,
                    index=i,
                    attrs={"address": self.plan.aggregation_address(pod, i)},
                )
            )
        # Hosts and host--edge links.
        for e in range(self.half):
            for h in range(self.hosts_per_edge):
                self.add_node(
                    Node(
                        host_name(pod, e, h),
                        NodeKind.HOST,
                        pod=pod,
                        index=h,
                        attrs={"address": self._host_address(pod, e, h)},
                    )
                )
                self.add_link(
                    host_name(pod, e, h), edge_name(pod, e), self.link_capacity
                )
        # Edge--aggregation full bipartite mesh inside the pod.
        for e in range(self.half):
            for a in range(self.half):
                self.add_link(edge_name(pod, e), agg_name(pod, a), self.link_capacity)
        # Aggregation--core, as core_of_pod wires it.
        for a in range(self.half):
            for j in range(self.half):
                self.add_link(
                    agg_name(pod, a),
                    core_name(self.core_of_pod(pod, a, j)),
                    self.link_capacity,
                )

    def _host_address(self, pod: int, edge: int, h: int) -> Address:
        if h < self.half:
            return self.plan.host_address(pod, edge, h)
        # Oversubscribed topologies exceed the canonical /24 host range;
        # extend the last octet as far as it goes and wrap into attrs-only
        # pseudo-addresses beyond that (routing by suffix still works
        # because suffixes only need to be spread, not unique).
        o3 = 2 + h
        if o3 > 255:
            o3 = 2 + (h % 254)
        return Address(10, pod, edge, o3)

    # ------------------------------------------------------------------
    # structural accessors used throughout the reproduction
    # ------------------------------------------------------------------

    def core_of_pod(self, pod: int, agg_index: int, port: int) -> int:
        """Global index of the core on ``port`` of aggregation ``agg_index``
        in ``pod``.

        Standard fat-tree wiring: row ``agg_index`` of the ``k/2 × k/2``
        core grid in every pod.  This and :meth:`agg_of_core` are the only
        encodings of agg→core wiring: the builder, the path model and the
        routing tables all derive from them, so a subclass with other
        wiring (F10, Aspen) overrides only these.
        """
        return agg_index * self.half + port

    def agg_of_core(self, core_index: int, pod: int) -> int:
        """In-pod index of the aggregation switch that core ``core_index``
        connects to inside ``pod``.  Inverse of :meth:`core_of_pod`."""
        return core_index // self.half

    def edge_switches(self, pod: int) -> list[str]:
        return [edge_name(pod, i) for i in range(self.half)]

    def agg_switches(self, pod: int) -> list[str]:
        return [agg_name(pod, i) for i in range(self.half)]

    def core_switches(self) -> list[str]:
        return [core_name(c) for c in range(self.half * self.half)]

    def hosts_of_edge(self, pod: int, edge: int) -> list[str]:
        return [host_name(pod, edge, h) for h in range(self.hosts_per_edge)]

    def all_host_names(self) -> list[str]:
        return [
            host_name(p, e, h)
            for p in range(self.k)
            for e in range(self.half)
            for h in range(self.hosts_per_edge)
        ]

    def edge_of_host(self, host: str) -> str:
        """Edge switch name serving ``host``."""
        node = self.nodes[host]
        if node.kind is not NodeKind.HOST:
            raise ValueError(f"{host!r} is not a host")
        _, pod, edge, _ = host.split(".")
        return edge_name(int(pod), int(edge))

    @property
    def num_hosts(self) -> int:
        return self.k * self.half * self.hosts_per_edge

    @property
    def num_racks(self) -> int:
        """Number of racks = number of edge switches."""
        return self.k * self.half

    @property
    def oversubscription(self) -> float:
        """Host bandwidth to uplink bandwidth ratio at the edge."""
        return self.hosts_per_edge / self.half

    def rack_of(self, host: str) -> int:
        """Global rack (edge switch) index of ``host``."""
        _, pod, edge, _ = host.split(".")
        return int(pod) * self.half + int(edge)

    def rack_name(self, rack: int) -> str:
        """Edge switch name of global rack index ``rack``."""
        return edge_name(rack // self.half, rack % self.half)

    def summary(self) -> dict[str, float]:
        """Headline structural quantities, handy in examples and docs."""
        return {
            "k": self.k,
            "pods": self.k,
            "edge_switches": self.k * self.half,
            "aggregation_switches": self.k * self.half,
            "core_switches": self.half * self.half,
            "hosts": self.num_hosts,
            "links": len(self.links),
            "oversubscription": self.oversubscription,
        }
