"""Two-Level Routing tables for fat-tree (Al-Fares et al.) with the VLAN
extension ShareBackup's live impersonation relies on (paper Section 4.3).

Ports are **positional**: ``host{h}``/``up{a}`` on edge switches,
``down{e}``/``up{j}`` on aggregation switches, ``pod{p}`` on cores.  This
mirrors how the hardware works and is what makes impersonation sound:
when a backup switch replaces a failed switch, the circuit switches
reconnect the failed switch's cables to the *same-numbered* ports of the
backup, so a routing table expressed over port positions remains valid
verbatim.  It also realises two observations the paper builds on:

* all core switches share one table (``10.p/16 → pod{p}``);
* all aggregation switches of a pod share one table (their identical
  suffix→port map lands on *different* cores because the wiring differs
  per switch, which preserves the load spreading).

Edge switches differ only in their out-bound suffix entries (the rotation
``(host_id + edge_index) mod k/2`` that avoids hash polarisation), so the
combined failure-group table tags exactly those entries with the owning
edge's VLAN id.

VLAN convention (documented in :mod:`repro.core.impersonation`): a host
tags a packet with its edge switch's VLAN id **iff the destination is
outside its own rack subnet**; aggregation switches strip the tag when
forwarding downward.  Untagged packets therefore only ever match the
in-bound (host-port) entries, tagged packets prefer the tagged out-bound
entries, and the combined table needs no extra disambiguation entries —
matching the paper's count of ``k/2 + k²/4`` entries for the edge group
(1056 at ``k = 64``).
"""

from __future__ import annotations

from ..topology.addressing import FatTreeAddressPlan, Prefix, Suffix
from ..topology.fattree import FatTree
from .base import RoutingTable

__all__ = [
    "TwoLevelRouting",
    "host_port",
    "up_port",
    "down_port",
    "pod_port",
]


def host_port(h: int) -> str:
    return f"host{h}"


def up_port(i: int) -> str:
    return f"up{i}"


def down_port(e: int) -> str:
    return f"down{e}"


def pod_port(p: int) -> str:
    return f"pod{p}"


class TwoLevelRouting:
    """Builds the static two-level tables for every switch of a fat-tree."""

    #: VLAN ids start here; 0 is reserved for "untagged" in some hardware.
    VLAN_BASE = 100

    def __init__(self, tree: FatTree) -> None:
        self.tree = tree
        self.plan: FatTreeAddressPlan = tree.plan
        self.k = tree.k
        self.half = tree.half

    # ------------------------------------------------------------------
    # VLAN assignment (Section 4.3: unique id per edge switch in a pod)
    # ------------------------------------------------------------------

    def vlan_of_edge(self, pod: int, edge_index: int) -> int:
        """Globally unique VLAN id of an edge switch.

        Uniqueness is only *required* within a pod (the failure-group
        scope), but global uniqueness costs nothing and eases debugging.
        """
        return self.VLAN_BASE + pod * self.half + edge_index

    # ------------------------------------------------------------------
    # per-switch tables
    # ------------------------------------------------------------------

    def edge_table(
        self, pod: int, edge_index: int, tagged: bool = True
    ) -> RoutingTable:
        """Table of edge switch ``E_{pod,edge_index}``.

        In-bound: one untagged suffix entry per attached host delivering to
        its host port.  Out-bound: ``k/2`` suffix entries spreading flows
        over the aggregation uplinks with the per-edge rotation; they carry
        the edge's VLAN id when ``tagged`` (the ShareBackup-edited form —
        untagged original tables are available for baseline comparisons
        via ``tagged=False``).
        """
        table = RoutingTable(owner=f"E.{pod}.{edge_index}")
        vlan = self.vlan_of_edge(pod, edge_index) if tagged else None
        for h in range(self.tree.hosts_per_edge):
            table.add_suffix(Suffix((self._host_octet(h),)), host_port(h))
        # Out-bound entries must cover every host-id octet that can appear
        # in a destination address: k/2 on a canonical tree, more when the
        # topology is oversubscribed.
        for h in range(max(self.half, self.tree.hosts_per_edge)):
            port = up_port((h + edge_index) % self.half)
            table.add_suffix(Suffix((self._host_octet(h),)), port, vlan=vlan)
        return table

    def agg_table(self, pod: int) -> RoutingTable:
        """The single table shared by every aggregation switch of ``pod``."""
        table = RoutingTable(owner=f"A.{pod}.*")
        for e in range(self.half):
            table.add_prefix(self.plan.subnet_prefix(pod, e), down_port(e))
        table.add_prefix(Prefix(()), None, terminating=False)  # /0 fall-through
        for h in range(max(self.half, self.tree.hosts_per_edge)):
            table.add_suffix(Suffix((self._host_octet(h),)), up_port(h % self.half))
        return table

    def core_table(self) -> RoutingTable:
        """The single table shared by *all* core switches."""
        table = RoutingTable(owner="C.*")
        for p in range(self.k):
            table.add_prefix(self.plan.pod_prefix(p), pod_port(p))
        return table

    # ------------------------------------------------------------------
    # positional-port resolution against the concrete topology
    # ------------------------------------------------------------------

    def resolve_port(self, switch: str, port: str) -> str:
        """Map a positional port of ``switch`` to the neighbour node name.

        This is the software analogue of the cable plugged into that port;
        for ShareBackup the circuit-switch layer performs this resolution
        instead (see :mod:`repro.core.sharebackup`).
        """
        node = self.tree.nodes[switch]
        kind = node.kind.value
        if kind == "edge":
            pod, e = node.pod, node.index
            if port.startswith("host"):
                return f"H.{pod}.{e}.{int(port[4:])}"
            if port.startswith("up"):
                return f"A.{pod}.{int(port[2:])}"
        elif kind == "aggregation":
            pod, i = node.pod, node.index
            if port.startswith("down"):
                return f"E.{pod}.{int(port[4:])}"
            if port.startswith("up"):
                return f"C.{self.tree.core_of_pod(pod, i, int(port[2:]))}"
        elif kind == "core":
            if port.startswith("pod"):
                p = int(port[3:])
                return f"A.{p}.{self.tree.agg_of_core(node.index, p)}"
        raise ValueError(f"cannot resolve port {port!r} on {switch!r}")

    # ------------------------------------------------------------------

    @staticmethod
    def _host_octet(host_id: int) -> int:
        """Last address octet of the ``host_id``-th host under an edge."""
        return 2 + host_id
