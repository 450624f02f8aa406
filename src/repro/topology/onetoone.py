"""1:1 backup fat-tree — the brute-force alternative ShareBackup replaces.

Section 1 of the paper describes the classical hot-spare design:

    "Switches can keep a hot spare; hosts are multi-homed to the primary
    and the backup switches; and every link between two primary switches
    is duplicated by a mesh amongst them and their shadows."

This builder realises that design on top of a fat-tree:

* every packet switch ``S`` gets a shadow ``S'`` (name prefixed ``S1.``);
* every host is dual-homed to its edge switch and the edge's shadow;
* every switch–switch link ``(S, T)`` becomes the 4-link mesh
  ``(S,T), (S,T'), (S',T), (S',T')``.

The mesh lets any combination of primary/shadow switches carry the
original topology's paths, so a failed switch is replaced by its shadow
with zero bandwidth loss — at the cost of 2× the switches and 4× the
switch–switch links, which is what makes 1:1 backup cost ``4×`` a plain
fat-tree (Table 2).  The cost equations live in :mod:`repro.cost.models`;
this module exists so that the failover behaviour itself is runnable and
testable, not just priced.
"""

from __future__ import annotations

from .base import Node, NodeKind, Topology
from .fattree import FatTree

__all__ = ["OneToOneBackupTree", "shadow_name", "is_shadow"]

_SHADOW_PREFIX = "S1."


def shadow_name(switch: str) -> str:
    """Name of the shadow of ``switch``."""
    return _SHADOW_PREFIX + switch


def is_shadow(name: str) -> bool:
    return name.startswith(_SHADOW_PREFIX)


class OneToOneBackupTree(Topology):
    """A fat-tree where every packet switch has a fully-meshed hot spare.

    The class keeps a reference fat-tree (``self.base``) for structural
    queries and materialises the doubled topology in itself.  Failover is
    modelled by :meth:`active_instance`: a logical switch is served by its
    primary when up, otherwise by its shadow.
    """

    def __init__(
        self,
        k: int,
        hosts_per_edge: int | None = None,
        link_capacity: float = 10e9,
        name: str | None = None,
    ) -> None:
        super().__init__(name or f"one-to-one-k{k}")
        self.base = FatTree(
            k, hosts_per_edge=hosts_per_edge, link_capacity=link_capacity
        )
        self.k = k
        self.half = k // 2
        self.link_capacity = link_capacity
        self._build()

    def _build(self) -> None:
        base = self.base
        # Primaries and shadows.
        for node in base.nodes.values():
            self.add_node(
                Node(
                    node.name,
                    node.kind,
                    pod=node.pod,
                    index=node.index,
                    attrs=dict(node.attrs),
                )
            )
            if node.kind.is_packet_switch:
                self.add_node(
                    Node(
                        shadow_name(node.name),
                        node.kind,
                        pod=node.pod,
                        index=node.index,
                        is_backup=True,
                        attrs=dict(node.attrs),
                    )
                )
        # Links: host links are dual-homed, switch links become 4-meshes.
        for link in base.links.values():
            a_kind = base.nodes[link.a].kind
            b_kind = base.nodes[link.b].kind
            if a_kind is NodeKind.HOST or b_kind is NodeKind.HOST:
                host, sw = (
                    (link.a, link.b)
                    if a_kind is NodeKind.HOST
                    else (link.b, link.a)
                )
                self.add_link(host, sw, self.link_capacity)
                self.add_link(host, shadow_name(sw), self.link_capacity)
            else:
                self.add_link(link.a, link.b, self.link_capacity)
                self.add_link(link.a, shadow_name(link.b), self.link_capacity)
                self.add_link(shadow_name(link.a), link.b, self.link_capacity)
                self.add_link(
                    shadow_name(link.a), shadow_name(link.b), self.link_capacity
                )

    # ------------------------------------------------------------------
    # failover semantics
    # ------------------------------------------------------------------

    def active_instance(self, logical_switch: str) -> str | None:
        """The physical switch currently serving ``logical_switch``.

        Returns the primary when it is up, else the shadow when that is
        up, else ``None`` (both replicas dead — the logical switch is
        unrecoverable without repair).
        """
        if self.nodes[logical_switch].up:
            return logical_switch
        shadow = shadow_name(logical_switch)
        if self.nodes[shadow].up:
            return shadow
        return None

    def logical_path_operational(self, node_path: list[str]) -> bool:
        """Whether a *logical* fat-tree path survives under current failures.

        Each logical switch hop may be served by either replica; the mesh
        guarantees any replica mix is physically connected, so the path
        survives iff every logical hop has a live instance and the host
        links to the chosen edge instance are up.
        """
        physical: list[str] = []
        for hop in node_path:
            if hop in self.nodes and self.nodes[hop].kind is NodeKind.HOST:
                if not self.nodes[hop].up:
                    return False
                physical.append(hop)
                continue
            inst = self.active_instance(hop)
            if inst is None:
                return False
            physical.append(inst)
        for a, b in zip(physical, physical[1:]):
            if not self.hop_is_operational(a, b):
                return False
        return True
