"""The ShareBackup network: a fat-tree whose switch layers sit behind
configurable circuit switches so a small shared pool of backup switches
can replace any failed switch (paper Section 3, Figures 2–3).

Structure for parameter ``k`` (fat-tree arity) and ``n`` (backups per
failure group), with ``h = k/2``:

* the **logical** network is a plain ``k``-ary fat-tree — routing, hosts
  and applications only ever see this;
* each pod holds three sets of ``h`` circuit switches spliced into the
  host–edge (layer 1), edge–aggregation (layer 2) and aggregation–core
  (layer 3) cables, each a ``(h+n+2)×(h+n+2)`` crossbar;
* failure groups: the ``h`` edge switches of a pod (+ ``n`` spare edges),
  the ``h`` aggregation switches of a pod (+ ``n`` spare aggs), and for
  each ``j < h`` the ``h`` core switches with global index ≡ ``j``
  (mod ``h``) (+ ``n`` spare cores) — ``5k/2`` groups in total;
* circuit switches of one layer of a pod are chained into a ring through
  their side ports for offline failure diagnosis (Figure 4).

Wiring (the concrete realisation of Figure 3; ``m, a, j < h``):

=========  =======================================  =========================
circuit    down-side port ``d{x}``                  up-side port ``u{x}``
=========  =======================================  =========================
CS.1.i.j   host ``H.i.x.j``                         edge ``E.i.x`` port host-j
CS.2.i.j   edge ``E.i.x`` up-interface j            agg ``A.i.x`` down-if j
CS.3.i.j   agg ``A.i.x`` up-interface j             core ``C.(x·h+j)`` pod-if i
=========  =======================================  =========================

Backup switches occupy device ports ``h..h+n-1`` on their side, cabled
but initially *internally unconnected* — exactly the paper's "the ports
to backup switches are unconnected internally".

Initial internal configuration: layers 1 and 3 are straight-through
(``d{x} ↔ u{x}``); layer 2 uses the rotational shuffle
``d{m} ↔ u{(m+j) mod h}`` so that the ``h`` circuit switches jointly
realise the pod's complete edge×aggregation bipartite mesh ("we use a
rotational wiring pattern in the circuit switches to achieve this
shuffle connectivity").

A failover never moves a cable: for each circuit switch the failed
switch touches, its device port's circuit is re-pointed at the spare's
port (same interface position), so the spare inherits the failed
switch's connectivity *verbatim*.  :meth:`derive_logical_adjacency`
recomputes the logical topology by walking cables and circuits, and
equivalence with the fat-tree is the core invariant the test suite
checks before and after arbitrary failover sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..topology.fattree import FatTree, agg_name, core_name, edge_name, host_name
from .circuit_switch import (
    CROSSPOINT_RECONFIG_SECONDS,
    CircuitSwitch,
    CSPort,
    Endpoint,
)
from .failure_group import FailureGroup, GroupLayer

__all__ = [
    "ShareBackupNetwork",
    "backup_edge_name",
    "backup_agg_name",
    "backup_core_name",
    "cs_name",
]


def backup_edge_name(pod: int, v: int) -> str:
    return f"BE.{pod}.{v}"


def backup_agg_name(pod: int, v: int) -> str:
    return f"BA.{pod}.{v}"


def backup_core_name(group: int, v: int) -> str:
    return f"BC.{group}.{v}"


def cs_name(layer: int, pod: int, j: int) -> str:
    """Circuit switch :math:`CS_{layer, pod, j}` (paper Table 1 notation)."""
    return f"CS.{layer}.{pod}.{j}"


@dataclass
class _Cable:
    """One end of a device↔circuit-switch cable (the device-side view)."""

    cs: str
    port: CSPort


class ShareBackupNetwork:
    """A complete ShareBackup physical network plus its logical fat-tree."""

    def __init__(
        self,
        k: int,
        n: int | dict[str, int] = 1,
        reconfig_latency: float = CROSSPOINT_RECONFIG_SECONDS,
        link_capacity: float = 10e9,
    ) -> None:
        """``n`` is either one spare count for every failure group, or a
        per-layer mapping ``{"edge": ..., "agg": ..., "core": ...}`` —
        the paper's §6 non-uniform extension ("more backup on critical
        devices and less backup on unimportant ones").  Circuit switches
        between layers with different spare counts get asymmetric sides.
        """
        if k < 4 or k % 2:
            raise ValueError(f"k must be even and >= 4, got {k}")
        if isinstance(n, int):
            n_map = {"edge": n, "agg": n, "core": n}
        else:
            unknown = set(n) - {"edge", "agg", "core"}
            if unknown:
                raise ValueError(f"unknown layers in n: {sorted(unknown)}")
            n_map = {"edge": 1, "agg": 1, "core": 1}
            n_map.update(n)
        if min(n_map.values()) < 1:
            raise ValueError(f"need at least one backup per group, got {n_map}")
        self.k = k
        self.half = k // 2
        self.n_edge = n_map["edge"]
        self.n_agg = n_map["agg"]
        self.n_core = n_map["core"]
        #: Uniform-provisioning view: the largest per-layer spare count
        #: (equals the scalar ``n`` when provisioning is uniform).
        self.n = max(n_map.values())
        self.reconfig_latency = reconfig_latency
        #: The logical network routing/applications see.  ``hosts_per_edge``
        #: is pinned to k/2: ShareBackup's layer-1 circuit switches are
        #: sized for the canonical fat-tree host count.  Subclasses swap
        #: the substrate (the AB variant builds an F10Tree).
        self.logical = self._make_logical(k, link_capacity)
        self.circuit_switches: dict[str, CircuitSwitch] = {}
        self.groups: dict[str, FailureGroup] = {}
        self._group_of_logical: dict[str, str] = {}
        self._group_css: dict[str, list[str]] = {}
        #: (device, interface) → cable descriptor.
        self._device_cable: dict[tuple[str, tuple], _Cable] = {}
        #: Physical packet-switch health (True = able to serve).
        self.physical_health: dict[str, bool] = {}
        #: Hidden per-interface fault state consumed by failure diagnosis.
        self.interface_faults: set[tuple[str, tuple]] = set()

        self._finalize_parameters()
        self._build()

    # ==================================================================
    # construction
    # ==================================================================

    def _make_logical(self, k: int, link_capacity: float) -> FatTree:
        return FatTree(k, hosts_per_edge=self.half, link_capacity=link_capacity)

    def _finalize_parameters(self) -> None:
        """Subclass hook to adjust per-layer provisioning before building
        (the AB variant zeroes the core layer's spares here)."""

    def _build(self) -> None:
        for pod in range(self.k):
            self._build_pod(pod)
        self._build_core_groups()
        self._build_side_rings()
        for switch in self._all_physical_switches():
            self.physical_health[switch] = True

    def _new_cs(self, name: str, down_spares: int, up_spares: int) -> CircuitSwitch:
        cs = CircuitSwitch(
            name,
            radix=self.half + down_spares,
            up_radix=self.half + up_spares,
            reconfig_latency=self.reconfig_latency,
        )
        self.circuit_switches[name] = cs
        return cs

    def _splice(
        self, cs: CircuitSwitch, port: CSPort, device: str, iface: tuple
    ) -> None:
        cs.splice(port, ("device", (device, iface)))
        self._device_cable[(device, iface)] = _Cable(cs.name, port)

    def _build_pod(self, pod: int) -> None:
        h = self.half
        edges = [edge_name(pod, m) for m in range(h)]
        aggs = [agg_name(pod, a) for a in range(h)]
        backup_edges = [backup_edge_name(pod, v) for v in range(self.n_edge)]
        backup_aggs = [backup_agg_name(pod, v) for v in range(self.n_agg)]

        layer1, layer2, layer3 = [], [], []
        for j in range(h):
            # ---- layer 1: hosts below, edges above --------------------
            # (down side sized like the up side per the paper's symmetric
            # (k/2+n+2)^2 crossbars; its spare ports stay uncabled —
            # hosts have no backups)
            cs1 = self._new_cs(cs_name(1, pod, j), self.n_edge, self.n_edge)
            layer1.append(cs1.name)
            for m in range(h):
                self._splice(cs1, ("d", m), host_name(pod, m, j), ("nic", 0))
                self._splice(cs1, ("u", m), edges[m], ("host", j))
            for v in range(self.n_edge):
                self._splice(cs1, ("u", h + v), backup_edges[v], ("host", j))
            for m in range(h):
                cs1.connect(("d", m), ("u", m))  # straight-through

            # ---- layer 2: edges below, aggregations above -------------
            cs2 = self._new_cs(cs_name(2, pod, j), self.n_edge, self.n_agg)
            layer2.append(cs2.name)
            for m in range(h):
                self._splice(cs2, ("d", m), edges[m], ("up", j))
                self._splice(cs2, ("u", m), aggs[m], ("down", j))
            for v in range(self.n_edge):
                self._splice(cs2, ("d", h + v), backup_edges[v], ("up", j))
            for v in range(self.n_agg):
                self._splice(cs2, ("u", h + v), backup_aggs[v], ("down", j))
            for m in range(h):
                cs2.connect(("d", m), ("u", (m + j) % h))  # rotational shuffle

            # ---- layer 3: aggregations below, cores above -------------
            cs3 = self._new_cs(cs_name(3, pod, j), self.n_agg, self.n_core)
            layer3.append(cs3.name)
            for a in range(h):
                self._splice(cs3, ("d", a), aggs[a], ("up", j))
                core = core_name(self.logical.core_of_pod(pod, a, j))
                self._splice(cs3, ("u", a), core, ("pod", pod))
            for v in range(self.n_agg):
                self._splice(cs3, ("d", h + v), backup_aggs[v], ("up", j))
            for v in range(self.n_core):
                self._splice(
                    cs3, ("u", h + v), backup_core_name(j, v), ("pod", pod)
                )
            for a in range(h):
                cs3.connect(("d", a), ("u", a))  # straight-through

        edge_group = FailureGroup(
            group_id=f"FG.edge.{pod}",
            layer=GroupLayer.EDGE,
            logical_slots=tuple(edges),
            physical_backups=tuple(backup_edges),
        )
        agg_group = FailureGroup(
            group_id=f"FG.agg.{pod}",
            layer=GroupLayer.AGGREGATION,
            logical_slots=tuple(aggs),
            physical_backups=tuple(backup_aggs),
        )
        self._register_group(edge_group, layer1 + layer2)
        self._register_group(agg_group, layer2 + layer3)

    def _build_core_groups(self) -> None:
        h, k = self.half, self.k
        for j in range(h):
            # The cores every pod's layer-3 circuit switch j carries.
            members = tuple(
                core_name(self.logical.core_of_pod(0, m, j)) for m in range(h)
            )
            group = FailureGroup(
                group_id=f"FG.core.{j}",
                layer=GroupLayer.CORE,
                logical_slots=members,
                physical_backups=tuple(
                    backup_core_name(j, v) for v in range(self.n_core)
                ),
            )
            css = [cs_name(3, pod, j) for pod in range(k)]
            self._register_group(group, css)

    def _register_group(self, group: FailureGroup, css: list[str]) -> None:
        self.groups[group.group_id] = group
        self._group_css[group.group_id] = css
        for slot in group.logical_slots:
            self._group_of_logical[slot] = group.group_id

    def _build_side_rings(self) -> None:
        """Chain each pod-layer's circuit switches into a ring (Figure 4).

        Ring cables run side-port(1) → side-port(0) of the next switch,
        on both the down side and the up side, so diagnosis can reach
        suspect interfaces attached to either side.
        """
        h = self.half
        for pod in range(self.k):
            for layer in (1, 2, 3):
                names = [cs_name(layer, pod, j) for j in range(h)]
                for j, name in enumerate(names):
                    nxt = names[(j + 1) % h]
                    for side_kind in ("ds", "us"):
                        self.circuit_switches[name].splice(
                            (side_kind, 1), ("cs", (nxt, (side_kind, 0)))
                        )
                        self.circuit_switches[nxt].splice(
                            (side_kind, 0), ("cs", (name, (side_kind, 1)))
                        )

    # ==================================================================
    # inventory / accessors
    # ==================================================================

    def _all_physical_switches(self) -> list[str]:
        out = set()
        for group in self.groups.values():
            out.update(group.all_physical())
        return sorted(out)

    def group_of(self, logical_switch: str) -> FailureGroup:
        return self.groups[self._group_of_logical[logical_switch]]

    def circuit_switches_of(self, group_id: str) -> list[CircuitSwitch]:
        return [self.circuit_switches[name] for name in self._group_css[group_id]]

    def serving_switch(self, logical: str) -> str:
        """Physical switch currently serving a logical slot."""
        return self.group_of(logical).physical_of(logical)

    def cable_of(self, device: str, iface: tuple) -> _Cable:
        return self._device_cable[(device, iface)]

    @property
    def num_circuit_switches(self) -> int:
        return len(self.circuit_switches)

    @property
    def num_backup_switches(self) -> int:
        return sum(g.n for g in self.groups.values())

    @property
    def circuit_ports_per_side(self) -> int:
        """The scalability-limiting port count ``k/2 + n + 2`` (§5.3)."""
        return self.half + self.n + 2

    # ==================================================================
    # physical signal traversal
    # ==================================================================

    def physical_neighbor(
        self, device: str, iface: tuple
    ) -> tuple[str, tuple] | None:
        """Follow the cable from ``(device, iface)`` through circuit
        switches (including side-port chains) to the far device interface.

        Returns ``None`` when the light dies — unconnected circuit, a
        down circuit switch, or a chain loop guard trip.
        """
        cable = self._device_cable.get((device, iface))
        if cable is None:
            return None
        visited: set[tuple[str, CSPort]] = set()
        cs, port = cable.cs, cable.port
        while True:
            if (cs, port) in visited:
                return None  # mis-configured circuit loop
            visited.add((cs, port))
            outcome = self.circuit_switches[cs].traverse(port)
            if outcome is None:
                return None
            kind, payload = outcome
            if kind == "device":
                return payload  # (device name, interface key)
            cs, port = payload  # hop to the chained circuit switch

    def derive_logical_adjacency(self) -> set[frozenset[str]]:
        """The logical topology induced by cables + circuits + assignment.

        Each physically-connected interface pair is reported as a pair of
        *logical* names (hosts stay themselves; serving switches map back
        to their logical slot).  Spare switches that currently serve no
        slot contribute nothing — their circuits are dark.
        """
        logical_of_physical: dict[str, str] = {}
        for group in self.groups.values():
            for slot in group.logical_slots:
                logical_of_physical[group.physical_of(slot)] = slot

        edges: set[frozenset[str]] = set()
        for (device, iface), _cable in self._device_cable.items():
            if device.startswith(("CS.",)):
                continue
            src_logical = logical_of_physical.get(device, device)
            if device in self.physical_health and device not in logical_of_physical:
                continue  # dark spare
            far = self.physical_neighbor(device, iface)
            if far is None:
                continue
            far_device, _far_iface = far
            dst_logical = logical_of_physical.get(far_device, None)
            if far_device not in self.physical_health:
                dst_logical = far_device  # a host
            if dst_logical is None:
                continue  # far side is a dark spare
            edges.add(frozenset((src_logical, dst_logical)))
        return edges

    def verify_fattree_equivalence(self) -> None:
        """Assert the induced logical topology equals the k-ary fat-tree."""
        expected: set[frozenset[str]] = set()
        for link in self.logical.links.values():
            expected.add(frozenset((link.a, link.b)))
        got = self.derive_logical_adjacency()
        missing = expected - got
        extra = got - expected
        if missing or extra:
            raise AssertionError(
                f"logical topology drifted: missing={sorted(map(sorted, missing))[:5]} "
                f"extra={sorted(map(sorted, extra))[:5]} "
                f"(missing {len(missing)}, extra {len(extra)})"
            )

    # ==================================================================
    # failover mechanics (invoked by the controller)
    # ==================================================================

    def failover(self, logical: str, spare: str) -> tuple[int, float]:
        """Re-point every circuit of ``logical``'s serving switch at ``spare``.

        Returns ``(circuit_switches_touched, max_reconfig_latency)`` —
        reconfigurations happen in parallel across circuit switches, so
        recovery pays the *max*, not the sum (Section 5.3).

        The reconfiguration is two-phase: every involved circuit switch is
        first *validated* (down switch, stuck crosspoint, injected fault),
        and only if all of them accept is anything applied.  A failing
        switch therefore raises :class:`CircuitSwitchError` with the
        network untouched, which is what lets the controller retry — or
        try a different spare — without unwinding partial circuit state.
        """
        group = self.group_of(logical)
        old_physical = group.physical_of(logical)
        plans: list[tuple[CircuitSwitch, dict[CSPort, CSPort | None]]] = []
        for cs in self.circuit_switches_of(group.group_id):
            moves: dict[CSPort, CSPort | None] = {}
            for port, endpoint in list(cs._cables.items()):
                kind, payload = endpoint
                if kind != "device":
                    continue
                dev, iface = payload
                if dev != old_physical:
                    continue
                peer = cs.peer(port)
                spare_port = cs.port_of_endpoint(("device", (spare, iface)))
                if spare_port is None:
                    raise AssertionError(
                        f"{cs.name}: spare {spare} lacks a port for {iface} — "
                        f"{spare} is wired differently from {old_physical}"
                    )
                moves[port] = None
                if peer is not None:
                    moves[spare_port] = peer
            if moves:
                plans.append((cs, moves))
        for cs, moves in plans:  # prepare: all-or-nothing
            cs.validate_reconfigure(moves)
        touched = 0
        latency = 0.0
        for cs, moves in plans:  # commit
            latency = max(latency, cs.reconfigure(moves, preflighted=True))
            touched += 1
        group.failover(logical, spare)
        return touched, latency

    def spare_ports_dark(self, group_id: str) -> bool:
        """True when every free spare of the group has no live circuits."""
        group = self.groups[group_id]
        for spare in group.spares:
            for cs in self.circuit_switches_of(group_id):
                for port, endpoint in cs._cables.items():
                    kind, payload = endpoint
                    if kind == "device" and payload[0] == spare:
                        if cs.peer(port) is not None:
                            return False
        return True
