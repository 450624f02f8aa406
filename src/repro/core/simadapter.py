"""Bridges the ShareBackup control plane into the fluid simulator.

Key observation (and the whole point of the architecture): after a
ShareBackup recovery the *logical* network is byte-for-byte the
pre-failure fat-tree — same links, same routing tables, same paths —
because the backup switch inherited the failed switch's circuits and
impersonates it.  For flow-level simulation a failure + recovery is
therefore exactly equivalent to the element being down for
``recovery_time`` and then restored *in place*.  Flows pinned through
the element stall for the (sub-millisecond, Section 5.3) recovery window
and resume on their original paths; nothing is rerouted, so there is no
bandwidth loss and no path dilation — the properties of Table 3 emerge
from the model instead of being asserted.

The adapter asks the controller for the per-event recovery latency (so
control-plane policy — crosspoint vs MEMS, spare exhaustion — shows up
in simulated application performance) and schedules the matching
fail/restore pairs into a :class:`FluidSimulation` running on the
ShareBackup network's logical fat-tree with a :class:`StaticEcmpRouter`
(static, because ShareBackup never reroutes).

When the controller runs with ``degrade_to_reroute`` (chaos hardening),
the simulation uses a :class:`~repro.routing.fallback.FallbackRouter`
instead: still static ECMP while recovery succeeds, but the first slot
the controller degrades flips the fabric to the §2.2 global-optimal
rerouting baseline, so traffic through the dead slot keeps flowing on
surviving paths rather than stalling forever.
"""

from __future__ import annotations

from ..routing.fallback import FallbackRouter
from ..routing.router import Router
from ..routing.static import StaticEcmpRouter
from ..simulation.engine import FluidSimulation
from ..simulation.flow import CoflowSpec
from .controller import RecoveryReport, ShareBackupController
from .sharebackup import ShareBackupNetwork

__all__ = ["ShareBackupSimulation"]


class ShareBackupSimulation:
    """A fluid simulation of a ShareBackup network under failures."""

    def __init__(
        self,
        net: ShareBackupNetwork,
        trace: list[CoflowSpec],
        controller: ShareBackupController | None = None,
        horizon: float | None = None,
    ) -> None:
        self.net = net
        self.controller = controller or ShareBackupController(net)
        self.router: Router
        if self.controller.degrade_to_reroute:
            self.router = FallbackRouter(net.logical)
        else:
            self.router = StaticEcmpRouter(net.logical)
        self.sim = FluidSimulation(net.logical, self.router, trace, horizon=horizon)
        self.reports: list[RecoveryReport] = []

    # ------------------------------------------------------------------

    def inject_switch_failure(self, time: float, logical_switch: str) -> None:
        """Fail a switch at ``time``; the controller's recovery brings the
        (replaced) switch back after its recovery latency."""

        def fail_and_recover(sim: FluidSimulation) -> None:
            sim._mutate(lambda: sim.topo.fail_node(logical_switch))
            report = self.controller.handle_node_failure(logical_switch, now=time)
            self.reports.append(report)
            if report.fully_recovered:
                sim.schedule_action(
                    time + report.recovery_time,
                    lambda s: s._mutate(lambda: s.topo.restore_node(logical_switch)),
                    label=f"sharebackup-recovered:{logical_switch}",
                )
            elif report.degraded:
                self._activate_fallback(sim)
            # With no spare left (and no degradation) the slot stays dark
            # until repair — a fat-tree with a dead switch.

        self.sim.schedule_action(
            time, fail_and_recover, label=f"fail:{logical_switch}"
        )

    def inject_link_failure(
        self,
        time: float,
        link_id: int,
        true_faulty_interfaces: tuple[tuple[str, tuple], ...] = (),
    ) -> None:
        """Fail a logical link; both endpoint switches get replaced.

        The replacement repairs the link (whichever interface was at
        fault is now offline), so the logical link is restored after the
        recovery window.
        """
        link = self.net.logical.links[link_id]

        def fail_and_recover(sim: FluidSimulation) -> None:
            sim._mutate(lambda: sim.topo.fail_link(link_id))
            report = self.controller.handle_link_failure(
                self._interface_end(link.a, link.b),
                self._interface_end(link.b, link.a),
                now=time,
                true_faulty_interfaces=true_faulty_interfaces,
            )
            self.reports.append(report)
            if report.fully_recovered:
                sim.schedule_action(
                    time + report.recovery_time,
                    lambda s: s._mutate(lambda: s.topo.restore_link(link_id)),
                    label=f"sharebackup-recovered-link:{link_id}",
                )
            elif report.degraded:
                self._activate_fallback(sim)

        self.sim.schedule_action(time, fail_and_recover, label=f"fail-link:{link_id}")

    def _activate_fallback(self, sim: FluidSimulation) -> None:
        """A slot degraded to rerouting: flip the fabric's routing
        personality (inside ``_mutate`` so stalled flows repath now)."""
        if isinstance(self.router, FallbackRouter) and not self.router.degraded:
            sim._mutate(self.router.activate)

    def _interface_end(self, device: str, far: str) -> tuple[str, tuple]:
        """The (device, physical-interface) pair of the ``device`` side of
        the logical link ``device -- far``, resolved via the wiring maps."""
        tree = self.net.logical
        half = self.net.half
        node = tree.nodes[device]
        far_node = tree.nodes[far]
        if node.kind.value == "host":
            return (device, ("nic", 0))
        if node.kind.value == "edge":
            if far_node.kind.value == "host":
                # H.p.e.j hangs off layer-1 circuit j.
                j = int(far.split(".")[-1])
                return (device, ("host", j))
            from .impersonation import edge_uplink_interface

            return (
                device,
                ("up", edge_uplink_interface(node.index, far_node.index, half)),
            )
        if node.kind.value == "aggregation":
            if far_node.kind.value == "edge":
                from .impersonation import agg_downlink_interface

                return (
                    device,
                    ("down", agg_downlink_interface(node.index, far_node.index, half)),
                )
            port = next(
                j
                for j in range(half)
                if tree.core_of_pod(node.pod, node.index, j) == far_node.index
            )
            return (device, ("up", port))
        # Core side: interface is indexed by the far pod.
        return (device, ("pod", far_node.pod))

    # ------------------------------------------------------------------

    def run(self):
        result = self.sim.run()
        self.controller.run_pending_diagnoses()
        return result
