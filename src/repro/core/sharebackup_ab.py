"""ShareBackup over F10's AB fat-tree — a §6 generality exploration.

The paper's conclusion claims sharable backup "is readily applicable" to
other symmetric architectures "with different plans for partitioning
failure groups".  Building it over the AB fat-tree makes the fine print
concrete:

* **Edge and aggregation groups carry over verbatim.**  Their wiring is
  pod-local (layers 1 and 2 don't involve the skewed agg–core stage), so
  the pod's k/2 switches + n spares share circuit switches exactly as in
  the fat-tree design.
* **Core groups collapse.**  Sharing requires every group member to
  touch the *same set* of circuit switches.  Under AB wiring, core ``c``
  sits on circuit switch position ``c mod k/2`` in type-A pods but
  position ``c div k/2`` in type-B pods; two distinct cores can never
  agree on both coordinates, so each core's circuit-switch footprint is
  unique and the maximal core failure group is a single switch.  Sharing
  a backup core across a group would require extra circuit-switch ports
  per member group — precisely the cost the fat-tree design avoids.

This module implements the honest hybrid those facts leave available:
ShareBackup protection for the edge and aggregation layers, F10's own
local rerouting for core failures (which is F10's strongest layer — a
core failure is exactly the case its 3-hop local detour handles without
upstream propagation).  Core "groups" are kept as degenerate singletons
with zero spares so the controller's bookkeeping, equivalence checking,
and reporting work uniformly; a core failure is reported unrecoverable
by replacement, which is the cue to fall back to rerouting.
"""

from __future__ import annotations

from ..topology.f10 import F10Tree
from ..topology.fattree import core_name
from .circuit_switch import CROSSPOINT_RECONFIG_SECONDS
from .failure_group import FailureGroup, GroupLayer
from .sharebackup import ShareBackupNetwork, cs_name

__all__ = ["ShareBackupABNetwork"]


class ShareBackupABNetwork(ShareBackupNetwork):
    """ShareBackup wiring over an AB fat-tree (edge/agg layers protected)."""

    def __init__(
        self,
        k: int,
        n: int | dict[str, int] = 1,
        reconfig_latency: float = CROSSPOINT_RECONFIG_SECONDS,
        link_capacity: float = 10e9,
    ) -> None:
        if isinstance(n, dict) and n.get("core", 1) not in (0, 1):
            raise ValueError(
                "AB fat-tree cores cannot share backups (unique circuit "
                "footprints); leave n['core'] unset"
            )
        super().__init__(
            k, n=n, reconfig_latency=reconfig_latency, link_capacity=link_capacity
        )

    # ------------------------------------------------------------------
    # construction overrides
    # ------------------------------------------------------------------

    def _make_logical(self, k: int, link_capacity: float):
        return F10Tree(k, hosts_per_edge=k // 2, link_capacity=link_capacity)

    def _finalize_parameters(self) -> None:
        # No shared backup cores exist in this variant: AB wiring gives
        # every core a unique circuit-switch footprint, so a spare could
        # replace exactly one core — that is dedicated 1:1 backup, not
        # sharing, and is deliberately not built.
        self.n_core = 0

    def _build_core_groups(self) -> None:
        """Degenerate singleton groups: one per core, zero spares."""
        h = self.half
        for c in range(h * h):
            group = FailureGroup(
                group_id=f"FG.core.single.{c}",
                layer=GroupLayer.CORE,
                logical_slots=(core_name(c),),
                physical_backups=(),
            )
            css = []
            for pod in range(self.k):
                if F10Tree.pod_type(pod) == "A":
                    css.append(cs_name(3, pod, c % h))
                else:
                    css.append(cs_name(3, pod, c // h))
            self._register_group(group, css)

    @property
    def protected_layers(self) -> tuple[str, ...]:
        return ("edge", "aggregation")

    def core_is_replaceable(self, core: str) -> bool:
        """Always False here: the spare pool of a singleton group is empty."""
        return bool(self.group_of(core).spares)
