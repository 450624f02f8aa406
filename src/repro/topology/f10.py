"""F10 AB fat-tree (Liu et al., NSDI'13) — the second baseline of the paper.

F10 keeps the fat-tree's switch inventory but *skews the wiring* between
the aggregation and core layers so that adjacent subtrees have different
parent sets.  We realise the AB construction as:

* **Type-A pods** (even pod index) use the standard fat-tree pattern:
  aggregation switch ``i`` connects to *row* ``i`` of the ``k/2 × k/2``
  core grid — cores ``i*(k/2) + j``.
* **Type-B pods** (odd pod index) connect aggregation switch ``i`` to
  *column* ``i`` of the grid — cores ``j*(k/2) + i``.

Every core still has exactly one link into each pod (one per A-pod via its
row position, one per B-pod via its column position), so the topology
remains a valid folded Clos with full bisection bandwidth.  The parent
sets of same-indexed aggregation switches differ between A and B pods,
which is what gives F10 its short local detours: when a core (or an
agg→core link) dies, the traffic can be bounced through a sibling
subtree that still reaches a live core — at the price of a longer path.
That longer-detour behaviour (and the congestion it induces) is exactly
what Section 2.2 of the ShareBackup paper measures; the detour logic
itself lives in ``repro.routing.reroute_f10``.
"""

from __future__ import annotations

from .fattree import FatTree

__all__ = ["F10Tree"]


class F10Tree(FatTree):
    """An AB fat-tree: fat-tree inventory, skewed aggregation–core wiring."""

    def __init__(
        self,
        k: int,
        hosts_per_edge: int | None = None,
        link_capacity: float = 10e9,
        name: str | None = None,
    ) -> None:
        super().__init__(
            k,
            hosts_per_edge=hosts_per_edge,
            link_capacity=link_capacity,
            name=name or f"f10-k{k}",
        )

    # ------------------------------------------------------------------
    # pod-type aware structural accessors
    # ------------------------------------------------------------------

    @staticmethod
    def pod_type(pod: int) -> str:
        """``"A"`` for even pods (standard wiring), ``"B"`` for odd pods."""
        return "A" if pod % 2 == 0 else "B"

    def core_of_pod(self, pod: int, agg_index: int, port: int) -> int:
        """Core reached from port ``port`` of aggregation ``agg_index`` in ``pod``."""
        if self.pod_type(pod) == "A":
            return agg_index * self.half + port  # row agg_index
        return port * self.half + agg_index  # column agg_index

    def agg_of_core(self, core_index: int, pod: int) -> int:
        """In-pod index of the aggregation switch core ``core_index`` reaches
        inside ``pod`` (depends on the pod's type)."""
        if self.pod_type(pod) == "A":
            return core_index // self.half  # row
        return core_index % self.half  # column
