"""Aspen-tree-style fat-tree with duplicated aggregation–core links.

Aspen Trees (Walraed-Sullivan et al., CoNEXT'13) trade core-layer path
diversity for *local* fault tolerance: a lower-layer switch disconnects
half of its upper-layer parents and uses the freed ports to duplicate the
links to the remaining half.  A switch that loses one uplink can then fail
over to the parallel link locally — no dilation, no upstream
notification — as long as only one of a duplicated pair dies.

The ShareBackup paper uses Aspen Tree in two places:

* **Cost (Table 2 / Figure 5)** — there it uses the authors' own
  accounting (``k²/2`` extra switches, ``k³/4`` extra cables, i.e. one
  extra switch layer to reconnect the partitioned core).  That accounting
  is implemented independently in :mod:`repro.cost.models`; this module is
  *not* used for cost numbers.
* **Table 3 qualitative comparison** — bandwidth loss ✗ avoided? no;
  path dilation: none; upstream repair: sometimes needed (``√/×``).  For
  that we need a runnable topology, which is what this builder provides.

Construction: aggregation switch ``i`` keeps the *even* ports of its core
row and doubles each kept link, i.e. it connects twice to cores
``i*(k/2) + 2j`` for ``j < k/4``.  ``k`` must be a multiple of 4.  Core
switches symmetrically end up with two links to each pod they still
serve and no links to the others, preserving per-switch port counts.
Note the resulting core layer is *partitioned* relative to fat-tree (half
the cores are unused); the real Aspen design re-attaches them with an
extra layer, which only matters for cost and is handled in the cost
model.  The unused cores are left in place (down-linked) so that switch
counts still match the fat-tree inventory the cost model starts from.
"""

from __future__ import annotations

from .fattree import FatTree

__all__ = ["AspenTree"]


class AspenTree(FatTree):
    """Fat-tree with duplicated agg–core links (1-fault-tolerant at that level)."""

    def __init__(
        self,
        k: int,
        hosts_per_edge: int | None = None,
        link_capacity: float = 10e9,
        name: str | None = None,
    ) -> None:
        if k % 4:
            raise ValueError(f"Aspen duplication needs k divisible by 4, got {k}")
        super().__init__(
            k,
            hosts_per_edge=hosts_per_edge,
            link_capacity=link_capacity,
            name=name or f"aspen-k{k}",
        )

    def core_of_pod(self, pod: int, agg_index: int, port: int) -> int:
        # Port 2j and 2j+1 both reach core i*(k/2) + 2j: every kept core
        # gets a duplicated (parallel) link, every odd core of the row is
        # dropped from this aggregation switch's parent set.
        return agg_index * self.half + (port - port % 2)

    def duplicated_cores(self, agg_index: int) -> list[int]:
        """Cores that aggregation switch ``agg_index`` reaches (each twice)."""
        return sorted(
            {self.core_of_pod(0, agg_index, port) for port in range(self.half)}
        )

    def is_attached_core(self, core_index: int) -> bool:
        """True if the core is in the served (even-column) half of its row."""
        return core_index in self.duplicated_cores(self.agg_of_core(core_index, 0))
