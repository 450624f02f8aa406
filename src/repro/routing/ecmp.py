"""ECMP path selection.

Both networks in the paper's failure study "use ECMP routing": each flow
is pinned to one of the equal-cost shortest paths by a hash of its
five-tuple.  We model the five-tuple with a per-flow integer label and
use CRC32 for the hash — deterministic across runs (unlike ``hash()``,
which Python salts per process), uniform enough for load spreading, and
cheap.

``EcmpSelector`` hashes into the name-ordered candidate list of
:func:`~repro.routing.paths.enumerate_edge_paths`, which is equivalent to
consistent per-hop hashing on a symmetric Clos and keeps the flow→path
pinning explicit for the simulator.  Candidates are derived afresh from
the wiring and the current failure state on every call, so there is no
cache to invalidate when the topology changes.
"""

from __future__ import annotations

import zlib

from ..topology.fattree import FatTree
from .paths import Path, enumerate_edge_paths

__all__ = ["flow_hash", "EcmpSelector"]


def flow_hash(*parts: object) -> int:
    """Deterministic 32-bit hash of heterogeneous flow identifiers."""
    blob = "|".join(str(p) for p in parts).encode()
    return zlib.crc32(blob)


class EcmpSelector:
    """Pins flows to equal-cost paths by five-tuple hash."""

    def __init__(self, tree: FatTree) -> None:
        self.tree = tree

    def paths(
        self, src_host: str, dst_host: str, operational_only: bool = False
    ) -> list[Path]:
        """All equal-cost paths between two hosts, in name order."""
        middles = self._candidates(src_host, dst_host, operational_only)
        return [Path((src_host,) + middle + (dst_host,)) for middle in middles]

    def select(
        self,
        src_host: str,
        dst_host: str,
        flow_label: int,
        operational_only: bool = False,
    ) -> Path | None:
        """The ECMP choice for one flow, or ``None`` if no path survives."""
        middles = self._candidates(src_host, dst_host, operational_only)
        if not middles:
            return None
        index = flow_hash(src_host, dst_host, flow_label) % len(middles)
        return Path((src_host,) + middles[index] + (dst_host,))

    def _candidates(
        self, src_host: str, dst_host: str, operational_only: bool
    ) -> list[tuple[str, ...]]:
        tree = self.tree
        src_edge = tree.edge_of_host(src_host)
        dst_edge = tree.edge_of_host(dst_host)
        if operational_only and not (
            tree.hop_is_operational(src_host, src_edge)
            and tree.hop_is_operational(dst_host, dst_edge)
        ):
            return []
        return enumerate_edge_paths(tree, src_edge, dst_edge, operational_only)
