"""Path enumeration and ECMP selection tests."""

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import given, settings

from repro.routing import EcmpSelector, Path, enumerate_paths, flow_hash
from repro.routing.paths import DirectedSegment, enumerate_edge_paths
from repro.topology import AspenTree, F10Tree, FatTree


class TestEnumeration:
    def test_same_edge_single_path(self, ft4):
        paths = enumerate_paths(ft4, "H.0.0.0", "H.0.0.1")
        assert len(paths) == 1 and paths[0].hops == 2

    def test_intra_pod_count(self, ft6):
        paths = enumerate_paths(ft6, "H.0.0.0", "H.0.1.0")
        assert len(paths) == 3  # one per aggregation switch
        assert all(p.hops == 4 for p in paths)

    def test_inter_pod_count(self, ft6):
        paths = enumerate_paths(ft6, "H.0.0.0", "H.5.2.2")
        assert len(paths) == 9  # (k/2)^2 = one per core
        assert all(p.hops == 6 for p in paths)

    def test_inter_pod_paths_cover_all_cores(self, ft6):
        paths = enumerate_paths(ft6, "H.0.0.0", "H.5.2.2")
        cores = {p.nodes[3] for p in paths}
        assert cores == set(ft6.core_switches())

    def test_identical_hosts_rejected(self, ft4):
        with pytest.raises(ValueError):
            enumerate_paths(ft4, "H.0.0.0", "H.0.0.0")

    def test_f10_enumeration_matches_wiring(self):
        f10 = F10Tree(6)
        paths = enumerate_paths(f10, "H.0.0.0", "H.1.0.0")
        assert len(paths) == 9
        for p in paths:
            agg, core, dst_agg = p.nodes[2], p.nodes[3], p.nodes[4]
            assert core in set(f10.neighbors(agg))
            assert dst_agg in set(f10.neighbors(core))

    def test_operational_filter_drops_failed_core(self, ft4):
        ft4.fail_node("C.0")
        paths = enumerate_paths(ft4, "H.0.0.0", "H.1.0.0", operational_only=True)
        assert len(paths) == 3
        assert all("C.0" not in p.nodes for p in paths)

    def test_operational_filter_drops_failed_link(self, ft4):
        link = ft4.links_between("E.0.0", "A.0.0")[0]
        ft4.fail_link(link.link_id)
        paths = enumerate_paths(ft4, "H.0.0.0", "H.1.0.0", operational_only=True)
        assert all(p.nodes[2] != "A.0.0" for p in paths)
        assert len(paths) == 2

    def test_operational_filter_dead_host_link(self, ft4):
        link = ft4.links_between("H.0.0.0", "E.0.0")[0]
        ft4.fail_link(link.link_id)
        assert enumerate_paths(ft4, "H.0.0.0", "H.1.0.0", operational_only=True) == []

    def test_edge_paths_identity(self, ft4):
        assert enumerate_edge_paths(ft4, "E.0.0", "E.0.0") == [("E.0.0",)]


class TestPathObject:
    def test_segments_directions(self, ft4):
        p = enumerate_paths(ft4, "H.0.0.0", "H.0.0.1")[0]
        segs = p.segments(ft4)
        assert len(segs) == 2
        assert isinstance(segs[0], DirectedSegment)
        # same physical link traversed in both directions on reverse path
        rev = Path(tuple(reversed(p.nodes)))
        rsegs = rev.segments(ft4)
        assert rsegs[0].link_id == segs[1].link_id
        assert rsegs[0].forward != segs[1].forward

    def test_is_operational_tracks_failures(self, ft4):
        p = enumerate_paths(ft4, "H.0.0.0", "H.1.0.0")[0]
        assert p.is_operational(ft4)
        ft4.fail_node(p.nodes[3])
        assert not p.is_operational(ft4)


class TestEcmpSelector:
    def test_deterministic(self, ft6):
        s1, s2 = EcmpSelector(ft6), EcmpSelector(ft6)
        for label in range(20):
            a = s1.select("H.0.0.0", "H.3.1.1", label)
            b = s2.select("H.0.0.0", "H.3.1.1", label)
            assert a.nodes == b.nodes

    def test_spreads_over_paths(self, ft8):
        s = EcmpSelector(ft8)
        cores = {
            s.select("H.0.0.0", "H.5.1.1", label).nodes[3] for label in range(200)
        }
        assert len(cores) >= 12  # of 16: hash spread should hit most cores

    def test_flow_hash_stable(self):
        assert flow_hash("a", 1) == flow_hash("a", 1)
        assert flow_hash("a", 1) != flow_hash("a", 2)

    def test_operational_only_avoids_failures(self, ft6):
        s = EcmpSelector(ft6)
        ft6.fail_node("C.0")
        for label in range(30):
            p = s.select("H.0.0.0", "H.3.0.0", label, operational_only=True)
            assert "C.0" not in p.nodes

    def test_invalidate_refreshes_operational_cache(self, ft6):
        """The operational view follows a failure with no explicit refresh."""
        s = EcmpSelector(ft6)
        before = len(s.paths("H.0.0.0", "H.3.0.0", operational_only=True))
        ft6.fail_node("C.0")
        after = len(s.paths("H.0.0.0", "H.3.0.0", operational_only=True))
        assert before == 9 and after == 8

    def test_invalidate_keeps_static_cache(self, ft6):
        """The static view ignores failures."""
        s = EcmpSelector(ft6)
        s.paths("H.0.0.0", "H.3.0.0")  # static view
        ft6.fail_node("C.0")
        assert len(s.paths("H.0.0.0", "H.3.0.0")) == 9  # unaffected by failures

    def test_none_when_disconnected(self, ft4):
        link = ft4.links_between("H.0.0.0", "E.0.0")[0]
        ft4.fail_link(link.link_id)
        s = EcmpSelector(ft4)
        assert s.select("H.0.0.0", "H.1.0.0", 1, operational_only=True) is None


# At k=22 aggregation and core indices have two digits, so name order
# ("A.0.10" < "A.0.2") and numeric order disagree.
_TREE_BUILDERS = {
    "fattree-k4": lambda: FatTree(4),
    "fattree-k6-oversubscribed": lambda: FatTree(6, hosts_per_edge=5),
    "f10-k6": lambda: F10Tree(6),
    "aspen-k8": lambda: AspenTree(8),
    "fattree-k22": lambda: FatTree(22, hosts_per_edge=1),
    "f10-k22": lambda: F10Tree(22, hosts_per_edge=1),
}


@pytest.fixture(scope="module")
def oracle_trees():
    """Built once per module; each example first clears earlier failures."""
    return {name: build() for name, build in _TREE_BUILDERS.items()}


def _oracle_edge_paths(graph, src_edge: str, dst_edge: str, same_pod: bool):
    """The length-2 (same pod) or length-4 simple paths between two edge
    switches, by graph search: sorted, de-duplicated.

    Two edges are never closer than that length, so these are exactly the
    shortest paths when the distance is that length, and none otherwise;
    breadth-first ``all_shortest_paths`` finds them far faster than a
    depth-first simple-path walk at k=22.
    """
    if src_edge not in graph or dst_edge not in graph:
        return []
    length = 2 if same_pod else 4
    try:
        found = {
            tuple(p)
            for p in nx.all_shortest_paths(graph, src_edge, dst_edge)
            if len(p) == length + 1
        }
    except nx.NetworkXNoPath:
        return []
    return sorted(found)


class TestClosedFormMatchesGraphSearch:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(_TREE_BUILDERS)))
    def test_enumeration_and_ecmp_match_oracle(self, oracle_trees, data, name):
        tree = oracle_trees[name]
        tree.clear_failures()
        pods = st.integers(0, tree.k - 1)
        index = st.integers(0, tree.half - 1)
        src_pod, dst_pod = data.draw(pods), data.draw(pods)
        src_e, dst_e = data.draw(index), data.draw(index)
        if (src_pod, src_e) == (dst_pod, dst_e):
            dst_e = (dst_e + 1) % tree.half
        src_edge, dst_edge = f"E.{src_pod}.{src_e}", f"E.{dst_pod}.{dst_e}"
        near = sorted(
            {
                link.link_id
                for pod in (src_pod, dst_pod)
                for agg in tree.agg_switches(pod)
                for link in tree.links_of(agg)
            }
            | {link.link_id for link in tree.links_of(src_edge)}
            | {link.link_id for link in tree.links_of(dst_edge)}
        )
        switches = [n.name for n in tree.packet_switches()]
        for node in data.draw(st.lists(st.sampled_from(switches), max_size=6)):
            tree.fail_node(node)
        for link_id in data.draw(st.lists(st.sampled_from(near), max_size=12)):
            tree.fail_link(link_id)

        src_host = tree.hosts_of_edge(src_pod, src_e)[0]
        dst_host = tree.hosts_of_edge(dst_pod, dst_e)[-1]
        label = data.draw(st.integers(0, 2**31))
        selector = EcmpSelector(tree)
        for operational_only in (False, True):
            graph = tree.to_networkx(operational_only=operational_only)
            expected = _oracle_edge_paths(
                graph, src_edge, dst_edge, src_pod == dst_pod
            )
            got = enumerate_edge_paths(tree, src_edge, dst_edge, operational_only)
            assert got == expected

            hosts_ok = graph.has_edge(src_host, src_edge) and graph.has_edge(
                dst_host, dst_edge
            )
            candidates = [
                Path((src_host,) + middle + (dst_host,)) for middle in expected
            ]
            if operational_only and not hosts_ok:
                candidates = []
            assert selector.paths(src_host, dst_host, operational_only) == candidates
            pick = selector.select(src_host, dst_host, label, operational_only)
            if candidates:
                index_ = flow_hash(src_host, dst_host, label) % len(candidates)
                assert pick == candidates[index_]
            else:
                assert pick is None
