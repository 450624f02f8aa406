"""Unit tests for the graph primitives (nodes, links, failure state)."""

import pytest

from repro.topology import Level, Link, Node, NodeKind, Topology, TopologyError


def tiny() -> Topology:
    t = Topology("tiny")
    t.add_node(Node("h1", NodeKind.HOST))
    t.add_node(Node("h2", NodeKind.HOST))
    t.add_node(Node("e1", NodeKind.EDGE, pod=0, index=0))
    t.add_link("h1", "e1")
    t.add_link("h2", "e1")
    return t


class TestNodeKind:
    def test_packet_switch_classification(self):
        assert NodeKind.EDGE.is_packet_switch
        assert NodeKind.AGGREGATION.is_packet_switch
        assert NodeKind.CORE.is_packet_switch
        assert not NodeKind.HOST.is_packet_switch
        assert not NodeKind.CIRCUIT.is_packet_switch

    def test_levels(self):
        assert Level.of(NodeKind.HOST) is Level.HOST
        assert Level.of(NodeKind.CORE) is Level.CORE

    def test_circuit_has_no_level(self):
        with pytest.raises(TopologyError):
            Level.of(NodeKind.CIRCUIT)


class TestConstruction:
    def test_duplicate_node_rejected(self):
        t = tiny()
        with pytest.raises(TopologyError):
            t.add_node(Node("h1", NodeKind.HOST))

    def test_self_loop_rejected(self):
        t = tiny()
        with pytest.raises(TopologyError):
            t.add_link("h1", "h1")

    def test_link_to_unknown_node_rejected(self):
        t = tiny()
        with pytest.raises(TopologyError):
            t.add_link("h1", "nope")

    def test_parallel_links_allowed(self):
        t = tiny()
        t.add_link("h1", "e1")
        assert len(t.links_between("h1", "e1")) == 2

    def test_link_ids_unique_and_stable(self):
        t = tiny()
        ids = [l.link_id for l in t.links.values()]
        assert len(ids) == len(set(ids))

    def test_remove_link(self):
        t = tiny()
        link = t.links_between("h1", "e1")[0]
        t.remove_link(link.link_id)
        assert t.links_between("h1", "e1") == []
        assert t.degree("h1") == 0

    def test_remove_one_parallel_link_keeps_other(self):
        t = tiny()
        extra = t.add_link("h1", "e1")
        t.remove_link(extra.link_id)
        assert len(t.links_between("h1", "e1")) == 1


class TestAccessors:
    def test_link_other(self):
        t = tiny()
        link = t.links_between("h1", "e1")[0]
        assert link.other("h1") == "e1"
        assert link.other("e1") == "h1"
        with pytest.raises(TopologyError):
            link.other("h2")

    def test_degree(self):
        t = tiny()
        assert t.degree("e1") == 2
        assert t.degree("h1") == 1

    def test_neighbors(self):
        t = tiny()
        assert sorted(t.neighbors("e1")) == ["h1", "h2"]

    def test_links_of(self):
        t = tiny()
        assert len(list(t.links_of("e1"))) == 2

    def test_nodes_of_kind_sorted(self):
        t = tiny()
        hosts = t.nodes_of_kind(NodeKind.HOST)
        assert [n.name for n in hosts] == ["h1", "h2"]

    def test_nodes_of_kind_backup_filter(self):
        t = tiny()
        t.add_node(Node("e2", NodeKind.EDGE, is_backup=True))
        assert len(t.nodes_of_kind(NodeKind.EDGE)) == 2
        assert len(t.nodes_of_kind(NodeKind.EDGE, include_backup=False)) == 1


class TestFailureState:
    def test_fail_restore_node(self):
        t = tiny()
        t.fail_node("e1")
        assert not t.node_is_up("e1")
        t.restore_node("e1")
        assert t.node_is_up("e1")

    def test_link_operational_requires_endpoints_up(self):
        t = tiny()
        link = t.links_between("h1", "e1")[0]
        assert t.link_is_operational(link.link_id)
        t.fail_node("e1")
        assert not t.link_is_operational(link.link_id)
        assert link.up  # the cable itself is still healthy

    def test_fail_link_directly(self):
        t = tiny()
        link = t.links_between("h1", "e1")[0]
        t.fail_link(link.link_id)
        assert not t.link_is_operational(link.link_id)
        assert t.node_is_up("h1") and t.node_is_up("e1")

    def test_up_neighbors_skips_failed(self):
        t = tiny()
        t.fail_node("h2")
        names = [n for n, _ in t.up_neighbors("e1")]
        assert names == ["h1"]

    def test_up_neighbors_of_failed_node_empty(self):
        t = tiny()
        t.fail_node("e1")
        assert list(t.up_neighbors("e1")) == []

    def test_up_neighbors_skips_failed_link(self):
        t = tiny()
        link = t.links_between("h1", "e1")[0]
        t.fail_link(link.link_id)
        names = [n for n, _ in t.up_neighbors("e1")]
        assert names == ["h2"]

    def test_operational_links_between_with_parallel(self):
        t = tiny()
        extra = t.add_link("h1", "e1")
        first = t.links_between("h1", "e1")[0]
        t.fail_link(first.link_id)
        assert t.hop_is_operational("h1", "e1")  # the parallel link survives
        t.fail_link(extra.link_id)
        assert not t.hop_is_operational("h1", "e1")
        t.restore_link(extra.link_id)
        t.fail_node("e1")
        assert not t.hop_is_operational("h1", "e1")
        assert not t.hop_is_operational("h1", "h2")  # no link at all

    def test_failed_inventories(self):
        t = tiny()
        link = t.links_between("h2", "e1")[0]
        t.fail_node("h1")
        t.fail_link(link.link_id)
        assert t.failed_nodes() == ["h1"]
        assert t.failed_links() == [link.link_id]

    def test_clear_failures(self):
        t = tiny()
        t.fail_node("h1")
        t.fail_link(t.links_between("h2", "e1")[0].link_id)
        t.clear_failures()
        assert t.failed_nodes() == [] and t.failed_links() == []

    def test_path_is_operational(self):
        t = tiny()
        assert t.path_is_operational(["h1", "e1", "h2"])
        t.fail_node("e1")
        assert not t.path_is_operational(["h1", "e1", "h2"])


class TestInterop:
    def test_to_networkx_full(self):
        t = tiny()
        g = t.to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2

    def test_to_networkx_operational_only(self):
        t = tiny()
        t.fail_node("h2")
        g = t.to_networkx(operational_only=True)
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 1

    def test_repr_mentions_counts(self):
        assert "3 nodes" in repr(tiny())
