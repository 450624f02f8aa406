"""Tests for the baseline topology variants: F10 AB fat-tree, Aspen-style
duplicated tree, and 1:1 backup."""

import pytest

from repro.topology import (
    AspenTree,
    F10Tree,
    FatTree,
    NodeKind,
    OneToOneBackupTree,
    is_shadow,
    shadow_name,
    validate_fattree,
)


class TestF10:
    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_valid_clos(self, k):
        validate_fattree(F10Tree(k))

    def test_pod_types_alternate(self):
        assert F10Tree.pod_type(0) == "A"
        assert F10Tree.pod_type(1) == "B"
        assert F10Tree.pod_type(2) == "A"

    def test_a_pod_uses_row_wiring(self, f10_6):
        # pod 0 (type A): agg i -> cores of row i
        cores = sorted(
            n for n in f10_6.neighbors("A.0.1") if n.startswith("C")
        )
        assert cores == ["C.3", "C.4", "C.5"]

    def test_b_pod_uses_column_wiring(self, f10_6):
        # pod 1 (type B): agg i -> cores of column i
        cores = sorted(
            (n for n in f10_6.neighbors("A.1.1") if n.startswith("C")),
            key=lambda s: int(s.split(".")[1]),
        )
        assert cores == ["C.1", "C.4", "C.7"]

    def test_ab_parent_sets_differ(self, f10_6):
        a_parents = {n for n in f10_6.neighbors("A.0.0") if n.startswith("C")}
        b_parents = {n for n in f10_6.neighbors("A.1.0") if n.startswith("C")}
        assert a_parents != b_parents
        # ...but they overlap in exactly one core (row 0 ∩ column 0)
        assert len(a_parents & b_parents) == 1

    def test_agg_of_core_inverse(self, f10_6):
        for tree in (f10_6, FatTree(6), AspenTree(8)):
            for pod in range(tree.k):
                for a in range(tree.half):
                    for port in range(tree.half):
                        core = tree.core_of_pod(pod, a, port)
                        assert tree.agg_of_core(core, pod) == a
                        assert tree.links_between(f"A.{pod}.{a}", f"C.{core}")


class TestAspen:
    def test_valid_with_parallel_links(self):
        validate_fattree(AspenTree(8), allow_parallel=True)

    def test_rejects_k_not_divisible_by_4(self):
        with pytest.raises(ValueError):
            AspenTree(6)

    def test_duplicated_links(self):
        t = AspenTree(8)
        # agg 0 reaches cores 0 and 2 of its row, twice each
        assert len(t.links_between("A.0.0", "C.0")) == 2
        assert len(t.links_between("A.0.0", "C.2")) == 2
        assert len(t.links_between("A.0.0", "C.1")) == 0

    def test_port_count_preserved(self):
        t = AspenTree(8)
        assert t.degree("A.0.0") == 8  # k ports, as in plain fat-tree

    def test_detached_cores_exist(self):
        t = AspenTree(8)
        assert t.degree("C.1") == 0
        assert t.degree("C.0") == 16  # 2 links x 8 pods

    def test_local_failover_no_dilation(self):
        """Losing one of a duplicated pair leaves an equal-length path."""
        t = AspenTree(8)
        pair = t.links_between("A.0.0", "C.0")
        t.fail_link(pair[0].link_id)
        assert t.hop_is_operational("A.0.0", "C.0")
        t.fail_link(pair[1].link_id)
        assert not t.hop_is_operational("A.0.0", "C.0")

    def test_duplicated_cores_listing(self):
        t = AspenTree(8)
        assert t.duplicated_cores(1) == [4, 6]
        assert t.is_attached_core(4) and not t.is_attached_core(5)


class TestOneToOne:
    def test_shadow_naming(self):
        assert shadow_name("E.0.0") == "S1.E.0.0"
        assert is_shadow("S1.E.0.0")
        assert not is_shadow("E.0.0")

    def test_inventory_doubles_switches(self):
        t = OneToOneBackupTree(4)
        switches = [n for n in t.nodes.values() if n.kind.is_packet_switch]
        assert len(switches) == 2 * (8 + 8 + 4)

    def test_hosts_dual_homed(self):
        t = OneToOneBackupTree(4)
        assert t.degree("H.0.0.0") == 2
        assert sorted(t.neighbors("H.0.0.0")) == ["E.0.0", "S1.E.0.0"]

    def test_switch_links_meshed_4x(self):
        t = OneToOneBackupTree(4)
        combos = [
            ("E.0.0", "A.0.0"),
            ("E.0.0", "S1.A.0.0"),
            ("S1.E.0.0", "A.0.0"),
            ("S1.E.0.0", "S1.A.0.0"),
        ]
        for a, b in combos:
            assert t.links_between(a, b), f"missing mesh link {a}--{b}"

    def test_active_instance_failover(self):
        t = OneToOneBackupTree(4)
        assert t.active_instance("E.0.0") == "E.0.0"
        t.fail_node("E.0.0")
        assert t.active_instance("E.0.0") == "S1.E.0.0"
        t.fail_node("S1.E.0.0")
        assert t.active_instance("E.0.0") is None

    def test_logical_path_survives_any_single_switch_failure(self):
        t = OneToOneBackupTree(4)
        path = ["H.0.0.0", "E.0.0", "A.0.0", "C.0", "A.3.0", "E.3.0", "H.3.0.0"]
        assert t.logical_path_operational(path)
        for switch in ["E.0.0", "A.0.0", "C.0", "A.3.0", "E.3.0"]:
            t.fail_node(switch)
            assert t.logical_path_operational(path), f"path died with {switch} down"
            t.restore_node(switch)

    def test_logical_path_dies_with_host(self):
        t = OneToOneBackupTree(4)
        path = ["H.0.0.0", "E.0.0", "A.0.0", "C.0", "A.3.0", "E.3.0", "H.3.0.0"]
        t.fail_node("H.3.0.0")
        assert not t.logical_path_operational(path)
