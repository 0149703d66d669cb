import dataclasses
import hashlib

import pytest

from raagspine import all_partitions, compat, families, is_adjacent, is_compatible
from raagspine.compat import compatibility_graph
from raagspine.graph import SimplicialGraph

from conftest import doubled_names, find_partition, labelled_graphs, small_fixture_graphs


def fig_3_2_partitions():
    g = families.compatibility_example_graph()
    parts = all_partitions(g)
    p1 = find_partition(g, parts, ["a", "c", "c^-1", "d", "d^-1"])
    p2 = find_partition(g, parts, ["b", "e"])
    p3 = find_partition(g, parts, ["d", "a", "a^-1", "b", "b^-1", "e^-1"])
    return g, p1, p2, p3


class TestAdjacency:
    def test_fig_3_2_adjacent_pair(self):
        g, p1, p2, p3 = fig_3_2_partitions()
        assert is_adjacent(g, p1, p2)

    def test_fig_3_2_non_adjacent(self):
        g, p1, p2, p3 = fig_3_2_partitions()
        assert not is_adjacent(g, p3, p1)
        assert not is_adjacent(g, p3, p2)

    def test_same_base_never_adjacent(self):
        t2 = families.rake(2)
        from raagspine import enumerate_partitions

        u_parts = enumerate_partitions(t2, t2.vertex_id("u"))
        assert not is_adjacent(t2, u_parts[0], u_parts[1])

    def test_both_formulations_agree(self):
        for g in small_fixture_graphs().values():
            parts = all_partitions(g)
            link_sets = [p.link_vertices() for p in parts]
            for i in range(len(parts)):
                for j in range(len(parts)):
                    if i == j:
                        continue
                    forward = parts[i].max_bases <= link_sets[j]
                    backward = parts[j].max_bases <= link_sets[i]
                    assert forward == backward


class TestCompatibility:
    def test_fig_3_2_verdicts(self):
        g, p1, p2, p3 = fig_3_2_partitions()
        assert is_compatible(g, p1, p2)
        assert not is_compatible(g, p3, p1)
        assert not is_compatible(g, p3, p2)

    def test_self_incompatible(self):
        t2 = families.rake(2)
        p = all_partitions(t2)[0]
        assert not is_compatible(t2, p, p)

    def test_rake2_leaf_partitions_incompatible(self):
        # all four side intersections are nonempty and the bases coincide,
        # matching M(u) = d - 1 = 1 for the 2-rake
        t2 = families.rake(2)
        from raagspine import enumerate_partitions

        q1, q2 = enumerate_partitions(t2, t2.vertex_id("u"))
        for s in q1.sides():
            for t in q2.sides():
                assert s & t
        assert not is_compatible(t2, q1, q2)

    def test_symmetry_exhaustive(self):
        for g in small_fixture_graphs().values():
            parts = all_partitions(g)
            for i, p in enumerate(parts):
                for q in parts[i + 1 :]:
                    assert is_compatible(g, p, q) == is_compatible(g, q, p)

    def test_distance_not_two_implies_compatible_connected(self):
        # bases at distance != 2 force compatibility for non-equivalent
        # vertices; this holds for connected graphs only (see the regression
        # test below for the disconnected counterexample)
        for g in small_fixture_graphs().values():
            if g.validation_warnings():
                continue
            parts = all_partitions(g)
            for p in parts:
                for q in parts:
                    if p == q:
                        continue
                    for mu in p.max_bases:
                        for mv in q.max_bases:
                            equivalent = g.leq(mu, mv) and g.leq(mv, mu)
                            if not equivalent and g.distance(mu, mv) != 2:
                                assert is_compatible(g, p, q)

    def test_disconnected_counterexample_to_distance_rule(self):
        # an isolated vertex hands both bases free singleton units: the
        # d-based and a-based partitions below have non-equivalent bases at
        # distance 3 yet are incompatible
        g = families.compatibility_example_graph()
        parts = all_partitions(g)
        p = find_partition(g, parts, ["d", "a", "a^-1", "b", "b^-1"])
        q = find_partition(g, parts, ["a", "c", "c^-1", "d", "d^-1"])
        assert p is not None and q is not None
        assert g.distance(g.vertex_id("a"), g.vertex_id("d")) == 3
        assert not is_compatible(g, p, q)

    def test_compatible_non_adjacent_pairs_have_side_containment(self):
        for g in small_fixture_graphs().values():
            parts = all_partitions(g)
            for i, p in enumerate(parts):
                for q in parts[i + 1 :]:
                    if not is_compatible(g, p, q) or is_adjacent(g, p, q):
                        continue
                    bases_far = all(
                        g.distance(mu, mv) >= 2
                        for mu in p.max_bases
                        for mv in q.max_bases
                    )
                    if bases_far:
                        contained = any(
                            s & ~t == 0 or t & ~s == 0
                            for s in p.sides()
                            for t in q.sides()
                        )
                        assert contained


class TestCompatibilityGraph:
    def test_complete_graph_empty(self, cg_cache):
        cg = cg_cache(families.complete(3))
        assert cg.n == 0

    def test_rake1_counts(self, cg_cache):
        cg = cg_cache(families.rake(1))
        assert cg.n == 4
        edge_count = sum(row.bit_count() for row in cg.adj) // 2
        assert edge_count == 4

    def test_adjacency_rows_symmetric(self, cg_cache):
        for g in small_fixture_graphs().values():
            cg = cg_cache(g)
            for i in range(cg.n):
                assert not cg.adj[i] >> i & 1
                for j in range(cg.n):
                    assert bool(cg.adj[i] >> j & 1) == bool(cg.adj[j] >> i & 1)

    def test_delta_contains_the_14_clique(self, cg_cache):
        from conftest import node_id

        cg = cg_cache(families.delta())
        sides = [
            ["a1", "u1"],
            ["a2", "u1"] + doubled_names(["a1", "b1"]),
            ["a2"] + doubled_names(["u1", "a1", "b1"]),
            ["a2"] + doubled_names(["u1", "a1", "b1"]) + ["u2"] + doubled_names(["a3", "b3"]),
            ["a3", "u2"],
            ["v1", "b1"],
            ["v1"] + doubled_names(["b1"]),
            ["v1"] + doubled_names(["b1"]) + ["b2"],
            ["v2", "b3"],
            ["v2"] + doubled_names(["b3"]),
            ["v2"] + doubled_names(["b3"]) + ["b2^-1"],
            ["u1"] + doubled_names(["a1", "b1"]),
            ["u2"] + doubled_names(["a3", "b3"]),
            ["b2"] + doubled_names(["u1", "v1", "a1", "b1"]),
        ]
        ids = [node_id(cg, s) for s in sides]
        assert len(set(ids)) == 14
        assert cg.is_clique(ids)

    def test_rows_match_pairwise_definition(self, cg_cache):
        graphs = [
            *small_fixture_graphs().values(),
            families.condition2_counterexample(),
            # has pairs whose only empty quadrant is side_a & side_a
            SimplicialGraph(["a", "b", "c", "d"], [("a", "b")]),
        ]
        for g in graphs:
            cg = cg_cache(g)
            for i, p in enumerate(cg.nodes):
                for j, q in enumerate(cg.nodes):
                    assert cg.adj[i] >> j & 1 == is_compatible(g, p, q)

    def test_side_a_quadrant_alone_never_decides(self):
        # On every labelled graph with at most 5 vertices some pairs have
        # side_a & side_a as their only empty quadrant, and each such pair is
        # adjacent: that quadrant alone never decides compatibility there.
        graphs = only_a_a = 0
        for g in labelled_graphs(5):
            parts = all_partitions(g)
            graphs += 1
            for p in parts:
                for q in parts:
                    if p.side_a & q.side_a or not (
                        p.side_a & q.side_b and p.side_b & q.side_a and p.side_b & q.side_b
                    ):
                        continue
                    only_a_a += 1
                    assert is_adjacent(g, p, q)
        assert graphs == 1099 and only_a_a > 0

    @pytest.mark.parametrize(
        "g, nodes, edges, digest",
        [
            (families.rake(5), 1362, 415810, "ed8e6316b7cc6620"),
            (families.edgeless(6), 2004, 224330, "4a068a99c60d80d1"),
            (families.condition2_counterexample(), 580, 108542, "3747102df501ce31"),
        ],
        ids=["rake5", "edgeless6", "condition2"],
    )
    def test_pinned_large_graphs(self, g, nodes, edges, digest, cg_cache):
        cg = cg_cache(g)
        rows = ",".join(format(row, "x") for row in cg.adj)
        assert cg.n == nodes
        assert sum(row.bit_count() for row in cg.adj) // 2 == edges
        assert hashlib.sha256(rows.encode()).hexdigest()[:16] == digest

    def test_asymmetric_adjacency_is_refused(self, monkeypatch):
        # corrupt the bases of one partition of a crossing adjacent pair so that
        # max(p) <= lk(q) still holds but max(q) <= lk(p) no longer does
        g = families.compatibility_example_graph()
        parts = all_partitions(g)
        p, q = next(
            (p, q)
            for p in parts
            for q in parts
            if p != q
            and all(s & t for s in p.sides() for t in q.sides())
            and is_adjacent(g, p, q)
        )
        outside = next(v for v in range(g.n) if v not in p.link_vertices())
        bad_q = dataclasses.replace(q, max_bases=q.max_bases | {outside})
        with pytest.raises(RuntimeError, match="asymmetry"):
            is_adjacent(g, p, bad_q)
        corrupted = [bad_q if r == q else r for r in parts]
        monkeypatch.setattr(compat, "all_partitions", lambda _: corrupted)
        with pytest.raises(RuntimeError, match="asymmetry"):
            compatibility_graph(g)
