import itertools
import math

import pytest

from raagspine import families, graph_to_text, parse_graph
from raagspine.graph import GraphError, GraphParseError, SimplicialGraph, mask_iter

from conftest import small_fixture_graphs, signed_set


def names(g, ids):
    return sorted(g.names[v] for v in ids)


class TestLinkStar:
    def test_rake_link(self):
        t2 = families.rake(2)
        assert names(t2, t2.link(t2.vertex_id("v"))) == ["a1", "a2", "u"]

    def test_single_vertex_link_empty(self):
        g = SimplicialGraph(["x"], [])
        assert g.link(0) == frozenset()

    def test_delta_link(self):
        d = families.delta()
        assert names(d, d.link(d.vertex_id("a2"))) == ["b2", "v1", "v2"]

    def test_star_rake_leaf(self):
        t2 = families.rake(2)
        assert names(t2, t2.star(t2.vertex_id("u"))) == ["u", "v"]

    def test_star_edgeless(self):
        g = families.edgeless(3)
        assert g.star(0) == frozenset({0})

    def test_star_delta_leaf(self):
        d = families.delta()
        assert names(d, d.star(d.vertex_id("b2"))) == ["a2", "b2"]

    def test_star_is_link_plus_vertex(self):
        for g in small_fixture_graphs().values():
            for v in range(g.n):
                assert g.star(v) == g.link(v) | {v}

    def test_unknown_vertex(self):
        g = families.rake(1)
        with pytest.raises(GraphError):
            g.link(99)
        with pytest.raises(GraphError):
            g.star(-1)


class TestDistance:
    def test_rake_u_to_tooth(self):
        t2 = families.rake(2)
        assert t2.distance(t2.vertex_id("u"), t2.vertex_id("a1")) == 2

    def test_self_distance_zero(self):
        g = families.path(3)
        assert g.distance(1, 1) == 0

    def test_disconnected_infinite(self):
        g = families.edgeless(2)
        assert g.distance(0, 1) == math.inf

    def test_distance_two_matches_bfs(self):
        graphs = [
            *small_fixture_graphs().values(),
            families.delta(),
            families.condition2_counterexample(),
            SimplicialGraph(["a", "b", "c", "d"], [("a", "b")]),
        ]
        for g in graphs:
            for u in range(g.n):
                assert g.distance_two(u) == {v for v in range(g.n) if g.distance(u, v) == 2}


class TestComponents:
    def test_rake_hub(self):
        t3 = families.rake(3)
        comps = t3.components_minus_star(t3.vertex_id("v"))
        assert sorted(names(t3, c) for c in comps) == [["b1"], ["b2"], ["b3"]]

    def test_rake_leaf(self):
        t2 = families.rake(2)
        comps = t2.components_minus_star(t2.vertex_id("u"))
        assert sorted(names(t2, c) for c in comps) == [["a1", "b1"], ["a2", "b2"]]

    def test_complete_graph_empty(self):
        g = families.complete(4)
        assert g.components_minus_star(0) == []

    def test_cover_and_disjoint(self):
        for g in small_fixture_graphs().values():
            for v in range(g.n):
                comps = g.components_minus_star(v)
                union = set()
                for c in comps:
                    assert not (union & c)
                    union |= c
                assert union == set(range(g.n)) - g.star(v)


class TestDoubledComponents:
    def test_rake_leaf(self):
        t2 = families.rake(2)
        comps = t2.doubled_components(t2.vertex_id("u"))
        rendered = sorted(sorted(t2.signed_name(s) for s in mask_iter(m)) for m in comps)
        assert rendered == [
            ["a1", "a1^-1", "b1", "b1^-1"],
            ["a2", "a2^-1", "b2", "b2^-1"],
            ["u"],
            ["u^-1"],
        ]

    def test_delta_middle_tooth(self):
        d = families.delta()
        comps = d.doubled_components(d.vertex_id("a2"))
        rendered = sorted(sorted(d.signed_name(s) for s in mask_iter(m)) for m in comps)
        assert rendered == [
            ["a1", "a1^-1", "b1", "b1^-1"],
            ["a2"],
            ["a2^-1"],
            ["a3", "a3^-1", "b3", "b3^-1"],
            ["u1"],
            ["u1^-1"],
            ["u2"],
            ["u2^-1"],
        ]

    def test_complete_graph_only_base(self):
        g = families.complete(3)
        comps = g.doubled_components(0)
        assert sorted(comps) == sorted([1 << 0, 1 << 1])

    def test_structure_matches_undoubled_all_small_graphs(self):
        # doubling of a component of size >= 2 stays connected; singletons split
        for n in range(1, 6):
            for bits in range(1 << (n * (n - 1) // 2)):
                pairs = list(itertools.combinations(range(n), 2))
                edges = [
                    (str(a), str(b))
                    for k, (a, b) in enumerate(pairs)
                    if bits >> k & 1
                ]
                g = SimplicialGraph([str(i) for i in range(n)], edges)
                for v in range(n):
                    expected = [1 << (2 * v), 1 << (2 * v + 1)]
                    for comp in g.components_minus_star(v):
                        if len(comp) == 1:
                            x = next(iter(comp))
                            expected.append(1 << (2 * x))
                            expected.append(1 << (2 * x + 1))
                        else:
                            m = 0
                            for x in comp:
                                m |= 3 << (2 * x)
                            expected.append(m)
                    assert sorted(g.doubled_components(v)) == sorted(expected)


class TestDomination:
    def test_rake_u_below_teeth(self):
        t2 = families.rake(2)
        u, a1 = t2.vertex_id("u"), t2.vertex_id("a1")
        assert t2.lt_circ(u, a1)
        assert not t2.lt_circ(a1, u)

    def test_reflexive_not_strict(self):
        g = families.path(4)
        for v in range(g.n):
            assert g.leq(v, v)
            assert not g.lt_circ(v, v)

    def test_principal_not_maximal_fixture(self):
        g = families.principal_not_maximal_example()
        v = g.vertex_id("v")
        assert not any(g.lt_circ(v, w) for w in range(g.n))
        cls = g.classify_vertices()
        assert v in cls.principal
        assert v not in cls.maximal

    def test_leq_transitive_and_classes_partial_order(self):
        for g in small_fixture_graphs().values():
            for a in range(g.n):
                for b in range(g.n):
                    for c in range(g.n):
                        if g.leq(a, b) and g.leq(b, c):
                            assert g.leq(a, c)
            cls = g.classify_vertices()
            # antisymmetry on class representatives
            for ca in cls.classes:
                for cb in cls.classes:
                    if ca != cb:
                        a, b = min(ca), min(cb)
                        assert not (g.leq(a, b) and g.leq(b, a))


class TestClassification:
    def test_rake(self):
        t3 = families.rake(3)
        cls = t3.classify_vertices()
        assert names(t3, cls.principal) == ["a1", "a2", "a3", "v"]
        assert names(t3, cls.relevant - cls.principal) == ["u"]
        for i in (1, 2, 3):
            b = t3.vertex_id(f"b{i}")
            assert b not in cls.principal
            assert b not in cls.relevant

    def test_delta(self):
        d = families.delta()
        cls = d.classify_vertices()
        assert names(d, cls.principal) == ["a1", "a2", "a3", "v1", "v2"]
        assert names(d, cls.relevant - cls.principal) == ["b2", "u1", "u2"]

    def test_complete(self):
        g = families.complete(4)
        cls = g.classify_vertices()
        assert cls.principal == frozenset(range(4))
        assert cls.relevant == frozenset()

    def test_maximal_implies_principal(self):
        for g in small_fixture_graphs().values():
            cls = g.classify_vertices()
            assert cls.maximal <= cls.principal

    def test_relevant_iff_enumeration_nonempty(self):
        from raagspine import enumerate_partitions

        for g in small_fixture_graphs().values():
            cls = g.classify_vertices()
            for v in range(g.n):
                has = bool(enumerate_partitions(g, v))
                assert has == (v in cls.relevant)
                assert (len(g.partition_units(v)) >= 2) == has


class TestTextFormat:
    def test_round_trip(self):
        for g in small_fixture_graphs().values():
            assert parse_graph(graph_to_text(g)) == g

    def test_regenerated_byte_identical(self):
        assert graph_to_text(families.rake(3)) == graph_to_text(families.rake(3))
        assert graph_to_text(families.delta()) == graph_to_text(families.delta())

    def test_comments_and_implicit_vertices(self):
        g = parse_graph("# a triangle\nedge a b\nedge b c\nedge c a\nvertex d\n")
        assert g.names == ("a", "b", "c", "d")
        assert len(g.edges) == 3

    def test_parse_error_reports_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("vertex a\nnonsense b c\n")
        assert "line 2" in str(err.value)

    def test_loop_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("edge a a\n")

    @pytest.mark.parametrize("name", ["a,b", ",", "x^-1", "^-1"])
    def test_names_the_cli_cannot_address_rejected(self, name):
        # the CLI splits name lists at commas and reads a trailing ^-1 as the
        # inverse letter
        with pytest.raises(GraphError, match="invalid vertex name"):
            SimplicialGraph(["a", name], [])
        with pytest.raises(GraphParseError, match="^line 2: invalid vertex name"):
            parse_graph(f"vertex a\nedge a {name}\n")

    def test_disconnected_warns_but_parses(self):
        g = parse_graph("vertex a\nvertex b\n")
        assert g.validation_warnings() == ["graph is disconnected"]
