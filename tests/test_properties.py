"""Cross-cutting property suites over every fixture with at most 8 vertices.

Everything here is an exhaustive check over a finite quantifier domain; the
compatibility-distance and additivity statements are asserted for connected
fixtures (an isolated vertex falsifies both, see test_compat for the pinned
counterexample).
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from raagspine import (
    SimplicialGraph,
    all_partitions,
    analyze,
    compatibility_graph,
    is_adjacent,
    is_compatible,
    is_hugged_in,
    max_compatible,
)
from raagspine.graph import mask_iter

from conftest import small_fixture_graphs

GRAPHS = small_fixture_graphs()


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def fixture_graph(request):
    return GRAPHS[request.param]


def test_compatibility_symmetric(fixture_graph, cg_cache):
    cg = cg_cache(fixture_graph)
    for i in range(cg.n):
        for j in range(cg.n):
            assert bool(cg.adj[i] >> j & 1) == bool(cg.adj[j] >> i & 1)


def test_adjacency_definition_equivalence(fixture_graph):
    g = fixture_graph
    parts = all_partitions(g)
    for p, q in itertools.combinations(parts, 2):
        forward = p.max_bases <= q.link_vertices()
        backward = q.max_bases <= p.link_vertices()
        assert forward == backward
        if is_adjacent(g, p, q):
            assert is_compatible(g, p, q)


def test_distance_rule_and_additivity_connected(fixture_graph, cg_cache):
    g = fixture_graph
    if g.validation_warnings():
        pytest.skip("distance rule requires a connected graph")
    parts = all_partitions(g)
    for p, q in itertools.combinations(parts, 2):
        for mu in p.max_bases:
            for mv in q.max_bases:
                eq = g.leq(mu, mv) and g.leq(mv, mu)
                if not eq and g.distance(mu, mv) != 2:
                    assert is_compatible(g, p, q)
    cg = cg_cache(g)
    for u, v in itertools.combinations(range(g.n), 2):
        eq = g.leq(u, v) and g.leq(v, u)
        if not eq and g.distance(u, v) != 2:
            assert (
                max_compatible(cg, {u, v}).size
                == max_compatible(cg, {u}).size + max_compatible(cg, {v}).size
            )


def test_side_containment_for_compatible_distant_pairs(fixture_graph):
    g = fixture_graph
    parts = all_partitions(g)
    for p, q in itertools.combinations(parts, 2):
        if not is_compatible(g, p, q) or is_adjacent(g, p, q):
            continue
        if all(
            g.distance(mu, mv) >= 2
            for mu in p.max_bases
            for mv in q.max_bases
        ):
            assert any(
                not s & ~t or not t & ~s
                for s in p.sides()
                for t in q.sides()
            )


def test_partition_invariant_suite(fixture_graph):
    g = fixture_graph
    full = (1 << (2 * g.n)) - 1
    cls = g.classify_vertices()
    for p in all_partitions(g):
        assert p.side_a | p.side_b | p.link == full
        assert not (p.side_a & p.side_b or p.side_a & p.link or p.side_b & p.link)
        assert p.side_a.bit_count() >= 2 and p.side_b.bit_count() >= 2
        assert p.max_bases and p.max_bases <= p.split
        for m in p.max_bases:
            assert g.link_mask(m) == p.link
            assert (p.side_a >> 2 * m & 1) != (p.side_b >> 2 * m & 1)
        # maximality agrees with the equal-link characterization
        assert p.max_bases == frozenset(
            v for v in p.split if g.link_mask(v) == p.link
        )
        # base principality is a class property
        flags = {m in cls.principal for m in p.max_bases}
        assert len(flags) == 1
        # component cohesion at every legal base
        for m in p.max_bases:
            for comp in g.components_minus_star(m):
                if len(comp) < 2:
                    continue
                dbl = 0
                for x in comp:
                    dbl |= 3 << (2 * x)
                assert dbl & p.side_a == dbl or dbl & p.side_b == dbl


def test_hug_witness_soundness(fixture_graph, cg_cache):
    g = fixture_graph
    cg = cg_cache(g)
    full = (1 << (2 * g.n)) - 1
    np_nodes = [i for i in range(cg.n) if not cg.principal[i]]
    for q_id in np_nodes:
        compatible = [j for j in range(cg.n) if cg.edge(q_id, j)]
        for extra in itertools.combinations(compatible[:10], 2):
            members = [q_id, *extra]
            if not cg.is_clique(members):
                continue
            witness = is_hugged_in(cg, members, q_id)
            if witness is None:
                continue
            p1, p2 = witness.hugger_sides()
            q = cg.nodes[q_id]
            assert not p1 & p2
            assert not p1 & ~witness.hugged_side
            assert not p2 & ~witness.hugged_side
            link = g.link_mask(witness.base_m)
            assert (full & ~link & ~p1) & (full & ~link & ~p2) == q.other_side(
                witness.hugged_side
            )
            for j in witness.huggers:
                assert cg.edge(j, q_id)
            stored_sides = {
                frozenset(mask_iter(s))
                for j in witness.huggers
                for s in cg.nodes[j].sides()
            }
            for mask in (p1, p2):
                if mask.bit_count() >= 2:
                    assert frozenset(mask_iter(mask)) in stored_sides


# every 15th graph of the benchmark's census pool, with its pinned answers
CENSUS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "census_answers.json").read_text()
)[::15]


def analysis_invariants(g):
    """Partition count, M(L), M(V) and every condition verdict of g."""
    report = analyze(g, compatibility_graph(g))
    c = report.conditions
    return {
        "partitions": report.partition_count, "m_l": report.m_l.size, "m_v": report.m_v.size,
        "condition1": c.condition1, "condition2": c.condition2, "spiky": c.spiky,
        "barbed": c.barbed, "p_k": c.p_k, "vcd": report.vcd_mode,
    }


def redeclared(g, seed):
    """g with its vertices declared in a seed-drawn order."""
    names = list(g.names)
    random.Random(seed).shuffle(names)
    return SimplicialGraph(names, [(g.names[a], g.names[b]) for a, b in sorted(g.edges)])


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelling_keeps_the_analysis(fixture_graph, seed):
    # vertex ids follow declaration order, and so do the node ids, the
    # signed-letter masks and the inversion classes the clique search skips by
    g = fixture_graph
    assert analysis_invariants(redeclared(g, seed)) == analysis_invariants(g)


@pytest.mark.parametrize("entry", CENSUS, ids=[f"census{15 * i}" for i in range(len(CENSUS))])
def test_relabelling_keeps_the_census_answers(entry):
    n = entry["n"]
    g = SimplicialGraph([f"x{v}" for v in range(n)], [(f"x{a}", f"x{b}") for a, b in entry["edges"]])
    assert analysis_invariants(g) == entry["answer"]
    for seed in (1, 2):
        assert analysis_invariants(redeclared(g, seed)) == entry["answer"]
