import itertools
import random

import pytest

from raagspine import families, max_compatible
from raagspine.graph import mask_iter
from raagspine.search import (
    CapExceededError,
    _CliqueSolver,
    _co_components,
    _degeneracy_order,
    clique_masks,
    naive_max_clique_size,
)

from conftest import doubled_names, node_id, small_fixture_graphs


def vertex_ids(g, names):
    return frozenset(g.vertex_id(n) for n in names)


def based_mask(cg, wanted):
    return cg.members_mask(cg.nodes_based_in(wanted))


def reference_degeneracy_order(adj, mask):
    """Quadratic reference: rescan every remaining degree at each removal."""
    remaining = mask
    order = []
    while remaining:
        best_v, best_d = -1, 1 << 62
        for v in mask_iter(remaining):
            d = (adj[v] & remaining).bit_count()
            if d < best_d:
                best_v, best_d = v, d
        order.append(best_v)
        remaining &= ~(1 << best_v)
    return order


class TestRakeNumbers:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_principal_rank_and_spine_dimension(self, d, cg_cache):
        g = families.rake(d)
        cg = cg_cache(g)
        cls = g.classify_vertices()
        assert max_compatible(cg, cls.principal).size == 3 * d - 1
        assert max_compatible(cg, frozenset(range(g.n))).size == 4 * d - 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_vertex_values(self, d, cg_cache):
        g = families.rake(d)
        cg = cg_cache(g)
        assert max_compatible(cg, vertex_ids(g, ["v"])).size == 2 * d - 1
        assert max_compatible(cg, vertex_ids(g, ["u"])).size == d - 1


class TestConditionTwoCounterexample:
    def test_principal_rank(self, cg_cache):
        g = families.condition2_counterexample()
        cg = cg_cache(g)
        principal = g.classify_vertices().principal
        result = max_compatible(cg, principal)
        assert result.size == 22
        assert len(result.witness) == 22
        assert cg.is_clique(result.witness)
        assert all(cg.principal[i] and cg.bases[i] & principal for i in result.witness)


class TestDeltaNumbers:
    def test_headline_values(self, cg_cache):
        g = families.delta()
        cg = cg_cache(g)
        cls = g.classify_vertices()
        assert max_compatible(cg, cls.principal).size == 11
        assert max_compatible(cg, frozenset(range(g.n))).size == 14

    def test_pinned_witnesses(self, cg_cache):
        g = families.delta()
        cg = cg_cache(g)
        cls = g.classify_vertices()
        assert tuple(sorted(max_compatible(cg, cls.principal).witness)) == (
            0, 4, 6, 7, 8, 9, 43, 66, 80, 113, 121,
        )
        assert tuple(sorted(max_compatible(cg, frozenset(range(g.n))).witness)) == (
            0, 2, 7, 8, 9, 38, 47, 56, 72, 74, 87, 111, 115, 123,
        )

    @pytest.mark.parametrize(
        "names,expected",
        [
            (["v1", "v2"], 6),
            (["a1", "a2", "a3"], 5),
            (["u1"], 1),
            (["u2"], 1),
            (["b2"], 1),
            (["a2"], 5),
            (["a1"], 2),
            (["a3"], 2),
            (["v1"], 4),
            (["a1", "a3"], 4),
            (["u1", "u2"], 2),
            (["u1", "u2", "b2"], 3),
        ],
    )
    def test_intermediate_values(self, names, expected, cg_cache):
        g = families.delta()
        cg = cg_cache(g)
        assert max_compatible(cg, vertex_ids(g, names)).size == expected


class TestFreeGroupSanity:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_edgeless_spine_dimension(self, n, cg_cache):
        g = families.edgeless(n)
        cg = cg_cache(g)
        assert max_compatible(cg, frozenset(range(n))).size == 2 * n - 3

    def test_edgeless5_pinned_witness(self, cg_cache):
        g = families.edgeless(5)
        result = max_compatible(cg_cache(g), frozenset(range(g.n)))
        assert result.size == 7
        assert tuple(sorted(result.witness)) == (0, 1, 2, 3, 10, 51, 232)


class TestSolverProperties:
    def test_empty_restriction(self, cg_cache):
        cg = cg_cache(families.rake(2))
        result = max_compatible(cg, frozenset())
        assert result.size == 0
        assert result.witness == frozenset()

    def test_monotone_in_vertex_set(self, cg_cache):
        g = families.rake(2)
        cg = cg_cache(g)
        import itertools

        sizes = {}
        for r in range(g.n + 1):
            for ws in itertools.combinations(range(g.n), r):
                sizes[frozenset(ws)] = max_compatible(cg, frozenset(ws)).size
        for w1, s1 in sizes.items():
            for w2, s2 in sizes.items():
                if w1 <= w2:
                    assert s1 <= s2

    def test_additivity_distance_not_two_connected(self, cg_cache):
        for g in small_fixture_graphs().values():
            if g.validation_warnings():
                continue
            cg = cg_cache(g)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    eq = g.leq(u, v) and g.leq(v, u)
                    if not eq and g.distance(u, v) != 2:
                        assert (
                            max_compatible(cg, {u, v}).size
                            == max_compatible(cg, {u}).size
                            + max_compatible(cg, {v}).size
                        )

    def test_witness_validity(self, cg_cache):
        for g in small_fixture_graphs().values():
            cg = cg_cache(g)
            cls = g.classify_vertices()
            for wanted in (frozenset(range(g.n)), cls.principal):
                result = max_compatible(cg, wanted)
                assert len(result.witness) == result.size
                assert cg.is_clique(result.witness)
                for i in result.witness:
                    assert cg.bases[i] & wanted

    def test_witness_lexicographically_least(self, cg_cache):
        # oracle: enumerate all maximum cliques and take the smallest id tuple
        for g in (families.rake(1), families.rake(2), families.edgeless(3)):
            cg = cg_cache(g)
            sets = [frozenset(mask_iter(m)) for m in clique_masks(cg.adj, (1 << cg.n) - 1)]
            for wanted in (frozenset(range(g.n)), g.classify_vertices().principal):
                result = max_compatible(cg, wanted)
                allowed = based_mask(cg, wanted)
                best = None
                for members in sets:
                    if len(members) == result.size and cg.members_mask(members) & ~allowed == 0:
                        key = tuple(sorted(members))
                        if best is None or key < best:
                            best = key
                assert tuple(sorted(result.witness)) == best

    def test_matches_naive_oracle(self, cg_cache):
        for g in small_fixture_graphs().values():
            cg = cg_cache(g)
            if cg.n > 40:
                continue
            restrictions = [frozenset(range(g.n)), g.classify_vertices().principal]
            restrictions += [frozenset({v}) for v in range(g.n)]
            for wanted in restrictions:
                assert max_compatible(cg, wanted).size == naive_max_clique_size(
                    list(cg.adj), based_mask(cg, wanted)
                )

    def test_degeneracy_order_matches_reference(self, cg_cache):
        graphs = list(small_fixture_graphs().values()) + [families.edgeless(5)]
        for g in graphs:
            cg = cg_cache(g)
            adj = list(cg.adj)
            for wanted in (frozenset(range(g.n)), g.classify_vertices().principal):
                mask = based_mask(cg, wanted)
                assert _degeneracy_order(adj, mask) == reference_degeneracy_order(adj, mask)

    def test_degeneracy_order_with_many_degree_planes(self, cg_cache):
        # the rake(5) v part and the Condition-2 part have degrees of 9-10 bits
        rake5 = cg_cache(families.rake(5))
        v_mask = based_mask(rake5, vertex_ids(rake5.graph, ["v"]))
        cond2 = cg_cache(families.condition2_counterexample())
        cases = [
            (rake5, max(_co_components(rake5.adj, v_mask), key=int.bit_count), 1022),
            (cond2, (1 << cond2.n) - 1, 580),
        ]
        for cg, part, size in cases:
            assert part.bit_count() == size and _co_components(cg.adj, part) == [part]
            assert _degeneracy_order(cg.adj, part) == reference_degeneracy_order(cg.adj, part)

    def test_degeneracy_order_on_submasks(self, cg_cache):
        rng = random.Random(20111)
        for g in (families.delta(), families.edgeless(5)):
            cg = cg_cache(g)
            masks = [0, *(1 << v for v in range(cg.n))]
            masks += [rng.getrandbits(cg.n) for _ in range(40)]
            for mask in masks:
                assert _degeneracy_order(cg.adj, mask) == reference_degeneracy_order(cg.adj, mask)


class TestJoinSplit:
    def test_co_components_split_the_based_mask(self, cg_cache):
        for g in small_fixture_graphs().values():
            cg = cg_cache(g)
            for wanted in (frozenset(range(g.n)), g.classify_vertices().principal):
                mask = based_mask(cg, wanted)
                parts = _co_components(cg.adj, mask)
                assert all(parts) and sum(parts) == mask
                assert parts == sorted(parts, key=lambda part: part & -part)
                for p, q in itertools.combinations(parts, 2):
                    assert not p & q
                    for a in mask_iter(p):
                        assert cg.adj[a] & q == q
                # no part splits further: its complement graph is connected
                for part in parts:
                    nodes = list(mask_iter(part))
                    seen, todo = {nodes[0]}, [nodes[0]]
                    while todo:
                        a = todo.pop()
                        for b in nodes:
                            if b not in seen and not cg.edge(a, b):
                                seen.add(b)
                                todo.append(b)
                    assert len(seen) == len(nodes)

    def test_one_solver_per_part(self, cg_cache, monkeypatch):
        # counts work, not time: delta's principal candidates are a join of
        # two parts, each searched by its own solver
        built = []
        init = _CliqueSolver.__init__

        def counted(self, adj, mask):
            built.append(mask.bit_count())
            init(self, adj, mask)

        monkeypatch.setattr(_CliqueSolver, "__init__", counted)
        g = families.delta()
        assert max_compatible(cg_cache(g), g.classify_vertices().principal).size == 11
        assert built == [74, 60]


class TestRootSymmetry:
    def test_twin_skip_bounds_the_colourings(self, cg_cache, monkeypatch):
        # counts work, not time: edgeless(5) M(V) takes 26,201 colourings
        # without a root skip, 5,706 skipping inversion images only, and
        # 1,941 skipping the images under inversions and permutations of
        # its five twins
        calls = []
        colour = _CliqueSolver.colour_classes

        def counted(self, cand):
            calls.append(cand)
            return colour(self, cand)

        monkeypatch.setattr(_CliqueSolver, "colour_classes", counted)
        g = families.edgeless(5)
        result = max_compatible(cg_cache(g), frozenset(range(g.n)))
        assert result.size == 7
        assert len(calls) <= 2_500


def brute_force_cliques(adj, cand, max_size):
    """Every clique of at most max_size nodes inside cand, as sorted id tuples."""
    nodes = list(mask_iter(cand))
    return sorted(
        combo
        for k in range(max_size + 1)
        for combo in itertools.combinations(nodes, k)
        if all(adj[a] >> b & 1 for a, b in itertools.combinations(combo, 2))
    )


class TestCliqueMasks:
    def test_matches_brute_force(self, cg_cache):
        # same sets in the same order: lexicographic in the sorted member ids
        for g in small_fixture_graphs().values():
            cg = cg_cache(g)
            adj = list(cg.adj)
            for cand in ((1 << cg.n) - 1, based_mask(cg, g.classify_vertices().principal)):
                nodes = cand.bit_count()
                if nodes <= 22:  # every clique
                    depth = naive_max_clique_size(adj, cand)
                else:  # the short ones
                    depth = 3 if nodes <= 40 else 2
                want = brute_force_cliques(adj, cand, depth)

                def walk(**kw):
                    return [tuple(mask_iter(m)) for m in clique_masks(adj, cand, **kw)]

                assert walk(max_size=depth) == want
                if nodes <= 22:
                    assert walk() == want
                for low in range(1, depth + 2):
                    assert walk(min_size=low, max_size=depth) == [c for c in want if len(c) >= low]

    def test_cap(self, cg_cache):
        adj = list(cg_cache(families.rake(2)).adj)
        full = (1 << len(adj)) - 1
        everything = list(clique_masks(adj, full))
        assert len(everything) == 3825
        assert list(clique_masks(adj, full, cap=3825)) == everything
        out = []
        with pytest.raises(CapExceededError):
            for m in clique_masks(adj, full, cap=10):
                out.append(m)
        assert out == everything[:10]
        # the cap counts yielded sets only: the 2-rake has 192 six-sets
        assert len(list(clique_masks(adj, full, min_size=6, cap=192))) == 192
        with pytest.raises(CapExceededError):
            list(clique_masks(adj, full, min_size=6, cap=191))


class TestInextendibility:
    """A compatible set is inextendible when no node extends it."""

    def test_empty_set_in_complete_graph(self, cg_cache):
        cg = cg_cache(families.complete(3))
        assert cg.extensions(0) == 0

    def test_single_leaf_partition_extendible(self, cg_cache):
        g = families.rake(2)
        cg = cg_cache(g)
        q = node_id(cg, ["u"] + doubled_names(["a1", "b1"]))
        assert cg.extensions(1 << q)

    def test_delta_maximum_set_inextendible(self, cg_cache):
        g = families.delta()
        cg = cg_cache(g)
        result = max_compatible(cg, frozenset(range(g.n)))
        assert result.size == 14
        assert cg.is_clique(result.witness)
        assert cg.extensions(cg.members_mask(result.witness)) == 0


class TestEnumeration:
    """The whole compatibility graph through clique_masks."""

    def sets(self, cg, **kw):
        return [frozenset(mask_iter(m)) for m in clique_masks(cg.adj, (1 << cg.n) - 1, **kw)]

    def test_complete_graph_only_empty_set(self, cg_cache):
        cg = cg_cache(families.complete(3))
        assert self.sets(cg) == [frozenset()]

    def test_rake1_count(self, cg_cache):
        cg = cg_cache(families.rake(1))
        assert len(self.sets(cg, max_size=2)) == 9

    def test_rake2_contains_explicit_maximum_set(self, cg_cache):
        g = families.rake(2)
        cg = cg_cache(g)
        explicit = frozenset(
            node_id(cg, side)
            for side in [
                ["v", "b1"],
                ["v"] + doubled_names(["b1"]),
                ["v"] + doubled_names(["b1"]) + ["b2"],
                ["a1", "u"],
                ["a2", "u"] + doubled_names(["a1", "b1"]),
                ["u"] + doubled_names(["a1", "b1"]),
            ]
        )
        assert len(explicit) == 6
        assert explicit in set(self.sets(cg, max_size=6))

    def test_lexicographic_order_and_dedup(self, cg_cache):
        cg = cg_cache(families.rake(1))
        keys = [tuple(sorted(s)) for s in self.sets(cg)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
