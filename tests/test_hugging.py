import itertools

import pytest

from raagspine import (
    HugOracle,
    HugWitness,
    compatibility_graph,
    cube_survives,
    families,
    is_hugged_in,
    max_compatible,
    verify_hug_compat,
    verify_oversize_hugged,
    verify_replacement,
)
from raagspine.graph import mask_iter, sv_neg, sv_pos
from raagspine.hugging import HugError, hug_configs, hug_context
from raagspine.search import clique_masks

from conftest import (
    doubled_names,
    node_id,
    signed_set,
    small_fixture_graphs,
)


@pytest.fixture(scope="module")
def rake3_cg(cg_cache):
    return cg_cache(families.rake(3))


def rake3_q(cg):
    """The worked non-principal partition with side {u, a1±, b1±, a2±, b2±}."""
    return node_id(cg, ["u"] + doubled_names(["a1", "b1", "a2", "b2"]))


def configs_by_m(cg, q_id, m_name):
    m = cg.graph.vertex_id(m_name)
    return [w for w in hug_configs(cg, q_id) if w.base_m == m]


def side_is(g, mask, names):
    return frozenset(mask_iter(mask)) == signed_set(g, names)


class TestHugConfigs:
    def test_one_hug_configuration(self, rake3_cg):
        cg = rake3_cg
        g = cg.graph
        configs = configs_by_m(cg, rake3_q(cg), "a2")
        # two units of a2 sit inside the hugged side, so four ordered splits
        assert len(configs) == 4
        want = ["a2", "u"] + doubled_names(["a1", "b1"])
        assert any(
            w.kind == "one-hug"
            and not w.comp_split[1]
            and side_is(g, w.hugger_sides()[0], want)
            and any(side_is(g, s, want) for s in cg.nodes[w.huggers[0]].sides())
            for w in configs
        )

    def test_two_hug_configuration(self, rake3_cg):
        cg = rake3_cg
        g = cg.graph
        p1_want = ["a1", "u"]
        p2_want = ["a1^-1"] + doubled_names(["a2", "b2"])
        hit = [
            w
            for w in configs_by_m(cg, rake3_q(cg), "a1")
            if w.kind == "two-hug"
            and side_is(g, w.hugger_sides()[0], p1_want)
            and side_is(g, w.hugger_sides()[1], p2_want)
        ]
        assert len(hit) == 1
        assert hit[0].huggers == (node_id(cg, p1_want), node_id(cg, p2_want))

    def test_split_count_is_power_of_two(self, rake3_cg):
        cg = rake3_cg
        q_id = rake3_q(cg)
        for m_name, k in (("a1", 2), ("a2", 2), ("a3", 1)):
            assert len(configs_by_m(cg, q_id, m_name)) == 2 ** k

    def test_non_dominator_rejected(self, rake3_cg):
        cg = rake3_cg
        g = cg.graph
        q = cg.nodes[rake3_q(cg)]
        with pytest.raises(HugError):
            hug_context(g, q, min(q.max_bases), g.vertex_id("v"))

    # total configurations and one-hugs over the non-principal nodes
    TABLE_SIZES = {
        "rake2": (8, 8),
        "rake3": (60, 36),
        "compatibility-example": (40, 24),
        "condition1-counterexample": (660, 132),
        "delta": (104, 24),
        "rake4": (304, 112),
        "condition2-counterexample": (2060, 156),
    }
    GRAPHS = {
        **small_fixture_graphs(),
        "delta": families.delta(),
        "rake4": families.rake(4),
        "condition2-counterexample": families.condition2_counterexample(),
    }

    @pytest.mark.parametrize("name", GRAPHS)
    def test_table_soundness(self, cg_cache, name):
        cg = cg_cache(self.GRAPHS[name])
        g = cg.graph
        cls = g.classify_vertices()
        full = (1 << 2 * g.n) - 1
        total = one_hugs = 0
        for q_id in range(cg.n):
            if cg.principal[q_id]:
                continue
            q = cg.nodes[q_id]
            configs = hug_configs(cg, q_id)
            # 2^k configurations per (u, m) group, for k units of m in Q
            want = []
            for u in sorted(q.max_bases):
                for m in sorted(cls.dominators[u]):
                    want += [(u, m)] * 2 ** len(hug_context(g, q, u, m)[1])
            assert [(w.base_u, w.base_m) for w in configs] == want
            for w in configs:
                c1, c2 = w.comp_split
                assert (w.kind == "one-hug") == (not c1 or not c2)
                for j in w.huggers:
                    assert w.base_m in cg.bases[j]
                    assert cg.node_of[cg.nodes[j].sides()] == j
                p1, p2 = w.hugger_sides()
                assert not (p1 | p2) & ~w.hugged_side
                rest = full & ~g.link_mask(w.base_m)
                assert rest & ~p1 & ~p2 == q.other_side(w.hugged_side)
                thick = [s for s in (p1, p2) if s.bit_count() >= 2]
                assert len(thick) == len(w.huggers)
                for side, j in zip(thick, w.huggers):
                    assert side in cg.nodes[j].sides()
            total += len(configs)
            one_hugs += sum(w.kind == "one-hug" for w in configs)
        if name in self.TABLE_SIZES:
            assert (total, one_hugs) == self.TABLE_SIZES[name]


class TestIsHuggedIn:
    def test_one_hug_detected(self, rake3_cg):
        cg = rake3_cg
        g = cg.graph
        q = rake3_q(cg)
        hugger = node_id(cg, ["a2", "u"] + doubled_names(["a1", "b1"]))
        witness = is_hugged_in(cg, [q, hugger], q)
        assert witness is not None
        assert witness.kind == "one-hug"
        assert g.names[witness.base_m] == "a2"
        assert witness.huggers == (hugger,)

    def test_two_hug_detected(self, rake3_cg):
        cg = rake3_cg
        g = cg.graph
        q = rake3_q(cg)
        p1 = node_id(cg, ["a1", "u"])
        p2 = node_id(cg, ["a1^-1"] + doubled_names(["a2", "b2"]))
        witness = is_hugged_in(cg, [q, p1, p2], q)
        assert witness is not None
        assert witness.kind == "two-hug"
        assert g.names[witness.base_m] == "a1"
        assert set(witness.huggers) == {p1, p2}

    def test_alone_not_hugged(self, rake3_cg):
        cg = rake3_cg
        q = rake3_q(cg)
        assert is_hugged_in(cg, [q], q) is None

    def test_principal_member_rejected(self, rake3_cg):
        cg = rake3_cg
        p = node_id(cg, ["a1", "u"])
        with pytest.raises(HugError):
            is_hugged_in(cg, [p], p)

    def test_non_member_rejected(self, rake3_cg):
        cg = rake3_cg
        q = rake3_q(cg)
        with pytest.raises(HugError):
            is_hugged_in(cg, [], q)

    def test_witness_soundness(self, cg_cache):
        # reconstructing the hugger sides reproduces the stored partitions,
        # the sides are disjoint, sit inside the hugged side, and the
        # complements intersect exactly in the other side of q
        import itertools

        for g in (families.rake(2), families.rake(3), families.delta()):
            cg = cg_cache(g)
            full = (1 << (2 * g.n)) - 1
            np_nodes = [i for i in range(cg.n) if not cg.principal[i]]
            count = 0
            for q_id in np_nodes:
                others = [j for j in range(cg.n) if cg.edge(q_id, j)]
                for extra in itertools.combinations(others[:12], 2):
                    members = [q_id, *extra]
                    if not cg.is_clique(members):
                        continue
                    witness = is_hugged_in(cg, members, q_id)
                    if witness is None:
                        continue
                    count += 1
                    p1, p2 = witness.hugger_sides()
                    assert not p1 & p2
                    q = cg.nodes[q_id]
                    assert not p1 & ~witness.hugged_side
                    assert not p2 & ~witness.hugged_side
                    link = g.link_mask(witness.base_m)
                    p1bar = full & ~link & ~p1
                    p2bar = full & ~link & ~p2
                    assert p1bar & p2bar == q.other_side(witness.hugged_side)
                    sides = [
                        frozenset(mask_iter(s))
                        for j in witness.huggers
                        for s in cg.nodes[j].sides()
                    ]
                    for side_mask in (p1, p2):
                        if side_mask.bit_count() >= 2:
                            assert frozenset(mask_iter(side_mask)) in sides
            assert count > 0


class TestCubeSurvives:
    def test_empty_cube_in_complete_graph(self, cg_cache):
        cg = cg_cache(families.complete(3))
        assert cube_survives(cg, [], [])

    def test_maximum_sets_in_rake2_do_not_survive(self, cg_cache):
        from raagspine import enumerate_compatible_sets

        cg = cg_cache(families.rake(2))
        seen = 0
        for members in enumerate_compatible_sets(cg, 6):
            if len(members) == 6:
                seen += 1
                assert not cube_survives(cg, [], members)
        assert seen == 192

    def test_surviving_principal_witness_exists(self, cg_cache):
        from raagspine import enumerate_compatible_sets

        g = families.rake(2)
        cg = cg_cache(g)
        principal = g.classify_vertices().principal
        found = False
        for members in enumerate_compatible_sets(cg, 5):
            if len(members) == 5 and all(cg.principal[i] for i in members):
                if cube_survives(cg, [], members):
                    found = True
                    break
        assert found

    def test_containment_violation_rejected(self, cg_cache):
        cg = cg_cache(families.rake(2))
        with pytest.raises(HugError):
            cube_survives(cg, [0], [])


class TestOversizeLemma:
    def test_rake1_vacuous(self, cg_cache):
        verdict = verify_oversize_hugged(cg_cache(families.rake(1)), budget=10**6)
        assert verdict.passed
        assert verdict.checked == 0

    def test_rake2_exhaustive(self, cg_cache):
        verdict = verify_oversize_hugged(cg_cache(families.rake(2)), budget=10**6)
        assert verdict.passed
        assert verdict.checked == 192

    def test_budget_exhaustion_is_inconclusive(self, cg_cache):
        verdict = verify_oversize_hugged(cg_cache(families.rake(2)), budget=5)
        assert verdict.status == "inconclusive"
        assert verdict.checked == 5

    def test_non_barbed_rejected(self, cg_cache):
        g = families.condition1_counterexample()
        with pytest.raises(HugError):
            verify_oversize_hugged(cg_cache(g), budget=100)


class TestLemmaConclusions:
    def test_rake2_hug_compat_passes(self, cg_cache):
        verdict = verify_hug_compat(cg_cache(families.rake(2)), budget=10**6)
        assert verdict.passed

    def test_rake2_replacement_passes(self, cg_cache):
        verdict = verify_replacement(cg_cache(families.rake(2)), budget=10**6)
        assert verdict.passed

    def test_condition1_counterexample_fails_with_text_witness(self, cg_cache):
        g = families.condition1_counterexample()
        cg = cg_cache(g)
        verdict = verify_hug_compat(cg, budget=10**6)
        assert verdict.status == "fail"
        # the specific configuration: the u-partition with side {u, a} is
        # 1-hugged by the m-partition with side {m, u, a}; the u2-partition
        # with side {u2, u} is compatible with the hugger but not with it
        q = node_id(cg, ["u", "a"])
        hugger = node_id(cg, ["m", "u", "a"])
        q2 = node_id(cg, ["u2", "u"])
        witness = is_hugged_in(cg, [q, hugger], q)
        assert witness is not None and witness.huggers == (hugger,)
        assert cg.edge(q2, hugger)
        assert not cg.edge(q2, q)

    def test_delta_restricted_replacement_passes(self, cg_cache):
        g = families.delta()
        cg = cg_cache(g)
        verdict = verify_replacement(
            cg,
            budget=10**6,
            q_bases=frozenset({g.vertex_id("u1"), g.vertex_id("u2")}),
            r_bases=frozenset({g.vertex_id("a2")}),
        )
        assert verdict.passed
        assert verdict.checked > 0

    def test_delta_unrestricted_replacement_passes(self, cg_cache):
        # the ad-hoc argument shows the conclusion holds on the whole graph
        verdict = verify_replacement(cg_cache(families.delta()), budget=10**7)
        assert verdict.passed

    def test_budget_exhaustion(self, cg_cache):
        verdict = verify_hug_compat(cg_cache(families.rake(2)), budget=3)
        assert verdict.status == "inconclusive"

    def test_delta_maximum_set_members_all_hugged(self, cg_cache):
        # the explicit size-14 set is oversize (M(L) = 11) on a barbed graph,
        # and indeed every non-principal member comes out hugged in it
        g = families.delta()
        cg = cg_cache(g)
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
        members = [node_id(cg, s) for s in sides]
        np_members = [i for i in members if not cg.principal[i]]
        assert len(np_members) == 3
        kinds = {}
        for q in np_members:
            witness = is_hugged_in(cg, members, q)
            assert witness is not None
            kinds[g.names[witness.base_m]] = witness.kind
        assert kinds == {"a1": "one-hug", "a2": "two-hug", "v1": "one-hug"}


def side_scan_is_hugged_in(cg, members, q_id):
    """Reference oracle: hug detection by scanning the members' sides.

    For each legal base u of q and dominator m of u, every member based at m
    contributes its sides {m} ∪ C1 and {m^-1} ∪ C2 that lie inside the
    hugged side; a one-hug by the {m} side wins, then one by the {m^-1}
    side, then the two-hug with the least {m}-side mask.  Independent of the
    tabulated configurations that ``is_hugged_in`` looks up.
    """
    member_ids = sorted(set(members))
    if q_id not in member_ids:
        raise HugError("the partition is not a member of the set")
    if cg.principal[q_id]:
        raise HugError("only non-principal partitions can be hugged")
    g = cg.graph
    q = cg.nodes[q_id]
    cls = g.classify_vertices()
    for u in sorted(q.max_bases):
        for m in sorted(cls.dominators[u]):
            side_q, units = hug_context(g, q, u, m)
            target = 0
            for mu in units:
                target |= mu
            pos_bit = 1 << sv_pos(m)
            neg_bit = 1 << sv_neg(m)
            plus, minus = {}, {}
            for j in member_ids:
                if j == q_id or m not in cg.bases[j]:
                    continue
                for side in cg.nodes[j].sides():
                    if side & pos_bit and not (side & ~pos_bit) & ~target:
                        plus.setdefault(side & ~pos_bit, j)
                    if side & neg_bit and not (side & ~neg_bit) & ~target:
                        minus.setdefault(side & ~neg_bit, j)

            def witness(kind, c1, c2, huggers):
                return HugWitness(
                    kind=kind,
                    base_m=m,
                    base_u=u,
                    hugged_side=side_q,
                    comp_split=(
                        tuple(mu for mu in units if mu & c1),
                        tuple(mu for mu in units if mu & c2),
                    ),
                    huggers=huggers,
                )

            if target in plus:
                return witness("one-hug", target, 0, (plus[target],))
            if target in minus:
                return witness("one-hug", 0, target, (minus[target],))
            for s1 in sorted(plus):
                s2 = target & ~s1
                if s2 in minus:
                    return witness("two-hug", s1, s2, (plus[s1], minus[s2]))
    return None


def cliques_through(cg, q_id, extra, cap):
    """Up to ``cap`` compatible sets holding q_id and at most ``extra`` more."""
    out = []

    def grow(members, candidates, room):
        if len(out) == cap:
            return
        out.append(members)
        if room:
            for j in mask_iter(candidates):
                grow(members + (j,), candidates & cg.adj[j] & -(2 << j), room - 1)

    grow((q_id,), cg.adj[q_id], extra)
    return out


def assert_oracle_matches_side_scan(cg, sets):
    """``HugOracle``'s hugged members, hugged extensions and survivor rule on
    each compatible set mask, against ``side_scan_is_hugged_in``."""
    oracle = HugOracle(cg)
    np_nodes = [i for i in range(cg.n) if not cg.principal[i]]
    for mask in sets:
        ids = list(mask_iter(mask))
        hugged = sum(
            1 << q
            for q in ids
            if not cg.principal[q] and side_scan_is_hugged_in(cg, ids, q)
        )
        assert oracle.hugged_mask(mask) == hugged
        extendable = any(
            not mask >> j & 1
            and cg.adj[j] & mask == mask
            and side_scan_is_hugged_in(cg, [*ids, j], j)
            for j in np_nodes
        )
        assert oracle.extendable_by_hugged(mask) == extendable
        assert oracle.survives(0, mask) == (not hugged and not extendable)
        assert oracle.survives(hugged, mask) == (not extendable)


class TestSideScanReference:
    @pytest.mark.parametrize("name", [*small_fixture_graphs(), "delta"])
    def test_witnesses_match_side_scan(self, cg_cache, name):
        g = families.delta() if name == "delta" else small_fixture_graphs()[name]
        cg = cg_cache(g)
        for q_id in range(cg.n):
            if cg.principal[q_id]:
                continue
            for members in cliques_through(cg, q_id, 3, 500):
                assert is_hugged_in(cg, members, q_id) == side_scan_is_hugged_in(
                    cg, members, q_id
                )

    @pytest.mark.parametrize("name", [*small_fixture_graphs(), "delta"])
    def test_incompatible_member_sets_refused(self, cg_cache, name):
        # q with the huggers of one or two of its configurations: a compatible
        # set matches the side scan and any other set is refused; two distinct
        # configurations of one (u, m) group are never compatible
        # (TestFirstFitLemma)
        g = families.delta() if name == "delta" else small_fixture_graphs()[name]
        cg = cg_cache(g)
        for q_id in range(cg.n):
            if cg.principal[q_id]:
                continue
            configs = hug_configs(cg, q_id)
            for a, b in itertools.combinations_with_replacement(configs, 2):
                members = {q_id, *a.huggers, *b.huggers}
                if cg.is_clique(members):
                    assert is_hugged_in(cg, members, q_id) == side_scan_is_hugged_in(
                        cg, members, q_id
                    )
                else:
                    assert a != b
                    with pytest.raises(HugError, match="not pairwise compatible"):
                        is_hugged_in(cg, members, q_id)

    def test_oracle_matches_side_scan_on_rake2(self, cg_cache):
        cg = cg_cache(families.rake(2))
        sets = list(clique_masks(cg.adj, (1 << cg.n) - 1))
        assert len(sets) == 3825
        assert_oracle_matches_side_scan(cg, sets)

    @pytest.mark.parametrize("name", [*small_fixture_graphs(), "delta"])
    def test_oracle_matches_side_scan(self, cg_cache, name):
        # the survivor rule's memoised masks on every fixture, over the
        # compatible sets of at most four members (about 1,500 of them, evenly
        # spaced in lexicographic order, where there are more)
        g = families.delta() if name == "delta" else small_fixture_graphs()[name]
        cg = cg_cache(g)
        sets = list(clique_masks(cg.adj, (1 << cg.n) - 1, max_size=4))
        assert_oracle_matches_side_scan(cg, sets[:: max(1, len(sets) // 1500)])


class TestFirstFitLemma:
    def test_one_configuration_per_group_fits(self, cg_cache):
        # first fit in ``is_hugged_in`` rests on this: two distinct
        # configurations of one (u, m) group never fit one compatible set
        graphs = [*small_fixture_graphs().values(), families.delta()]
        pairs = 0
        for g in graphs:
            cg = cg_cache(g)
            for q_id in range(cg.n):
                if cg.principal[q_id]:
                    continue
                configs = hug_configs(cg, q_id)
                for a, b in itertools.combinations(configs, 2):
                    if (a.base_u, a.base_m) != (b.base_u, b.base_m):
                        continue
                    pairs += 1
                    group = a.hugger_mask | b.hugger_mask | 1 << q_id
                    assert not cg.is_clique(mask_iter(group))
        assert pairs == 4468


class TestPinnedVerdicts:
    """Status and count of the two configuration verifiers, pinned."""

    @pytest.mark.parametrize(
        "graph, hug_compat, replacement",
        [
            (families.rake(2), ("pass", 8), ("pass", 0)),
            (families.rake(3), ("pass", 300), ("pass", 8580)),
            (families.delta(), ("pass", 520), ("pass", 328976)),
            (
                families.condition1_counterexample(),
                ("fail", 24420),
                ("fail", 1755388),
            ),
        ],
        ids=["rake2", "rake3", "delta", "condition1-counterexample"],
    )
    def test_counts(self, cg_cache, graph, hug_compat, replacement):
        # the counterexample has 4 non-principal partitions with more than
        # one legal base, so its counts include the repeat per legal base
        cg = cg_cache(graph)
        verdict = verify_hug_compat(cg, budget=10**6)
        assert (verdict.status, verdict.checked) == hug_compat
        verdict = verify_replacement(cg, budget=10**7)
        assert (verdict.status, verdict.checked) == replacement

    def test_configurations_built_only_for_nodes_read(self):
        # the budget runs out inside the second non-principal node of the
        # 5-rake; the other 28 get no configurations built
        cg = compatibility_graph(families.rake(5))
        np_nodes = [i for i in range(cg.n) if not cg.principal[i]]
        assert len(np_nodes) == 30
        verdict = verify_hug_compat(cg, budget=2000)
        assert (verdict.status, verdict.checked) == ("inconclusive", 2000)
        assert set(cg._hug_configs) == set(np_nodes[:2])
