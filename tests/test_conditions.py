import pytest

from raagspine import (
    all_partitions,
    check_condition1,
    check_condition2,
    condition_report,
    families,
    is_barbed,
    is_spiky,
    max_compatible,
    p_k_value,
)
from raagspine.conditions import p_k_principal_maximal

from conftest import small_fixture_graphs


class TestCondition1:
    def test_counterexample_fixture_fails_with_witness(self):
        g = families.condition1_counterexample()
        holds, witnesses = check_condition1(g)
        assert not holds
        named = {(g.names[u], g.names[up], g.names[m]) for u, up, m in witnesses}
        assert ("u", "u2", "m") in named

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rakes_pass(self, d):
        holds, witnesses = check_condition1(families.rake(d))
        assert holds and witnesses == ()

    def test_delta_passes(self):
        holds, _ = check_condition1(families.delta())
        assert holds


class TestCondition2:
    def test_counterexample_fixture_fails(self):
        g = families.condition2_counterexample()
        holds, witnesses = check_condition2(g)
        assert not holds
        named = {(g.names[u], g.names[m], g.names[n]) for u, m, n in witnesses}
        assert ("u", "m", "n") in named

    def test_delta_fails(self):
        g = families.delta()
        holds, witnesses = check_condition2(g)
        assert not holds
        named = {(g.names[u], g.names[m], g.names[n]) for u, m, n in witnesses}
        assert ("u1", "a2", "v2") in named

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rakes_pass(self, d):
        holds, _ = check_condition2(families.rake(d))
        assert holds


class TestSpiky:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rakes_spiky(self, d):
        assert is_spiky(families.rake(d))

    def test_delta_not_spiky(self):
        assert not is_spiky(families.delta())

    def test_edgeless_spiky(self):
        assert is_spiky(families.edgeless(4))

    def test_characterization_agrees_everywhere(self):
        # is_spiky raises on internal disagreement; sweep all fixtures
        for g in small_fixture_graphs().values():
            report = condition_report(g)
            assert report.to_dict(g)["spiky_characterization"] == report.spiky
            assert report.spiky == (report.condition1 and report.condition2)


class TestBarbed:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rakes_barbed(self, d):
        holds, _ = is_barbed(families.rake(d))
        assert holds

    def test_delta_barbed(self):
        holds, _ = is_barbed(families.delta())
        assert holds

    def test_counterexample_fixture_not_barbed(self):
        g = families.condition1_counterexample()
        holds, witnesses = is_barbed(g)
        assert not holds
        named = {(g.names[u], g.names[v]) for u, v in witnesses}
        assert ("u", "a") in named  # a is equivalent to u, not a strict dominator

    def test_barbed_implies_condition1(self):
        for g in small_fixture_graphs().values():
            barbed, _ = is_barbed(g)
            if barbed:
                holds, _ = check_condition1(g)
                assert holds

    def test_barbed_non_principal_partitions_split_only_base(self):
        # connected graphs only: an isolated vertex is split freely by any
        # partition while staying invisible to the barbed condition
        for g in small_fixture_graphs().values():
            barbed, _ = is_barbed(g)
            if not barbed or g.validation_warnings():
                continue
            principal = g.classify_vertices().principal
            for p in all_partitions(g):
                if p.max_bases & principal:
                    continue
                assert p.split == p.max_bases
                assert len(p.split) == 1

    def test_barbed_sides_contain_dominating_principal(self):
        for g in small_fixture_graphs().values():
            barbed, _ = is_barbed(g)
            if not barbed or g.validation_warnings():
                continue
            cls = g.classify_vertices()
            for p in all_partitions(g):
                if p.max_bases & cls.principal:
                    continue
                u = min(p.max_bases)
                for side in p.sides():
                    found = any(
                        side >> (2 * v) & 1 and g.leq(u, v)
                        for v in cls.principal
                    )
                    assert found


class TestPk:
    def test_delta_is_p1(self):
        k, _ = p_k_value(families.delta())
        assert k == 1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rake_value(self, d):
        k, _ = p_k_value(families.rake(d))
        assert k == d - 1

    def test_no_non_principal_gives_zero(self):
        k, counts = p_k_value(families.complete(4))
        assert k == 0 and counts == ()

    def test_principal_maximal_variant_on_delta(self):
        k, _ = p_k_principal_maximal(families.delta())
        assert k == 1

    def test_k_zero_implies_equal_ranks(self, cg_cache):
        for g in small_fixture_graphs().values():
            k, _ = p_k_value(g)
            if k == 0:
                cg = cg_cache(g)
                cls = g.classify_vertices()
                assert (
                    max_compatible(cg, cls.principal).size
                    == max_compatible(cg, frozenset(range(g.n))).size
                )


class TestReport:
    def test_delta_report_round_trip(self):
        g = families.delta()
        report = condition_report(g)
        payload = report.to_dict(g)
        assert payload["condition1"] is True
        assert payload["condition2"] is False
        assert payload["barbed"] is True
        assert payload["p_k"] == 1
        assert payload["condition2_witnesses"][0].keys() == {"u", "m", "n"}

    def test_witness_cap(self):
        # a star of many leaves produces plenty of violating pairs
        leaves = [f"x{i}" for i in range(12)]
        from raagspine.graph import SimplicialGraph

        g = SimplicialGraph(
            ["hub"] + leaves, [("hub", leaf) for leaf in leaves]
        )
        _, witnesses = is_barbed(g)
        assert len(witnesses) <= 20
