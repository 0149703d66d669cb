"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every tolerance here is exact (integer equalities and boolean verdicts).
Criterion 5 is asserted as stated, including the survivor-characterization
crosscheck; that sub-assertion fails on the 2-rake because the characterized
set is provably not face-closed there (the retraction keeps exactly its
closure).  See README.md for the analysis; the other sub-assertions pass.
"""

import itertools
import time
from collections import Counter
from math import comb

import pytest

from raagspine import (
    all_partitions,
    build_star,
    check_condition1,
    check_condition2,
    crosscheck_survivors,
    families,
    is_adjacent,
    is_barbed,
    is_compatible,
    is_hugged_in,
    is_spiky,
    max_compatible,
    retract,
    verify_oversize_hugged,
    verify_replacement,
)
from raagspine.graph import mask_iter
from raagspine.hugging import active_factor
from raagspine.search import clique_masks

from conftest import factor_graph, small_fixture_graphs


def record(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}: {detail}")
    return ok


def vertex_ids(g, names):
    return frozenset(g.vertex_id(n) for n in names)


def test_criterion_1_rake_numbers(cg_cache):
    results = {}
    for d in (1, 2, 3):
        start = time.time()
        g = families.rake(d)
        cg = cg_cache(g)
        cls = g.classify_vertices()
        m_l = max_compatible(cg, cls.principal).size
        m_v = max_compatible(cg, frozenset(range(g.n))).size
        results[d] = (m_l, m_v, time.time() - start)
    ok = all(
        results[d][0] == 3 * d - 1 and results[d][1] == 4 * d - 2 and results[d][2] < 10
        for d in results
    )
    detail = "; ".join(
        f"T{d}: M(L)={results[d][0]} M(V)={results[d][1]} [{results[d][2]:.1f}s]"
        for d in sorted(results)
    )
    assert record("1", ok, f"rake numbers for d=1..3: {detail}")


@pytest.mark.slow
def test_criterion_1_rake4(cg_cache):
    start = time.time()
    g = families.rake(4)
    cg = cg_cache(g)
    cls = g.classify_vertices()
    m_l = max_compatible(cg, cls.principal).size
    m_v = max_compatible(cg, frozenset(range(g.n))).size
    elapsed = time.time() - start
    ok = m_l == 11 and m_v == 14 and elapsed < 600
    assert record(
        "1 (slow)", ok, f"T4: M(L)={m_l} M(V)={m_v} in {elapsed:.0f}s (< 600s)"
    )


@pytest.mark.slow
def test_criterion_1_rake6(cg_cache):
    # beyond the paper's table: the closed forms 3d-1 and 4d-2 at d = 6
    start = time.time()
    g = families.rake(6)
    cg = cg_cache(g)
    cls = g.classify_vertices()
    m_l = max_compatible(cg, cls.principal).size
    m_v = max_compatible(cg, frozenset(range(g.n))).size
    elapsed = time.time() - start
    ok = m_l == 17 and m_v == 22 and elapsed < 600
    assert record(
        "1 (slow)", ok, f"T6: M(L)={m_l} M(V)={m_v} in {elapsed:.0f}s (< 600s)"
    )


def test_criterion_2_headline_gap(cg_cache):
    g = families.rake(2)
    cg = cg_cache(g)
    m_l = max_compatible(cg, g.classify_vertices().principal).size
    m_v = max_compatible(cg, frozenset(range(g.n))).size
    ok = (m_l, m_v) == (5, 6)
    assert record("2", ok, f"2-rake gap: M(L)={m_l} M(V)={m_v}")


def test_criterion_3_delta_numbers(cg_cache):
    start = time.time()
    g = families.delta()
    cg = cg_cache(g)
    cls = g.classify_vertices()
    values = {
        "M(L)": (max_compatible(cg, cls.principal).size, 11),
        "M(V)": (max_compatible(cg, frozenset(range(g.n))).size, 14),
        "M(v1,v2)": (max_compatible(cg, vertex_ids(g, ["v1", "v2"])).size, 6),
        "M(a1,a2,a3)": (
            max_compatible(cg, vertex_ids(g, ["a1", "a2", "a3"])).size,
            5,
        ),
        "M(u1)": (max_compatible(cg, vertex_ids(g, ["u1"])).size, 1),
        "M(u2)": (max_compatible(cg, vertex_ids(g, ["u2"])).size, 1),
        "M(b2)": (max_compatible(cg, vertex_ids(g, ["b2"])).size, 1),
    }
    elapsed = time.time() - start
    ok = all(got == want for got, want in values.values()) and elapsed < 900
    detail = ", ".join(f"{k}={got}" for k, (got, want) in values.items())
    assert record("3", ok, f"graph-Delta values: {detail} [{elapsed:.1f}s]")


def test_criterion_4_free_group_sanity(cg_cache):
    results = {}
    for n in (3, 4):
        cg = cg_cache(families.edgeless(n))
        results[n] = max_compatible(cg, frozenset(range(n))).size
    ok = all(results[n] == 2 * n - 3 for n in results)
    assert record(
        "4", ok, f"edgeless spine dimensions: n=3 -> {results[3]}, n=4 -> {results[4]}"
    )


def test_criterion_5_retraction(cg_cache):
    start = time.time()
    lines = []
    sub_ok = []
    for d in (1, 2):
        g = families.rake(d)
        star = build_star(cg_cache(g))
        trace = retract(star)
        check = crosscheck_survivors(star, trace)
        dim_ok = trace.final_stats.dimension == star.m_l
        euler_ok = (
            trace.initial_stats.euler_characteristic == 1
            and trace.final_stats.euler_characteristic == 1
        )
        sub_ok.extend([dim_ok, euler_ok, check.ok])
        lines.append(
            f"T{d}: dim {trace.initial_stats.dimension}->{trace.final_stats.dimension}"
            f" (M(L)={star.m_l}), euler ok={euler_ok}, crosscheck={'ok' if check.ok else 'MISMATCH'}"
        )
    elapsed = time.time() - start
    ok = all(sub_ok) and elapsed < 300
    record(
        "5",
        ok,
        "; ".join(lines)
        + f" [{elapsed:.1f}s]"
        + (
            ""
            if ok
            else "; the 2-rake crosscheck mismatch is a verified defect of the"
            " survivor characterization (not face-closed); see README"
        ),
    )
    assert ok


def inert_f_vector(adj, part):
    """f-vector of the star of the compatible sets inside part, the clique
    polynomial K(1 + x): a set of size s is the upper set of C(s, d) cubes
    of dimension d.  The sets are counted by size, never stored."""
    sizes = Counter(c.bit_count() for c in clique_masks(adj, part))
    return [sum(k * comb(s, d) for s, k in sizes.items()) for d in range(max(sizes) + 1)]


def times(f, g):
    """The product of two f-vectors as polynomials: the f-vector of the
    product of the two cube complexes."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def euler(f):
    return sum((-1) ** d * c for d, c in enumerate(f))


def factor_retraction(cg_cache, d):
    """T_d through the factors of the d-rake's star: retract the star of its
    active factor, then multiply by the inert factor, on which nothing
    fires.  A collapse of the factor times each inert cube is a sequence of
    collapses of the whole star, so the f-vectors multiply."""
    start = time.time()
    cg = cg_cache(families.rake(d))
    active = active_factor(cg)
    star = build_star(factor_graph(cg, active))
    trace = retract(star)
    inert = inert_f_vector(cg.adj, (1 << cg.n) - 1 & ~active)
    before = times(trace.initial_stats.f_vector, inert)
    after = times(trace.final_stats.f_vector, inert)
    dim_ok = len(after) - 1 == 3 * d - 1  # M(L), criterion 1
    euler_ok = euler(before) == euler(after) == 1
    record(
        f"5-T{d}",
        dim_ok and euler_ok and not trace.skipped,
        f"factor of {len(star.cliques)} sets, dim {trace.initial_stats.dimension}->"
        f"{trace.final_stats.dimension}, {len(trace.events)} events; times the inert factor: "
        f"dim {len(before) - 1}->{len(after) - 1} (M(L)={3 * d - 1}), euler ok={euler_ok}"
        f" [{time.time() - start:.1f}s]",
    )
    return star, trace, before, after


def test_criterion_5_factor_t3(cg_cache):
    # the 3-rake's whole star has 6.5M compatible sets, each the union of
    # one of the active factor's 1,387 and one of the inert factor's 4,683
    star, trace, before, after = factor_retraction(cg_cache, 3)
    assert len(star.cliques) == 1387
    assert before[0] == 1387 * 4683
    assert trace.skipped == ()
    assert (len(before) - 1, len(after) - 1) == (10, 8)
    assert euler(before) == euler(after) == 1


@pytest.mark.slow
def test_criterion_5_factor_t4(cg_cache):
    star, trace, before, after = factor_retraction(cg_cache, 4)
    assert len(star.cliques) == 51355
    assert before[0] == 51355 * 545835
    assert trace.skipped == ()
    assert (len(before) - 1, len(after) - 1) == (14, 11)
    assert euler(before) == euler(after) == 1


def test_criterion_6_oversize_lemma(cg_cache):
    start = time.time()
    verdicts = {}
    for d in (1, 2):
        verdicts[d] = verify_oversize_hugged(cg_cache(families.rake(d)), budget=10**6)
    elapsed = time.time() - start
    ok = all(v.passed for v in verdicts.values()) and elapsed < 600
    detail = ", ".join(
        f"T{d}: {v.status} ({v.checked} oversize sets)" for d, v in verdicts.items()
    )
    assert record("6", ok, f"oversize sets contain hugged members: {detail}")


def test_criterion_7_condition_fixtures():
    checks = {
        "fig-4.1 fails condition 1": not check_condition1(
            families.condition1_counterexample()
        )[0],
        "fig-4.2 fails condition 2": not check_condition2(
            families.condition2_counterexample()
        )[0],
        "rakes d=1..3 spiky": all(is_spiky(families.rake(d)) for d in (1, 2, 3)),
        "delta passes condition 1": check_condition1(families.delta())[0],
        "delta barbed": is_barbed(families.delta())[0],
        "delta fails condition 2": not check_condition2(families.delta())[0],
    }
    ok = all(checks.values())
    failing = [k for k, v in checks.items() if not v]
    assert record("7", ok, "all condition fixtures correct" if ok else f"failing: {failing}")


def test_criterion_8_delta_replacement(cg_cache):
    g = families.delta()
    cg = cg_cache(g)
    budget = 10**6
    verdict = verify_replacement(
        cg,
        budget=budget,
        q_bases=vertex_ids(g, ["u1", "u2"]),
        r_bases=vertex_ids(g, ["a2"]),
    )
    ok = verdict.passed
    assert record(
        "8",
        ok,
        f"Delta replacement property (hugged u1/u2 vs a2-based, budget {budget}): "
        f"{verdict.status} after {verdict.checked} configurations",
    )


def test_criterion_9_property_suites(cg_cache):
    graphs = small_fixture_graphs()
    failures = []

    for name, g in graphs.items():
        cg = cg_cache(g)
        parts = all_partitions(g)
        connected = not g.validation_warnings()
        full = (1 << (2 * g.n)) - 1

        for i in range(cg.n):
            for j in range(cg.n):
                if bool(cg.adj[i] >> j & 1) != bool(cg.adj[j] >> i & 1):
                    failures.append(f"{name}: symmetry")

        for p, q in itertools.combinations(parts, 2):
            if (p.max_bases <= q.link_vertices()) != (
                q.max_bases <= p.link_vertices()
            ):
                failures.append(f"{name}: adjacency equivalence")
            if connected:
                for mu in p.max_bases:
                    for mv in q.max_bases:
                        eq = g.leq(mu, mv) and g.leq(mv, mu)
                        if (
                            not eq
                            and g.distance(mu, mv) != 2
                            and not is_compatible(g, p, q)
                        ):
                            failures.append(f"{name}: distance rule")
            if (
                is_compatible(g, p, q)
                and not is_adjacent(g, p, q)
                and all(
                    g.distance(mu, mv) >= 2
                    for mu in p.max_bases
                    for mv in q.max_bases
                )
            ):
                if not any(
                    not s & ~t or not t & ~s for s in p.sides() for t in q.sides()
                ):
                    failures.append(f"{name}: side containment")

        if connected:
            for u, v in itertools.combinations(range(g.n), 2):
                eq = g.leq(u, v) and g.leq(v, u)
                if not eq and g.distance(u, v) != 2:
                    if (
                        max_compatible(cg, {u, v}).size
                        != max_compatible(cg, {u}).size
                        + max_compatible(cg, {v}).size
                    ):
                        failures.append(f"{name}: additivity")

        for p in parts:
            blocks_ok = (
                p.side_a | p.side_b | p.link == full
                and not p.side_a & p.side_b
                and p.side_a.bit_count() >= 2
                and p.side_b.bit_count() >= 2
                and p.max_bases
                and all(g.link_mask(m) == p.link for m in p.max_bases)
            )
            if not blocks_ok:
                failures.append(f"{name}: partition invariants")

        np_nodes = [i for i in range(cg.n) if not cg.principal[i]]
        for q_id in np_nodes:
            compatible = [j for j in range(cg.n) if cg.edge(q_id, j)]
            for extra in itertools.combinations(compatible[:8], 2):
                members = [q_id, *extra]
                if not cg.is_clique(members):
                    continue
                witness = is_hugged_in(cg, members, q_id)
                if witness is None:
                    continue
                p1, p2 = witness.hugger_sides()
                link = g.link_mask(witness.base_m)
                if (full & ~link & ~p1) & (full & ~link & ~p2) != cg.nodes[
                    q_id
                ].other_side(witness.hugged_side):
                    failures.append(f"{name}: hug witness complements")

    ok = not failures
    assert record(
        "9",
        ok,
        "property suites exhaustive on all fixtures <= 8 vertices"
        + ("" if ok else f"; failures: {sorted(set(failures))}"),
    )
