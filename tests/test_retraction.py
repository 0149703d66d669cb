import pytest

from raagspine import (
    build_star,
    complex_stats,
    crosscheck_survivors,
    families,
    retract,
)
from raagspine.graph import mask_iter
from raagspine.hugging import HugOracle
from raagspine.retraction import StructuralAssertionError, _submasks
from raagspine.search import CapExceededError


def ids(mask):
    return tuple(mask_iter(mask))


def final_cubes(star, trace):
    """The surviving cubes: every cube of the star minus the removed ones."""
    return frozenset(star.cubes()) - trace.removed


def predicate_set(star):
    oracle = HugOracle(star.cg)
    out = set()
    for l, u in star.cubes():
        hug = oracle.hugged_mask(u)
        if not hug & (u & ~l) and not oracle.extendable_by_hugged(u):
            out.add((l, u))
    return out


@pytest.fixture(scope="module")
def rake2_star(cg_cache):
    return build_star(cg_cache(families.rake(2)))


@pytest.fixture(scope="module")
def rake2_trace(rake2_star):
    return retract(rake2_star)


def closure(cubes):
    out = set()
    for l, u in cubes:
        du = u & ~l
        for rm in _submasks(du):
            b = u & ~rm
            for add in _submasks(du & b):
                out.add((l | add, b))
    return out


class TestBuildStar:
    def test_complete_graph_single_vertex_cube(self, cg_cache):
        star = build_star(cg_cache(families.complete(3)))
        assert list(star.cubes()) == [(0, 0)]
        assert star.stats().dimension == 0

    def test_rake1_counts(self, cg_cache):
        star = build_star(cg_cache(families.rake(1)))
        assert star.cube_count() == 25
        assert star.stats().dimension == 2

    def test_rake2_top_dimension(self, rake2_star):
        star = rake2_star
        assert star.stats().dimension == 6
        assert star.m_v == 6
        assert star.m_l == 5

    def test_face_closed(self, cg_cache):
        star = build_star(cg_cache(families.rake(1)))
        cubes = set(star.cubes())
        for l, u in cubes:
            du = u & ~l
            for rm in _submasks(du):
                b = u & ~rm
                for add in _submasks(du & b):
                    assert (l | add, b) in cubes

    def test_cap_exceeded(self, cg_cache):
        with pytest.raises(CapExceededError):
            build_star(cg_cache(families.rake(2)), cap=100)

    def test_euler_characteristic_one(self, cg_cache):
        for g in (families.rake(1), families.rake(2), families.edgeless(3)):
            star = build_star(cg_cache(g))
            assert star.stats().euler_characteristic == 1

    def test_closed_form_stats_match_the_cube_stream(self, cg_cache):
        # the star's closed form and the retraction's subtraction, each
        # against a recount of the cubes
        from conftest import small_fixture_graphs

        checked = 0
        for g in small_fixture_graphs().values():
            try:
                star = build_star(cg_cache(g))
            except CapExceededError:
                continue
            assert star.stats() == complex_stats(star.cubes())
            trace = retract(star, warn_and_proceed=True)
            assert trace.final_stats == complex_stats(final_cubes(star, trace))
            checked += 1
        assert checked == 11

    def test_supersets_by_definition(self, rake2_star, cg_cache):
        for star in (rake2_star, build_star(cg_cache(families.edgeless(3)))):
            for c in star.cliques:
                found = star.supersets(c)
                assert len(found) == len(set(found))
                assert set(found) == {b for b in star.cliques if not c & ~b}


class TestRetract:
    def test_rake1_no_events(self, cg_cache):
        star = build_star(cg_cache(families.rake(1)))
        trace = retract(star)
        assert trace.events == ()
        assert trace.final_stats.dimension == 2 == star.m_l
        assert trace.final_stats.euler_characteristic == 1

    def test_edgeless3_no_non_principal_partitions(self, cg_cache):
        star = build_star(cg_cache(families.edgeless(3)))
        trace = retract(star)
        assert trace.events == ()
        assert trace.final_stats.dimension == 3 == star.m_l

    def test_rake2_dimension_drops_to_principal_rank(self, rake2_star, rake2_trace):
        star = rake2_star
        trace = rake2_trace
        assert trace.initial_stats.dimension == 6
        assert trace.final_stats.dimension == 5 == star.m_l
        assert trace.initial_stats.euler_characteristic == 1
        assert trace.final_stats.euler_characteristic == 1
        assert trace.skipped == ()
        assert len(trace.events) > 0

    def test_rake2_face_closure_preserved(self, rake2_star, rake2_trace):
        final = final_cubes(rake2_star, rake2_trace)
        for l, u in final:
            du = u & ~l
            for rm in _submasks(du):
                b = u & ~rm
                for add in _submasks(du & b):
                    assert (l | add, b) in final

    def test_events_audited_removed_counts(self, rake2_star, rake2_trace):
        star = rake2_star
        trace = rake2_trace
        total_removed = sum(e.removed for e in trace.events)
        assert star.cube_count() - total_removed == len(final_cubes(star, trace))
        for e in trace.events:
            if e.kind == "drop-hugged":
                assert e.removed == 1 << e.hugged.bit_count()
            else:
                assert e.removed == 2

    def test_order_insensitive_within_batches(self, cg_cache):
        for g in (families.rake(1), families.rake(2)):
            star = build_star(cg_cache(g))
            fwd = retract(star)
            rev = retract(
                star,
                tie_break=lambda c: (
                    tuple(-x for x in ids(c[0])),
                    tuple(-x for x in ids(c[1])),
                ),
            )
            assert final_cubes(star, fwd) == final_cubes(star, rev)

    def test_default_order_is_the_lexicographic_id_order(self, cg_cache, rake2_trace):
        # the default tie-break ranks compatible sets by their position in
        # star.cliques, which must be the lexicographic order of member ids
        for g in (families.rake(1), families.rake(2), families.edgeless(3)):
            star = build_star(cg_cache(g))
            assert list(star.cliques) == sorted(star.cliques, key=ids)
            by_ids = retract(star, tie_break=lambda c: (ids(c[0]), ids(c[1])))
            default = rake2_trace if g == families.rake(2) else retract(star)
            assert default.events == by_ids.events
            assert final_cubes(star, default) == final_cubes(star, by_ids)

    def test_edgeless4_audit_only(self, cg_cache):
        # no non-principal partition, so no cube is swept and nothing fires
        star = build_star(cg_cache(families.edgeless(4)))
        trace = retract(star)
        assert trace.events == ()
        assert trace.skipped == ()
        assert trace.final_stats == trace.initial_stats
        assert trace.initial_stats.f_vector == (28433, 109592, 167060, 125848, 46836, 6888)
        assert crosscheck_survivors(star, trace).ok

    def test_edgeless4_memory(self, cg_cache):
        # the trace records the removed cubes, not the surviving complex, so
        # an audit-only star allocates little beyond the sweep order
        import tracemalloc

        star = build_star(cg_cache(families.edgeless(4)))
        tracemalloc.start()
        try:
            trace = retract(star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.removed == frozenset()
        assert peak < 16 * 2**20

    def test_sweep_skips_cubes_that_cannot_fire(self, cg_cache, rake2_star, monkeypatch):
        # counts work, not time: only cubes with hugged members outside the
        # lower set are ordered (each passes through the tie-break once), and
        # edgeless(3) has none, so it neither orders a cube nor walks a coface
        from raagspine.retraction import StarComplex

        lookups = []
        walk = StarComplex.supersets

        def counted(self, clique):
            lookups.append(clique)
            return walk(self, clique)

        monkeypatch.setattr(StarComplex, "supersets", counted)
        star = build_star(cg_cache(families.edgeless(3)))
        ordered = []
        assert retract(star, tie_break=lambda c: ordered.append(c) or 0).events == ()
        assert lookups == [] and ordered == []
        retract(rake2_star, tie_break=lambda c: ordered.append(c) or 0)
        assert len(ordered) == 17520 < rake2_star.cube_count() == 74825

    def test_strict_schedule_raises_on_rake2(self, rake2_star):
        # the single literal sweep stalls at c(0, {4,7,14,15,16}): the face
        # dropping the hugged member has a coface in a genuinely surviving
        # all-principal inextendible 5-set
        with pytest.raises(StructuralAssertionError):
            retract(rake2_star, strict_schedule=True)

    @pytest.mark.slow
    def test_non_spiky_requires_warn_and_proceed(self, cg_cache):
        # spider tree: u relevant and non-principal, its dominator m commutes
        # with the principal n outside st(u), so spikiness fails; the star is
        # still small enough to collapse
        from raagspine.graph import SimplicialGraph
        from raagspine import is_spiky

        g = SimplicialGraph(
            ["u", "p", "m", "n", "x", "y1", "y2"],
            [
                ("u", "p"),
                ("p", "m"),
                ("m", "n"),
                ("n", "x"),
                ("p", "y1"),
                ("y1", "y2"),
            ],
        )
        assert not is_spiky(g)
        star = build_star(cg_cache(g), cap=600000)
        with pytest.raises(StructuralAssertionError):
            retract(star)
        trace = retract(star, warn_and_proceed=True)
        assert trace.final_stats.euler_characteristic == 1
        assert trace.initial_stats.euler_characteristic == 1
        assert trace.final_stats.dimension <= trace.initial_stats.dimension

    def test_trace_serializes(self, rake2_trace):
        import json

        payload = rake2_trace.to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_rake2_trace_pinned(self, rake2_trace):
        # every event, skipped cube and f-vector of the 2-rake's trace
        import hashlib
        import json

        text = json.dumps(rake2_trace.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "de397d53aaaaba63ae090f57228d2d5ccb214ed62ec9d3780b7f086de54d5a7a"
        )


class TestCrosscheck:
    def test_rake1_matches_characterization(self, cg_cache):
        star = build_star(cg_cache(families.rake(1)))
        trace = retract(star)
        assert crosscheck_survivors(star, trace).ok

    def test_edgeless3_matches(self, cg_cache):
        star = build_star(cg_cache(families.edgeless(3)))
        trace = retract(star)
        assert crosscheck_survivors(star, trace).ok

    def test_rake2_mismatch_is_exactly_the_closure_defect(self, rake2_star, rake2_trace):
        # the characterized set is not face-closed on the 2-rake, so the
        # retraction keeps precisely its closure; the crosscheck reports the
        # kept-but-redundant faces and nothing surviving was ever removed
        star = rake2_star
        trace = rake2_trace
        check = crosscheck_survivors(star, trace)
        assert not check.ok
        assert check.surviving_but_removed == ()
        pred = predicate_set(star)
        assert final_cubes(star, trace) == frozenset(closure(pred))
        assert pred < final_cubes(star, trace)

    def test_rake2_characterization_not_face_closed(self, rake2_star):
        pred = predicate_set(rake2_star)
        assert frozenset(closure(pred)) != frozenset(pred)

    def test_rake2_blocking_witness(self, cg_cache):
        # the configuration behind the closure defect: an inextendible
        # all-principal 5-set whose cube survives, while the characterization
        # discards the face dropping the partition with side {a1, u, u^-1}
        from raagspine import cube_survives, is_inextendible
        from conftest import doubled_names, node_id

        g = families.rake(2)
        cg = cg_cache(g)
        blocker = node_id(cg, ["a1", "u", "u^-1"])
        rest = [
            node_id(cg, ["a1", "u"]),
            node_id(cg, ["v", "b1"]),
            node_id(cg, ["v"] + doubled_names(["b1"])),
            node_id(cg, ["v"] + doubled_names(["b1"]) + ["b2"]),
        ]
        clique = frozenset([blocker, *rest])
        assert cg.is_clique(clique)
        assert all(cg.principal[i] for i in clique)
        assert is_inextendible(cg, clique)
        assert cube_survives(cg, [], clique)
        # the sub-face without the blocker fails the characterization: the
        # u-partition {u, a1, a1^-1, b1, b1^-1} can be added and is hugged
        assert not cube_survives(cg, [], frozenset(rest))
        q = node_id(cg, ["u"] + doubled_names(["a1", "b1"]))
        assert not cg.edge(q, blocker)
        from raagspine import is_hugged_in

        assert is_hugged_in(cg, [q, *rest], q) is not None

    def test_rake2_f_vectors_pinned(self, rake2_star, rake2_trace):
        assert rake2_star.stats().f_vector == (3825, 15108, 24260, 20192, 9136, 2112, 192)
        assert rake2_trace.final_stats.f_vector == (3225, 11444, 15940, 10888, 3648, 480)

    def test_strict_principal_mode_agrees_on_rake2(self, rake2_star, rake2_trace):
        # every dominator of the rake's relevant non-principal vertex is
        # principal, so the relaxed and strict hug modes must coincide
        strict = retract(rake2_star, strict_principal=True)
        assert final_cubes(rake2_star, rake2_trace) == final_cubes(rake2_star, strict)


def greedy_collapse(cubes):
    """Elementary collapses until no free face remains; returns leftovers.

    Reaching a single vertex proves the input complex contractible.
    """
    from collections import deque

    present = set(cubes)
    uppers = {u for _, u in present}
    upper_exts = {}
    for u in uppers:
        exts = []
        for u2 in uppers:
            if u2 & u == u and (u2 & ~u).bit_count() == 1:
                exts.append(u2 & ~u)
        upper_exts[u] = tuple(exts)

    def cofaces(l, u):
        out = []
        for x in mask_iter(l):
            k = (l & ~(1 << x), u)
            if k in present:
                out.append(k)
        for bit in upper_exts.get(u, ()):
            k = (l, u | bit)
            if k in present:
                out.append(k)
        return out

    queue = deque(sorted(present))
    while queue:
        f = queue.popleft()
        if f not in present:
            continue
        cf = cofaces(*f)
        if len(cf) != 1:
            continue
        c = cf[0]
        present.discard(f)
        present.discard(c)
        for k in (f, c):
            l, u = k
            for x in mask_iter(u & ~l):
                for cand in ((l | 1 << x, u), (l, u & ~(1 << x))):
                    if cand in present:
                        queue.append(cand)
    return present


class TestContractibility:
    def test_star_collapses_to_a_point(self, cg_cache):
        for g in (families.rake(1), families.edgeless(3)):
            star = build_star(cg_cache(g))
            assert len(greedy_collapse(star.cubes())) == 1

    def test_retracted_complexes_collapse_to_a_point(self, cg_cache):
        for d in (1, 2):
            star = build_star(cg_cache(families.rake(d)))
            trace = retract(star)
            leftovers = greedy_collapse(final_cubes(star, trace))
            assert len(leftovers) == 1
            (l, u) = next(iter(leftovers))
            assert l == u  # a single vertex cube


@pytest.mark.slow
def test_all_small_spiky_barbed_graphs_reach_principal_rank():
    # every connected spiky and barbed graph on <= 5 vertices retracts to a
    # complex of dimension exactly M(L) with Euler characteristic 1, and the
    # survivor characterization matches (its closure defect needs 6 vertices)
    import itertools

    from raagspine import (
        compatibility_graph,
        condition_report,
        max_compatible,
    )
    from raagspine.graph import SimplicialGraph

    checked = 0
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        names = [chr(97 + i) for i in range(n)]
        for bits in range(1 << len(pairs)):
            edges = [
                (names[a], names[b])
                for k, (a, b) in enumerate(pairs)
                if bits >> k & 1
            ]
            g = SimplicialGraph(names, edges)
            if g.validation_warnings():
                continue
            report = condition_report(g)
            if not (report.spiky and report.barbed):
                continue
            cg = compatibility_graph(g)
            if cg.n == 0:
                continue
            m_l = max_compatible(cg, g.classify_vertices().principal).size
            star = build_star(cg)
            trace = retract(star)
            assert trace.final_stats.dimension == m_l, edges
            assert trace.final_stats.euler_characteristic == 1, edges
            assert crosscheck_survivors(star, trace).ok, edges
            checked += 1
    assert checked == 530


class TestComplexStats:
    def test_empty(self):
        stats = complex_stats([])
        assert stats.cube_count == 0
        assert stats.dimension == -1

    def test_single_square(self):
        stats = complex_stats([(0, 3), (0, 1), (0, 2), (1, 3), (2, 3), (0, 0), (1, 1), (2, 2), (3, 3)])
        assert stats.f_vector == (4, 4, 1)
        assert stats.euler_characteristic == 1
        assert stats.dimension == 2
