import itertools
import json
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from raagspine import (
    build_star,
    complex_stats,
    crosscheck_survivors,
    families,
    retract,
    retraction,
)
from raagspine.graph import SimplicialGraph, mask_iter
from raagspine.hugging import HugOracle, active_factor, hug_configs
from raagspine.retraction import StructuralAssertionError, _submasks
from raagspine.search import CapExceededError, _co_components, clique_masks


def ids(mask):
    return tuple(mask_iter(mask))


def final_cubes(star, trace):
    """The surviving cubes: every cube of the star minus the removed ones."""
    return frozenset(star.cubes()) - trace.removed


def reference_cofaces(star):
    """The full coface walk, as reference for the retraction's local audit.

    Returns present(removed, lower, upper): every cube (a, b) with
    a ⊆ lower and b a compatible set containing upper that is not in
    removed.  The supersets come from star.cliques by definition.
    """
    from functools import cache

    supersets = cache(lambda upper: tuple(b for b in star.cliques if not upper & ~b))

    def present(removed, lower, upper):
        return {
            (a, b) for b in supersets(upper) for a in _submasks(lower) if (a, b) not in removed
        }

    return present


def assert_skipped_blocked(star, trace):
    """Each skipped cube's designated face is present and, by the full
    coface walk, has a present coface outside the cubes its collapse would
    remove."""
    present_cofaces = reference_cofaces(star)
    hug = HugOracle(star.cg)
    for lower, upper in trace.skipped:
        face_upper = upper & ~(hug.hugged_mask(upper) & ~lower)
        cofaces = present_cofaces(trace.removed, lower, face_upper)
        assert (lower, face_upper) in cofaces
        assert any(a != lower or b & ~upper for a, b in cofaces), (lower, upper)


def reference_crosscheck(star, trace):
    """The crosscheck visiting every cube of the star, as (ok, kept, lost)."""
    oracle = HugOracle(star.cg)
    kept, lost = [], []
    for upper in star.cliques:
        hug = oracle.hugged_mask(upper)
        extendable = oracle.extendable_by_hugged(upper)
        for lower in _submasks(upper):
            survives = not hug & ~lower and not extendable
            present = (lower, upper) not in trace.removed
            if present and not survives:
                kept.append((lower, upper))
            elif survives and not present:
                lost.append((lower, upper))
    return (not kept and not lost, tuple(kept[:20]), tuple(lost[:20]))


def crosscheck_answer(star, trace):
    check = crosscheck_survivors(star, trace)
    return (check.ok, check.kept_but_redundant, check.surviving_but_removed)


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


def census_graph(index):
    """Graph ``index`` of the benchmark's census pool, as pinned in
    perfbench/census_answers.json."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "census_answers.json"
    entry = json.loads(path.read_text())[index]
    names = [f"x{v}" for v in range(entry["n"])]
    return SimplicialGraph(names, [(f"x{a}", f"x{b}") for a, b in entry["edges"]])


@pytest.fixture(scope="module")
def census64(cg_cache):
    """(star, trace) of census-pool graph 64: neither spiky nor barbed, and
    its retraction leaves cubes blocked at the fixpoint (no fixture does)."""
    star = build_star(cg_cache(census_graph(64)))
    return star, retract(star, warn_and_proceed=True)


@pytest.fixture(scope="module")
def small_traces(cg_cache, rake2_star, rake2_trace):
    """(star, trace) of every small fixture whose star builds under the
    default cap, each retracted once."""
    from conftest import small_fixture_graphs

    out = {"rake2": (rake2_star, rake2_trace)}
    for name, g in small_fixture_graphs().items():
        if name in out:
            continue
        try:
            star = build_star(cg_cache(g))
        except CapExceededError:
            continue
        out[name] = (star, retract(star, warn_and_proceed=True))
    return out


@pytest.fixture(scope="module")
def fixture_traces(cg_cache, small_traces):
    """The small traces except compatibility-example (whose trace is pinned
    in test_closed_form_stats_match_the_cube_stream), plus three census-pool
    graphs.  Graph 173 (not spiky, 151 compatible sets, 96 events) has audits
    decided by a lower-set drop, unlike the 2-rake.  Graphs 6 (spiky, 507
    sets, 620 events) and 186 (not spiky, 19,119 sets, 13,840 events) have
    an inert factor, and their lifted schedules differ from a sweep of the
    whole star."""
    out = {k: v for k, v in small_traces.items() if k != "compatibility-example"}
    for index in (173, 6, 186):
        star = build_star(cg_cache(census_graph(index)))
        out[f"census{index}"] = (star, retract(star, warn_and_proceed=True))
    return out


def closure(cubes):
    out = set()
    for l, u in cubes:
        du = u & ~l
        for rm in _submasks(du):
            b = u & ~rm
            for add in _submasks(du & b):
                out.add((l | add, b))
    return out


@pytest.fixture
def probes(monkeypatch):
    """One entry per codimension-1 coface that the retraction's audits probe."""
    from raagspine import retraction

    seen = []
    members = retraction.mask_iter

    def counted(mask):
        for x in members(mask):
            seen.append(x)
            yield x

    monkeypatch.setattr(retraction, "mask_iter", counted)
    return seen


# Census-pool graphs whose star has both an active and an inert factor and
# at most 30,000 compatible sets, as (index, final f-vector, removed cubes,
# skipped cubes, crosscheck verdict).  Recorded from a sweep of the whole
# star, except graphs 186 and 265 (both not spiky), which are pinned at the
# lifted schedule's values.  The whole star's sweep gave 186: (19119, 90156,
# 181522, 202580, 135488, 54336, 12096, 1152), 27936 removed, and 265:
# (19281, 90542, 181818, 202652, 135488, 54336, 12096, 1152), 29520 removed;
# dimension 7 and Euler characteristic 1 either way.
TWO_FACTOR_CENSUS = [
    (2, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (6, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (10, (19119, 90164, 181554, 202620, 135504, 54336, 12096, 1152), 27840, 0, False),
    (11, (453, 1142, 1022, 380, 48), 960, 0, False),
    (21, (3465, 13776, 22692, 19884, 9808, 2592, 288), 3120, 0, False),
    (27, (129, 272, 184, 40), 400, 0, False),
    (29, (3465, 13776, 22692, 19884, 9808, 2592, 288), 3120, 0, False),
    (36, (3225, 11444, 15940, 10888, 3648, 480), 29200, 0, False),
    (46, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (58, (19281, 90590, 181946, 202764, 135520, 54336, 12096, 1152), 29200, 0, False),
    (63, (1359, 4332, 5350, 3184, 904, 96), 4800, 0, False),
    (70, (14025, 66596, 134848, 151144, 101388, 40728, 9072, 864), 17520, 0, False),
    (71, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (73, (3465, 13776, 22692, 19884, 9808, 2592, 288), 3120, 0, False),
    (86, (705, 2258, 2866, 1812, 572, 72), 2200, 0, False),
    (93, (1425, 4802, 6294, 3996, 1224, 144), 2920, 0, False),
    (94, (1359, 4332, 5350, 3184, 904, 96), 4800, 0, False),
    (96, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (101, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (109, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (118, (1425, 4802, 6294, 3996, 1224, 144), 2920, 0, False),
    (124, (3375, 13560, 22498, 19800, 9792, 2592, 288), 2920, 0, False),
    (143, (1521, 4746, 5722, 3320, 920, 96), 6200, 0, False),
    (150, (3225, 11444, 15940, 10888, 3648, 480), 29200, 0, False),
    (155, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (159, (4275, 17256, 28486, 24576, 11664, 2880, 288), 14600, 0, False),
    (167, (10395, 48258, 95628, 105036, 69192, 27392, 6048, 576), 15600, 0, False),
    (174, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (175, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (186, (19119, 90188, 181618, 202676, 135520, 54336, 12096, 1152), 27680, 0, False),
    (205, (1359, 4332, 5350, 3184, 904, 96), 4800, 0, False),
    (223, (23691, 95684, 157222, 134168, 62500, 15000, 1440), 110960, 0, False),
    (229, (705, 2258, 2866, 1812, 572, 72), 2200, 0, False),
    (235, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (241, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (245, (1359, 4332, 5350, 3184, 904, 96), 4800, 0, False),
    (249, (4077, 15714, 24714, 20252, 9080, 2096, 192), 24000, 0, False),
    (251, (11325, 44858, 72098, 59996, 27144, 6288, 576), 70080, 0, False),
    (265, (19281, 90602, 181978, 202792, 135528, 54336, 12096, 1152), 29120, 0, False),
    (267, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (289, (507, 1244, 1078, 388, 48), 1240, 0, False),
    (295, (705, 2258, 2866, 1812, 572, 72), 2200, 0, False),
]


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

    def test_join_cap_is_the_product_of_the_parts(self, cg_cache):
        # rake(2) is the join of two parts with 51 and 75 cliques, the empty
        # one included, so it has 51 * 75 = 3,825 compatible sets
        cg = cg_cache(families.rake(2))
        parts = _co_components(cg.adj, (1 << cg.n) - 1)
        assert [sum(1 for _ in clique_masks(cg.adj, p)) for p in parts] == [51, 75]
        assert len(build_star(cg, cap=3825).cliques) == 3825
        with pytest.raises(CapExceededError) as err:
            build_star(cg, cap=3824)
        assert str(err.value) == "enumeration exceeded cap of 3824 sets"

    def test_join_over_the_cap_enumerates_only_its_parts(self, cg_cache, monkeypatch):
        # delta's parts have 26,475 and 32,835 cliques; the whole is never
        # enumerated, which would take 200,001 yields to refuse
        yields = 0

        def counting(*args, **kwargs):
            nonlocal yields
            for mask in clique_masks(*args, **kwargs):
                yields += 1
                yield mask

        monkeypatch.setattr(retraction, "clique_masks", counting)
        with pytest.raises(CapExceededError) as err:
            build_star(cg_cache(families.delta()))
        assert str(err.value) == "enumeration exceeded cap of 200000 sets"
        assert yields < 60000

    def test_euler_characteristic_one(self, cg_cache):
        for g in (families.rake(1), families.rake(2), families.edgeless(3)):
            star = build_star(cg_cache(g))
            assert star.stats().euler_characteristic == 1

    def test_closed_form_stats_match_the_cube_stream(self, small_traces):
        # the star's closed form and the retraction's subtraction, each
        # against a recount of the cubes
        checked = 0
        for name, (star, trace) in small_traces.items():
            assert star.stats() == complex_stats(star.cubes())
            assert trace.final_stats == complex_stats(final_cubes(star, trace))
            checked += 1
            if name == "compatibility-example":
                # the largest retraction in the suite, pinned here
                kinds = Counter(e.kind for e in trace.events)
                assert kinds == {"drop-hugged": 11264, "pair-down": 72048}
                assert trace.skipped == ()
                assert len(trace.removed) == 166624
                assert trace.initial_stats.f_vector == (
                    18377, 81464, 149072, 144112, 77616, 22080, 2592
                )
                assert trace.final_stats.f_vector == (
                    18377, 70912, 109552, 86040, 35840, 7392, 576
                )
                assert trace.initial_stats.euler_characteristic == 1
                assert trace.final_stats.euler_characteristic == 1
                assert not crosscheck_survivors(star, trace).ok
        assert checked == 11


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

    def test_face_closure_preserved(self, fixture_traces):
        # the local audit rests on this: no removed cube is a face of a
        # present one, i.e. every coface of a removed cube is removed
        assert len(fixture_traces) == 13
        for name, (star, trace) in fixture_traces.items():
            present_cofaces = reference_cofaces(star)
            for cube in trace.removed:
                assert not present_cofaces(trace.removed, *cube), (name, cube)

    def test_events_remove_exactly_the_present_cofaces(self, fixture_traces):
        # replays each trace against the full coface walk: each event's face
        # has as present cofaces exactly the cubes the event removes, and each
        # skipped cube's designated face has a present coface outside it
        oracle_events = 0
        for name, (star, trace) in fixture_traces.items():
            present_cofaces = reference_cofaces(star)
            removed = set()
            for e in trace.events:
                if e.kind == "drop-hugged":
                    gone = {(e.face[0], e.face[1] | sub) for sub in _submasks(e.hugged)}
                else:
                    gone = {e.target, e.face}
                assert present_cofaces(removed, *e.face) == gone, (name, e)
                removed |= gone
                oracle_events += 1
            assert removed == trace.removed
            assert_skipped_blocked(star, trace)
        assert oracle_events == 14600 + 96 + 620 + 13840

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

    def test_sweep_skips_cubes_that_cannot_fire(self, cg_cache, rake2_star, probes):
        # counts work, not time: only cubes of the active factor with hugged
        # members outside the lower set are ordered, and then each lifted
        # event (each passes through the tie-break once); edgeless(3) has
        # none, so it neither orders a cube nor probes a coface.  On rake(2)
        # that is 48 factor cubes and 40 x 365 lifted events
        star = build_star(cg_cache(families.edgeless(3)))
        ordered = []
        assert retract(star, tie_break=lambda c: ordered.append(c) or 0).events == ()
        assert probes == [] and ordered == []
        retract(rake2_star, tie_break=lambda c: ordered.append(c) or 0)
        assert len(ordered) == 48 + 14600 < rake2_star.cube_count() == 74825

    def test_literal_sweep_cannot_collapse_from_the_dropping_face(self, rake2_star, rake2_trace):
        # README caveat 1: c(0, {4,7,14,15,16}) has hugged member 7 and is
        # removed, but its drop-hugged face c(0, {4,14,15,16}) stays, and so
        # do two of that face's cofaces, all-principal and inextendible, so
        # genuinely surviving.  Cubes only leave the complex, so those cofaces
        # are present at every moment: no literal single sweep can collapse
        # the cube from that face
        cg = rake2_star.cg
        oracle = HugOracle(cg)
        cube, face = (0, 114832), (0, 114704)
        assert ids(cube[1]) == (4, 7, 14, 15, 16) and ids(face[1]) == (4, 14, 15, 16)
        assert oracle.hugged_mask(cube[1]) == 1 << 7
        assert cube in rake2_trace.removed
        assert face not in rake2_trace.removed
        cofaces = [(0, face[1] | 1 << y) for y in (0, 8)]
        for coface in cofaces:
            assert coface[1] in rake2_star.cliques
            assert coface not in rake2_trace.removed
            assert not coface[1] & ~cg.principal_mask
            assert cg.extensions(coface[1]) == 0
            assert oracle.survives(*coface)

    def test_audits_probe_codimension_one_cofaces(self, rake2_star, probes):
        # counts work, not time: an audit probes the codimension-1 cofaces of
        # its face until one is present, and a blocked cube is audited afresh
        # on each sweep.  The factor run probes 88 cofaces and the audits of
        # the lifted events 53,200
        trace = retract(rake2_star)
        assert len(trace.events) == 14600
        assert len(probes) == 88 + 53200

    def test_hug_lookups_go_through_the_module_attribute(self, rake2_star, monkeypatch):
        # the traced benchmark run wraps ``hugging.is_hugged_in`` and reads the
        # span retract -> is_hugged_in, so the oracle must look the function
        # up on the module at each call
        from raagspine import hugging

        calls = []
        lookup = hugging.is_hugged_in

        def counted(*args, **kwargs):
            calls.append(1)
            return lookup(*args, **kwargs)

        monkeypatch.setattr(hugging, "is_hugged_in", counted)
        retract(rake2_star)
        assert calls

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

    @pytest.mark.slow
    def test_skipped_cubes_are_blocked(self, census64):
        # each cube blocked at the fixpoint has a designated face with a
        # present coface outside the cubes its collapse would remove
        star, trace = census64
        assert (len(trace.events), len(trace.skipped)) == (94014, 396)
        assert_skipped_blocked(star, trace)

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


def symmetries(g):
    """Letter permutations of the graph's symmetries, by name: each
    generator inversion, and each automorphism of the graph (the identity
    included), found by brute force over vertex permutations."""
    letters = range(2 * g.n)
    out = {f"invert {g.names[v]}": [s ^ 1 if s >> 1 == v else s for s in letters]
           for v in range(g.n)}
    for perm in itertools.permutations(range(g.n)):
        if all(perm[b] in g.adj[perm[a]] for a, b in g.edges):
            out[f"automorphism {perm}"] = [2 * perm[s >> 1] | s & 1 for s in letters]
    return out


def cube_action(cg, letters):
    """The map on cubes induced by a letter permutation: each node's sides
    are mapped letter by letter, made canonical and looked up in node_of."""

    def image(mask, of):
        return sum(1 << of[i] for i in mask_iter(mask))

    nodes = []
    for p in cg.nodes:
        a, b = image(p.side_a, letters), image(p.side_b, letters)
        nodes.append(cg.node_of[(a, b) if a & -a < b & -b else (b, a)])
    members = cache(lambda mask: image(mask, nodes))
    return lambda cube: (members(cube[0]), members(cube[1]))


def moving_symmetries(star, trace):
    """The names of the symmetries that move the removed or skipped cubes."""
    moved = []
    for name, letters in symmetries(star.cg.graph).items():
        act = cube_action(star.cg, letters)
        for cubes in (trace.removed, frozenset(trace.skipped)):
            if {act(c) for c in cubes} != cubes:
                moved.append(name)
                break
    return moved


class TestEquivariance:
    """The paper's retraction is equivariant under the symmetries of the
    graph; the audited schedule keeps that where these tests say."""

    @pytest.mark.parametrize(
        "name, maps, removed",
        [("rake2", 8, 29200), ("compatibility-example", 7, 166624), ("census173", 7, 192)],
    )
    def test_removed_and_skipped_cubes_map_onto_themselves(
        self, name, maps, removed, small_traces, fixture_traces
    ):
        star, trace = {**small_traces, **fixture_traces}[name]
        assert (len(symmetries(star.cg.graph)), len(trace.removed)) == (maps, removed)
        assert moving_symmetries(star, trace) == []

    @pytest.mark.slow
    def test_census64_schedule_is_not_equivariant(self, census64):
        # the first graph in the suite whose audited schedule breaks the
        # symmetry: inverting x0, x2, x4 or x6, or swapping x0 and x4, moves
        # the removed cubes, while inverting x1, x3 or x5 does not
        star, trace = census64
        assert len(trace.skipped) == 396
        assert moving_symmetries(star, trace) == [
            "invert x0",
            "invert x2",
            "invert x4",
            "invert x6",
            "automorphism (4, 1, 2, 3, 0, 5, 6)",
        ]


class TestFactors:
    """The star is the product of its active and inert factors, and the
    retraction lifts the active factor's collapses over the inert one."""

    def test_rake2_factors(self, rake2_star):
        # the inert nodes are principal, take part in no hug and are
        # compatible with every active node; the factors' sets multiply
        cg = rake2_star.cg
        active = active_factor(cg)
        inert = (1 << cg.n) - 1 & ~active
        assert (active.bit_count(), inert.bit_count()) == (14, 14)
        assert not inert & ~cg.principal_mask
        for q in mask_iter(active & ~cg.principal_mask):
            assert all(not w.hugger_mask & inert for w in hug_configs(cg, q))
        assert all(cg.adj[i] & active == active for i in mask_iter(inert))
        factor = list(clique_masks(cg.adj, active))
        rest = list(clique_masks(cg.adj, inert))
        assert (len(factor), len(rest), sum(1 << c.bit_count() for c in rest)) == (51, 75, 365)
        assert sorted(a | b for a in factor for b in rest) == sorted(rake2_star.cliques)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "index, f_vector, removed, skipped, ok",
        TWO_FACTOR_CENSUS,
        ids=[f"census{row[0]}" for row in TWO_FACTOR_CENSUS],
    )
    def test_census_outcomes_hold(self, index, f_vector, removed, skipped, ok, cg_cache):
        cg = cg_cache(census_graph(index))
        star = build_star(cg, cap=30000)
        active = active_factor(cg)
        assert active and active != (1 << cg.n) - 1
        trace = retract(star, warn_and_proceed=True)
        assert trace.final_stats.f_vector == f_vector
        assert (len(trace.removed), len(trace.skipped)) == (removed, skipped)
        assert crosscheck_survivors(star, trace).ok is ok


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

    def test_matches_the_per_cube_reference(self, small_traces):
        assert len(small_traces) == 11
        for star, trace in small_traces.values():
            assert crosscheck_answer(star, trace) == reference_crosscheck(star, trace)

    def test_removed_cube_of_an_unhugged_upper_is_reported(self, cg_cache):
        # edgeless(3) hugs nothing, so only its removed cube keeps the upper
        # set from being passed over
        from dataclasses import replace

        star = build_star(cg_cache(families.edgeless(3)))
        upper = max(star.cliques, key=int.bit_count)
        cube = (upper & -upper, upper)
        trace = replace(retract(star), removed=frozenset([cube]))
        assert HugOracle(star.cg).hugged_mask(upper) == 0
        answer = crosscheck_answer(star, trace)
        assert answer == reference_crosscheck(star, trace) == (False, (), (cube,))

    def test_audit_only_star_visits_no_cube(self, cg_cache, monkeypatch):
        # counts work, not time: edgeless(4) hugs nothing and removes
        # nothing, so neither the retraction nor the crosscheck enumerates
        # the cubes of any compatible set
        from raagspine import retraction

        visited = []
        submasks = retraction._submasks

        def counted(mask):
            for sub in submasks(mask):
                visited.append(sub)
                yield sub

        monkeypatch.setattr(retraction, "_submasks", counted)
        star = build_star(cg_cache(families.edgeless(4)))
        assert crosscheck_survivors(star, retract(star)).ok
        assert visited == []

    def test_rake2_characterization_not_face_closed(self, rake2_star):
        pred = predicate_set(rake2_star)
        assert frozenset(closure(pred)) != frozenset(pred)

    def test_rake2_blocking_witness(self, cg_cache):
        # the configuration behind the closure defect: an inextendible
        # all-principal 5-set whose cube survives, while the characterization
        # discards the face dropping the partition with side {a1, u, u^-1}
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
        assert cg.extensions(cg.members_mask(clique)) == 0
        oracle = HugOracle(cg)
        assert oracle.survives(0, cg.members_mask(clique))
        # the sub-face without the blocker fails the characterization: the
        # u-partition {u, a1, a1^-1, b1, b1^-1} can be added and is hugged
        assert not oracle.survives(0, cg.members_mask(rest))
        q = node_id(cg, ["u"] + doubled_names(["a1", "b1"]))
        assert not cg.edge(q, blocker)
        from raagspine import is_hugged_in

        assert is_hugged_in(cg, [q, *rest], q) is not None

    def test_rake2_f_vectors_pinned(self, rake2_star, rake2_trace):
        assert rake2_star.stats().f_vector == (3825, 15108, 24260, 20192, 9136, 2112, 192)
        assert rake2_trace.final_stats.f_vector == (3225, 11444, 15940, 10888, 3648, 480)


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
