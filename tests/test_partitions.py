import itertools

import pytest

from raagspine import (
    all_partitions,
    enumerate_partitions,
    families,
    make_partition,
    whitehead_images,
)
from raagspine.graph import mask_iter, sv_inverse
from raagspine.partitions import (
    CapExceededError,
    Partition,
    PartitionError,
    _partition_from_masks,
    _side_masks,
    render_word,
)

from conftest import (
    doubled_names,
    find_partition,
    labelled_graphs,
    signed,
    signed_set,
    small_fixture_graphs,
)


def reference_partitions(g, bases):
    """The partitions based at the given vertices, each built and validated by
    ``_partition_from_masks``, in key order."""
    masks = {m for v in bases for m in _side_masks(v, g.partition_units(v))}
    built = (_partition_from_masks(g, m1, m2) for m1, m2 in masks)
    return sorted(built, key=Partition.key)


def fields(parts):
    return [(p.side_a, p.side_b, p.link, p.split, p.max_bases) for p in parts]


def side_names(g, p, which=0):
    return {g.signed_name(s) for s in mask_iter(p.sides()[which])}


class TestEnumeration:
    def test_rake2_leaf_base(self):
        t2 = families.rake(2)
        parts = enumerate_partitions(t2, t2.vertex_id("u"))
        assert len(parts) == 2
        sides = {frozenset(side_names(t2, p, 0)) for p in parts}
        assert frozenset({"u"} | set(doubled_names(["a1", "b1"]))) in sides
        assert frozenset({"u"} | set(doubled_names(["a2", "b2"]))) in sides

    def test_rake_tooth_leaf_not_relevant(self):
        t3 = families.rake(3)
        assert enumerate_partitions(t3, t3.vertex_id("b1")) == []

    def test_partition_example_graph(self):
        g = families.partition_example_graph()
        parts = enumerate_partitions(g, g.vertex_id("v"))
        target = {"v", "x"} | set(doubled_names(["c2a", "c2b", "c2c"]))
        p = find_partition(g, parts, target)
        assert p is not None
        assert sorted(g.names[v] for v in p.max_bases) == ["v"]

    def test_count_matches_independent_assignment_enumerator(self):
        # independent oracle: put each unit on one of two sides, keep both thick
        for g in small_fixture_graphs().values():
            for v in range(g.n):
                units = g.partition_units(v)
                expected = 0
                for choice in itertools.product((0, 1), repeat=len(units)):
                    if len(units) and any(c == 0 for c in choice) and any(
                        c == 1 for c in choice
                    ):
                        expected += 1
                assert len(enumerate_partitions(g, v)) == expected

    def test_all_partitions_complete_graph_empty(self):
        assert all_partitions(families.complete(4)) == []

    def test_all_partitions_rake2(self):
        t2 = families.rake(2)
        parts = all_partitions(t2)
        assert len(parts) == 28
        for base in ("u", "v", "a1", "a2"):
            for p in enumerate_partitions(t2, t2.vertex_id(base)):
                assert p in parts

    def test_all_partitions_compatibility_example(self):
        g = families.compatibility_example_graph()
        parts = all_partitions(g)
        assert find_partition(g, parts, ["a", "c", "c^-1", "d", "d^-1"]) is not None
        assert find_partition(g, parts, ["b", "e"]) is not None
        assert find_partition(g, parts, ["d", "a", "a^-1", "b", "b^-1", "e^-1"]) is not None

    def test_all_partitions_sorted_and_unique(self):
        # edgeless(5): each partition arises from several bases
        for g in [*small_fixture_graphs().values(), families.edgeless(5)]:
            parts = all_partitions(g)
            keys = [p.key() for p in parts]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            per_base = {p for v in range(g.n) for p in enumerate_partitions(g, v)}
            assert parts == sorted(per_base, key=lambda p: p.key())

    def test_bit_construction_matches_validated_reference(self):
        # every labelled graph on at most 5 vertices and every named fixture
        named = [
            *small_fixture_graphs().values(),
            families.delta(),
            families.partition_example_graph(),
            families.condition2_counterexample(),
        ]
        graphs = 0
        for g in [*labelled_graphs(5), *named]:
            graphs += 1
            assert fields(all_partitions(g)) == fields(reference_partitions(g, range(g.n)))
            for v in range(g.n):
                assert fields(enumerate_partitions(g, v)) == fields(reference_partitions(g, [v]))
        assert graphs == 1099 + len(named)

    def test_edgeless_counts(self):
        assert len(all_partitions(families.edgeless(3))) == 22
        assert len(all_partitions(families.edgeless(4))) == 112

    def test_side_assignments_bounded_before_enumeration(self):
        # edgeless(16) has 2^30 - 2 side assignments per base; both entry
        # points must refuse before trying one
        g = families.edgeless(16)
        with pytest.raises(CapExceededError):
            all_partitions(g)
        with pytest.raises(CapExceededError):
            enumerate_partitions(g, 0)

    def test_cap_error_is_one_class(self):
        import raagspine
        import raagspine.search

        assert raagspine.CapExceededError is CapExceededError
        assert raagspine.search.CapExceededError is CapExceededError


class TestInvariants:
    def test_round_trip_validation(self):
        for g in small_fixture_graphs().values():
            for p in all_partitions(g):
                rebuilt = make_partition(
                    g, list(mask_iter(p.side_a)), list(mask_iter(p.side_b))
                )
                assert rebuilt == p
                # re-enumerating from any legal base reproduces the object
                for m in p.max_bases:
                    assert p in enumerate_partitions(g, m)

    def test_blocks_partition_signed_universe(self):
        for g in small_fixture_graphs().values():
            full = (1 << (2 * g.n)) - 1
            for p in all_partitions(g):
                assert p.side_a | p.side_b | p.link == full
                assert not p.side_a & p.side_b
                assert not p.side_a & p.link
                assert not p.side_b & p.link
                assert p.side_a.bit_count() >= 2 and p.side_b.bit_count() >= 2

    def test_max_bases_share_link(self):
        for g in small_fixture_graphs().values():
            for p in all_partitions(g):
                assert p.max_bases
                links = {g.link_mask(m) for m in p.max_bases}
                assert links == {p.link}

    def test_split_contains_max(self):
        for g in small_fixture_graphs().values():
            for p in all_partitions(g):
                assert p.max_bases <= p.split

    def test_fig_3_2_split_and_max(self):
        g = families.compatibility_example_graph()
        p2 = find_partition(g, all_partitions(g), ["b", "e"])
        assert sorted(g.names[v] for v in p2.split) == ["b", "e"]
        assert sorted(g.names[v] for v in p2.max_bases) == ["b"]

    def test_thin_constructor_flagged(self):
        g = families.rake(1)
        with pytest.raises(PartitionError):
            make_partition(
                g,
                [signed(g, "a1")],
                [signed(g, "a1^-1"), signed(g, "u"), signed(g, "u^-1")],
            )

    def test_cohesion_violation_rejected(self):
        t2 = families.rake(2)
        # a1 and b1 share a component of the graph minus st(u): cannot split them
        side1 = signed_set(t2, ["u", "a1", "a1^-1"])
        side2 = signed_set(
            t2, ["u^-1", "b1", "b1^-1"] + doubled_names(["a2", "b2"])
        )
        with pytest.raises(PartitionError):
            make_partition(t2, side1, side2)


class TestWhiteheadImages:
    def test_rake2_split_image(self):
        t2 = families.rake(2)
        parts = all_partitions(t2)
        p = find_partition(t2, parts, ["a1", "u"])
        images = whitehead_images(t2, p, signed(t2, "a1"))
        assert images[t2.vertex_id("u")] == (signed(t2, "u"), signed(t2, "a1^-1"))
        assert images[t2.vertex_id("b1")] == (signed(t2, "b1"),)

    def test_rake2_conjugated_image(self):
        t2 = families.rake(2)
        parts = all_partitions(t2)
        p = find_partition(t2, parts, ["a2", "u"] + doubled_names(["a1", "b1"]))
        images = whitehead_images(t2, p, signed(t2, "a2"))
        a1, a2 = signed(t2, "a1"), signed(t2, "a2")
        assert images[t2.vertex_id("a1")] == (a2, a1, sv_inverse(a2))
        assert render_word(t2, images[t2.vertex_id("a1")]) == "a2.a1.a2^-1"

    def test_link_fixed(self):
        for g in small_fixture_graphs().values():
            for p in all_partitions(g):
                m = min(p.max_bases)
                images = whitehead_images(g, p, 2 * m)
                for v in range(g.n):
                    if p.link >> (2 * v) & 1:
                        assert images[v] == (2 * v,)
                assert images[m] == (2 * m,)

    def test_base_and_inverse_choice_compose_to_identity(self):
        # apply phi(P, m) then phi(P, m^-1) as monoid maps on words,
        # freely reducing; every generator must come back to itself
        def reduce_word(word):
            out = []
            for s in word:
                if out and out[-1] == sv_inverse(s):
                    out.pop()
                else:
                    out.append(s)
            return tuple(out)

        def apply(images, word):
            out = []
            for s in word:
                img = images[s >> 1]
                if s & 1:
                    out.extend(sv_inverse(x) for x in reversed(img))
                else:
                    out.extend(img)
            return reduce_word(tuple(out))

        for g in small_fixture_graphs().values():
            for p in all_partitions(g):
                for m in p.max_bases:
                    fwd = whitehead_images(g, p, 2 * m)
                    bwd = whitehead_images(g, p, 2 * m + 1)
                    for v in range(g.n):
                        assert apply(bwd, fwd[v]) == (2 * v,)
                        assert apply(fwd, bwd[v]) == (2 * v,)

    def test_images_freely_reduced(self):
        for g in small_fixture_graphs().values():
            for p in all_partitions(g):
                for m in p.max_bases:
                    for word in whitehead_images(g, p, 2 * m).values():
                        for a, b in zip(word, word[1:]):
                            assert b != sv_inverse(a)

    def test_invalid_base_rejected(self):
        t2 = families.rake(2)
        p = find_partition(t2, all_partitions(t2), ["a1", "u"])
        with pytest.raises(PartitionError):
            whitehead_images(t2, p, signed(t2, "v"))

    def test_thin_partition_rejected(self):
        # the sides of test_thin_constructor_flagged, built by hand with a1
        # as its legal base: side_a is the lone letter a1
        g = families.rake(1)
        side_a = signed_set(g, ["a1"])
        side_b = signed_set(g, ["a1^-1", "u", "u^-1"])
        a1 = frozenset({g.vertex_id("a1")})
        full = (1 << 2 * g.n) - 1
        thin = Partition(
            side_a=sum(1 << s for s in side_a),
            side_b=sum(1 << s for s in side_b),
            link=full & ~sum(1 << s for s in side_a | side_b),
            split=a1,
            max_bases=a1,
        )
        with pytest.raises(PartitionError, match="thick"):
            whitehead_images(g, thin, signed(g, "a1"))


def invert_letters(mask, v):
    """The signed mask with the two letters of vertex v swapped."""
    pair = mask >> 2 * v & 3
    return mask & ~(3 << 2 * v) | (pair >> 1 | (pair & 1) << 1) << 2 * v


class TestInversionClasses:
    """Inverting one generator is an automorphism of the compatibility graph.

    The root skip of the clique search rests on this: each of the n
    inversions maps every node to a node and keeps ``adj``, ``bases`` and
    ``principal``, and ``inversion_class`` names exactly the orbits of the
    group they generate.
    """

    GRAPHS = {
        **small_fixture_graphs(),
        "edgeless5": families.edgeless(5),
        "delta": families.delta(),
        "condition2-counterexample": families.condition2_counterexample(),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_inversions_are_automorphisms_and_classes_are_orbits(self, name, cg_cache):
        cg = cg_cache(self.GRAPHS[name])
        g = cg.graph
        by_sides = {p.sides(): i for i, p in enumerate(cg.nodes)}
        parent = list(range(cg.n))

        def root(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for v in range(g.n):
            image = []
            for p in cg.nodes:
                a = invert_letters(p.side_a, v)
                b = invert_letters(p.side_b, v)
                image.append(by_sides[(a, b) if a & -a < b & -b else (b, a)])
            assert sorted(image) == list(range(cg.n))
            for i, j in enumerate(image):
                assert cg.bases[j] == cg.bases[i]
                assert cg.principal[j] == cg.principal[i]
                assert cg.nodes[j].link == cg.nodes[i].link
                row = 0
                for k in mask_iter(cg.adj[i]):
                    row |= 1 << image[k]
                assert cg.adj[j] == row
                parent[root(i)] = root(j)
        orbits = {}
        classes = {}
        for i, key in enumerate(cg.inversion_classes):
            orbits.setdefault(root(i), set()).add(i)
            classes.setdefault(key, set()).add(i)
        assert sorted(map(sorted, orbits.values())) == sorted(map(sorted, classes.values()))
        counts = {"edgeless5": (486, 101), "delta": (140, 40), "condition2-counterexample": (580, 135)}
        if name in counts:
            assert (cg.n, len(classes)) == counts[name]
