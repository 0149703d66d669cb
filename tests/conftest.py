import itertools

import pytest

from raagspine import SimplicialGraph, compatibility_graph, families


@pytest.fixture(scope="session")
def cg_cache():
    """Session-wide cache of compatibility graphs keyed by graph."""
    cache = {}

    def get(g):
        if g not in cache:
            cache[g] = compatibility_graph(g)
        return cache[g]

    return get


def small_fixture_graphs():
    """Named fixture graphs with at most 8 vertices (the property-suite domain)."""
    return {
        "rake1": families.rake(1),
        "rake2": families.rake(2),
        "rake3": families.rake(3),
        "path4": families.path(4),
        "path5": families.path(5),
        "cycle5": families.cycle(5),
        "complete3": families.complete(3),
        "complete4": families.complete(4),
        "edgeless3": families.edgeless(3),
        "edgeless4": families.edgeless(4),
        "principal-not-maximal": families.principal_not_maximal_example(),
        "compatibility-example": families.compatibility_example_graph(),
        "condition1-counterexample": families.condition1_counterexample(),
    }


def labelled_graphs(max_n=5):
    """Every labelled graph on 1..max_n vertices (1,099 of them for 5)."""
    for n in range(1, max_n + 1):
        names = [f"x{k}" for k in range(n)]
        pairs = list(itertools.combinations(names, 2))
        for bits in range(1 << len(pairs)):
            yield SimplicialGraph(names, [e for k, e in enumerate(pairs) if bits >> k & 1])


def signed(g, name):
    """Signed id for a vertex name, with ^-1 marking the inverse."""
    if name.endswith("^-1"):
        return 2 * g.vertex_id(name[:-3]) + 1
    return 2 * g.vertex_id(name)


def signed_set(g, names):
    return frozenset(signed(g, n) for n in names)


def find_partition(g, parts, side_names):
    """The unique partition among parts having the given side, or None."""
    from raagspine.graph import mask_iter

    want = signed_set(g, side_names)
    for p in parts:
        for s in p.sides():
            if frozenset(mask_iter(s)) == want:
                return p
    return None


def node_id(cg, side_names):
    """Node index in the compatibility graph of the partition with this side."""
    g = cg.graph
    p = find_partition(g, cg.nodes, side_names)
    assert p is not None, f"no partition with side {side_names}"
    return cg.nodes.index(p)


def doubled_names(prefixes):
    out = []
    for p in prefixes:
        out.append(p)
        out.append(p + "^-1")
    return out


def factor_graph(cg, part):
    """The compatibility graph on the nodes of the mask ``part`` alone,
    renumbered in id order.  For a union of co-components, its star is the
    factor of cg's star on part."""
    from raagspine import CompatibilityGraph
    from raagspine.graph import mask_iter

    keep = list(mask_iter(part))
    new_id = {old: i for i, old in enumerate(keep)}
    return CompatibilityGraph(
        graph=cg.graph,
        nodes=tuple(cg.nodes[i] for i in keep),
        adj=tuple(sum(1 << new_id[j] for j in mask_iter(cg.adj[i] & part)) for i in keep),
        principal=tuple(cg.principal[i] for i in keep),
        bases=tuple(cg.bases[i] for i in keep),
    )
