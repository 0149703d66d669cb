"""Adjacency and compatibility of partitions; the full compatibility graph.

Two distinct partitions are compatible when they are adjacent (every base of
one lies in the other's link) or some side of one misses some side of the
other entirely.  The compatibility graph over all canonical partitions is the
substrate for every clique computation downstream.  It is built row by row
on bitsets over node indices; ``is_adjacent`` and ``is_compatible`` are the
pairwise definitions it agrees with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

from .graph import SimplicialGraph, mask_iter, sv_pos
from .partitions import Partition, all_partitions, inversion_class


def is_adjacent(g: SimplicialGraph, p: Partition, q: Partition) -> bool:
    """Whether every base of p commutes with every base of q.

    Computed in both directions (max(p) inside lk(q) and max(q) inside lk(p));
    the two always agree for genuine partitions, and a mismatch means the
    inputs are corrupt.
    """
    q_link = q.link_vertices()
    p_link = p.link_vertices()
    forward = p.max_bases <= q_link
    backward = q.max_bases <= p_link
    if forward != backward:
        raise RuntimeError(
            "adjacency asymmetry: the two defining formulations disagree"
        )
    return forward


def is_compatible(g: SimplicialGraph, p: Partition, q: Partition) -> bool:
    """Compatibility of two partitions; a partition is not compatible with itself."""
    if p == q:
        return False
    if (
        not (p.side_a & q.side_a)
        or not (p.side_a & q.side_b)
        or not (p.side_b & q.side_a)
        or not (p.side_b & q.side_b)
    ):
        return True
    return is_adjacent(g, p, q)


@dataclass(frozen=True)
class CompatibilityGraph:
    """All canonical partitions of a graph plus their compatibility relation.

    ``adj[i]`` is a bitmask over node indices; ``principal[i]`` says whether
    node i is a principal partition; ``bases[i]`` is its set of legal bases.
    ``_hug_configs`` memoises ``hugging.hug_configs`` per node id and
    ``_symmetry`` the ``symmetry_classes`` per tuple of twin classes; both are
    filled lazily and are not part of the value.
    """

    graph: SimplicialGraph
    nodes: tuple[Partition, ...]
    adj: tuple[int, ...]
    principal: tuple[bool, ...]
    bases: tuple[frozenset[int], ...]
    _hug_configs: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )
    _symmetry: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_of(self) -> dict[tuple[int, int], int]:
        """The node id of each partition, keyed by its canonical side masks
        ``Partition.sides()``."""
        return {p.sides(): i for i, p in enumerate(self.nodes)}

    @cached_property
    def principal_mask(self) -> int:
        """The principal nodes as a bitmask over node ids."""
        return sum(1 << i for i in range(self.n) if self.principal[i])

    def symmetry_classes(self, wanted: frozenset[int], based: list[int]) -> list:
        """Per node id, the key of its class under inverting generators and
        permuting the vertices inside each ~-class split by wanted
        (``inversion_class``); the nodes in based are keyed, the rest may be
        None.

        A ~-class holds pairwise twins, so a permutation inside it is an
        automorphism of the graph; splitting the class by wanted makes the
        permutation fix wanted, and so the set of nodes based in wanted.
        Memoised per tuple of split classes (all vertices and the principal
        ones, both unions of ~-classes, share one); a query keys only the
        nodes not keyed yet.
        """
        twins = tuple(
            sum(1 << sv_pos(v) for v in half)
            for c in self.graph.classify_vertices().classes
            if len(c) > 1
            for half in (c & wanted, c - wanted)
            if len(half) > 1
        )
        keys = self._symmetry.setdefault(twins, [None] * self.n)
        nodes = self.nodes
        for i in based:
            if keys[i] is None:
                keys[i] = inversion_class(nodes[i], twins)
        return keys

    def edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def nodes_based_in(self, vertices: frozenset[int]) -> list[int]:
        return [i for i in range(self.n) if self.bases[i] & vertices]

    def members_mask(self, members) -> int:
        m = 0
        for i in members:
            m |= 1 << i
        return m

    def extensions(self, mask: int) -> int:
        """The nodes outside mask compatible with every node in it."""
        common = (1 << self.n) - 1
        for i in mask_iter(mask):
            common &= self.adj[i]
        return common & ~mask

    def is_clique(self, members) -> bool:
        ids = list(members)
        mask = self.members_mask(ids)
        return all(self.adj[i] & mask == mask & ~(1 << i) for i in ids)


def _union(rows: list[int], mask: int) -> int:
    """OR of ``rows[b]`` over the set bits b of ``mask``."""
    out = 0
    for b in mask_iter(mask):
        out |= rows[b]
    return out


def compatibility_graph(g: SimplicialGraph) -> CompatibilityGraph:
    """The compatibility graph of g over all its canonical partitions.

    One pass over the nodes records, per signed vertex s, the nodes having s
    in ``side_a`` (bit i for node i) and in ``side_b`` (bit n + i), and per
    vertex the nodes having it in the link or among the bases.  Row i is then
    every node some quadrant of which with node i is empty, plus the crossing
    nodes adjacent to it.  Adjacency is taken both ways, as in
    ``is_adjacent``, and a crossing pair on which the two disagree raises
    ``RuntimeError``.  Rows of nodes meeting a side, or based in a link, are
    built once per mask.
    """
    nodes = tuple(all_partitions(g))
    n = len(nodes)
    everyone = (1 << n) - 1
    positive = (1 << 2 * g.n) // 3
    # indexed by signed letter; in_link and in_max use the positive ones only
    in_side = [0] * (2 * g.n)
    in_link = [0] * (2 * g.n)
    in_max = [0] * (2 * g.n)
    for i, p in enumerate(nodes):
        for s in mask_iter(p.side_a):
            in_side[s] |= 1 << i
        for s in mask_iter(p.side_b):
            in_side[s] |= 1 << n + i
        for s in mask_iter(p.link & positive):
            in_link[s] |= 1 << i
        for v in p.max_bases:
            in_max[2 * v] |= 1 << i
    meets = cache(lambda side: _union(in_side, side))
    backwards = cache(lambda link: everyone & ~_union(in_max, ~link & positive))
    adj = []
    for i, p in enumerate(nodes):
        meet_a, meet_b = meets(p.side_a), meets(p.side_b)
        crossing = meet_a & meet_a >> n & meet_b & meet_b >> n & everyone
        forward = everyone
        for v in p.max_bases:
            forward &= in_link[2 * v]
        backward = backwards(p.link)
        if (forward ^ backward) & crossing:
            raise RuntimeError(
                "adjacency asymmetry: the two defining formulations disagree"
            )
        adj.append((everyone & ~crossing | crossing & forward) & ~(1 << i))
    principal_vertices = g.classify_vertices().principal
    return CompatibilityGraph(
        graph=g,
        nodes=nodes,
        adj=tuple(adj),
        principal=tuple(bool(p.max_bases & principal_vertices) for p in nodes),
        bases=tuple(p.max_bases for p in nodes),
    )
