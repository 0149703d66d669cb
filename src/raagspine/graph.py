"""Defining graphs and vertex-level structure.

A finite simplicial graph (no loops, no multi-edges) with named vertices is
the input to everything else.  Vertices get integer ids 0..n-1 in declaration
order; all derived sets are reported in id order so output is deterministic.

Signed vertices (generators and their inverses) are encoded as integers:
``2*v`` for the generator of vertex ``v`` and ``2*v + 1`` for its inverse.
Sets of signed vertices are bitmasks over these codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from typing import Iterable, Sequence


def sv_pos(v: int) -> int:
    return 2 * v


def sv_neg(v: int) -> int:
    return 2 * v + 1


def sv_inverse(s: int) -> int:
    return s ^ 1


def sv_vertex(s: int) -> int:
    return s >> 1


def sv_is_positive(s: int) -> bool:
    return s & 1 == 0


def mask_iter(mask: int):
    """Yield the set bits of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def doubled(vertices: Iterable[int]) -> int:
    """Signed mask containing v and v^-1 for each vertex given."""
    m = 0
    for v in vertices:
        m |= 3 << (2 * v)
    return m


class GraphError(ValueError):
    pass


class SimplicialGraph:
    """A finite simplicial graph with ordered, named vertices.

    Immutable after construction.  ``adj[v]`` is the neighbour set of v as a
    frozenset of vertex ids; ``edges`` is a frozenset of (i, j) pairs with
    i < j.
    """

    __slots__ = ("names", "n", "index", "edges", "adj", "_classification", "_distance_two")

    def __init__(self, names: Sequence[str], edges: Iterable[tuple[str, str]]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise GraphError("duplicate vertex names")
        for name in names:
            if not name or any(c.isspace() for c in name) or name.startswith("#"):
                raise GraphError(f"invalid vertex name: {name!r}")
        index = {name: i for i, name in enumerate(names)}
        edge_ids = set()
        for a, b in edges:
            if a not in index or b not in index:
                raise GraphError(f"edge ({a!r}, {b!r}) uses undeclared vertex")
            i, j = index[a], index[b]
            if i == j:
                raise GraphError(f"loop at vertex {a!r}")
            edge_ids.add((min(i, j), max(i, j)))
        self.names = names
        self.n = len(names)
        self.index = index
        self.edges = frozenset(edge_ids)
        neighbours = [set() for _ in range(self.n)]
        for i, j in edge_ids:
            neighbours[i].add(j)
            neighbours[j].add(i)
        self.adj = adj = tuple(frozenset(s) for s in neighbours)
        self._classification = None
        self._distance_two = tuple(
            frozenset().union(*(adj[m] for m in adj[v])) - adj[v] - {v}
            for v in range(self.n)
        )

    # -- basic protocol ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialGraph)
            and self.names == other.names
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.names, self.edges))

    def __repr__(self):
        return f"SimplicialGraph({len(self.names)} vertices, {len(self.edges)} edges)"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"unknown vertex id {v}")

    def vertex_id(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise GraphError(f"unknown vertex name {name!r}") from None

    def signed_name(self, s: int) -> str:
        name = self.names[sv_vertex(s)]
        return name if sv_is_positive(s) else name + "^-1"

    def validation_warnings(self) -> list[str]:
        """Non-fatal observations (disconnected input is accepted)."""
        return ["graph is disconnected"] if len(self._components(frozenset())) > 1 else []

    # -- links, stars, distance ----------------------------------------

    def link(self, v: int) -> frozenset[int]:
        """Vertices adjacent to v (v itself excluded)."""
        self._check_vertex(v)
        return self.adj[v]

    def star(self, v: int) -> frozenset[int]:
        """link(v) together with v."""
        self._check_vertex(v)
        return self.adj[v] | {v}

    def distance(self, u: int, v: int) -> float:
        """Shortest-path edge count; math.inf when disconnected."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return 0
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in self.adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if y == v:
                        return dist[y]
                    queue.append(y)
        return float("inf")

    def distance_two(self, u: int) -> frozenset[int]:
        """Vertices at distance exactly 2 from u: links of its link, minus st(u)."""
        self._check_vertex(u)
        return self._distance_two[u]

    # -- components ----------------------------------------------------

    def components_minus_star(self, v: int) -> list[frozenset[int]]:
        """Connected components of the full subgraph on V minus st(v).

        Returned in increasing order of their least vertex id.
        """
        self._check_vertex(v)
        return self._components(self.star(v))

    def _components(self, removed: frozenset[int]) -> list[frozenset[int]]:
        """Connected components of the full subgraph on V minus removed."""
        seen: set[int] = set()
        comps = []
        for start in range(self.n):
            if start in removed or start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in self.adj[x]:
                    if y not in removed and y not in comp:
                        comp.add(y)
                        queue.append(y)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def doubled_components(self, v: int) -> list[int]:
        """Connected components of the doubled graph minus lk(v)±, as signed masks.

        In the doubled graph, signed vertices are adjacent iff their underlying
        generators commute and they are not mutually inverse.  Removing lk(v)±
        isolates v and v^-1, so the result always includes the singleton masks
        {v} and {v^-1}.  For an undoubled component C of the graph minus st(v)
        with |C| >= 2 the whole of C± is one component here; a singleton {x}
        contributes {x} and {x^-1} separately.
        """
        self._check_vertex(v)
        comps = [1 << sv_pos(v), 1 << sv_neg(v)]
        for comp in self.components_minus_star(v):
            verts = sorted(comp)
            if len(verts) == 1:
                x = verts[0]
                comps.append(1 << sv_pos(x))
                comps.append(1 << sv_neg(x))
            else:
                comps.append(doubled(verts))
        comps.sort(key=lambda m: m & -m)
        return comps

    def partition_units(self, v: int) -> list[int]:
        """doubled_components(v) without the base singletons {v}, {v^-1}."""
        base = {1 << sv_pos(v), 1 << sv_neg(v)}
        return [m for m in self.doubled_components(v) if m not in base]

    # -- domination order ----------------------------------------------

    def leq(self, v: int, w: int) -> bool:
        """v <= w: lk(v) contained in st(w)."""
        self._check_vertex(v)
        self._check_vertex(w)
        return self.adj[v] <= (self.adj[w] | {w})

    def lt_circ(self, v: int, w: int) -> bool:
        """v <o w: lk(v) strictly contained in lk(w) (w dominates v)."""
        self._check_vertex(v)
        self._check_vertex(w)
        return self.adj[v] < self.adj[w]

    def dominators(self, v: int) -> frozenset[int]:
        return frozenset(w for w in range(self.n) if self.lt_circ(v, w))

    def link_mask(self, v: int) -> int:
        """lk(v)± as a signed mask."""
        return doubled(self.adj[v])

    def classify_vertices(self) -> "VertexClassification":
        if self._classification is not None:
            return self._classification
        n = self.n
        dominators = tuple(self.dominators(v) for v in range(n))
        principal = frozenset(v for v in range(n) if not dominators[v])
        above = [frozenset(w for w in range(n) if self.leq(v, w)) for v in range(n)]
        # equivalence classes of ~ (v <= w and w <= v), ids by least member
        class_of = [-1] * n
        classes: list[frozenset[int]] = []
        for v in range(n):
            if class_of[v] >= 0:
                continue
            members = frozenset(w for w in above[v] if v in above[w])
            cid = len(classes)
            classes.append(members)
            for w in members:
                class_of[w] = cid
        strictly_above = tuple(above[v] - classes[class_of[v]] for v in range(n))
        maximal = frozenset(v for v in range(n) if not strictly_above[v])
        relevant = frozenset(
            v for v in range(n) if len(self.partition_units(v)) >= 2
        )
        result = VertexClassification(
            principal=principal,
            maximal=maximal,
            relevant=relevant,
            class_of=tuple(class_of),
            classes=tuple(classes),
            dominators=dominators,
            strictly_above=strictly_above,
        )
        self._classification = result
        return result


@dataclass(frozen=True)
class VertexClassification:
    """Per-vertex flags for a fixed graph.

    principal: not strictly link-dominated by any vertex.
    maximal: the ~-class is maximal under <= (all maximal vertices are principal).
    relevant: can serve as the base of a partition (>= 2 non-base doubled
    components).
    strictly_above: per vertex v, the w with v <= w but not w <= v.
    """

    principal: frozenset[int]
    maximal: frozenset[int]
    relevant: frozenset[int]
    class_of: tuple[int, ...]
    classes: tuple[frozenset[int], ...]
    dominators: tuple[frozenset[int], ...]
    strictly_above: tuple[frozenset[int], ...]

    @property
    def non_principal(self) -> frozenset[int]:
        return frozenset(range(len(self.class_of))) - self.principal


# -- text format -------------------------------------------------------


class GraphParseError(GraphError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_graph(text: str) -> SimplicialGraph:
    """Parse the line-oriented graph format.

    Lines: ``# comment``, ``vertex <name>``, ``edge <name> <name>``.  Vertices
    may be declared implicitly by first use in an edge line.  Blank lines are
    ignored.  Errors report 1-based line numbers.
    """
    names: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def declare(name: str) -> None:
        if name not in seen:
            seen.add(name)
            names.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphParseError("expected: vertex <name>", lineno)
            declare(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise GraphParseError("expected: edge <name> <name>", lineno)
            a, b = parts[1], parts[2]
            if a == b:
                raise GraphParseError(f"loop at vertex {a!r}", lineno)
            declare(a)
            declare(b)
            edges.append((a, b))
        else:
            raise GraphParseError(f"unknown directive {parts[0]!r}", lineno)
    return SimplicialGraph(names, edges)


def graph_to_text(g: SimplicialGraph) -> str:
    """Canonical text form: all vertices first, then edges in id order."""
    lines = [f"vertex {name}" for name in g.names]
    for i, j in sorted(g.edges):
        lines.append(f"edge {g.names[i]} {g.names[j]}")
    return "\n".join(lines) + "\n"
