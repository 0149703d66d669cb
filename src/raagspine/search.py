"""Exact clique search over the compatibility graph.

M(W) is the size of a largest pairwise-compatible set of partitions that can
all be based inside W.  The solver is a BBMC-style bitset branch-and-bound
(San Segundo et al., 2011, over Tomita's MCS colouring bound): the nodes are
renumbered once in reverse degeneracy order (smallest-last; Matula & Beck,
1983, with the remaining degrees held as bit planes), and each search node
peels greedy colour classes straight from its candidate bitset.  One search
loop beats an incumbent (the size) or stops at a target (existence queries,
which a second prefix-growing pass uses to pick the lexicographically least
maximum clique as witness).  No heuristics are ever reported as answers.

Candidate sets often split as joins: every node of one co-component (a
component of the complement graph on the candidates) is adjacent to every
node of another, so the largest clique is the union of the parts' largest
cliques (the join rule of Gallai's modular decomposition, 1967).
``max_compatible`` solves each part of the based nodes with its own solver
and takes the union of the parts' least witnesses, which is the least
witness.  Inside the search, a node that the colour bound does not prune
solves the parts of its candidates one after another, each against a floor
set by the incumbent, the sizes already found and the colour bounds of the
parts still to come.

Two kinds of automorphism of A_Γ act on the partitions and keep
compatibility, bases and principality: inverting any set of generators
(v -> v^-1), and permuting the vertices of a ~-class, whose members are
pairwise twins (equal links, or equal stars), so that swapping two of them is
an automorphism of Γ.  A permutation inside a ~-class split by the queried W
(its part inside W and its part outside) fixes W, and inversions fix every
vertex, so the group they generate fixes the based node set.  It maps a
co-component onto itself as soon as it maps one of its nodes into it.
``partitions.inversion_class`` names each node's class, and
``CompatibilityGraph.symmetry_classes`` keys the based nodes by it.  The
root of each part's size search therefore branches on one node per class:
once a node is explored, a largest clique through any node of its class is
the image of one already covered, and the whole class leaves the candidates
(orbital branching at the root; Ostrowski, Linderoth, Rossi & Smriglio,
2011).  Deeper nodes and the witness pass search without it.

``clique_masks`` is the one clique enumerator (star complex, oversize verifier).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

from .compat import CompatibilityGraph
from .graph import mask_iter
from .partitions import CapExceededError


@dataclass(frozen=True)
class MaxSetResult:
    size: int
    witness: frozenset[int]


def _degeneracy_order(adj: Sequence[int], mask: int) -> list[int]:
    """Repeatedly remove a minimum-degree vertex; ties broken by node id.

    Plane k of the remaining degrees masks the nodes whose degree has bit k
    set.  A removal decrements its neighbours by one borrow ripple over the
    planes, and a scan from the top plane down keeps the least degrees.
    """
    degrees = [(v, (adj[v] & mask).bit_count()) for v in mask_iter(mask)]
    planes = [0] * max((d for _, d in degrees), default=0).bit_length()
    for v, d in degrees:
        for k in mask_iter(d):
            planes[k] |= 1 << v
    remaining = mask
    order = []
    while remaining:
        least = remaining
        for plane in reversed(planes):
            if least & ~plane:
                least &= ~plane
        v = (least & -least).bit_length() - 1
        order.append(v)
        remaining ^= 1 << v
        borrow = adj[v] & remaining
        for k, plane in enumerate(planes):
            if not borrow:
                break
            planes[k] = plane ^ borrow
            borrow &= ~plane
    return order


def _co_components(adj: Sequence[int], cand: int) -> list[int]:
    """The components of the complement graph on cand, least node first.

    Every node of one part is adjacent to every node of another, so a clique
    of cand is a union of cliques of the parts.
    """
    parts = []
    while cand:
        part = frontier = cand & -cand
        rest = cand ^ part
        while frontier and rest:
            low = frontier & -frontier
            frontier ^= low
            new = rest & ~adj[low.bit_length() - 1]
            rest ^= new
            part |= new
            frontier |= new
        parts.append(part)
        cand = rest
    return parts


class _CliqueSolver:
    def __init__(self, adj: Sequence[int], mask: int):
        # bit i of the renumbered graph is node order[i]; colouring in
        # reverse degeneracy order tends to use few colours
        self.order = order = _degeneracy_order(adj, mask)[::-1]
        width = mask.bit_length()
        fmt = f"0{width}b"
        pick = operator.itemgetter(*[width - 1 - v for v in reversed(order)])
        self.adj = [int("".join(pick(format(adj[v] & mask, fmt))), 2) for v in order]
        self.full = (1 << len(order)) - 1
        # the candidates a colour class keeps after taking bit i
        self.keep = [~(a | 1 << i) for i, a in enumerate(self.adj)]
        # renumbered bits in ascending node id
        self.by_id = sorted(range(len(order)), key=order.__getitem__)

    def expand(
        self,
        cand: int,
        best: int = 0,
        target: int | None = None,
        symmetry: Sequence[Hashable] | None = None,
    ) -> int:
        """Largest clique size in cand if above the incumbent best, else best.

        Stops as soon as a clique of the target size is found.  ``symmetry``
        gives each node id a class; two nodes of cand may share one only if
        an automorphism mapping cand onto itself takes one to the other.
        Once the root has branched on a node, the rest of its class leaves
        the candidates."""
        adj, colour_classes = self.adj, self.colour_classes
        limit = cand.bit_count() if target is None else target
        orbit = None
        if symmetry is not None:
            same: dict[Hashable, int] = {}
            for i, v in enumerate(self.order):
                same[symmetry[v]] = same.get(symmetry[v], 0) | 1 << i
            orbit = [same[symmetry[v]] for v in self.order]

        def grow(size: int, cand: int) -> bool:
            nonlocal best
            if size > best:
                best = size
                if best >= limit:
                    return True
            if size + cand.bit_count() <= best:
                return False
            classes = colour_classes(cand)
            if size + len(classes) <= best:  # the colour bound prunes
                return False
            parts = _co_components(adj, cand)
            if len(parts) > 1:
                # a join: the best clique is the sum of the parts' best, and
                # each part must beat what the others can at most give
                bounds = [len(colour_classes(part)) for part in parts]
                rest = sum(bounds)
                found = size
                for part, bound in zip(parts, bounds):
                    rest -= bound
                    floor = best - found - rest
                    got = self.expand(part, floor)
                    if got <= floor:
                        return False
                    found += got
                best = found
                return best >= limit
            for colour in range(len(classes), best - size, -1):
                members = classes[colour - 1] & cand
                while members:
                    if size + colour <= best:
                        return False
                    v = members.bit_length() - 1
                    if grow(size + 1, cand & adj[v]):
                        return True
                    # every clique through v is covered, and at the root so
                    # is every clique through an image of v
                    done = orbit[v] if orbit and not size else 1 << v
                    cand &= ~done
                    members &= ~done
            return False

        grow(0, cand)
        return best

    def colour_classes(self, cand: int) -> list[int]:
        """Greedy colour classes of cand; their number bounds its largest clique."""
        keep = self.keep
        classes = []
        while cand:
            free = before = cand
            while free:
                low = free & -free
                free &= keep[low.bit_length() - 1]
                cand ^= low
            classes.append(before ^ cand)
        return classes

    def lex_least_clique(self, size: int) -> frozenset[int]:
        """Lexicographically least clique of exactly the given size."""
        chosen: list[int] = []
        # walk the node ids upwards once; a node that fails leaves cand, so
        # cand holds only the later ids still compatible with every choice
        cand = self.full
        walk = iter(self.by_id)
        for need in range(size - 1, -1, -1):
            for b in walk:
                if not cand >> b & 1:
                    continue
                rest = cand & self.adj[b]
                if self.expand(rest, need - 1, need) >= need:
                    chosen.append(self.order[b])
                    cand = rest
                    break
                cand ^= 1 << b
            else:
                raise RuntimeError("witness reconstruction failed")
        return frozenset(chosen)


def max_compatible(cg: CompatibilityGraph, vertices: Iterable[int]) -> MaxSetResult:
    """Largest pairwise-compatible set basable inside the given vertex set.

    Each co-component of the basable nodes is solved on its own."""
    wanted = frozenset(vertices)
    based = cg.nodes_based_in(wanted)
    mask = cg.members_mask(based)
    symmetry = cg.symmetry_classes(wanted, based)
    size = 0
    witness: frozenset[int] = frozenset()
    for part in _co_components(cg.adj, mask):
        solver = _CliqueSolver(cg.adj, part)
        part_size = solver.expand(solver.full, symmetry=symmetry)
        size += part_size
        witness |= solver.lex_least_clique(part_size)
    return MaxSetResult(size=size, witness=witness)


def naive_max_clique_size(adj: list[int], mask: int) -> int:
    """Independent oracle: exhaustive recursive enumeration, no bounds."""
    best = 0
    stack = [(0, mask)]
    while stack:
        size, cand = stack.pop()
        if size > best:
            best = size
        for v in mask_iter(cand):
            stack.append((size + 1, cand & adj[v] & ~((1 << (v + 1)) - 1)))
    return best


def clique_masks(
    adj: Sequence[int],
    cand: int,
    *,
    min_size: int = 0,
    max_size: int | None = None,
    cap: int | None = None,
) -> Iterator[int]:
    """Every clique inside cand with min_size <= size <= max_size, as a mask.

    Yields in lexicographic order of sorted member ids, so the empty clique
    comes first when min_size is 0.  Branches that can no longer reach
    min_size are not walked.  Raises CapExceededError once more than ``cap``
    cliques would be yielded; everything yielded before that is valid.
    """
    limit = cand.bit_count() if max_size is None else max_size
    count = 0
    # (members, size, candidates above the highest member); depth first
    stack = [(0, 0, cand)]
    while stack:
        mask, size, rest = stack.pop()
        if size >= min_size:
            count += 1
            if cap is not None and count > cap:
                raise CapExceededError(cap)
            yield mask
        if size >= limit:
            continue
        size += 1
        children = []
        while rest:
            low = rest & -rest
            rest ^= low
            later = rest & adj[low.bit_length() - 1]
            if size + later.bit_count() >= min_size:
                children.append((mask | low, size, later))
        stack += reversed(children)

