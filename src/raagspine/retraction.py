"""The star of a Salvetti as a finite cube complex, and its retraction.

Cubes are addressed by pairs (lower, upper) of compatible sets with
lower ⊆ upper; the dimension is |upper \\ lower|.  The full star is face
closed: every (A, B) with lower ⊆ A ⊆ B ⊆ upper of a member is a member.

The retraction sweeps cubes in ascending (b, t, p) order, where b = |lower|,
t = M(V) - |upper| and p = M(L) - #principal members of upper.  For a cube
whose upper set contains hugged non-principal partitions outside the lower
set (the set H), the face (lower, upper \\ H) must be free at that moment:
every present cube containing it is a face of the processed cube.  Freeness
is audited at each event, never assumed; pushing in along the face removes
exactly the cubes between (lower, upper \\ H) and (lower, upper).

Markings are ignored throughout: the group action only changes markings, so
one copy of the star carries the combinatorial content.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Callable, Iterable, Optional

from .compat import CompatibilityGraph
from .conditions import is_spiky
from .graph import mask_iter
from .hugging import HugOracle
from .search import clique_masks, max_compatible


class StructuralAssertionError(RuntimeError):
    """The free-face condition failed where the argument requires it."""

    def __init__(self, message: str, cube: tuple[int, int], face: tuple[int, int]):
        super().__init__(message)
        self.cube = cube
        self.face = face


def _submasks(mask: int):
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _ids(mask: int) -> list[int]:
    return list(mask_iter(mask))


@dataclass(frozen=True)
class ComplexStats:
    dimension: int
    f_vector: tuple[int, ...]
    euler_characteristic: int
    cube_count: int

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "f_vector": list(self.f_vector),
            "euler_characteristic": self.euler_characteristic,
            "cube_count": self.cube_count,
        }


def _stats_of(f_vector: tuple[int, ...]) -> ComplexStats:
    return ComplexStats(
        dimension=len(f_vector) - 1,
        f_vector=f_vector,
        euler_characteristic=sum((-1) ** d * c for d, c in enumerate(f_vector)),
        cube_count=sum(f_vector),
    )


def complex_stats(cubes: Iterable[tuple[int, int]]) -> ComplexStats:
    counts = Counter((upper & ~lower).bit_count() for lower, upper in cubes)
    return _stats_of(tuple(counts[d] for d in range(max(counts, default=-1) + 1)))


@dataclass(frozen=True)
class StarComplex:
    """All cubes sharing one Salvetti vertex."""

    cg: CompatibilityGraph
    cliques: tuple[int, ...]  # member masks of every compatible set
    m_v: int
    m_l: int

    def cubes(self):
        for upper in self.cliques:
            for lower in _submasks(upper):
                yield (lower, upper)

    def cube_count(self) -> int:
        return sum(1 << c.bit_count() for c in self.cliques)

    def stats(self) -> ComplexStats:
        """Closed form: a compatible set c is the upper set of C(|c|, d)
        cubes of dimension d, so f_d = sum over c of C(|c|, d)."""
        sizes = Counter(c.bit_count() for c in self.cliques)
        return _stats_of(tuple(
            sum(k * comb(s, d) for s, k in sizes.items()) for d in range(self.m_v + 1)
        ))

    def supersets(self, clique: int) -> tuple[int, ...]:
        """Member masks of every compatible set containing the given one."""
        common = (1 << self.cg.n) - 1
        for v in mask_iter(clique):
            common &= self.cg.adj[v]
        return tuple(clique | c for c in clique_masks(self.cg.adj, common))


def build_star(cg: CompatibilityGraph, cap: int = 200000) -> StarComplex:
    """Enumerate every compatible set and assemble the face-closed cube set.

    ``cap`` bounds the number of compatible sets; beyond it the complex is
    considered out of the designed envelope and CapExceededError is raised.
    """
    cliques = tuple(clique_masks(cg.adj, (1 << cg.n) - 1, cap=cap))
    return StarComplex(
        cg=cg,
        cliques=cliques,
        m_v=max(c.bit_count() for c in cliques),
        m_l=max_compatible(cg, cg.graph.classify_vertices().principal).size,
    )


@dataclass(frozen=True)
class CollapseEvent:
    target: tuple[int, int]
    face: tuple[int, int]
    hugged: int  # mask of the hugged members motivating the event
    removed: int  # number of cubes removed
    kind: str = "drop-hugged"  # or "pair-down" for the cleanup phase

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": [_ids(self.target[0]), _ids(self.target[1])],
            "face": [_ids(self.face[0]), _ids(self.face[1])],
            "hugged": _ids(self.hugged),
            "removed": self.removed,
        }


@dataclass(frozen=True)
class RetractionTrace:
    events: tuple[CollapseEvent, ...]
    skipped: tuple[tuple[int, int], ...]  # still-blocked cubes with hugged members
    initial_stats: ComplexStats
    final_stats: ComplexStats
    removed: frozenset[tuple[int, int]]  # the collapsed cubes; the rest survive
    strict_principal: bool

    def to_dict(self) -> dict:
        return {
            "events": [e.to_dict() for e in self.events],
            "skipped": [[_ids(l), _ids(u)] for l, u in self.skipped],
            "initial": self.initial_stats.to_dict(),
            "final": self.final_stats.to_dict(),
        }


def retract(
    star: StarComplex,
    *,
    warn_and_proceed: bool = False,
    strict_schedule: bool = False,
    strict_principal: bool = False,
    tie_break: Optional[Callable[[tuple[int, int]], object]] = None,
) -> RetractionTrace:
    """Run the ordered collapse over the star; returns the audited trace.

    Cubes are processed in ascending (b, t, p) order, ties broken by the
    lexicographic order of (lower, upper) member ids.  Only cubes whose upper
    set has hugged members outside the lower set are swept: the hugged mask
    depends on the upper set alone, and for every other cube both the
    collapse and the pair-down return before touching the complex, so the
    events are the same as a sweep over every cube.  A cube whose upper set
    contains hugged members outside the lower set yields a collapse along the
    face that drops them, but only after the free-face condition is verified
    against the current complex; a cube whose designated face has cofaces
    outside it is left alone and retried on the next sweep, and sweeps repeat
    until no event fires.  Blocked cubes that remain blocked at the fixpoint
    are reported in the trace, beside the set of removed cubes, which is the
    only record of the complex: the final f-vector is the star's closed form
    minus theirs.  (There are graphs, the 2-rake among them, where a
    designated face is a face of a cube that genuinely survives, so a fully
    literal single sweep cannot complete; see the README.)

    ``strict_schedule`` raises a StructuralAssertionError at the first
    blocked event instead, reproducing the single-sweep schedule literally.
    Requires a spiky graph unless ``warn_and_proceed`` is set.  ``tie_break``
    overrides the order within one (b, t, p) batch (used by the
    order-insensitivity audit).
    """
    cg = star.cg
    spiky = is_spiky(cg.graph)
    if not spiky and not warn_and_proceed:
        raise StructuralAssertionError(
            "graph is not spiky; pass warn_and_proceed=True to collapse anyway",
            (0, 0),
            (0, 0),
        )
    principal_mask = 0
    for i in range(cg.n):
        if cg.principal[i]:
            principal_mask |= 1 << i

    rank = {c: i for i, c in enumerate(star.cliques)}  # lexicographic by ids

    def lex(cube: tuple[int, int]):
        return (rank[cube[0]], rank[cube[1]])

    if tie_break is None:
        tie_break = lex

    def sort_key(cube: tuple[int, int]):
        lower, upper = cube
        b = lower.bit_count()
        t = star.m_v - upper.bit_count()
        p = star.m_l - (upper & principal_mask).bit_count()
        assert t >= 0 and p >= 0
        return (b, t, p, tie_break(cube))

    oracle = HugOracle(cg, strict_principal=strict_principal)
    order = []  # the cubes that can fire; see the docstring
    for upper in star.cliques:
        hug_all = oracle.hugged_mask(upper)
        if hug_all:
            order.extend((lower, upper) for lower in _submasks(upper) if hug_all & ~lower)
    order.sort(key=sort_key)
    removed: set[tuple[int, int]] = set()
    supersets = cache(star.supersets)  # few distinct faces, many lookups
    events: list[CollapseEvent] = []

    def cofaces(lower: int, upper: int) -> list[tuple[int, int]]:
        """Present cubes having (lower, upper) as a face."""
        return [
            (a, b)
            for b in supersets(upper)
            for a in _submasks(lower)
            if (a, b) not in removed
        ]

    def attempt(lower: int, upper: int) -> bool:
        """Try one collapse event; True when the cube was collapsed."""
        if (lower, upper) in removed:
            return False
        hugged = oracle.hugged_mask(upper) & (upper & ~lower)
        face_upper = upper & ~hugged
        containing = cofaces(lower, face_upper)
        if (lower, face_upper) not in containing:
            raise StructuralAssertionError(
                "free face is absent although its cofaces are present",
                (lower, upper),
                (lower, face_upper),
            )
        if not all(a == lower and not b & ~upper for a, b in containing):
            if strict_schedule:
                raise StructuralAssertionError(
                    "free-face condition failed during the ordered collapse",
                    (lower, upper),
                    (lower, face_upper),
                )
            return False
        expected = {(lower, face_upper | sub) for sub in _submasks(hugged)}
        if set(containing) != expected:
            raise StructuralAssertionError(
                "collapse would not remove exactly the faces between the "
                "free face and the target",
                (lower, upper),
                (lower, face_upper),
            )
        removed.update(containing)
        events.append(
            CollapseEvent(
                target=(lower, upper),
                face=(lower, face_upper),
                hugged=hugged,
                removed=len(containing),
            )
        )
        return True

    def attempt_pair_down(lower: int, upper: int) -> bool:
        """Cleanup collapse for a cube whose hugged members cannot be dropped.

        The cube pairs with the face extending its lower set by the least
        non-hugged member; the pair must form a genuine elementary collapse
        (the face's only present cofaces are itself and the cube).
        """
        if (lower, upper) in removed:
            return False
        hugged = oracle.hugged_mask(upper) & (upper & ~lower)
        rest = upper & ~oracle.hugged_mask(upper) & ~lower
        if not rest:
            return False
        y = rest & -rest
        face = (lower | y, upper)
        if face in removed:
            return False
        if set(cofaces(*face)) != {(lower, upper), face}:
            return False
        removed.update(((lower, upper), face))
        events.append(
            CollapseEvent(
                target=(lower, upper),
                face=face,
                hugged=hugged,
                removed=2,
                kind="pair-down",
            )
        )
        return True

    def cleanup(lower: int, upper: int) -> bool:
        return attempt(lower, upper) or attempt_pair_down(lower, upper)

    for step in (attempt,) if strict_schedule else (attempt, cleanup):
        progressed = True
        while progressed:
            progressed = False
            for lower, upper in order:
                if step(lower, upper):
                    progressed = True

    initial_stats = star.stats()
    gone = Counter((upper & ~lower).bit_count() for lower, upper in removed)
    f_vector = [c - gone[d] for d, c in enumerate(initial_stats.f_vector)]
    while f_vector and not f_vector[-1]:
        f_vector.pop()
    return RetractionTrace(
        events=tuple(events),
        skipped=tuple(sorted((c for c in order if c not in removed), key=lex)),
        initial_stats=initial_stats,
        final_stats=_stats_of(tuple(f_vector)),
        removed=frozenset(removed),
        strict_principal=strict_principal,
    )


def crosscheck_survivors(star: StarComplex, trace: RetractionTrace) -> "CrosscheckResult":
    """Compare the retained cubes against the survivor predicate.

    A cube (lower, upper) should survive iff upper \\ lower contains no
    hugged non-principal member and no addable non-principal partition would
    be hugged in the enlarged set.  Computed with a fresh oracle over every
    original cube.
    """
    cg = star.cg
    oracle = HugOracle(cg, strict_principal=trace.strict_principal)
    mismatched_kept: list[tuple[int, int]] = []
    mismatched_lost: list[tuple[int, int]] = []
    for upper in star.cliques:
        hug = oracle.hugged_mask(upper)
        extendable = oracle.extendable_by_hugged(upper)
        for lower in _submasks(upper):
            survives = not hug & ~lower and not extendable
            present = (lower, upper) not in trace.removed
            if present and not survives:
                mismatched_kept.append((lower, upper))
            elif survives and not present:
                mismatched_lost.append((lower, upper))
    return CrosscheckResult(
        ok=not mismatched_kept and not mismatched_lost,
        kept_but_redundant=tuple(mismatched_kept[:20]),
        surviving_but_removed=tuple(mismatched_lost[:20]),
    )


@dataclass(frozen=True)
class CrosscheckResult:
    ok: bool
    kept_but_redundant: tuple[tuple[int, int], ...]
    surviving_but_removed: tuple[tuple[int, int], ...]
