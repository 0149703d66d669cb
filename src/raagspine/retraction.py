"""The star of a Salvetti as a finite cube complex, and its retraction.

Cubes are addressed by pairs (lower, upper) of compatible sets with
lower ⊆ upper; the dimension is |upper \\ lower|.  The full star is face
closed: every (A, B) with lower ⊆ A ⊆ B ⊆ upper of a member is a member.

The star is the product of two factors.  The active factor holds the
compatible sets inside the co-components of the compatibility graph that
hold a non-principal node or a hugger of one; the inert factor holds those
inside the rest, whose nodes are all principal and take part in no hug.

The retraction sweeps the active factor's cubes in ascending (b, t, p) order,
where b = |lower|, t = M(V) - |upper| and p = M(L) - #principal members of
upper.  Each event is one elementary collapse of a cube from a face: the face
must be free at that moment (every present cube containing it lies between it
and the cube), which is audited at each event, never assumed, and pushing in
along the face removes exactly the cubes between the two.  The face drops the
hugged members of the upper set outside the lower set, or, in a cleanup
phase, adds the least non-hugged member to the lower set.  Each factor event,
taken times each cube of the inert factor, is an elementary collapse of the
star; these lifted events run in the factor's sweep order and then in the
star's own (b, t, p) order, and each one passes the same audit again against
the whole star.

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
from .hugging import HugOracle, active_factor
from .search import CapExceededError, _co_components, clique_masks, max_compatible


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


def build_star(cg: CompatibilityGraph, cap: int = 200000) -> StarComplex:
    """Enumerate every compatible set and assemble the face-closed cube set.

    ``cap`` bounds the number of compatible sets; beyond it the complex is
    considered out of the designed envelope and CapExceededError is raised.
    A join's compatible sets are the unions of one clique per part, so its
    cap is decided from the product of the parts' clique counts first.
    """
    everyone = (1 << cg.n) - 1
    parts = _co_components(cg.adj, everyone)
    if len(parts) > 1:
        total = 1
        for part in parts:
            total *= sum(1 for _ in clique_masks(cg.adj, part, cap=cap))
            if total > cap:
                raise CapExceededError(cap)
    cliques = tuple(clique_masks(cg.adj, everyone, cap=cap))
    return StarComplex(
        cg=cg,
        cliques=cliques,
        m_v=max(c.bit_count() for c in cliques),
        m_l=max_compatible(cg, cg.graph.classify_vertices().principal).size,
    )


@dataclass(frozen=True, slots=True)
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

    def to_dict(self) -> dict:
        return {
            "events": [e.to_dict() for e in self.events],
            "skipped": [[_ids(l), _ids(u)] for l, u in self.skipped],
            "initial": self.initial_stats.to_dict(),
            "final": self.final_stats.to_dict(),
        }


def _collapses(
    extensions: Callable[[int], int],
    removed: set[tuple[int, int]],
    events: list[CollapseEvent],
):
    """The one audited elementary collapse on a record of removed cubes.

    Returns ``collapse(cube, face, hugged, kind)``, which grows ``removed``
    and ``events``; ``extensions(upper)`` gives the nodes that extend a
    compatible set of the complex by one member.
    """

    def collapse(cube, face, hugged: int, kind: str) -> bool:
        """The elementary collapse of cube from its face: audit that every
        present codimension-1 coface of the face lies between the two, then
        remove exactly the cubes between them and record the event.  A
        coface drops a member from the face's lower set or adds one of
        extensions(face upper) to its upper set.  Returns whether the
        collapse fired; it does not while a coface outside is present."""
        lower, upper = cube
        face_lower, face_upper = face
        if face in removed:
            raise StructuralAssertionError(
                "free face is absent although its cofaces are present", cube, face
            )
        span = face_lower & ~lower | upper & ~face_upper  # members from face to cube
        for x in mask_iter(face_lower & ~span):
            if (face_lower & ~(1 << x), face_upper) not in removed:
                return False
        for y in mask_iter(extensions(face_upper) & ~span):
            if (face_lower, face_upper | 1 << y) not in removed:
                return False
        # the two ends are the cube and face tuples themselves, not copies
        between = [cube, face]
        if span & span - 1:  # more than one member from face to cube
            between += [
                (face_lower & ~sub, face_upper | sub) for sub in _submasks(span) if 0 < sub < span
            ]
        if not removed.isdisjoint(between):
            raise StructuralAssertionError(
                "collapse would not remove exactly the faces between the "
                "free face and the target",
                cube,
                face,
            )
        removed.update(between)
        events.append(
            CollapseEvent(target=cube, face=face, hugged=hugged, removed=len(between), kind=kind)
        )
        return True

    return collapse


def retract(
    star: StarComplex,
    *,
    warn_and_proceed: bool = False,
    tie_break: Optional[Callable[[tuple[int, int]], object]] = None,
) -> RetractionTrace:
    """Run the ordered collapse over the star; returns the audited trace.

    The schedule is chosen on the active factor of the star alone: the
    compatible sets inside ``active_factor``, the co-components that hold a
    non-principal node or a hugger of one.  Every other node is principal,
    takes part in no hug and is compatible with every active node, so the
    star is the product of the active factor and the inert one, and the
    hugged members of an upper set are those of its active part.

    The factor's cubes are swept in ascending (b, t, p) order, where
    b = |lower|, t = M(V) - |upper| and p = M(L) - #principal members of
    upper (the star's M(V) and M(L) differ from the factor's by constants,
    so the order is the same), ties broken by the lexicographic order of
    (lower, upper) member ids.  Only cubes whose upper set has hugged members
    outside the lower set are swept; they are the cubes the schedule
    collapses.  Each event is the one audited elementary collapse: the face
    must be present, every present codimension-1 coface of it must lie
    between it and the cube (enough, as the present cubes stay face closed),
    and then exactly the cubes between the two are removed.  The schedule
    only chooses the face.  It first drops the hugged members from the upper
    set; sweeps repeat until no event fires, and a blocked cube is audited
    afresh on the next sweep.  A cleanup phase then sweeps again, pairing a
    cube whose hugged members still cannot be dropped with the face that
    adds its least non-hugged member to the lower set.  After each sweep the
    removed cubes leave the order.  In the factor, an audit reads the
    factor's own removed cubes and extensions.

    A collapse of the factor, taken times one cube (l, u) of the inert
    factor, is an elementary collapse of the star.  Each factor event is so
    lifted over every inert cube, and the lifted events are ordered by the
    factor's sweep and then by the star's own (b, t, p, tie-break) key of
    the lifted cube.  Every lifted event passes the same audited collapse,
    against the removed cubes of the whole star; one that fails raises a
    StructuralAssertionError.  Factor cubes still blocked at the fixpoint
    are lifted likewise and reported in the trace, beside the set of removed
    cubes, which is the only record of the complex: the final f-vector is
    the star's closed form minus theirs.  (There are graphs, the 2-rake
    among them, where a dropping face is a face of a cube that genuinely
    survives, so a fully literal single sweep cannot complete; see the
    README.)

    Requires a spiky graph unless ``warn_and_proceed`` is set.
    ``tie_break`` overrides the order within one (b, t, p) batch (used by
    the order-insensitivity audit).
    """
    cg = star.cg
    spiky = is_spiky(cg.graph)
    if not spiky and not warn_and_proceed:
        raise StructuralAssertionError(
            "graph is not spiky; pass warn_and_proceed=True to collapse anyway",
            (0, 0),
            (0, 0),
        )

    rank: dict[int, int] = {}  # filled once a cube is ordered; see below

    def lex(cube: tuple[int, int]):
        return (rank[cube[0]], rank[cube[1]])

    if tie_break is None:
        tie_break = lex

    def sort_key(cube: tuple[int, int]):
        lower, upper = cube
        b = lower.bit_count()
        t = star.m_v - upper.bit_count()
        p = star.m_l - (upper & cg.principal_mask).bit_count()
        assert t >= 0 and p >= 0
        return (b, t, p, tie_break(cube))

    active = active_factor(cg)
    oracle = HugOracle(cg)
    order = []  # the factor cubes that can fire; see the docstring
    for upper in clique_masks(cg.adj, active):
        hug_all = oracle.hugged_mask(upper)
        if hug_all:
            order.extend((lower, upper) for lower in _submasks(upper) if hug_all & ~lower)
    if order:
        rank.update((c, i) for i, c in enumerate(star.cliques))  # lexicographic by ids
    order.sort(key=sort_key)
    factor_removed: set[tuple[int, int]] = set()
    factor_events: list[CollapseEvent] = []
    collapse = _collapses(
        cache(lambda upper: cg.extensions(upper) & active), factor_removed, factor_events
    )
    sweeps = []  # the factor's events, one list per sweep

    # each cube's face drops its hugged members; in the cleanup phase a
    # blocked one instead pairs down, adding its least non-hugged member
    for cleanup in (False, True):
        progressed = True
        while progressed:
            progressed = False
            start = len(factor_events)
            for cube in order:
                if cube in factor_removed:
                    continue
                lower, upper = cube
                hugged = oracle.hugged_mask(upper) & ~lower
                rest = upper & ~lower & ~hugged
                if collapse(cube, (lower, upper & ~hugged), hugged, "drop-hugged"):
                    progressed = True
                elif cleanup and rest:
                    face = (lower | rest & -rest, upper)
                    progressed |= collapse(cube, face, hugged, "pair-down")
            sweeps.append(factor_events[start:])
            order = [cube for cube in order if cube not in factor_removed]

    if active == (1 << cg.n) - 1:
        # the factor is the star, so its audits already read the star
        removed, events = factor_removed, factor_events
    else:
        removed, events = set(), []
        collapse = _collapses(cache(cg.extensions), removed, events)
        inert = []  # the inert factor's cubes, needed once a factor cube is lifted
        if factor_events or order:
            inert = [(lower, upper) for upper in star.cliques if not upper & active
                     for lower in _submasks(upper)]
        for batch in sweeps:
            lifted = [
                ((e.target[0] | a, e.target[1] | b), (e.face[0] | a, e.face[1] | b), e)
                for e in batch
                for a, b in inert
            ]
            lifted.sort(key=lambda event: sort_key(event[0]))
            for cube, face, e in lifted:
                if not collapse(cube, face, e.hugged, e.kind):
                    raise StructuralAssertionError(
                        "a lifted collapse failed its free-face audit", cube, face
                    )
        order = [(lower | a, upper | b) for lower, upper in order for a, b in inert]

    initial_stats = star.stats()
    gone = Counter((upper & ~lower).bit_count() for lower, upper in removed)
    f_vector = [c - gone[d] for d, c in enumerate(initial_stats.f_vector)]
    while f_vector and not f_vector[-1]:
        f_vector.pop()
    return RetractionTrace(
        events=tuple(events),
        skipped=tuple(sorted(order, key=lex)),
        initial_stats=initial_stats,
        final_stats=_stats_of(tuple(f_vector)),
        removed=frozenset(removed),
    )


def crosscheck_survivors(star: StarComplex, trace: RetractionTrace) -> "CrosscheckResult":
    """Compare the retained cubes against the survivor predicate.

    A cube (lower, upper) should survive iff ``HugOracle.survives`` holds,
    computed with a fresh oracle.  The oracle is asked about the active
    projection upper & ``active_factor``, which is exact: hugged members and
    their huggers are active, and every active node is compatible with every
    inert one; so upper sets with one projection share the oracle's memo.
    An upper set whose cube (∅, upper) survives and that has no removed cube
    is passed over: each of its cubes is present and survives, so it cannot
    mismatch; the lower sets of every other upper set are visited.
    """
    cg = star.cg
    oracle = HugOracle(cg)
    active = active_factor(cg)
    passes = cache(lambda part: oracle.survives(0, part))
    removed_uppers = {upper for _, upper in trace.removed}
    mismatched_kept: list[tuple[int, int]] = []
    mismatched_lost: list[tuple[int, int]] = []
    for upper in star.cliques:
        part = upper & active
        if passes(part) and upper not in removed_uppers:
            continue
        hugged = oracle.hugged_mask(part)
        extendable = oracle.extendable_by_hugged(part)
        for lower in _submasks(upper):
            survives = not hugged & ~lower and not extendable  # HugOracle.survives
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
