"""Whitehead partitions of a defining graph and their automorphism images.

A partition splits the signed vertex set V± into two thick sides and the
doubled link of its base vertex.  Enumeration works per base: the doubled
components other than the base singletons get distributed between the two
sides in every possible way, with the base and its inverse forced apart; each
side then has at least two elements, so every result is thick.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache
from typing import Iterable

from .graph import (
    SimplicialGraph,
    doubled,
    mask_iter,
    sv_inverse,
    sv_neg,
    sv_pos,
    sv_vertex,
    sv_is_positive,
)

logger = logging.getLogger(__name__)

# Bound on the side assignments one enumeration may try; a base with k >= 2
# partition units has 2^k - 2.  Edgeless(8) needs 131,056 and passes;
# edgeless(9) needs 589,806 and is refused before any is tried.
SIDE_ASSIGNMENT_CAP = 1 << 17


class PartitionError(ValueError):
    pass


class CapExceededError(RuntimeError):
    """Enumeration aborted: the requested cap was exceeded."""

    def __init__(self, cap: int, what: str = "sets"):
        super().__init__(f"enumeration exceeded cap of {cap} {what}")
        self.cap = cap


def _side_key(mask: int) -> tuple[int, ...]:
    return tuple(mask_iter(mask))


def _canonical(m1: int, m2: int) -> tuple[int, int]:
    """Two disjoint sides, the one with the smaller ``_side_key`` first.

    Disjoint sorted tuples first differ at their least elements, so the side
    holding the least element is the smaller one.
    """
    return (m1, m2) if m1 & -m1 <= m2 & -m2 else (m2, m1)


@dataclass(frozen=True)
class Partition:
    """One Whitehead partition in canonical form.

    ``side_a``, ``side_b`` and ``link`` are signed masks partitioning V±.
    ``side_a`` is the side whose sorted signed-id tuple is lexicographically
    smaller, so equal partitions compare equal.  ``max_bases`` holds every
    legal base vertex; ``split`` the vertices separated from their inverses.
    """

    side_a: int
    side_b: int
    link: int
    split: frozenset[int]
    max_bases: frozenset[int]

    def sides(self) -> tuple[int, int]:
        return (self.side_a, self.side_b)

    def side_of(self, signed: int) -> int:
        """The side mask containing the given signed vertex."""
        if self.side_a >> signed & 1:
            return self.side_a
        if self.side_b >> signed & 1:
            return self.side_b
        raise PartitionError("signed vertex lies in the link")

    def other_side(self, side: int) -> int:
        return self.side_b if side == self.side_a else self.side_a

    def link_vertices(self) -> frozenset[int]:
        return frozenset(sv_vertex(s) for s in mask_iter(self.link) if sv_is_positive(s))

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (_side_key(self.side_a), _side_key(self.side_b))

    def render(self, g: SimplicialGraph) -> dict:
        return {
            "sideA": [g.signed_name(s) for s in mask_iter(self.side_a)],
            "sideB": [g.signed_name(s) for s in mask_iter(self.side_b)],
            "link": [g.signed_name(s) for s in mask_iter(self.link)],
            "max": [g.names[v] for v in sorted(self.max_bases)],
        }


def inversion_class(p: Partition) -> tuple[int, int, int]:
    """The class of p under inverting generators (v -> v^-1, any subset of v).

    Inverting v swaps its two letters.  That fixes the link and every
    non-split v (its letters share a side), and moves each letter of a split
    v to the other side.  So the class of p is every orientation of its split
    letters: it is given by the split letters and the unordered pair of the
    two sides' non-split parts.
    """
    # the sides and the link hold all 2n letters; a third of that mask is
    # 0b0101...01, the positive letters
    positive = (p.side_a | p.side_b | p.link) // 3
    one = (p.side_a ^ p.side_a >> 1) & positive
    split = one | one << 1
    a, b = p.side_a & ~split, p.side_b & ~split
    return (split, min(a, b), max(a, b))


def _compute_split(g: SimplicialGraph, side1: int, side2: int) -> frozenset[int]:
    return frozenset(
        v
        for v in range(g.n)
        if (side1 >> sv_pos(v) & 1 and side2 >> sv_neg(v) & 1)
        or (side2 >> sv_pos(v) & 1 and side1 >> sv_neg(v) & 1)
    )


def _compute_max(g: SimplicialGraph, split: frozenset[int]) -> frozenset[int]:
    """Maximal elements of split under <= (the legal bases)."""
    above = g.classify_vertices().strictly_above
    return frozenset(v for v in split if not above[v] & split)


def make_partition(
    g: SimplicialGraph, side1: Iterable[int], side2: Iterable[int]
) -> Partition:
    """Build a partition from two sides given as signed-vertex collections.

    The link is whatever remains of V±.  Validates the defining conditions.
    """
    m1 = 0
    for s in side1:
        m1 |= 1 << s
    m2 = 0
    for s in side2:
        m2 |= 1 << s
    return _partition_from_masks(g, m1, m2)


def _partition_from_masks(g: SimplicialGraph, m1: int, m2: int) -> Partition:
    full = (1 << (2 * g.n)) - 1
    if m1 & m2:
        raise PartitionError("sides overlap")
    link = full & ~(m1 | m2)
    split = _compute_split(g, m1, m2)
    max_bases = _compute_max(g, split)
    if not split:
        raise PartitionError("no vertex is split; the partition has no base")
    if m1.bit_count() < 2 or m2.bit_count() < 2:
        raise PartitionError("thin side: each side needs at least two elements")
    for m in max_bases:
        if link != g.link_mask(m):
            raise PartitionError(
                f"link block is not the doubled link of base {g.names[m]}"
            )
    base = min(max_bases)
    for comp in g.components_minus_star(base):
        if len(comp) < 2:
            continue
        dbl = doubled(comp)
        if dbl & m1 != dbl and dbl & m2 != dbl:
            raise PartitionError(
                "a component of the graph minus the base star is split across sides"
            )
    m1, m2 = _canonical(m1, m2)
    return Partition(side_a=m1, side_b=m2, link=link, split=split, max_bases=max_bases)


def _side_masks(base: int, units: list[int]):
    """Canonical (side_a, side_b) masks of every partition based at ``base``.

    ``units`` are the base's partition units.  Every assignment of them to
    the two sides is tried, with the base and its inverse forced apart; thin
    ones never arise because each side gets a base letter and at least one
    unit.
    """
    k = len(units)
    pos = 1 << sv_pos(base)
    neg = 1 << sv_neg(base)
    for bits in range(1, (1 << k) - 1):
        m1, m2 = pos, neg
        for i in range(k):
            if bits >> i & 1:
                m1 |= units[i]
            else:
                m2 |= units[i]
        yield _canonical(m1, m2)


def _check_assignments(unit_counts: Iterable[int]) -> None:
    """Raise CapExceededError if the bases' side assignments pass the cap."""
    total = sum((1 << k) - 2 for k in unit_counts if k >= 2)
    if total > SIDE_ASSIGNMENT_CAP:
        raise CapExceededError(SIDE_ASSIGNMENT_CAP, "side assignments")


def _sorted_partitions(g: SimplicialGraph, masks) -> list[Partition]:
    """The partitions of enumerated (thick, canonical) side masks in key
    order, built by bit operations with legal bases read once per split."""
    full = (1 << 2 * g.n) - 1
    positive = full // 3

    @cache
    def split_and_bases(letters: int) -> tuple[frozenset[int], frozenset[int]]:
        split = frozenset(s >> 1 for s in mask_iter(letters))
        return split, _compute_max(g, split)

    parts = []
    for m1, m2 in masks:
        split, bases = split_and_bases((m1 & m2 >> 1 | m2 & m1 >> 1) & positive)
        parts.append(Partition(m1, m2, full & ~(m1 | m2), split, bases))
    return sorted(parts, key=Partition.key)


def enumerate_partitions(g: SimplicialGraph, base: int) -> list[Partition]:
    """All partitions admitting ``base`` as a base vertex, in key order.

    A non-relevant base yields an empty list (logged, not an error).
    """
    g._check_vertex(base)
    units = g.partition_units(base)
    k = len(units)
    if k < 2:
        logger.info(
            "vertex %s is not relevant: %d non-base component(s)", g.names[base], k
        )
        return []
    _check_assignments([k])
    return _sorted_partitions(g, _side_masks(base, units))


def all_partitions(g: SimplicialGraph) -> list[Partition]:
    """Canonical duplicate-free list of every partition of the graph.

    Side masks are de-duplicated before any partition is built: a partition
    with several legal bases arises once per base.
    """
    units = [g.partition_units(v) for v in range(g.n)]
    _check_assignments(len(u) for u in units)
    masks = {m for v, u in enumerate(units) for m in _side_masks(v, u)}
    return _sorted_partitions(g, masks)


def whitehead_images(
    g: SimplicialGraph, p: Partition, base: int
) -> dict[int, tuple[int, ...]]:
    """Generator images of the automorphism attached to (p, base).

    ``base`` is a signed vertex whose underlying vertex is a legal base.  With
    S the side containing the positive base letter: a split generator in S
    maps to itself times the inverse base letter, a split generator opposite S
    picks up the base letter on the left, a non-split generator pair inside S
    is conjugated by the base letter, and everything else (the link, the other
    side's non-split pairs, the base vertex) is fixed.  Words are signed-id
    tuples, freely reduced as written.
    """
    m = sv_vertex(base)
    if m not in p.max_bases:
        raise PartitionError(f"{g.names[m]} is not a legal base of this partition")
    if p.side_a.bit_count() < 2 or p.side_b.bit_count() < 2:
        raise PartitionError("automorphism images need a thick partition")
    s_pos = p.side_of(sv_pos(m))
    b = base
    b_inv = sv_inverse(base)
    images: dict[int, tuple[int, ...]] = {}
    for y in range(g.n):
        yp = sv_pos(y)
        if y == m or p.link >> yp & 1:
            images[y] = (yp,)
            continue
        in_active = bool(s_pos >> yp & 1)
        if y in p.split:
            images[y] = (yp, b_inv) if in_active else (b, yp)
        else:
            images[y] = (b, yp, b_inv) if in_active else (yp,)
    return images


def render_word(g: SimplicialGraph, word: tuple[int, ...]) -> str:
    return "".join(
        (g.names[sv_vertex(s)] if sv_is_positive(s) else g.names[sv_vertex(s)] + "^-1")
        + ("." if i < len(word) - 1 else "")
        for i, s in enumerate(word)
    )
