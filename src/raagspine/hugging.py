"""Hugging partitions: the redundancy notion driving the retraction.

Fix a non-principal partition q based at u and a vertex m dominating u.  The
component C of the graph minus st(u) that contains m has at least two
vertices, so its double sits inside a single side Q of q.  The doubled
components of m that lie inside Q (always including the base singleton of u
on that side) can be distributed between two prospective sides

    P1 = {m} ∪ C1        P2 = {m^-1} ∪ C2       (C1 ⊔ C2 the distribution),

and the resulting partitions hug q: both sides sit inside Q and the
complements intersect exactly in the other side of q.  A distribution with an
empty half gives one thin "almost"-partition, which is ignored; q is then
1-hugged by the remaining valid one.  q is hugged *in* a compatible set when
the hugging partitions can be found among its members.

By default the dominator m may itself be non-principal; ``strict_principal``
restricts detection to principal m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .compat import CompatibilityGraph
from .graph import SimplicialGraph, mask_iter, sv_neg, sv_pos
from .partitions import Partition, _partition_from_masks
from .search import clique_masks, max_compatible


class HugError(ValueError):
    pass


@dataclass(frozen=True)
class HugWitness:
    kind: str  # "one-hug" | "two-hug"
    base_m: int
    base_u: int
    hugged_side: int  # mask of the side Q of q
    comp_split: tuple[tuple[int, ...], tuple[int, ...]]  # unit masks (C1, C2)
    huggers: tuple[int, ...]  # node ids in the ambient compatibility graph

    def hugger_sides(self) -> tuple[int, int]:
        """Reconstruct (P1, P2) side masks from (m, C1, C2)."""
        p1 = 1 << sv_pos(self.base_m)
        for u in self.comp_split[0]:
            p1 |= u
        p2 = 1 << sv_neg(self.base_m)
        for u in self.comp_split[1]:
            p2 |= u
        return p1, p2


def _dominators(g: SimplicialGraph, u: int, strict_principal: bool) -> list[int]:
    cls = g.classify_vertices()
    doms = cls.dominators[u]
    if strict_principal:
        doms = doms & cls.principal
    return sorted(doms)


def hug_context(g: SimplicialGraph, q: Partition, u: int, m: int):
    """The hugged side Q of q and the units of m inside it.

    Returns (Q mask, list of unit masks).  Raises when m does not dominate u
    or does not sit inside a side of q.
    """
    if not g.lt_circ(u, m):
        raise HugError(f"{g.names[m]} does not dominate {g.names[u]}")
    if q.link >> sv_pos(m) & 1:
        raise HugError(f"{g.names[m]} lies in the link of the partition")
    side_q = q.side_of(sv_pos(m))
    if not side_q >> sv_neg(m) & 1:
        # q would have to split m, impossible for a dominator of its base
        raise HugError(f"partition splits the dominator {g.names[m]}")
    units_in_q = [mu for mu in g.partition_units(m) if mu & side_q == mu]
    return side_q, units_in_q


def _distributions(m: int, units: list[int]):
    """The 2^k side-mask pairs ({m} ∪ C1, {m^-1} ∪ C2) over the k units."""
    for bits in range(1 << len(units)):
        p1 = 1 << sv_pos(m)
        p2 = 1 << sv_neg(m)
        for i, mu in enumerate(units):
            if bits >> i & 1:
                p1 |= mu
            else:
                p2 |= mu
        yield p1, p2


def hug_candidates(
    g: SimplicialGraph, q: Partition, m: int
) -> list[tuple[Partition, Partition]]:
    """All ordered distributions (P1, P2) for hugging q with base m.

    Members with an empty half come back thin (``thick`` False); a pair with
    one thin member is a 1-hug candidate.  2^k pairs for k units inside Q.
    """
    cls = g.classify_vertices()
    if q.max_bases & cls.principal:
        raise HugError("hugging targets a non-principal partition")
    u = min(q.max_bases)
    _, units = hug_context(g, q, u, m)
    rest = ((1 << (2 * g.n)) - 1) & ~g.link_mask(m)

    def partition(side: int) -> Partition:
        return _partition_from_masks(g, side, rest & ~side, validate=False)

    return [(partition(p1), partition(p2)) for p1, p2 in _distributions(m, units)]


def is_hugged_in(
    cg: CompatibilityGraph,
    members: Iterable[int],
    q_id: int,
    *,
    strict_principal: bool = False,
) -> Optional[HugWitness]:
    """A hug witness for member q_id inside the compatible set, or None.

    Searches every legal base u of q, every dominator m of u, and both kinds
    of hug.  Huggers must be members themselves and be based at m.
    """
    member_ids = sorted(set(members))
    if q_id not in member_ids:
        raise HugError("the partition is not a member of the set")
    if cg.principal[q_id]:
        raise HugError("only non-principal partitions can be hugged")
    g = cg.graph
    q = cg.nodes[q_id]
    for u in sorted(q.max_bases):
        for m in _dominators(g, u, strict_principal):
            side_q, units = hug_context(g, q, u, m)
            target = 0
            for mu in units:
                target |= mu
            pos_bit = 1 << sv_pos(m)
            neg_bit = 1 << sv_neg(m)
            plus: dict[int, int] = {}
            minus: dict[int, int] = {}
            for j in member_ids:
                if j == q_id or m not in cg.bases[j]:
                    continue
                p = cg.nodes[j]
                for side in p.sides():
                    if side & pos_bit and not (side & ~pos_bit) & ~target:
                        plus.setdefault(side & ~pos_bit, j)
                    if side & neg_bit and not (side & ~neg_bit) & ~target:
                        minus.setdefault(side & ~neg_bit, j)
            if not plus and not minus:
                continue

            def units_of(mask: int) -> tuple[int, ...]:
                return tuple(mu for mu in units if mu & mask)

            if target in plus:
                return HugWitness(
                    kind="one-hug",
                    base_m=m,
                    base_u=u,
                    hugged_side=side_q,
                    comp_split=(units_of(target), ()),
                    huggers=(plus[target],),
                )
            if target in minus:
                return HugWitness(
                    kind="one-hug",
                    base_m=m,
                    base_u=u,
                    hugged_side=side_q,
                    comp_split=((), units_of(target)),
                    huggers=(minus[target],),
                )
            for s1 in sorted(plus):
                s2 = target & ~s1
                if s2 in minus:
                    return HugWitness(
                        kind="two-hug",
                        base_m=m,
                        base_u=u,
                        hugged_side=side_q,
                        comp_split=(units_of(s1), units_of(s2)),
                        huggers=(plus[s1], minus[s2]),
                    )
    return None


class HugOracle:
    """Caches hugged-member masks and hugged-extension checks per member set."""

    def __init__(self, cg: CompatibilityGraph, *, strict_principal: bool = False):
        self.cg = cg
        self.strict_principal = strict_principal
        self._hugged: dict[int, int] = {}
        self._extendable: dict[int, bool] = {}
        self._np_nodes = [i for i in range(cg.n) if not cg.principal[i]]

    def hugged_mask(self, members_mask: int) -> int:
        """Mask of non-principal members hugged in the member set."""
        cached = self._hugged.get(members_mask)
        if cached is not None:
            return cached
        ids = list(mask_iter(members_mask))
        out = 0
        for q_id in ids:
            if self.cg.principal[q_id]:
                continue
            if is_hugged_in(
                self.cg, ids, q_id, strict_principal=self.strict_principal
            ):
                out |= 1 << q_id
        self._hugged[members_mask] = out
        return out

    def extendable_by_hugged(self, members_mask: int) -> bool:
        """Whether some outside non-principal partition, compatible with every
        member, would be hugged once added."""
        cached = self._extendable.get(members_mask)
        if cached is not None:
            return cached
        out = False
        for j in self._np_nodes:
            if members_mask >> j & 1:
                continue
            if self.cg.adj[j] & members_mask != members_mask:
                continue
            bigger = members_mask | 1 << j
            if is_hugged_in(
                self.cg,
                mask_iter(bigger),
                j,
                strict_principal=self.strict_principal,
            ):
                out = True
                break
        self._extendable[members_mask] = out
        return out


def cube_survives(
    cg: CompatibilityGraph,
    lower: Iterable[int],
    upper: Iterable[int],
    *,
    strict_principal: bool = False,
    oracle: Optional[HugOracle] = None,
) -> bool:
    """Survivor predicate for the cube (lower, upper).

    True iff no non-principal partition of upper minus lower is hugged in
    upper, and no addable outside non-principal partition would be hugged in
    the enlarged set.
    """
    lower_mask = cg.members_mask(lower)
    upper_mask = cg.members_mask(upper)
    if lower_mask & ~upper_mask:
        raise HugError("lower set is not contained in upper set")
    if not cg.is_clique(mask_iter(upper_mask)):
        raise HugError("upper set is not pairwise compatible")
    if oracle is None:
        oracle = HugOracle(cg, strict_principal=strict_principal)
    if oracle.hugged_mask(upper_mask) & (upper_mask & ~lower_mask):
        return False
    return not oracle.extendable_by_hugged(upper_mask)


# -- finite verification of the key statements -------------------------


@dataclass(frozen=True)
class Verdict:
    status: str  # "pass" | "fail" | "inconclusive"
    checked: int
    detail: str = ""
    witnesses: tuple = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def verify_oversize_hugged(
    cg: CompatibilityGraph, budget: int, *, strict_principal: bool = False
) -> Verdict:
    """Every compatible set larger than M(L) must contain a hugged member.

    Exhaustive over all such sets, barbed graphs only.  ``budget`` caps the
    number of sets examined; running out gives an inconclusive verdict, which
    is distinct from a pass.
    """
    from .conditions import is_barbed

    barbed, _ = is_barbed(cg.graph)
    if not barbed:
        raise HugError("oversize verification requires a barbed graph")
    m_l = max_compatible(cg, cg.graph.classify_vertices().principal).size
    oracle = HugOracle(cg, strict_principal=strict_principal)
    checked = 0
    for mask in clique_masks(cg.adj, (1 << cg.n) - 1, min_size=m_l + 1):
        if checked >= budget:
            return Verdict(status="inconclusive", checked=checked, detail="budget exhausted")
        checked += 1
        if not oracle.hugged_mask(mask):
            return Verdict(
                status="fail",
                checked=checked,
                detail="oversize compatible set with no hugged member",
                witnesses=(tuple(mask_iter(mask)),),
            )
    return Verdict(status="pass", checked=checked)


def _hug_configs(
    cg: CompatibilityGraph, q_id: int, *, strict_principal: bool = False
):
    """All ways the global partition set can hug node q_id.

    Yields (hugger node ids tuple, m).  Huggers are valid partitions; thin
    halves are dropped, giving 1-hug configurations.
    """
    g = cg.graph
    q = cg.nodes[q_id]
    index = {(cg.nodes[j].side_a, cg.nodes[j].side_b): j for j in range(cg.n)}
    full = (1 << (2 * g.n)) - 1
    for u in sorted(q.max_bases):
        for m in _dominators(g, u, strict_principal):
            _, units = hug_context(g, q, u, m)
            rest = full & ~g.link_mask(m)
            for sides in _distributions(m, units):
                ids = []
                for side in sides:
                    if side.bit_count() < 2:
                        continue
                    part = _partition_from_masks(g, side, rest & ~side, validate=False)
                    node = index.get((part.side_a, part.side_b))
                    if node is None:
                        raise RuntimeError(
                            "hug construction produced a partition missing from the graph"
                        )
                    ids.append(node)
                if ids:
                    yield tuple(sorted(set(ids))), m


def verify_hug_compat(
    cg: CompatibilityGraph, budget: int, *, strict_principal: bool = False
) -> Verdict:
    """Check: a non-principal partition compatible with all huggers of a
    hugged q is compatible with q itself.

    The implication holds whenever the graph satisfies Condition 1; on other
    graphs this reports the counterexamples.
    """
    checked = 0
    witnesses = []
    np_nodes = [i for i in range(cg.n) if not cg.principal[i]]
    for q_id in np_nodes:
        for huggers, _m in _hug_configs(cg, q_id, strict_principal=strict_principal):
            hugger_mask = cg.members_mask(huggers)
            for q2 in np_nodes:
                if q2 == q_id:
                    continue
                if checked >= budget:
                    return Verdict(
                        status="inconclusive", checked=checked, detail="budget exhausted"
                    )
                checked += 1
                if cg.adj[q2] & hugger_mask != hugger_mask:
                    continue
                if not cg.edge(q2, q_id):
                    witnesses.append((q_id, huggers, q2))
    if witnesses:
        return Verdict(
            status="fail",
            checked=checked,
            detail="partition compatible with huggers but not with the hugged one",
            witnesses=tuple(witnesses[:10]),
        )
    return Verdict(status="pass", checked=checked)


def verify_lemma_conclusions(
    cg: CompatibilityGraph, budget: int, *, strict_principal: bool = False
) -> dict[str, Verdict]:
    """Both brute-force conclusion checks, each on half the budget.

    "hug-compat": a non-principal partition compatible with all huggers of a
    hugged one is compatible with it (holds under Condition 1).
    "replacement": a principal partition compatible with the huggers of two
    hugged members is compatible with one of them (holds under Condition 2,
    and for some graphs beyond it).
    """
    half = max(budget // 2, 1)
    return {
        "hug-compat": verify_hug_compat(
            cg, half, strict_principal=strict_principal
        ),
        "replacement": verify_replacement(
            cg, half, strict_principal=strict_principal
        ),
    }


def verify_replacement(
    cg: CompatibilityGraph,
    budget: int,
    *,
    strict_principal: bool = False,
    q_bases: Optional[frozenset[int]] = None,
    r_bases: Optional[frozenset[int]] = None,
) -> Verdict:
    """Check: a principal partition compatible with the huggers of two
    distinct hugged members is compatible with at least one of them.

    The conclusion holds whenever the graph satisfies Condition 2 (and for
    some graphs beyond that).  ``q_bases``/``r_bases`` restrict the hugged
    partitions' and the principal partition's base vertices.
    """
    checked = 0
    witnesses = []
    np_nodes = [
        i
        for i in range(cg.n)
        if not cg.principal[i] and (q_bases is None or cg.bases[i] & q_bases)
    ]
    principal_nodes = [
        i
        for i in range(cg.n)
        if cg.principal[i] and (r_bases is None or cg.bases[i] & r_bases)
    ]
    configs = {
        q_id: list(_hug_configs(cg, q_id, strict_principal=strict_principal))
        for q_id in np_nodes
    }
    for qa in np_nodes:
        for qb in np_nodes:
            if qb <= qa or not cg.edge(qa, qb):
                continue
            for huggers_a, _ in configs[qa]:
                for huggers_b, _ in configs[qb]:
                    group = set(huggers_a) | set(huggers_b) | {qa, qb}
                    if not cg.is_clique(group):
                        continue
                    hugger_mask = cg.members_mask(set(huggers_a) | set(huggers_b))
                    for r in principal_nodes:
                        if r in group:
                            continue
                        if checked >= budget:
                            return Verdict(
                                status="inconclusive",
                                checked=checked,
                                detail="budget exhausted",
                            )
                        checked += 1
                        if cg.adj[r] & hugger_mask != hugger_mask:
                            continue
                        if not cg.edge(r, qa) and not cg.edge(r, qb):
                            witnesses.append((qa, qb, huggers_a, huggers_b, r))
    if witnesses:
        return Verdict(
            status="fail",
            checked=checked,
            detail="principal partition incompatible with both hugged members",
            witnesses=tuple(witnesses[:10]),
        )
    return Verdict(status="pass", checked=checked)
