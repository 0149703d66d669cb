"""Hugging partitions: the redundancy notion driving the retraction.

Fix a non-principal partition q based at u and a vertex m dominating u.  The
component C of the graph minus st(u) that contains m has at least two
vertices, so its double sits inside a single side Q of q.  The doubled
components of m that lie inside Q (always including the base singleton of u
on that side) can be distributed between two prospective sides

    P1 = {m} ∪ C1        P2 = {m^-1} ∪ C2       (C1 ⊔ C2 the distribution),

and the resulting partitions hug q: both sides sit inside Q and the
complements intersect exactly in the other side of q.  A distribution with an
empty half gives one thin side, the lone letter m or m^-1, which is ignored;
q is then 1-hugged by the remaining partition.  q is hugged *in* a compatible
set when the hugging partitions can be found among its members.

``hug_configs`` is the one construction of this relation: it tabulates, once
per node, every configuration of huggers in the compatibility graph, built
from side masks and looked up by them in ``CompatibilityGraph.node_of``.
``is_hugged_in`` (and through it the retraction's ``HugOracle``) is the one
lookup: the first configuration whose hugger mask lies in a compatible
member set.  The brute-force verifiers iterate the table.  The dominator m
may itself be non-principal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .compat import CompatibilityGraph
from .graph import SimplicialGraph, mask_iter, sv_neg, sv_pos
from .partitions import Partition, _canonical
from .search import _co_components, clique_masks, max_compatible


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

    @cached_property
    def hugger_mask(self) -> int:
        """The huggers as a bitmask over node ids."""
        return sum(1 << j for j in self.huggers)

    def hugger_sides(self) -> tuple[int, int]:
        """Reconstruct (P1, P2) side masks from (m, C1, C2)."""
        c1, c2 = self.comp_split
        return 1 << sv_pos(self.base_m) | sum(c1), 1 << sv_neg(self.base_m) | sum(c2)


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


def hug_configs(cg: CompatibilityGraph, q_id: int) -> tuple[HugWitness, ...]:
    """Every way the graph's partitions can hug node q_id.

    For each legal base u of q and each dominator m of u in id order, one
    witness per distribution of the units of ``hug_context`` (2^k of them for
    k units, bit i of the index putting unit i into C1), so a configuration
    repeats once per legal base.  Each non-empty half gives a hugger side,
    found in ``cg.node_of`` by its side masks; an empty half leaves the thin
    side {m^±1} and is dropped, leaving a one-hug.  Built on first use and
    memoised on ``cg`` per node.
    """
    if q_id not in cg._hug_configs:
        cg._hug_configs[q_id] = tuple(_build_configs(cg, q_id))
    return cg._hug_configs[q_id]


def _build_configs(cg: CompatibilityGraph, q_id: int):
    g = cg.graph
    q = cg.nodes[q_id]
    cls = g.classify_vertices()
    full = (1 << 2 * g.n) - 1
    for u in sorted(q.max_bases):
        for m in sorted(cls.dominators[u]):
            side_q, units = hug_context(g, q, u, m)
            rest = full & ~g.link_mask(m)
            for bits in range(1 << len(units)):
                c1 = tuple(mu for i, mu in enumerate(units) if bits >> i & 1)
                c2 = tuple(mu for i, mu in enumerate(units) if not bits >> i & 1)
                huggers = []
                for letter, half in zip((sv_pos(m), sv_neg(m)), (c1, c2)):
                    if not half:
                        continue  # the side is the lone letter m^±1: thin
                    side = 1 << letter | sum(half)  # units are disjoint
                    j = cg.node_of.get(_canonical(side, rest & ~side))
                    if j is None or m not in cg.bases[j]:
                        raise RuntimeError(
                            "hug construction produced a partition that is not "
                            "a node based at the dominator"
                        )
                    huggers.append(j)
                if huggers:
                    yield HugWitness(
                        kind="two-hug" if len(huggers) == 2 else "one-hug",
                        base_m=m,
                        base_u=u,
                        hugged_side=side_q,
                        comp_split=(c1, c2),
                        huggers=tuple(huggers),
                    )


def is_hugged_in(
    cg: CompatibilityGraph, members: Iterable[int], q_id: int
) -> Optional[HugWitness]:
    """A hug witness for member q_id inside the compatible set, or None.

    The first configuration of ``hug_configs`` whose huggers are all
    members.  Members that are not pairwise compatible raise HugError; on a
    compatible set at most one configuration of each (u, m) group fits.
    """
    mask, common = 0, -1  # the members, and what every member is compatible with
    for i in members:
        mask |= 1 << i
        common &= cg.adj[i] | 1 << i
    if not mask >> q_id & 1:
        raise HugError("the partition is not a member of the set")
    if cg.principal[q_id]:
        raise HugError("only non-principal partitions can be hugged")
    if mask & ~common:
        raise HugError("the member set is not pairwise compatible")
    for w in hug_configs(cg, q_id):
        if not w.hugger_mask & ~mask:
            return w
    return None


def active_factor(cg: CompatibilityGraph) -> int:
    """The union of the co-components of the compatibility graph that hold a
    non-principal node or a hugger of one, as a node mask.

    Every other node is principal, takes part in no hug configuration and
    is compatible with every node of this factor; so which members of a
    compatible set are hugged depends only on its members in the factor.
    """
    everyone = (1 << cg.n) - 1
    non_principal = everyone & ~cg.principal_mask
    touched = non_principal
    for q_id in mask_iter(non_principal):
        for w in hug_configs(cg, q_id):
            touched |= w.hugger_mask
    return sum(part for part in _co_components(cg.adj, everyone) if part & touched)


class HugOracle:
    """Per compatible member set, caches the hugged members and whether a
    hugged extension exists (through ``is_hugged_in``); the survivor rule."""

    def __init__(self, cg: CompatibilityGraph):
        self.cg = cg
        self._hugged: dict[int, int] = {}
        self._extendable: dict[int, bool] = {}
        self._np_mask = (1 << cg.n) - 1 & ~cg.principal_mask

    def hugged_mask(self, members_mask: int) -> int:
        """Mask of non-principal members hugged in the member set."""
        candidates = members_mask & self._np_mask
        if not candidates:
            return 0  # only non-principal members can be hugged
        cached = self._hugged.get(members_mask)
        if cached is not None:
            return cached
        ids = list(mask_iter(members_mask))
        out = sum(
            1 << q_id
            for q_id in mask_iter(candidates)
            if is_hugged_in(self.cg, ids, q_id)
        )
        self._hugged[members_mask] = out
        return out

    def extendable_by_hugged(self, members_mask: int) -> bool:
        """Whether some outside non-principal partition, compatible with every
        member, would be hugged once added."""
        outside = self._np_mask & ~members_mask
        if not outside:
            return False  # only non-principal partitions can be hugged
        cached = self._extendable.get(members_mask)
        if cached is not None:
            return cached
        out = any(
            is_hugged_in(self.cg, mask_iter(members_mask | 1 << j), j)
            for j in mask_iter(outside)
            if self.cg.adj[j] & members_mask == members_mask
        )
        self._extendable[members_mask] = out
        return out

    def survives(self, lower: int, upper: int) -> bool:
        """Whether the cube (lower, upper) survives: no member of upper \\ lower
        is hugged in upper, and no hugged extension of upper exists."""
        return not self.hugged_mask(upper) & ~lower and not self.extendable_by_hugged(upper)


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


def verify_oversize_hugged(cg: CompatibilityGraph, budget: int) -> Verdict:
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
    oracle = HugOracle(cg)
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


def verify_hug_compat(cg: CompatibilityGraph, budget: int) -> Verdict:
    """Check: a non-principal partition compatible with all huggers of a
    hugged q is compatible with q itself.

    The implication holds whenever the graph satisfies Condition 1; on other
    graphs this reports the counterexamples.
    """
    checked = 0
    witnesses = []
    np_nodes = [i for i in range(cg.n) if not cg.principal[i]]
    for q_id in np_nodes:
        for config in hug_configs(cg, q_id):
            hugger_mask = config.hugger_mask
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
                    witnesses.append((q_id, tuple(sorted(config.huggers)), q2))
    if witnesses:
        return Verdict(
            status="fail",
            checked=checked,
            detail="partition compatible with huggers but not with the hugged one",
            witnesses=tuple(witnesses[:10]),
        )
    return Verdict(status="pass", checked=checked)


def verify_replacement(
    cg: CompatibilityGraph,
    budget: int,
    *,
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
    for qa in np_nodes:
        for qb in np_nodes:
            if qb <= qa or not cg.edge(qa, qb):
                continue
            for wa in hug_configs(cg, qa):
                for wb in hug_configs(cg, qb):
                    hugger_mask = wa.hugger_mask | wb.hugger_mask
                    group = hugger_mask | 1 << qa | 1 << qb
                    if not cg.is_clique(mask_iter(group)):
                        continue
                    for r in principal_nodes:
                        if group >> r & 1:
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
                            pair = (tuple(sorted(w.huggers)) for w in (wa, wb))
                            witnesses.append((qa, qb, *pair, r))
    if witnesses:
        return Verdict(
            status="fail",
            checked=checked,
            detail="principal partition incompatible with both hugged members",
            witnesses=tuple(witnesses[:10]),
        )
    return Verdict(status="pass", checked=checked)
