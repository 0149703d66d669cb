"""Graph-level predicates: the two spikiness conditions, barbed, and P(k).

Condition 1 forbids a non-principal vertex u' at distance 2 from a
non-principal u commuting with a principal dominator of u.  Condition 2
forbids, for a *relevant* non-principal u, a second principal vertex outside
st(u) commuting with a principal dominator of u (equivalently: a component of
the graph minus st(u) that contains a dominator must not contain two commuting
principal vertices).  Spiky is their conjunction, recomputed independently by
a characterization sweep over (u, dominator, link vertex) triples; the two
computations must agree.

Barbed asks that every vertex at distance exactly 2 from a non-principal
vertex dominates it.  P(k) measures across how many components of the graph
minus st(u) the dominators of u are spread.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import SimplicialGraph

WITNESS_CAP = 20


class SpikyConsistencyError(RuntimeError):
    """The two spikiness computations disagreed (internal error)."""


@dataclass(frozen=True)
class ConditionReport:
    condition1: bool
    condition1_witnesses: tuple[tuple[int, int, int], ...]  # (u, u', m)
    condition2: bool
    condition2_witnesses: tuple[tuple[int, int, int], ...]  # (u, m, n)
    spiky: bool
    barbed: bool
    barbed_witnesses: tuple[tuple[int, int], ...]  # (u, v)
    p_k: int
    p_k_counts: tuple[tuple[int, int], ...]  # (u, component count), dominators
    p_k_principal_maximal: int

    def to_dict(self, g: SimplicialGraph) -> dict:
        name = g.names.__getitem__
        return {
            "condition1": self.condition1,
            "condition1_witnesses": [
                {"u": name(u), "u_prime": name(up), "m": name(m)}
                for u, up, m in self.condition1_witnesses
            ],
            "condition2": self.condition2,
            "condition2_witnesses": [
                {"u": name(u), "m": name(m), "n": name(n)}
                for u, m, n in self.condition2_witnesses
            ],
            "spiky": self.spiky,
            "spiky_characterization": self.spiky,
            "barbed": self.barbed,
            "barbed_witnesses": [
                {"u": name(u), "v": name(v)} for u, v in self.barbed_witnesses
            ],
            "p_k": self.p_k,
            "p_k_counts": [
                {"u": name(u), "components": c} for u, c in self.p_k_counts
            ],
            "p_k_principal_maximal": self.p_k_principal_maximal,
        }


def check_condition1(g: SimplicialGraph):
    """Returns (holds, witnesses); witnesses are (u, u', m) triples."""
    cls = g.classify_vertices()
    nonprincipal = sorted(cls.non_principal)
    witnesses = []
    for u in nonprincipal:
        for m in sorted(cls.dominators[u]):
            if m not in cls.principal:
                continue
            for up in nonprincipal:
                if up in g.distance_two(u) and up in g.adj[m]:
                    witnesses.append((u, up, m))
    return not witnesses, tuple(witnesses[:WITNESS_CAP])


def check_condition2(g: SimplicialGraph):
    """Returns (holds, witnesses); witnesses are (u, m, n) triples.

    u ranges over relevant non-principal vertices only: vertices that cannot
    base a partition never take part in hugging, and including them would
    flag every rake graph through its leaves.
    """
    cls = g.classify_vertices()
    witnesses = []
    for u in sorted(cls.relevant - cls.principal):
        star_u = g.star(u)
        for m in sorted(cls.dominators[u]):
            if m not in cls.principal:
                continue
            for n in sorted(g.adj[m]):
                if n != m and n not in star_u and n in cls.principal:
                    witnesses.append((u, m, n))
    return not witnesses, tuple(witnesses[:WITNESS_CAP])


def _spiky_characterization(g: SimplicialGraph) -> bool:
    """Independent spikiness sweep over (u, dominator m, v in lk(m) - st(u)).

    Violation when v is non-principal at distance 2 from u, or when v is
    principal and u is relevant.  Dominators here need not be principal; any
    violation lifts along the domination order to a principal one.
    """
    cls = g.classify_vertices()
    for u in sorted(cls.non_principal):
        star_u = g.star(u)
        u_relevant = u in cls.relevant
        for m in sorted(cls.dominators[u]):
            for v in sorted(g.adj[m]):
                if v in star_u:
                    continue
                if v in cls.principal:
                    if u_relevant:
                        return False
                elif v in g.distance_two(u):
                    return False
    return True


def _checked_spiky(g: SimplicialGraph, c1: bool, c2: bool) -> bool:
    """The conjunction of the two conditions, cross-checked against the sweep."""
    both = c1 and c2
    char = _spiky_characterization(g)
    if both != char:
        raise SpikyConsistencyError(
            f"conditions give spiky={both} but the characterization gives {char}"
        )
    return both


def is_spiky(g: SimplicialGraph) -> bool:
    """Conjunction of Conditions 1 and 2, cross-checked against the sweep."""
    return _checked_spiky(g, check_condition1(g)[0], check_condition2(g)[0])


def is_barbed(g: SimplicialGraph):
    """Returns (holds, witnesses); witnesses are (u, v) with v not dominating u."""
    cls = g.classify_vertices()
    witnesses = []
    for u in sorted(cls.non_principal):
        for v in sorted(g.distance_two(u)):
            if not g.lt_circ(u, v):
                witnesses.append((u, v))
    return not witnesses, tuple(witnesses[:WITNESS_CAP])


def _p_k(g: SimplicialGraph, keep: frozenset[int]):
    """(k, per_u_counts): each non-principal u with the number of components
    of the graph minus st(u) that hold a dominator of u in ``keep``, and the
    least k >= 0 with every count <= k+1."""
    cls = g.classify_vertices()
    counts = []
    for u in sorted(cls.non_principal):
        doms = cls.dominators[u] & keep
        counts.append((u, sum(1 for comp in g.components_minus_star(u) if comp & doms)))
    k = max((c for _, c in counts), default=1) - 1
    return max(k, 0), tuple(counts)


def p_k_value(g: SimplicialGraph):
    """Minimal k with every non-principal u's dominators in <= k+1 components.

    Returns (k, per_u_counts).  Every non-principal vertex has at least one
    dominator and dominators never lie in st(u), so each count is >= 1.
    """
    return _p_k(g, frozenset(range(g.n)))


def p_k_principal_maximal(g: SimplicialGraph):
    """Informational variant counting only principal maximal dominators."""
    cls = g.classify_vertices()
    return _p_k(g, cls.principal & cls.maximal)


def condition_report(g: SimplicialGraph) -> ConditionReport:
    c1, w1 = check_condition1(g)
    c2, w2 = check_condition2(g)
    spiky = _checked_spiky(g, c1, c2)
    barbed, wb = is_barbed(g)
    k, counts = p_k_value(g)
    k_pm, _ = p_k_principal_maximal(g)
    return ConditionReport(
        condition1=c1,
        condition1_witnesses=w1,
        condition2=c2,
        condition2_witnesses=w2,
        spiky=spiky,
        barbed=barbed,
        barbed_witnesses=wb,
        p_k=k,
        p_k_counts=counts,
        p_k_principal_maximal=k_pm,
    )
