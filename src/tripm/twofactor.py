"""Even 2-factors.

The 2-factor search backtracks over edge inclusion in edge-id order.  A
union-find structure with parity bits tracks 2-colorability of the picked
subgraph, so any branch that would close an odd cycle is cut immediately;
a completed factor therefore has even components by construction.
"""

from __future__ import annotations

from .budget import as_budget
from .certificates import StructuralCertificate, TripleCertificate, verify_triple
from .graph import Graph


def factor_cycles(g: Graph, edge_ids) -> list[list[int]] | None:
    """Decompose a 2-regular edge set into cycles, each an edge-id list in
    traversal order.  Cycles are ordered by their smallest vertex; each
    starts at that vertex along its lowest-id incident factor edge.  Returns
    None if some touched vertex does not have degree exactly 2 in the set.
    """
    ids = sorted(set(edge_ids))
    inc: dict[int, list[int]] = {}
    for e in ids:
        u, v = g.edges[e]
        inc.setdefault(u, []).append(e)
        inc.setdefault(v, []).append(e)
    if any(len(es) != 2 for es in inc.values()):
        return None
    seen: set[int] = set()
    cycles: list[list[int]] = []
    for start in sorted(inc):
        if start in seen:
            continue
        e = min(inc[start])
        cycle = []
        v = start
        while True:
            seen.add(v)
            cycle.append(e)
            v = g.other(e, v)
            if v == start:
                break
            a, b = inc[v]
            e = b if a == e else a
        cycles.append(cycle)
    return cycles


def find_even_2factor(g: Graph, budget=None) -> frozenset[int] | None:
    """First spanning 2-regular subgraph with all components even, in
    include-first edge-id order; None after exhausting the search space."""
    if g.n % 2:
        raise ValueError("even 2-factor needs an even vertex count")
    b = as_budget(budget)
    n, m = g.n, g.m
    if n == 0:
        b.charge()
        return frozenset()
    deg = [0] * n
    rem = list(g.degrees())
    parent = list(range(n))
    rank = [0] * n
    par = [0] * n  # parity relative to parent
    trail: list[tuple[int, bool, int]] = []

    def find(v: int) -> tuple[int, int]:
        p = 0
        while parent[v] != v:
            p ^= par[v]
            v = parent[v]
        return v, p

    def union_unequal(u: int, v: int) -> bool:
        """Constrain u and v to opposite sides; False means odd cycle."""
        ru, pu = find(u)
        rv, pv = find(v)
        if ru == rv:
            return pu != pv
        if rank[ru] < rank[rv]:
            ru, rv, pu, pv = rv, ru, pv, pu
        parent[rv] = ru
        par[rv] = 1 ^ pu ^ pv
        grew = rank[ru] == rank[rv]
        if grew:
            rank[ru] += 1
        trail.append((rv, grew, ru))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            rv, grew, ru = trail.pop()
            parent[rv] = rv
            par[rv] = 0
            if grew:
                rank[ru] -= 1

    chosen: list[int] = []

    def walk(i: int) -> frozenset[int] | None:
        b.charge()
        if i == m:
            if all(d == 2 for d in deg):
                return frozenset(chosen)
            return None
        u, v = g.edges[i]
        rem[u] -= 1
        rem[v] -= 1
        result = None
        if deg[u] < 2 and deg[v] < 2:
            mark = len(trail)
            if union_unequal(u, v):
                deg[u] += 1
                deg[v] += 1
                chosen.append(i)
                result = walk(i + 1)
                chosen.pop()
                deg[u] -= 1
                deg[v] -= 1
            undo(mark)
        if result is None and deg[u] + rem[u] >= 2 and deg[v] + rem[v] >= 2:
            result = walk(i + 1)
        rem[u] += 1
        rem[v] += 1
        return result

    return walk(0)


def triple_from_even_2factor(g: Graph, factor) -> TripleCertificate:
    """Alternate each even cycle into M1/M2 and set M3 = M2.

    Per component the lowest vertex's lowest-id factor edge opens M1.
    Raises ValueError if the edge set is not a spanning even 2-factor.
    """
    cycles = factor_cycles(g, factor)
    if cycles is None:
        raise ValueError("edge set is not 2-regular")
    touched = set()
    for e in factor:
        touched.update(g.edges[e])
    if len(touched) != g.n:
        raise ValueError("2-factor does not span the graph")
    m1: set[int] = set()
    m2: set[int] = set()
    for cycle in cycles:
        if len(cycle) % 2:
            raise ValueError("factor has an odd cycle component")
        for k, e in enumerate(cycle):
            (m1 if k % 2 == 0 else m2).add(e)
    cert = TripleCertificate(frozenset(m1), frozenset(m2), frozenset(m2))
    report = verify_triple(g, cert)
    if not report["ok"]:
        raise ValueError(f"alternation failed: {report['violations']}")
    return cert


def structural_from_factor(g: Graph, factor) -> StructuralCertificate:
    cycles = factor_cycles(g, factor)
    if cycles is None:
        raise ValueError("edge set is not 2-regular")
    return StructuralCertificate(frozenset(factor),
                                 tuple(tuple(c) for c in cycles), None)
