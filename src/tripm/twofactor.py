"""Even 2-factors, their cycles, and the edge-inclusion search behind
them.

``search_spanning`` backtracks over edge inclusion in edge-id order.  With
degree cap 2 and its parity union-find it finds even 2-factors: any branch
that would close an odd cycle is cut immediately, so a completed factor
has even components by construction.  Structural phase 2 runs it with
degree cap 3, and skeleton coloring goes through ``find_even_2factor``.
Splitting a found edge set into cycles and a skeleton is the job of
``skeleton.structural_witness``.
"""

from __future__ import annotations

from .budget import Budget, as_budget
from .graph import Graph


def factor_cycles(g: Graph, edge_ids) -> list[list[int]] | None:
    """Decompose a 2-regular edge set into cycles, each an edge-id list in
    traversal order.  Cycles are ordered by their smallest vertex; each
    starts at that vertex along its lowest-id incident factor edge.  Returns
    None if some touched vertex does not have degree exactly 2 in the set.

    The result depends on the set of ids alone, not on their order or
    repetitions: each vertex keeps its two edges in two arrays, and a
    cycle starts along the smaller of the two.
    """
    ids = edge_ids if isinstance(edge_ids, (set, frozenset)) else set(edge_ids)
    n, edges = g.n, g.edges
    first = [-1] * n
    second = [-1] * n
    for e in ids:
        for x in edges[e]:
            if first[x] < 0:
                first[x] = e
            elif second[x] < 0:
                second[x] = e
            else:
                return None
    if first.count(-1) != second.count(-1):  # some vertex has one edge
        return None
    seen = bytearray(n)
    cycles: list[list[int]] = []
    for start in range(n):
        a, b = first[start], second[start]
        if a < 0 or seen[start]:
            continue
        e = a if a < b else b
        cycle = []
        v = start
        while True:
            seen[v] = 1
            cycle.append(e)
            x, y = edges[e]
            v = y if v == x else x
            if v == start:
                break
            a = first[v]
            e = second[v] if a == e else a
        cycles.append(cycle)
    return cycles


def search_spanning(g: Graph, budget: Budget, cap: int, parity: bool, leaf):
    """First non-None ``leaf(chosen)`` over spanning subgraphs whose
    degrees all lie in [2, cap]; None after exhausting the search space.

    Backtracks over edge inclusion in edge-id order, trying inclusion
    first, on an explicit stack, so the depth is not bounded by recursion.
    Each search-tree node charges ``budget``.  A vertex's degree ``deg``
    never exceeds ``cap``, and an edge is left out only while both ends can
    still reach degree 2 with the edges not yet decided (``rem``).  With
    ``parity`` a union-find with parity bits keeps the chosen edges
    bipartite, so a branch that would close an odd cycle is cut at once;
    its links are undone through a trail.  ``leaf`` receives the chosen
    edge ids as an ascending tuple.
    """
    n, m, edges = g.n, g.m, g.edges
    deg = [0] * n
    rem = list(g.degrees())
    parent = list(range(n))
    rank = [0] * n
    par = [0] * n  # parity relative to parent
    trail: list[tuple[int, bool, int] | None] = []  # one entry per inclusion

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
            if pu == pv:
                return False
            trail.append(None)
            return True
        if rank[ru] < rank[rv]:
            ru, rv, pu, pv = rv, ru, pv, pu
        parent[rv] = ru
        par[rv] = 1 ^ pu ^ pv
        grew = rank[ru] == rank[rv]
        if grew:
            rank[ru] += 1
        trail.append((rv, grew, ru))
        return True

    chosen: list[int] = []  # the included edges among 0 .. i-1, ascending
    i = 0
    while True:
        budget.charge()
        if i == m:
            if all(d >= 2 for d in deg):
                result = leaf(tuple(chosen))
                if result is not None:
                    return result
        else:
            u, v = edges[i]
            rem[u] -= 1
            rem[v] -= 1
            if (deg[u] < cap and deg[v] < cap
                    and (not parity or union_unequal(u, v))):
                deg[u] += 1
                deg[v] += 1
                chosen.append(i)
                i += 1
                continue
            if deg[u] + rem[u] >= 2 and deg[v] + rem[v] >= 2:
                i += 1
                continue
            rem[u] += 1
            rem[v] += 1
        # backtrack to the deepest included edge that may still be left out
        while i:
            i -= 1
            u, v = edges[i]
            if chosen and chosen[-1] == i:
                chosen.pop()
                deg[u] -= 1
                deg[v] -= 1
                link = trail.pop() if parity else None
                if link is not None:
                    rv, grew, ru = link
                    parent[rv] = rv
                    par[rv] = 0
                    if grew:
                        rank[ru] -= 1
                if deg[u] + rem[u] >= 2 and deg[v] + rem[v] >= 2:
                    i += 1
                    break
            rem[u] += 1
            rem[v] += 1
        else:
            return None


def find_even_2factor(g: Graph, budget=None) -> frozenset[int] | None:
    """First spanning 2-regular subgraph with all components even, in
    include-first edge-id order; None after exhausting the search space."""
    if g.n % 2:
        raise ValueError("even 2-factor needs an even vertex count")
    return search_spanning(g, as_budget(budget), 2, True, frozenset)
