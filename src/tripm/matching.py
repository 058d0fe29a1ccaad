"""Matching engine: maximum matching, constrained perfect matchings,
perfect matching enumeration, and the matching covered test.

Matchings are frozensets of edge ids.  All routines are deterministic:
vertices are scanned in increasing order and incident edges in edge-id
order, so repeated calls return identical results.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .budget import as_budget
from .graph import Graph, is_connected


def _augment(nbr: list[list[int]], match: list[int], root: int,
             blocked=()) -> bool:
    """One Edmonds search for an augmenting path from the exposed ``root``,
    with blossom shrinking; on success flips the path in ``match``.

    ``nbr[v]`` lists neighbors in ascending order.  ``blocked`` vertices
    must be exposed; they start marked as reached, so the search never
    enters them and runs on the graph without them.
    """
    n = len(match)
    p = [-1] * n
    for x in blocked:
        p[x] = x

    def lca(base: list[int], a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = p[match[b]]

    def mark_path(base: list[int], in_blossom: list[bool], v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    base = list(range(n))
    used = [False] * n
    used[root] = True
    q = deque([root])
    while q:
        v = q.popleft()
        for to in nbr[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                # odd cycle: shrink the blossom to its base
                curbase = lca(base, v, to)
                in_blossom = [False] * n
                mark_path(base, in_blossom, v, curbase, to)
                mark_path(base, in_blossom, to, curbase, v)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    # augment along the alternating path back to root
                    while to != -1:
                        prev = p[to]
                        nxt = match[prev]
                        match[to] = prev
                        match[prev] = to
                        to = nxt
                    return True
                used[match[to]] = True
                q.append(match[to])
    return False


def _maximum_mates(n: int, nbr: list[list[int]]) -> list[int]:
    """Maximum matching as a mate array (-1 for exposed vertices).

    Greedy seeding, then one augmenting search per exposed vertex, both in
    fixed vertex order.
    """
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in nbr[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            _augment(nbr, match, v)
    return match


def _mates_to_edges(g: Graph, match: list[int]) -> frozenset[int]:
    # lowest edge id between each matched pair (parallel edges collapse)
    picked = set()
    for v in range(g.n):
        u = match[v]
        if u > v:
            picked.add(min(g.edge_ids_between(v, u)))
    return frozenset(picked)


def max_matching(g: Graph) -> frozenset[int]:
    """Deterministic maximum matching as a frozenset of edge ids."""
    nbr = [sorted(s) for s in g.neighbor_sets]
    return _mates_to_edges(g, _maximum_mates(g.n, nbr))


def max_matching_size(g: Graph) -> int:
    nbr = [sorted(s) for s in g.neighbor_sets]
    return sum(1 for v in _maximum_mates(g.n, nbr) if v != -1) // 2


def matched_vertices(g: Graph, matching) -> frozenset[int]:
    covered: set[int] = set()
    for e in matching:
        u, v = g.edges[e]
        covered.add(u)
        covered.add(v)
    return frozenset(covered)


def is_matching(g: Graph, edge_ids) -> bool:
    seen: set[int] = set()
    for e in edge_ids:
        u, v = g.edges[e]
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def is_perfect_matching(g: Graph, edge_ids) -> bool:
    return is_matching(g, edge_ids) and len(matched_vertices(g, edge_ids)) == g.n


def perfect_matching_with_forced(g: Graph, forced=(), forbidden=()) -> frozenset[int] | None:
    """A perfect matching containing every ``forced`` edge and avoiding every
    ``forbidden`` edge, or None.  Raises ValueError if ``forced`` is not a
    matching or overlaps ``forbidden``.
    """
    forced = frozenset(forced)
    forbidden = frozenset(forbidden)
    if forced & forbidden:
        raise ValueError("forced and forbidden edge sets overlap")
    if not is_matching(g, forced):
        raise ValueError("forced edges do not form a matching")
    covered = matched_vertices(g, forced)
    rest = [v for v in range(g.n) if v not in covered]
    if len(rest) % 2:
        return None
    nbr_sets: list[set[int]] = [set() for _ in range(len(rest))]
    pos = {v: i for i, v in enumerate(rest)}
    for e, (u, v) in enumerate(g.edges):
        if e in forbidden or u in covered or v in covered:
            continue
        nbr_sets[pos[u]].add(pos[v])
        nbr_sets[pos[v]].add(pos[u])
    mates = _maximum_mates(len(rest), [sorted(s) for s in nbr_sets])
    if any(m == -1 for m in mates):
        return None
    picked = set(forced)
    for i, j in enumerate(mates):
        if j > i:
            u, v = rest[i], rest[j]
            ids = [e for e in g.edge_ids_between(u, v) if e not in forbidden]
            picked.add(min(ids))
    return frozenset(picked)


def enumerate_perfect_matchings(g: Graph, budget=None) -> Iterator[frozenset[int]]:
    """Yield every perfect matching, each exactly once, in a fixed order.

    Branches on the lowest-indexed uncovered vertex and tries its incident
    edges in edge-id order, so the output order is reproducible.  The
    search keeps its own stack, so its depth is not bounded by recursion.
    Each search-tree node charges the budget; exhaustion raises
    BudgetExhausted mid-stream, which is distinguishable from normal
    completion.
    """
    if g.n % 2:
        raise ValueError("perfect matchings need an even vertex count")
    b = as_budget(budget)
    full = (1 << g.n) - 1
    incident = g.incident
    edges = g.edges
    # one frame per inner node: (covered with v, v, v's untried edges); the
    # frame's entry in chosen is the edge it is exploring
    stack: list[tuple[int, int, Iterator[int]]] = []
    chosen: list[int] = []
    covered = 0
    while True:
        b.charge()
        if covered == full:
            yield frozenset(chosen)
        else:
            v = (~covered & (covered + 1)).bit_length() - 1  # lowest uncovered vertex
            stack.append((covered | 1 << v, v, iter(incident[v])))
            chosen.append(-1)
        # move the deepest frame on to its next child; pop exhausted frames
        while stack:
            base, v, untried = stack[-1]
            for e in untried:
                x, y = edges[e]
                u = x if y == v else y
                if not base >> u & 1:
                    chosen[-1] = e
                    covered = base | 1 << u
                    break
            else:
                stack.pop()
                chosen.pop()
                continue
            break
        else:
            return


def count_perfect_matchings(g: Graph, budget=None) -> int:
    return sum(1 for _ in enumerate_perfect_matchings(g, budget))


def _witness_classes(g: Graph, pm: frozenset[int], edges, witness: dict) -> None:
    """Witness each edge of ``edges`` (all in the perfect matching ``pm``)
    by ``pm``, and each edge parallel to one by ``pm`` with it swapped in."""
    for e in edges:
        for f in g.edge_ids_between(*g.edges[e]):
            if f not in witness:
                witness[f] = pm if f == e else pm - {e} | {f}


def is_matching_covered(g: Graph) -> tuple[bool, dict]:
    """Connected and every edge lies in some perfect matching.

    Returns (flag, report).  On success the report maps every edge id to a
    witnessing perfect matching that contains it (witnesses are shared
    between the edges of one matching).  On failure the report names the
    reason and, when an edge has no perfect matching through it, the
    lowest such edge id.

    Costs one maximum matching M plus one augmenting search per edge that
    no earlier witness covers: uv, with M-partners u' and v', lies in a
    perfect matching iff M - {uu', vv'} + {uv} augments from u' in G - u - v.
    """
    if g.n == 0 or g.n % 2:
        return False, {"reason": "odd or empty vertex set"}
    if not is_connected(g):
        return False, {"reason": "not connected"}
    if g.m == 0:
        return False, {"reason": "no edges"}
    nbr = [sorted(s) for s in g.neighbor_sets]
    match = _maximum_mates(g.n, nbr)
    if -1 in match:
        return False, {"reason": "no perfect matching"}
    # lowest edge id between each vertex and its mate
    mate_edge = [g.edge_ids_between(v, match[v])[0] for v in range(g.n)]
    m0 = frozenset(mate_edge)
    witness: dict[int, frozenset[int]] = {}
    _witness_classes(g, m0, m0, witness)
    for e, (u, v) in enumerate(g.edges):
        if e in witness:
            continue
        trial = match.copy()
        trial[u] = trial[v] = trial[match[u]] = trial[match[v]] = -1
        if not _augment(nbr, trial, match[u], (u, v)):
            return False, {"reason": "edge in no perfect matching", "edge": e}
        trial[u], trial[v] = v, u
        # only pairs off M can hold edges without a witness
        moved = [x for x in range(g.n) if trial[x] != match[x]]
        new = [g.edge_ids_between(x, trial[x])[0] for x in moved if trial[x] > x]
        pm = m0.difference([mate_edge[x] for x in moved]).union(new)
        _witness_classes(g, pm, new, witness)
    return True, {"witness": witness}


def is_factor_critical(g: Graph, scope=None) -> bool:
    """True iff deleting any single vertex of ``scope`` leaves a subgraph of
    ``scope`` with a perfect matching.  ``scope`` defaults to all vertices
    and must induce a connected subgraph.
    """
    vs = sorted(range(g.n)) if scope is None else sorted(set(scope))
    if not vs:
        raise ValueError("scope must be nonempty")
    if not is_connected(g, vertices=vs):
        raise ValueError("scope must induce a connected subgraph")
    if len(vs) % 2 == 0:
        return False
    for v in vs:
        sub, _, _ = g.induced_subgraph([u for u in vs if u != v])
        if max_matching_size(sub) * 2 != sub.n:
            return False
    return True
