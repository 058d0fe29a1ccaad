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
from .graph import Graph, is_connected, is_k_connected
from .twofactor import factor_cycles


def _augment(nbr: list[list[int]], match: list[int], root: int,
             blocked=()) -> list[int] | None:
    """One Edmonds search for an augmenting path from the exposed ``root``,
    with blossom shrinking; on success flips the path in ``match`` and
    returns its vertices, otherwise returns None.

    ``nbr[v]`` lists neighbors in ascending order.  ``blocked`` vertices
    must be exposed; they start marked as reached, so the search never
    enters them and runs on the graph without them.  A blossom can only
    hold vertices the search has labelled, so shrinking one scans those
    alone, and the cost follows the part of the graph the search reaches.
    """
    n = len(match)
    p = [-1] * n
    for x in blocked:
        p[x] = x

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = p[match[b]]

    def mark_path(in_blossom: set[int], v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom.add(base[v])
            in_blossom.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    base = list(range(n))
    used = [False] * n
    used[root] = True
    labelled = [root]  # every vertex of the search tree, once
    q = deque([root])
    while q:
        v = q.popleft()
        for to in nbr[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                # odd cycle: shrink the blossom to its base
                curbase = lca(v, to)
                in_blossom: set[int] = set()
                mark_path(in_blossom, v, curbase, to)
                mark_path(in_blossom, to, curbase, v)
                reached = []
                for i in labelled:
                    if base[i] in in_blossom:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            reached.append(i)
                q.extend(sorted(reached))
            elif p[to] == -1:
                p[to] = v
                labelled.append(to)
                if match[to] == -1:
                    # augment along the alternating path back to root
                    path = []
                    while to != -1:
                        prev = p[to]
                        nxt = match[prev]
                        match[to] = prev
                        match[prev] = to
                        path += (to, prev)
                        to = nxt
                    return path
                used[match[to]] = True
                labelled.append(match[to])
                q.append(match[to])
    return None


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


def exposable_vertices(g: Graph) -> frozenset[int]:
    """Vertices that some maximum matching leaves exposed: the D of the
    Gallai-Edmonds decomposition.

    Costs one maximum matching M plus one augmenting search per vertex v
    that M covers: G - v keeps a matching of M's size iff M - {vv'}, with
    v' the M-partner of v, augments in G - v, and any such path must end
    at v', since a path between two M-exposed vertices would augment M.
    """
    nbr = [sorted(s) for s in g.neighbor_sets]
    match = _maximum_mates(g.n, nbr)
    d = set()
    for v, u in enumerate(match):
        if u == -1:
            d.add(v)
            continue
        trial = match.copy()
        trial[v] = trial[u] = -1
        if _augment(nbr, trial, u, (v,)) is not None:
            d.add(v)
    return frozenset(d)


def _mates_to_edges(g: Graph, match: list[int], forbidden=frozenset()) -> frozenset[int]:
    # lowest allowed edge id between each matched pair (parallel edges collapse)
    picked = set()
    for v in range(g.n):
        u = match[v]
        if u > v:
            picked.add(min(e for e in g.edge_ids_between(v, u) if e not in forbidden))
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
    # the graph without the forbidden edges and the forced edges' ends,
    # which stay exposed in the maximum matching of what is left
    covered = matched_vertices(g, forced)
    if (g.n - len(covered)) % 2:
        return None
    nbr_sets: list[set[int]] = [set() for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        if e in forbidden or u in covered or v in covered:
            continue
        nbr_sets[u].add(v)
        nbr_sets[v].add(u)
    mates = _maximum_mates(g.n, [sorted(s) for s in nbr_sets])
    if any(m == -1 for v, m in enumerate(mates) if v not in covered):
        return None
    return forced | _mates_to_edges(g, mates, forbidden)


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


def is_matching_covered(g: Graph) -> tuple[bool, dict]:
    """Connected and every edge lies in some perfect matching.

    Returns (flag, report).  On success the report is empty, or holds the
    disjoint pair of a 4-regular graph (below).  On failure it names the
    reason and, when an edge has no perfect matching through it, the
    lowest such edge id.  A graph with fewer than n - 1 edges is
    "not connected" before any per-vertex list is built.

    An r-regular graph of even order with r <= 3 that is (r-1)-edge-
    connected is a yes by Plesnik's theorem (1972; Schonberger's for
    bridgeless cubic graphs): it keeps a perfect matching after any r-1
    edges are deleted, so deleting the other edges at one end of uv
    leaves a perfect matching through uv.  That costs one traversal and
    no matching: ``is_connected`` for r = 1, 2, and for r = 3 the
    lowpoint DFS of ``is_k_connected(g, 2)``, since a bridge's end in a
    cubic graph with n > 2 is a cut vertex.

    Any other graph costs one maximum matching M plus one augmenting
    search per edge whose end pair no perfect matching found so far joins:
    uv, with M-partners u' and v', lies in a perfect matching iff
    M - {uu', vv'} + {uv} augments from u' in G - u - v.  Parallel edges
    share their end pair.

    On a connected 4-regular graph M is M1 = ``max_matching(g)``, and one
    more maximum matching looks for a perfect matching M2 avoiding it.
    Whenever M2 exists the success report is ``{"disjoint_pair": (M1,
    M2)}``, from which ``check()``'s 4-regular stage builds the triple
    (M1, M2, M2), and M2's pairs count as covered.  When every cycle of
    the 2-factor E - M1 - M2 is even, that 2-factor splits into two more
    perfect matchings, the four cover every edge, and the answer is yes
    with no per-edge search.
    """
    if g.n == 0 or g.n % 2:
        return False, {"reason": "odd or empty vertex set"}
    if g.m < g.n - 1:
        return False, {"reason": "not connected"}
    r = g.degree(0)
    low_regular = 0 < r <= 3 and g.is_regular(r)
    if low_regular and r == 3 and is_k_connected(g, 2):
        return True, {}
    if not is_connected(g):
        return False, {"reason": "not connected"}
    if low_regular and r < 3:
        return True, {}
    nbr = [sorted(s) for s in g.neighbor_sets]
    match = _maximum_mates(g.n, nbr)
    if -1 in match:
        return False, {"reason": "no perfect matching"}
    covered = {(x, y) for x, y in enumerate(match) if x < y}
    found = {}
    if r == 4 and g.is_regular(4):
        m1 = _mates_to_edges(g, match)
        m2 = perfect_matching_with_forced(g, forbidden=m1)
        if m2 is not None:
            found = {"disjoint_pair": (m1, m2)}
            rest = set(range(g.m)).difference(m1, m2)
            if all(len(c) % 2 == 0 for c in factor_cycles(g, rest)):
                return True, found
            covered.update(g.edges[e] for e in m2)
    for e, (u, v) in enumerate(g.edges):
        if (u, v) in covered:
            continue
        trial = match.copy()
        trial[u] = trial[v] = trial[match[u]] = trial[match[v]] = -1
        flipped = _augment(nbr, trial, match[u], (u, v))
        if flipped is None:
            return False, {"reason": "edge in no perfect matching", "edge": e}
        # the new perfect matching is M with the path flipped, plus uv
        covered.add((u, v))
        covered.update((x, trial[x]) for x in flipped if x < trial[x])
    return True, found


def is_factor_critical(g: Graph, scope=None) -> bool:
    """True iff deleting any single vertex of ``scope`` leaves a subgraph of
    ``scope`` with a perfect matching.  ``scope`` defaults to all vertices
    and must induce a connected subgraph.

    By Gallai's lemma a connected graph is factor-critical exactly when
    some maximum matching exposes each vertex, so one ``exposable_vertices``
    call on the induced subgraph decides it.
    """
    vs = sorted(range(g.n)) if scope is None else sorted(set(scope))
    if not vs:
        raise ValueError("scope must be nonempty")
    if not is_connected(g, vertices=vs):
        raise ValueError("scope must induce a connected subgraph")
    if len(vs) % 2 == 0:
        return False
    sub, _, _ = g.induced_subgraph(vs)
    return len(exposable_vertices(sub)) == sub.n
