"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and shares no code with the package
beyond the Graph accessors: bitmask DP for maximum matchings, pair-partition
recursion for perfect matchings, subset scans for 2-factors and vertex
cuts.  Keep it slow and obviously correct.
"""

from __future__ import annotations

from itertools import combinations

from tripm.graph import Graph


def brute_max_matching_size(g: Graph) -> int:
    """Bottom-up DP over vertex subsets; fine for n <= 12."""
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    f = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        best = f[mask & (mask - 1)]  # leave v unmatched
        partners = adj[v] & mask
        while partners:
            u = (partners & -partners).bit_length() - 1
            partners &= partners - 1
            cand = 1 + f[mask & ~(1 << v) & ~(1 << u)]
            if cand > best:
                best = cand
        f[mask] = best
    return f[(1 << n) - 1]


def brute_perfect_matchings(g: Graph) -> list[frozenset[int]]:
    """All perfect matchings as edge-id sets, parallel edges distinguished."""
    if g.n % 2:
        return []
    if g.n == 0:
        return [frozenset()]
    out: list[frozenset[int]] = []
    incident = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)

    def rec(todo: frozenset[int], picked: tuple[int, ...]) -> None:
        if not todo:
            out.append(frozenset(picked))
            return
        v = min(todo)
        for e in incident[v]:
            u, w = g.edges[e]
            other = w if u == v else u
            if other in todo and other != v:
                rec(todo - {v, other}, picked + (e,))

    rec(frozenset(range(g.n)), ())
    return out


def brute_is_k_connected(g: Graph, k: int) -> bool:
    """n > k and no vertex set of size < k disconnects g: a scan over
    every such set, each followed by a fresh graph search."""
    if g.n <= k:
        return False
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    for size in range(k):
        for cut in combinations(range(g.n), size):
            rest = set(range(g.n)) - set(cut)
            start = min(rest)
            seen, todo = {start}, [start]
            while todo:
                for w in adj[todo.pop()] & rest - seen:
                    seen.add(w)
                    todo.append(w)
            if seen != rest:
                return False
    return True


def brute_two_factors(g: Graph) -> list[frozenset[int]]:
    """All spanning 2-regular edge subsets, by scanning size-n subsets."""
    out = []
    for subset in combinations(range(g.m), g.n):
        deg = [0] * g.n
        for e in subset:
            u, v = g.edges[e]
            deg[u] += 1
            deg[v] += 1
        if all(d == 2 for d in deg):
            out.append(frozenset(subset))
    return out


def cycle_lengths(g: Graph, factor) -> list[int]:
    """Component cycle lengths of a 2-regular edge set."""
    inc: dict[int, list[int]] = {}
    for e in factor:
        u, v = g.edges[e]
        inc.setdefault(u, []).append(e)
        inc.setdefault(v, []).append(e)
    seen: set[int] = set()
    lengths = []
    for start in sorted(inc):
        if start in seen:
            continue
        e = min(inc[start])
        v, steps = start, 0
        while True:
            seen.add(v)
            steps += 1
            u, w = g.edges[e]
            v = w if u == v else u
            if v == start:
                break
            a, b = inc[v]
            e = b if a == e else a
        lengths.append(steps)
    return lengths


def brute_has_even_2factor(g: Graph) -> bool:
    return any(all(length % 2 == 0 for length in cycle_lengths(g, f))
               for f in brute_two_factors(g))


def brute_is_hamiltonian(g: Graph) -> bool:
    return any(len(cycle_lengths(g, f)) == 1 for f in brute_two_factors(g))


def brute_cubic_colorable(g: Graph) -> bool:
    """3-edge-colorability of a cubic graph via disjoint perfect matching
    pairs whose complement is again a perfect matching."""
    pms = brute_perfect_matchings(g)
    all_edges = frozenset(range(g.m))
    pm_set = set(pms)
    for m1, m2 in combinations(pms, 2):
        if m1 & m2:
            continue
        if all_edges - m1 - m2 in pm_set:
            return True
    return False


def brute_admissible(g: Graph) -> bool:
    """Direct definition: some triple of perfect matchings with empty
    common intersection, repetitions allowed."""
    pms = brute_perfect_matchings(g)
    k = len(pms)
    for i in range(k):
        for j in range(i, k):
            inter = pms[i] & pms[j]
            for l in range(j, k):
                if not (inter & pms[l]):
                    return True
    return False
