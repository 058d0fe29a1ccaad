"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and shares no code with the package
beyond the Graph accessors: bitmask DP for maximum matchings, pair-partition
recursion for perfect matchings, subset scans for 2-factors and vertex
cuts.  Keep it slow and obviously correct.  The exceptions are reference
copies of earlier versions of package functions, kept to show that a faster
version answers the same: ``relabelled_perfect_matching_with_forced``, which
shares the blossom engine, the set-based ``set_factor_cycles``,
``set_verify_triple``, ``resorting_matching_to_json`` and
``rederiving_triple_from_structural``, and ``two_pass_parse_edge_list``.
"""

from __future__ import annotations

from itertools import combinations

from tripm.certificates import TripleCertificate
from tripm.formats import GraphFormatError
from tripm.graph import Graph, make_graph
from tripm.matching import _maximum_mates, is_matching, matched_vertices


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


def brute_split_components(g: Graph, edge_set):
    """Split an edge set into pure cycle components and the rest.

    Finds the components of the edge set by repeated graph search, in order
    of their smallest vertex.  A component with no degree-3 vertex is a
    cycle and is returned as its edge set; the edges of every other
    component are pooled.  Returns (cycles, branch_edges).
    """
    edge_set = set(edge_set)
    inc: dict[int, list[int]] = {}
    for e in edge_set:
        u, v = g.edges[e]
        inc.setdefault(u, []).append(e)
        inc.setdefault(v, []).append(e)
    seen: set[int] = set()
    cycles: list[frozenset[int]] = []
    branch_edges: set[int] = set()
    for start in sorted(inc):
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            for e in inc[todo.pop()]:
                for w in g.edges[e]:
                    if w not in comp:
                        comp.add(w)
                        todo.append(w)
        seen |= comp
        comp_edges = {e for e in edge_set if g.edges[e][0] in comp}
        if any(len(inc[v]) == 3 for v in comp):
            branch_edges |= comp_edges
        else:
            cycles.append(frozenset(comp_edges))
    return cycles, frozenset(branch_edges)


def relabelled_perfect_matching_with_forced(g: Graph, forced=(), forbidden=()):
    """The earlier ``perfect_matching_with_forced``: relabel the vertices
    the forced edges leave uncovered to 0 .. k-1, run the blossom engine on
    that copy, and map its mates back to the lowest allowed edge ids."""
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


def set_factor_cycles(g: Graph, edge_ids):
    """The earlier ``factor_cycles``: sort the distinct ids, list each
    vertex's edges in a dict, and walk each cycle from its smallest vertex
    along its lowest-id edge; None unless every touched vertex has degree 2."""
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


def set_verify_triple(g: Graph, cert) -> dict:
    """The earlier ``verify_triple``: per matching, a range scan of every
    id, then ``is_matching``, then the uncovered vertices by set difference."""
    violations: list[str] = []
    for name, m in zip(("m1", "m2", "m3"), cert.matchings):
        bad = sorted(e for e in m if not (0 <= e < g.m))
        if bad:
            violations.append(f"{name}: edge ids out of range: {bad}")
            continue
        if not is_matching(g, m):
            violations.append(f"{name}: edges {sorted(m)} are not a matching")
            continue
        missed = sorted(set(range(g.n)) - matched_vertices(g, m))
        if missed:
            violations.append(f"{name}: not perfect, misses vertices {missed}")
    common = cert.m1 & cert.m2 & cert.m3
    if common:
        violations.append(f"triple intersection not empty: edges {sorted(common)}")
    return {"ok": not violations, "violations": violations}


def resorting_matching_to_json(g: Graph, m) -> dict:
    """The earlier matching encoder, which sorted the endpoint pairs again."""
    ids = sorted(m)
    return {"edges": sorted([list(g.edges[e]) for e in ids]), "edge_ids": ids}


def rederiving_triple_from_structural(g: Graph, split, coloring):
    """The earlier lift: chains expanded by their colour,
    and the cycles traced again from the union of the cycle components, so
    the order in which a component lists its edges does not matter.  Raises
    ValueError where the earlier lift did."""
    classes: dict[int, set[int]] = {1: set(), 2: set(), 3: set()}
    for i, path in enumerate(split.chain_map):
        c = coloring[i]
        if c not in (1, 2, 3):
            raise ValueError(f"skeleton edge {i} has invalid color {c!r}")
        others = tuple(x for x in (1, 2, 3) if x != c)
        for k, e in enumerate(path):
            for o in ((c,) if k % 2 == 0 else others):
                classes[o].add(e)
    union = [e for comp in split.cycles for e in comp]
    if union:
        cycles = set_factor_cycles(g, union)
        if cycles is None:
            raise ValueError("cycle components are not disjoint cycles")
        for cyc in cycles:
            if len(cyc) % 2:
                raise ValueError("odd cycle component in structural certificate")
            for k, e in enumerate(cyc):
                for c in ((1,) if k % 2 == 0 else (2, 3)):
                    classes[c].add(e)
    out = TripleCertificate(frozenset(classes[1]), frozenset(classes[2]),
                            frozenset(classes[3]))
    report = set_verify_triple(g, out)
    if not report["ok"]:
        raise ValueError(f"structural lift failed: {report['violations']}")
    if out.union() != frozenset(union).union(*split.chain_map):
        raise ValueError("structural lift does not cover the spanning set exactly")
    return out


def two_pass_parse_edge_list(text: str) -> Graph:
    """The earlier ``parse_edge_list``: strip every line, then filter out
    blanks and comments, then check each edge line's field count before
    converting its fields."""
    lines = text.splitlines()
    stripped = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    stripped = [(no, ln) for no, ln in stripped if ln and not ln.startswith("#")]
    if not stripped:
        raise GraphFormatError("line 1: missing 'n m' header")
    no, header = stripped[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {no}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {no}: header must be two integers") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {no}: negative count in header")
    body = stripped[1:]
    if len(body) != m:
        raise GraphFormatError(f"line {no}: header promises {m} edges, found {len(body)}")
    pairs = []
    for no, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {no}: edge line must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {no}: edge line must be two integers") from None
        if u == v:
            raise GraphFormatError(f"line {no}: loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {no}: endpoint out of range for n={n}")
        pairs.append((u, v))
    return make_graph(n, pairs)
