"""Bicontraction of spanning subgraphs to cubic skeletons, proper
3-edge-coloring, and lifting a skeleton coloring to three perfect
matchings of the host graph.

A chain is a maximal path whose internal vertices have degree 2 in the
spanning subgraph.  Bicontracting every chain to a single edge yields the
skeleton; the spanning subgraph is a bisubdivision of it exactly when every
chain has odd length, which is what the lifting rules below rely on.

Every spanning edge set becomes a certificate through one split,
``structural_witness`` (pure cycles plus the skeleton of the rest), and
every certificate becomes a triple through one lift,
``triple_from_structural``.
"""

from __future__ import annotations

from dataclasses import replace

from .budget import as_budget
from .certificates import (
    SkeletonCertificate,
    StructuralCertificate,
    TripleCertificate,
    verify_triple,
)
from .graph import Graph, connected_components
from .twofactor import factor_cycles, find_even_2factor


class SkeletonExtractionError(ValueError):
    """Raised when an edge set does not split into cycles and a
    bisubdivision of a cubic graph; ``reason`` is one of: degree out of
    range, even chain, loop chain."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}{': ' + detail if detail else ''}")
        self.reason = reason


def _spanning_degrees(g: Graph, edge_set) -> list[int]:
    deg = [0] * g.n
    edges = g.edges
    for e in edge_set:
        u, v = edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg


def _walk_chains(g: Graph, edge_set, sdeg):
    """Walk all branch-to-branch chains.  Returns (chains, leftover) where
    chains are (bu, bv, edge_path) in discovery order and
    leftover is the set of edges on no chain (pure cycle components); with
    no branch vertex that is ``edge_set`` itself."""
    if 3 not in sdeg:
        return [], edge_set
    inc: dict[int, list[int]] = {}
    for e in sorted(edge_set):
        u, v = g.edges[e]
        inc.setdefault(u, []).append(e)
        inc.setdefault(v, []).append(e)
    branch = sorted(v for v in inc if sdeg[v] == 3)
    visited: set[int] = set()
    chains = []
    for bv in branch:
        for e in inc[bv]:
            if e in visited:
                continue
            path = [e]
            prev_e = e
            cur = g.other(e, bv)
            while sdeg[cur] == 2:
                a, b = inc[cur]
                prev_e = b if a == prev_e else a
                path.append(prev_e)
                cur = g.other(prev_e, cur)
            if cur == bv:
                raise SkeletonExtractionError(
                    "loop chain", f"chain of length {len(path)} closes on vertex {bv}")
            if len(path) % 2 == 0:
                raise SkeletonExtractionError(
                    "even chain",
                    f"chain {bv}..{cur} has even length {len(path)}")
            visited.update(path)
            chains.append((bv, cur, tuple(path)))
    return chains, edge_set - visited


def _skeleton_from_chains(chains) -> SkeletonCertificate:
    branch = sorted({c[0] for c in chains} | {c[1] for c in chains})
    idx = {v: i for i, v in enumerate(branch)}
    items = []
    for bu, bw, path in chains:
        a, b = idx[bu], idx[bw]
        if a > b:
            a, b = b, a
            path = tuple(reversed(path))
        items.append(((a, b), path))
    items.sort(key=lambda it: it[0])  # stable: parallel chains keep discovery order
    return SkeletonCertificate(
        branch_vertices=tuple(branch),
        skeleton=Graph(len(branch), tuple(p for p, _ in items)),
        chain_map=tuple(p for _, p in items),
    )


def structural_witness(g: Graph, edge_set) -> StructuralCertificate:
    """Split a degree-{2,3} edge set into its pure cycle components and the
    bicontracted skeleton of the rest, as an uncolored certificate.

    Cycles come in ``factor_cycles`` order; ``skeleton_part`` is None when
    no vertex has degree 3.  Raises SkeletonExtractionError when a touched
    vertex has degree outside {2, 3} (degree out of range) or a chain is
    even or closes on its own branch vertex (even chain, loop chain).
    """
    edge_set = frozenset(edge_set)
    sdeg = _spanning_degrees(g, edge_set)
    if 1 in sdeg or max(sdeg, default=0) > 3:
        v, d = next((v, d) for v, d in enumerate(sdeg) if d not in (0, 2, 3))
        raise SkeletonExtractionError(
            "degree out of range", f"vertex {v} has degree {d}")
    chains, leftover = _walk_chains(g, edge_set, sdeg)
    return StructuralCertificate(
        edge_set, tuple(tuple(c) for c in factor_cycles(g, leftover)),
        _skeleton_from_chains(chains) if chains else None)


def color_cubic_3(h: Graph, budget=None) -> tuple[int, ...] | None:
    """Proper 3-edge-coloring of a cubic multigraph, as a color tuple
    indexed by edge id, or None once the search space is exhausted.

    A cubic multigraph is 3-edge-colorable exactly when it has an even
    2-factor.  Each component takes its first even 2-factor: every cycle
    alternates colors 1 and 2 from its first edge, and the complementary
    perfect matching gets color 3.
    """
    if not h.is_regular(3):
        raise ValueError("graph is not cubic")
    b = as_budget(budget)
    colors = [3] * h.m
    for comp in connected_components(h):
        sub, _, emap = h.induced_subgraph(comp)
        factor = find_even_2factor(sub, b)
        if factor is None:
            return None
        for cycle in factor_cycles(sub, factor):
            for k, e in enumerate(cycle):
                colors[emap[e]] = 1 + k % 2
    return tuple(colors)


def _lift_classes(sc: SkeletonCertificate) -> dict[int, list[int]]:
    """Expand each colored skeleton edge along its chain.

    A chain whose skeleton edge has color c alternates: edges at even
    positions belong to class c alone, edges at odd positions to both other
    classes.  Odd chain length makes both chain ends class c, which is what
    keeps every class a perfect matching after expansion.
    """
    if sc.coloring is None:
        raise ValueError("skeleton certificate has no coloring")
    classes: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for i, path in enumerate(sc.chain_map):
        c = sc.coloring[i]
        if c not in (1, 2, 3):
            raise ValueError(f"skeleton edge {i} has invalid color {c!r}")
        o1, o2 = (x for x in (1, 2, 3) if x != c)
        classes[c].extend(path[0::2])
        classes[o1].extend(path[1::2])
        classes[o2].extend(path[1::2])
    return classes


def triple_from_structural(g: Graph, cert: StructuralCertificate) -> TripleCertificate:
    """Lift a full structural certificate: skeleton chains by their
    coloring, even cycle components by alternation with M3 = M2.

    Each cycle component is alternated as given, so it must list its edges
    in traversal order, as ``structural_witness`` and the even-2-factor
    decoder give them; nothing traces the cycles again.  A component in
    any other order lifts to classes that are not perfect matchings, and
    the lift raises ValueError, since every lifted triple must pass
    ``verify_triple`` and cover the spanning set exactly.  The skeleton
    JSON stores components sorted, so ``verify_structural`` lifts along
    the cycles its own ``factor_cycles`` call derives.
    """
    sk = cert.skeleton_part
    classes = _lift_classes(sk) if sk is not None else {1: [], 2: [], 3: []}
    for cyc in cert.cycle_components:
        if len(cyc) % 2:
            raise ValueError("odd cycle component in structural certificate")
        classes[1].extend(cyc[0::2])
        classes[2].extend(cyc[1::2])
        classes[3].extend(cyc[1::2])
    out = TripleCertificate(frozenset(classes[1]), frozenset(classes[2]),
                            frozenset(classes[3]))
    report = verify_triple(g, out)
    if not report["ok"]:
        raise ValueError(f"structural lift failed: {report['violations']}")
    if out.union() != cert.spanning:
        raise ValueError("structural lift does not cover the spanning set exactly")
    return out


def verify_structural(g: Graph, cert: StructuralCertificate) -> dict:
    """Full check of a structural certificate; never raises.

    Validates the spanning degrees, the even cycle components, the chain
    map against the skeleton, the coloring, and finally that the witness
    lifts to a verifying triple covering the spanning set.
    """
    violations: list[str] = []
    bad = sorted(e for e in cert.spanning if not (0 <= e < g.m))
    if bad:
        return {"ok": False, "violations": [f"spanning edge ids out of range: {bad}"]}

    sdeg = _spanning_degrees(g, cert.spanning)
    for v in range(g.n):
        if sdeg[v] == 0:
            violations.append(f"not spanning: vertex {v} untouched")
        elif sdeg[v] not in (2, 3):
            violations.append(f"vertex {v} has spanning degree {sdeg[v]}")
    if violations:
        return {"ok": False, "violations": violations}

    cycles = None
    cycle_union: set[int] = set()
    for comp in cert.cycle_components:
        comp_set = set(comp)
        if comp_set & cycle_union:
            violations.append("cycle components overlap")
        cycle_union |= comp_set
    if cycle_union - cert.spanning:
        violations.append("cycle component edges outside the spanning set")
    elif cycle_union:
        cycles = factor_cycles(g, cycle_union)
        if cycles is None:
            violations.append("cycle components are not disjoint cycles")
        else:
            for cyc in cycles:
                if len(cyc) % 2:
                    violations.append(f"odd cycle component: edges {sorted(cyc)}")
            derived = {frozenset(c) for c in cycles}
            given = {frozenset(c) for c in cert.cycle_components}
            if derived != given:
                violations.append("cycle component list does not match the edge set")

    sk = cert.skeleton_part
    chain_union: set[int] = set()
    if sk is not None:
        chain_union = set(sk.spanning)
        expected_branch = tuple(sorted(
            v for v in range(g.n) if sdeg[v] == 3))
        if tuple(sk.branch_vertices) != expected_branch:
            violations.append(
                f"branch vertices {list(sk.branch_vertices)} differ from the "
                f"degree-3 vertices {list(expected_branch)}")
        if sk.skeleton.n != len(sk.branch_vertices):
            violations.append("skeleton order differs from branch vertex count")
        if not sk.skeleton.is_regular(3):
            violations.append("skeleton is not cubic")
        if len(sk.chain_map) != sk.skeleton.m:
            violations.append("chain map length differs from skeleton size")
        else:
            seen_internal: set[int] = set()
            for i, path in enumerate(sk.chain_map):
                a, b = sk.skeleton.edges[i]  # a < b: Graph orders endpoints
                if b >= len(sk.branch_vertices):
                    violations.append(
                        f"chain {i}: skeleton vertex {b} has no branch vertex")
                    continue
                ok_walk, end, internal = _walk_path(
                    g, sk.branch_vertices[a], path)
                if not ok_walk:
                    violations.append(f"chain {i} is not a path")
                    continue
                if end != sk.branch_vertices[b]:
                    violations.append(
                        f"chain {i} ends at {end}, skeleton expects "
                        f"{sk.branch_vertices[b]}")
                if len(path) % 2 == 0:
                    violations.append(f"chain {i} has even length {len(path)}")
                for w in internal:
                    if sdeg[w] != 2:
                        violations.append(
                            f"chain {i} passes through branch vertex {w}")
                    if w in seen_internal:
                        violations.append(
                            f"vertex {w} is internal to two chains")
                    seen_internal.add(w)
        if sk.coloring is None:
            violations.append("skeleton coloring missing")
        else:
            if len(sk.coloring) != sk.skeleton.m:
                violations.append("coloring length differs from skeleton size")
            else:
                for v in range(sk.skeleton.n):
                    cs = [sk.coloring[e] for e in sk.skeleton.incident[v]]
                    if sorted(cs) != [1, 2, 3]:
                        violations.append(
                            f"skeleton vertex {v} sees colors {cs}, not 1, 2, 3")

    if chain_union & cycle_union:
        violations.append("chain edges and cycle edges overlap")
    if chain_union | cycle_union != set(cert.spanning):
        violations.append("chains and cycles do not partition the spanning set")

    if not violations:
        try:
            # the derived cycles, in traversal order, stand for the given ones
            triple_from_structural(g, replace(cert, cycle_components=tuple(
                tuple(c) for c in cycles or ())))
        except ValueError as exc:
            violations.append(str(exc))
    return {"ok": not violations, "violations": violations}


def _walk_path(g: Graph, start: int, path):
    """Follow edge ids from ``start``; returns (ok, end, internal vertices)."""
    cur = start
    internal = []
    for e in path:
        if not (0 <= e < g.m):
            return False, cur, internal
        u, v = g.edges[e]
        if cur == u:
            cur = v
        elif cur == v:
            cur = u
        else:
            return False, cur, internal
        internal.append(cur)
    if internal:
        internal.pop()  # last vertex is the far endpoint, not internal
    return True, cur, internal
