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
``triple_from_structural``; ``verify_structural`` runs the two again.
"""

from __future__ import annotations

from collections import Counter
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
    if len(sc.coloring) != len(sc.chain_map):
        raise ValueError("coloring length differs from skeleton size")
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
    JSON stores components sorted; ``verify_structural`` re-derives the
    split with ``structural_witness`` and lifts along the derived cycles.
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

    A spanning set splits into cycles, branch vertices and chains in one
    way only, so the check re-derives that split with
    ``structural_witness`` and compares it with the certificate's: cycle
    components and (skeleton edge, chain) pairs as multisets, in any
    order, branch vertices and skeleton order exactly.  It then lifts
    along the derived cycles; ``triple_from_structural`` verifies the
    triple and its union, which rejects a bad coloring, an odd cycle and
    an untouched vertex.
    """
    bad = sorted(e for e in cert.spanning if not (0 <= e < g.m))
    if bad:
        return {"ok": False, "violations": [f"spanning edge ids out of range: {bad}"]}
    try:
        derived = structural_witness(g, cert.spanning)
    except SkeletonExtractionError as exc:
        return {"ok": False, "violations": [f"spanning set does not split: {exc}"]}
    violations: list[str] = []
    if _cycle_multiset(cert) != _cycle_multiset(derived):
        violations.append("cycle components differ from the cycles of the spanning set")
    sk, dsk = cert.skeleton_part, derived.skeleton_part
    if (sk is None) != (dsk is None):
        violations.append("skeleton part differs from the branch part of the spanning set")
    elif sk is not None:
        if tuple(sk.branch_vertices) != dsk.branch_vertices:
            violations.append(
                f"branch vertices {list(sk.branch_vertices)} differ from the "
                f"degree-3 vertices {list(dsk.branch_vertices)}")
        if sk.skeleton.n != dsk.skeleton.n:
            violations.append("skeleton order differs from the degree-3 vertex count")
        if (len(sk.chain_map) != sk.skeleton.m
                or _chain_multiset(sk) != _chain_multiset(dsk)):
            violations.append("skeleton chains differ from the chains of the spanning set")
    if not violations:
        try:
            # the derived cycles, in traversal order, stand for the given ones
            triple_from_structural(
                g, replace(cert, cycle_components=derived.cycle_components))
        except ValueError as exc:
            violations.append(str(exc))
    return {"ok": not violations, "violations": violations}


def _cycle_multiset(cert: StructuralCertificate) -> Counter:
    return Counter(tuple(sorted(c)) for c in cert.cycle_components)


def _chain_multiset(sk: SkeletonCertificate) -> Counter:
    return Counter(zip(sk.skeleton.edges, map(tuple, sk.chain_map)))
