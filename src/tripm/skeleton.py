"""Bicontraction of spanning subgraphs to cubic skeletons, proper
3-edge-coloring, and lifting a skeleton coloring to three perfect
matchings of the host graph.

A chain is a maximal path whose internal vertices have degree 2 in the
spanning subgraph.  Bicontracting every chain to a single edge yields the
skeleton; the spanning subgraph is a bisubdivision of it exactly when every
chain has odd length, which is what the lifting rules below rely on.

A structural certificate is a spanning edge set plus one color per
skeleton edge.  Everything else is derived from the set by one split,
``structural_witness`` (pure cycles plus the skeleton of the rest), and
the split becomes a triple through one lift, ``triple_from_structural``;
``verify_structural`` runs the two again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import as_budget
from .certificates import StructuralCertificate, TripleCertificate, verify_triple
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


@dataclass(frozen=True)
class StructuralSplit:
    """A degree-{2,3} edge set split by ``structural_witness``.

    ``cycles`` are the pure cycle components, each in traversal order.
    Skeleton vertex i is host vertex ``branch_vertices[i]``; skeleton edge
    (a, b) with id i expands to the chain ``chain_map[i]``, host edge ids
    in path order from ``branch_vertices[a]`` to ``branch_vertices[b]``.
    When no vertex has degree 3, ``skeleton`` is None and
    ``branch_vertices`` and ``chain_map`` are empty.
    """

    cycles: tuple[tuple[int, ...], ...]
    branch_vertices: tuple[int, ...]
    skeleton: Graph | None
    chain_map: tuple[tuple[int, ...], ...]

    @property
    def clause(self) -> str:
        """Which side of the characterization the split satisfies; a mix
        of both is possible and accepted."""
        if self.skeleton is None:
            return "even-2-factor"
        if self.cycles:
            return "mixed"
        return "skeleton"


def structural_witness(g: Graph, edge_set) -> StructuralSplit:
    """Split a degree-{2,3} edge set into its pure cycle components and the
    bicontracted skeleton of the rest.

    Cycles come in ``factor_cycles`` order.  Skeleton edges are sorted by
    their ends, parallel ones by their chain's first edge id at the lower
    end, so the split, and with it the order of a certificate's coloring,
    depends on the edge set alone.  Raises SkeletonExtractionError when a
    touched vertex has degree outside {2, 3} (degree out of range) or a
    chain is even or closes on its own branch vertex (even chain, loop
    chain).
    """
    edge_set = frozenset(edge_set)
    sdeg = _spanning_degrees(g, edge_set)
    if 1 in sdeg or max(sdeg, default=0) > 3:
        v, d = next((v, d) for v, d in enumerate(sdeg) if d not in (0, 2, 3))
        raise SkeletonExtractionError(
            "degree out of range", f"vertex {v} has degree {d}")
    chains, leftover = _walk_chains(g, edge_set, sdeg)
    cycles = tuple(tuple(c) for c in factor_cycles(g, leftover))
    if not chains:
        return StructuralSplit(cycles, (), None, ())
    branch = sorted({c[0] for c in chains} | {c[1] for c in chains})
    idx = {v: i for i, v in enumerate(branch)}
    # a chain is walked from its lower end, whose edges are all walked
    # before the higher end's, so each pair (a, b) has a < b
    items = [((idx[bu], idx[bw]), path) for bu, bw, path in chains]
    items.sort(key=lambda it: it[0])  # stable: parallel chains keep discovery order
    return StructuralSplit(cycles, tuple(branch),
                           Graph(len(branch), tuple(p for p, _ in items)),
                           tuple(p for _, p in items))


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


def triple_from_structural(g: Graph, split: StructuralSplit,
                           coloring) -> TripleCertificate:
    """Lift a split with one color in 1..3 per skeleton edge, in skeleton
    edge-id order: the triple's classes.

    A chain whose skeleton edge has color c alternates: edges at even
    positions belong to class c alone, edges at odd positions to both other
    classes.  Odd chain length makes both chain ends class c, which is what
    keeps every class a perfect matching after expansion.  A cycle
    component alternates classes 1 and {2, 3}, so M3 = M2 on it.  Every
    edge of the split lands in some class, so the triple's union is the
    split's edge set.  Raises ValueError when the coloring has the wrong
    length or a color outside 1..3, when a cycle is odd, or when the
    triple fails ``verify_triple``.
    """
    if len(coloring) != len(split.chain_map):
        raise ValueError("coloring length differs from skeleton size")
    classes: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for i, (path, c) in enumerate(zip(split.chain_map, coloring)):
        if c not in (1, 2, 3):
            raise ValueError(f"skeleton edge {i} has invalid color {c!r}")
        o1, o2 = (x for x in (1, 2, 3) if x != c)
        classes[c].extend(path[0::2])
        classes[o1].extend(path[1::2])
        classes[o2].extend(path[1::2])
    for cyc in split.cycles:
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
    return out


def verify_structural(g: Graph, cert: StructuralCertificate) -> dict:
    """Full check of a structural certificate; never raises.

    The certificate is a spanning set and a coloring, and a spanning set
    splits into cycles, branch vertices and chains in one way only, so the
    check splits it with ``structural_witness`` and lifts the split with
    the coloring.  A set that does not split (a degree out of range, an
    even or a loop chain) and a lift that fails (a bad coloring, an odd
    cycle, an untouched vertex) are each one violation.
    """
    bad = sorted(e for e in cert.spanning if not (0 <= e < g.m))
    if bad:
        return {"ok": False, "violations": [f"spanning edge ids out of range: {bad}"]}
    try:
        triple_from_structural(g, structural_witness(g, cert.spanning), cert.coloring)
    except SkeletonExtractionError as exc:
        return {"ok": False, "violations": [f"spanning set does not split: {exc}"]}
    except ValueError as exc:
        return {"ok": False, "violations": [str(exc)]}
    return {"ok": True, "violations": []}
