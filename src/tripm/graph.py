"""Immutable undirected multigraph with dense, canonically ordered edge ids.

Every algorithm in this package leans on the same edge-id convention, so it
is fixed here once: an edge is stored as an endpoint pair ``(u, v)`` with
``u < v``, the edge list is sorted lexicographically by those pairs, and
parallel edges keep their relative insertion order.  Edge ids are the
positions ``0 .. m-1`` in that list.  Loops are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Graph:
    """Loopless multigraph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n : number of vertices.
    edges : tuple of ``(u, v)`` pairs with ``u < v``, lexicographically
        sorted.  Use :func:`make_graph` to build one from unnormalized input.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        prev = (-1, -1)
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if (u, v) < prev:
                raise ValueError("edge list not canonically sorted")
            prev = (u, v)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuples of ``(neighbor, edge_id)`` in edge-id order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuples of incident edge ids, ascending."""
        return tuple(tuple(e for _, e in a) for a in self.adjacency)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(v for v, _ in a) for a in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def other(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} not an endpoint of edge {e}")

    def edge_ids_between(self, u: int, v: int) -> tuple[int, ...]:
        """All edge ids joining u and v, ascending (parallel edges)."""
        if u > v:
            u, v = v, u
        return tuple(e for e, uv in enumerate(self.edges) if uv == (u, v))

    def is_simple(self) -> bool:
        return len(set(self.edges)) == self.m

    def is_regular(self, k: int) -> bool:
        return all(d == k for d in self.degrees())

    def spanning_subgraph(self, edge_ids) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph on all n vertices keeping only ``edge_ids``.

        Returns the subgraph and a map from new edge id to old edge id.
        """
        keep = sorted(set(edge_ids))
        for e in keep:
            if not (0 <= e < self.m):
                raise ValueError(f"edge id {e} out of range")
        sub = Graph(self.n, tuple(self.edges[e] for e in keep))
        return sub, tuple(keep)

    def induced_subgraph(self, vertices) -> tuple["Graph", tuple[int, ...], tuple[int, ...]]:
        """Subgraph induced on ``vertices``, relabeled 0.. in ascending order.

        Returns (subgraph, vertex map new->old, edge map new->old).
        """
        vs = sorted(set(vertices))
        for v in vs:
            if not (0 <= v < self.n):
                raise ValueError(f"vertex {v} out of range")
        old_to_new = {v: i for i, v in enumerate(vs)}
        kept_edges = []
        kept_ids = []
        for e, (u, v) in enumerate(self.edges):
            if u in old_to_new and v in old_to_new:
                kept_edges.append((old_to_new[u], old_to_new[v]))
                kept_ids.append(e)
        # relabeling preserves order of endpoint pairs, so the list stays sorted
        sub = Graph(len(vs), tuple(kept_edges))
        return sub, tuple(vs), tuple(kept_ids)


def make_graph(n: int, pairs) -> Graph:
    """Build a Graph from unnormalized endpoint pairs.

    Endpoints are swapped into ``u < v`` form; the stable sort keeps parallel
    edges in insertion order.
    """
    norm = []
    for u, v in pairs:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        norm.append((u, v) if u < v else (v, u))
    norm.sort(key=lambda p: (p[0], p[1]))
    return Graph(n, tuple(norm))


def connected_components(g: Graph, vertices=None, edge_ids=None) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest vertex.

    Restricted to ``vertices`` and/or ``edge_ids`` when given.
    """
    if vertices is None:
        vs = range(g.n)
    else:
        vs = sorted(set(vertices))
    allowed_v = set(vs)
    if edge_ids is not None:
        allowed_e = set(edge_ids)
    else:
        allowed_e = None
    seen: set[int] = set()
    comps: list[list[int]] = []
    for s in vs:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            for w, e in g.adjacency[v]:
                if w not in allowed_v or w in seen:
                    continue
                if allowed_e is not None and e not in allowed_e:
                    continue
                seen.add(w)
                comp.append(w)
                stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph, vertices=None, edge_ids=None) -> bool:
    comps = connected_components(g, vertices, edge_ids)
    return len(comps) <= 1


def is_k_connected(g: Graph, k: int) -> bool:
    """Exhaustive small-cut test, k in 1..3.

    True iff n > k and deleting any vertex set of size < k leaves the graph
    connected.  Parallel edges do not affect vertex connectivity.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if g.n <= k:
        return False
    if not is_connected(g):
        return False
    if k == 1:
        return True
    for a in range(g.n):
        rest = [v for v in range(g.n) if v != a]
        if not is_connected(g, vertices=rest):
            return False
    if k == 2:
        return True
    for a in range(g.n):
        for b in range(a + 1, g.n):
            rest = [v for v in range(g.n) if v != a and v != b]
            if not is_connected(g, vertices=rest):
                return False
    return True
