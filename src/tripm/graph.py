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
        n = self.n
        prev = (-1, -1)
        for pair in self.edges:
            u, v = pair
            if not (0 <= u < v < n):
                if u == v:
                    raise ValueError(f"loop at vertex {u}")
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if pair < prev:
                raise ValueError("edge list not canonically sorted")
            prev = pair

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
        return tuple(map(tuple, adj))

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
        return tuple(map(len, self.adjacency))

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
        """All edge ids joining u and v, ascending (parallel edges).

        Scans u's adjacency, so it costs O(deg u).  Empty when either
        vertex lies outside ``0 .. n-1``.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            return ()
        return tuple(e for w, e in self.adjacency[u] if w == v)

    def is_simple(self) -> bool:
        return len(set(self.edges)) == self.m

    def is_regular(self, k: int) -> bool:
        return self.degrees().count(k) == self.n

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
    norm.sort()  # equal pairs are equal tuples, so this is the stable order
    return Graph(n, tuple(norm))


def connected_components(g: Graph, vertices=None, edge_ids=None) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest vertex.

    Restricted to ``vertices`` and/or ``edge_ids`` when given.  Vertices
    are marked in a bytearray; a vertex outside ``vertices`` starts marked,
    so the search never enters it.
    """
    if vertices is None:
        vs = range(g.n)
        seen = bytearray(g.n)
    else:
        vs = sorted(set(vertices))
        seen = bytearray(b"\x01") * g.n
        for v in vs:
            seen[v] = 0
    allowed_e = None if edge_ids is None else set(edge_ids)
    adjacency = g.adjacency
    comps: list[list[int]] = []
    for s in vs:
        if seen[s]:
            continue
        comp = [s]
        seen[s] = 1
        stack = [s]
        while stack:
            for w, e in adjacency[stack.pop()]:
                if seen[w] or (allowed_e is not None and e not in allowed_e):
                    continue
                seen[w] = 1
                comp.append(w)
                stack.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def is_connected(g: Graph, vertices=None, edge_ids=None) -> bool:
    comps = connected_components(g, vertices, edge_ids)
    return len(comps) <= 1


def _biconnected_without(g: Graph, skip: int) -> bool:
    """True iff G - skip is connected and has no cut vertex.

    One iterative lowpoint DFS (Hopcroft-Tarjan): a non-root vertex v is a
    cut vertex iff some DFS child w has low[w] >= disc[v], the root iff it
    has two or more children.  ``skip`` = -1 deletes nothing.  Edges back
    to the DFS parent lower no lowpoint below the parent, so they need no
    special case.
    """
    nbrs = g.neighbor_sets
    n = g.n
    disc = [0] * n  # discovery times from 1; 0 = not reached
    low = [0] * n
    if skip >= 0:
        disc[skip] = n + 1  # counts as reached, and lowers no lowpoint
    root = 1 if skip == 0 else 0
    disc[root] = low[root] = reached = 1
    root_children = 0
    stack = [(root, iter(nbrs[root]))]
    while stack:
        v, untried = stack[-1]
        for w in untried:
            d = disc[w]
            if d:
                if d < low[v]:
                    low[v] = d
            else:
                reached += 1
                disc[w] = low[w] = reached
                stack.append((w, iter(nbrs[w])))
                break
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if u == root:
                    root_children += 1
                elif low[v] >= disc[u]:
                    return False
    return reached == n - (skip >= 0) and root_children <= 1


def is_k_connected(g: Graph, k: int) -> bool:
    """Vertex k-connectivity for k in 1..3.

    True iff n > k and deleting any vertex set of size < k leaves the graph
    connected.  Parallel edges do not affect vertex connectivity.  k = 2
    asks one lowpoint DFS whether G has a cut vertex; k = 3 asks it of
    G - a for every vertex a, which costs O(n (n + m)).
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if g.n <= k:
        return False
    if k == 1:
        return is_connected(g)
    if k == 2:
        return _biconnected_without(g, -1)
    return all(_biconnected_without(g, a) for a in range(g.n))
