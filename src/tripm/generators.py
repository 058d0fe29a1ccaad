"""Graph family generators with frozen vertex numberings.

The numberings below are part of the package contract; certificates and
fixtures refer to them.  Summary:

* ``wheel(n)``: rim cycle 0..n-1, hub n.
* ``double_wheel(n)``: outer cycle 0..n-1, hub n adjacent to the
  ceil(n/2) consecutive outer vertices 0..ceil(n/2)-1, hub n+1 to the rest,
  hubs adjacent to each other.
* ``prism``: triangles 0-1-2 and 3-4-5 joined by rungs (i, i+3).
* ``petersen``: outer cycle 0..4, spokes (i, 5+i), inner edges
  (5+i, 5+((i+2) mod 5)).
* ``cube``: vertices are 3-bit strings, edges between strings differing in
  one bit.
* ``octahedron``: K6 minus the matching (0,3), (1,4), (2,5).
* ``dodecahedron``: outer cycle 0..9, spokes (i, 10+i), inner edges
  (10+i, 10+((i+2) mod 10)).
* ``icosahedron``: fixed 30-edge list below (planar drawing order).
* ``carvalho10``: fixed 17-edge list below.
* ``b8``: fixed cubic 12-edge list below.
* ``no_pm_cubic16``: hub 0 plus three 5-vertex blocks 5g+1..5g+5 with
  internal edges ab, aw, ac, bc, cw, by, wy on (a, b, c, w, y) =
  (5g+1, .., 5g+5) and attachment (0, 5g+5).
"""

from __future__ import annotations

import random

from .graph import Graph, make_graph


def k4() -> Graph:
    return make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def k33() -> Graph:
    return make_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def prism() -> Graph:
    pairs = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return make_graph(6, pairs)


def b8() -> Graph:
    pairs = [(0, 1), (2, 3), (3, 4), (3, 7), (0, 2), (0, 5), (1, 4), (1, 6),
             (2, 5), (4, 6), (5, 7), (6, 7)]
    return make_graph(8, pairs)


def petersen() -> Graph:
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(i, 5 + i) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, pairs)


def cube() -> Graph:
    pairs = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                pairs.append((v, w))
    return make_graph(8, pairs)


def octahedron() -> Graph:
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3]
    return make_graph(6, pairs)


def dodecahedron() -> Graph:
    pairs = [(i, (i + 1) % 10) for i in range(10)]
    pairs += [(i, 10 + i) for i in range(10)]
    pairs += [(10 + i, 10 + (i + 2) % 10) for i in range(10)]
    return make_graph(20, pairs)


def icosahedron() -> Graph:
    pairs = [(0, 1), (0, 2), (0, 3), (0, 8), (0, 11),
             (1, 2), (1, 5), (1, 9), (1, 11),
             (2, 3), (2, 4), (2, 5),
             (3, 4), (3, 6), (3, 8),
             (4, 5), (4, 6), (4, 7),
             (5, 7), (5, 9),
             (6, 7), (6, 8), (6, 10),
             (7, 9), (7, 10),
             (8, 10), (8, 11),
             (9, 10), (9, 11),
             (10, 11)]
    return make_graph(12, pairs)


def carvalho10() -> Graph:
    pairs = [(0, 1), (0, 6), (0, 7), (1, 7), (1, 8),
             (2, 3), (2, 4), (2, 6),
             (3, 5), (3, 8),
             (4, 6), (4, 7),
             (5, 7), (5, 8),
             (6, 9), (7, 9), (8, 9)]
    return make_graph(10, pairs)


def wheel(n: int) -> Graph:
    if n < 3:
        raise ValueError("wheel needs a rim cycle of length >= 3")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(i, n) for i in range(n)]
    return make_graph(n + 1, pairs)


def double_wheel(n: int) -> Graph:
    if n < 3:
        raise ValueError("double wheel needs an outer cycle of length >= 3")
    h1, h2 = n, n + 1
    half = (n + 1) // 2
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(i, h1) for i in range(half)]
    pairs += [(i, h2) for i in range(half, n)]
    pairs.append((h1, h2))
    return make_graph(n + 2, pairs)


def no_pm_cubic16() -> Graph:
    pairs = []
    for gadget in range(3):
        a, b, c, w, y = (5 * gadget + i for i in range(1, 6))
        pairs += [(a, b), (a, w), (a, c), (b, c), (c, w), (b, y), (w, y)]
        pairs.append((0, y))
    return make_graph(16, pairs)


def random_regular(k: int, n: int, seed: int) -> Graph:
    """Pairing-model k-regular graph, resampled until simple."""
    if k < 0 or n < 0:
        raise ValueError("k and n must be nonnegative")
    if (k * n) % 2:
        raise ValueError(f"no {k}-regular graph on {n} vertices: k*n is odd")
    if k >= n and n > 0:
        raise ValueError(f"simple {k}-regular graph needs n > k")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        norm = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(norm) < len(pairs):
            continue
        return make_graph(n, pairs)


def halin(seed: int) -> Graph:
    """Random Halin graph: plane tree with internal degrees >= 3 plus a
    cycle through the leaves in planar order.

    The tree shape and size are drawn from the seed; the smallest output is
    the wheel on 4 vertices.
    """
    rng = random.Random(seed)
    children: dict[int, list[int]] = {0: []}
    next_id = 1
    # grow an ordered tree; root gets 3-4 children, internals 2-3, with the
    # expansion probability dropping as the tree grows
    frontier = [0]
    depth = {0: 0}
    while frontier:
        v = frontier.pop(0)
        if v == 0:
            k = rng.randint(3, 4)
        else:
            p_internal = max(0.05, 0.55 - 0.16 * depth[v] - 0.012 * next_id)
            if rng.random() >= p_internal:
                continue
            k = rng.randint(2, 3)
        for _ in range(k):
            children[v].append(next_id)
            children[next_id] = []
            depth[next_id] = depth[v] + 1
            frontier.append(next_id)
            next_id += 1
    pairs = [(v, c) for v in children for c in children[v]]
    # leaves in planar order = DFS order with children as inserted
    leaves = []
    stack = [0]
    while stack:
        v = stack.pop()
        if not children[v]:
            leaves.append(v)
        else:
            stack.extend(reversed(children[v]))
    for i, leaf in enumerate(leaves):
        pairs.append((leaf, leaves[(i + 1) % len(leaves)]))
    return make_graph(next_id, pairs)


def bisubdivide(g: Graph, edge_id: int) -> Graph:
    """Replace edge ``edge_id`` by a path of length 3 through two new
    vertices n and n+1.  Edge ids are re-canonicalized by construction."""
    if not (0 <= edge_id < g.m):
        raise ValueError(f"edge id {edge_id} out of range")
    u, v = g.edges[edge_id]
    a, b = g.n, g.n + 1
    pairs = [g.edges[e] for e in range(g.m) if e != edge_id]
    pairs += [(u, a), (a, b), (b, v)]
    return make_graph(g.n + 2, pairs)


def bisubdivide_all(g: Graph) -> Graph:
    """Replace every edge e = uv by the path u, n+2e, n+2e+1, v.  On a
    cubic g the result is its own only spanning subgraph with degrees in
    {2, 3}, and its skeleton is g."""
    pairs = []
    for e, (u, v) in enumerate(g.edges):
        a, b = g.n + 2 * e, g.n + 2 * e + 1
        pairs += [(u, a), (a, b), (b, v)]
    return make_graph(g.n + 2 * g.m, pairs)


NAMED = {
    "k4": k4,
    "k33": k33,
    "prism": prism,
    "b8": b8,
    "petersen": petersen,
    "cube": cube,
    "octahedron": octahedron,
    "dodecahedron": dodecahedron,
    "icosahedron": icosahedron,
    "carvalho10": carvalho10,
    "no-pm-cubic16": no_pm_cubic16,
}

PARAMETRIC = {"wheel", "double-wheel", "halin", "random-regular"}


def generate(family: str, n: int | None = None, k: int | None = None,
             seed: int | None = None) -> Graph:
    """Dispatch a generator by family name; unknown names raise ValueError."""
    if family in NAMED:
        return NAMED[family]()
    if family == "wheel":
        if n is None:
            raise ValueError("wheel requires n")
        return wheel(n)
    if family == "double-wheel":
        if n is None:
            raise ValueError("double-wheel requires n")
        return double_wheel(n)
    if family == "halin":
        if seed is None:
            raise ValueError("halin requires a seed")
        return halin(seed)
    if family == "random-regular":
        if n is None or k is None or seed is None:
            raise ValueError("random-regular requires k, n and a seed")
        return random_regular(k, n, seed)
    raise ValueError(f"unknown family {family!r}")
