import random
from itertools import combinations

import pytest

from tripm.graph import Graph, is_connected, make_graph
from tripm.matching import is_matching_covered
from tripm import generators as gen


def all_labeled_graphs(n):
    """Every labeled simple graph on n vertices, as edge-pair tuples."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield tuple(p for i, p in enumerate(pairs) if mask >> i & 1)


def exhaustive_matching_covered(n):
    out = []
    for pairs in all_labeled_graphs(n):
        if len(pairs) < n // 2:
            continue
        g = Graph(n, pairs)
        if not is_connected(g):
            continue
        covered, _ = is_matching_covered(g)
        if covered:
            out.append(g)
    return out


def sampled_matching_covered(n, count, seed, max_edges):
    """Seeded connected matching covered samples, deduplicated by edge set."""
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 400:
        attempts += 1
        m = rng.randint(n, max_edges)
        chosen = tuple(sorted(rng.sample(pairs, m)))
        if chosen in seen:
            continue
        seen.add(chosen)
        g = Graph(n, chosen)
        if not is_connected(g):
            continue
        covered, _ = is_matching_covered(g)
        if covered:
            out.append(g)
    return out


def random_graph_corpus(count, seed, max_n=10):
    """Arbitrary small graphs (any degree pattern, possibly disconnected)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        pairs = list(combinations(range(n), 2))
        m = rng.randint(0, len(pairs))
        out.append(Graph(n, tuple(sorted(rng.sample(pairs, m)))))
    return out


def random_multigraph_corpus(count, seed, max_n=10):
    """Seeded multigraphs with repeated edges on 1..max_n vertices.

    Most even-order ones start from a random perfect matching, so every
    outcome of the matching covered gate occurs often.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        pairs = []
        if n % 2 == 0 and rng.random() < 0.8:
            order = rng.sample(range(n), n)
            pairs += [(order[i], order[i + 1]) for i in range(0, n, 2)]
        if n > 1:
            pairs += [tuple(rng.sample(range(n), 2))
                      for _ in range(rng.randint(0, 2 * n))]
        if pairs:
            pairs += rng.choices(pairs, k=rng.randint(0, 3))
        out.append(make_graph(n, pairs))
    return out


def _regular_pieces(rng, r, cut, max_n):
    """(n, edge pairs) of a random r-regular multigraph on at most max_n
    vertices, or None when the draw cannot be paired without a loop.

    With ``cut`` > 0 it is two pieces, 0 .. a-1 and a .. n-1: the cut takes
    that many stubs from each side and every other stub is paired within
    its side, so the cut edges are the only ones between them.
    """
    n = rng.randint(2 if cut else 1, max_n)
    bounds = [0, rng.randint(1, n - 1), n] if cut else [0, n]
    pairs = []
    ends = []
    for lo, hi in zip(bounds, bounds[1:]):
        stubs = [v for v in range(lo, hi) for _ in range(r)]
        rng.shuffle(stubs)
        rest = stubs[cut:]
        if len(stubs) < cut or len(rest) % 2:
            return None
        ends.append(stubs[:cut])
        pairs += zip(rest[::2], rest[1::2])
    if any(u == v for u, v in pairs):
        return None
    return n, pairs + list(zip(*ends))


def random_regular_multigraph_corpus(count, seed, max_n=12):
    """Seeded loopless r-regular multigraphs, r in 1..4 in turn, on at most
    max_n vertices, relabelled at random.

    Every other graph of each degree is two pieces joined across a cut of
    one or two edges (two when r is even, which a one-edge cut cannot be).
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = len(out) % 4 + 1
        cut = 0
        if len(out) // 4 % 2:
            cut = rng.choice((1, 2)) if r % 2 else 2
        drawn = None
        while drawn is None:
            drawn = _regular_pieces(rng, r, cut, max_n)
        n, pairs = drawn
        label = rng.sample(range(n), n)
        out.append(make_graph(n, [(label[u], label[v]) for u, v in pairs]))
    return out


def random_cubic_corpus(count, seed_base):
    sizes = (6, 8, 10, 12, 14, 16)
    return [gen.random_regular(3, sizes[i % len(sizes)], seed_base + i)
            for i in range(count)]


def flower(k):
    """Isaacs flower snark J_k in the benchmark's numbering: star centre
    a_i = 4i with leaves b_i = 4i+1, c_i = 4i+2, d_i = 4i+3, the cycle
    b_0 .. b_{k-1}, and the 2k-cycle c_0 .. c_{k-1} d_0 .. d_{k-1}."""
    pairs = []
    for i in range(k):
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        pairs += [(a, b), (a, c), (a, d), (b, 4 * ((i + 1) % k) + 1)]
        if i < k - 1:
            pairs += [(c, c + 4), (d, d + 4)]
    pairs += [(4 * (k - 1) + 2, 3), (4 * (k - 1) + 3, 2)]
    return make_graph(4 * k, pairs)


def petersen_with_triangles(vertices):
    """Petersen with each of ``vertices`` replaced by a triangle: v keeps
    its first edge and two new vertices take the other two.  Like Petersen,
    the result has no 3-edge-coloring."""
    g = gen.petersen()
    pairs = list(g.edges)
    n = g.n
    for v in sorted(vertices):
        _, e2, e3 = g.incident[v]
        for e, w in ((e2, n), (e3, n + 1)):
            x, y = pairs[e]
            pairs[e] = (w, y) if x == v else (x, w)
        pairs += [(v, n), (n, n + 1), (v, n + 1)]
        n += 2
    return make_graph(n, pairs)


def three_connected_four_regular(n, seed_start, count):
    """Seeded 4-regular simple graphs filtered to 3-connected ones."""
    from tripm.graph import is_k_connected
    out = []
    seed = seed_start
    while len(out) < count:
        g = gen.random_regular(4, n, seed)
        seed += 1
        if is_k_connected(g, 3):
            out.append(g)
    return out


@pytest.fixture(scope="session")
def named_suite():
    graphs = {name: fn() for name, fn in gen.NAMED.items()
              if name != "no-pm-cubic16"}
    for n in (3, 5, 7, 9):
        graphs[f"wheel{n}"] = gen.wheel(n)
    for n in (4, 6, 8):
        graphs[f"double-wheel{n}"] = gen.double_wheel(n)
    return graphs


@pytest.fixture(scope="session")
def matching_covered_small():
    """Exhaustive matching covered corpus for n in {2, 4, 6}."""
    return {n: exhaustive_matching_covered(n) for n in (2, 4, 6)}
