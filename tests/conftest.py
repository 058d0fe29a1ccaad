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


def random_cubic_corpus(count, seed_base):
    sizes = (6, 8, 10, 12, 14, 16)
    return [gen.random_regular(3, sizes[i % len(sizes)], seed_base + i)
            for i in range(count)]


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
