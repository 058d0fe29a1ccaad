"""Seeded corpora for the four benchmark workloads.

Every graph reaches the program as text (graph6 for simple graphs with at
most 62 vertices, the ``n m`` edge list otherwise), so each repetition
parses it again and rebuilds the lazily cached ``Graph`` properties, as a
user of ``tripm check`` pays for them.

The fixed families are built here with ``make_graph`` and these vertex
numberings:

* ``flower(k)``, Isaacs flower snark J_k: star centre a_i = 4i with leaves
  b_i = 4i+1, c_i = 4i+2, d_i = 4i+3; edges a_i b_i, a_i c_i, a_i d_i; the
  cycle b_0 .. b_{k-1}; and the 2k-cycle c_0 .. c_{k-1} d_0 .. d_{k-1}.
  The search order follows the numbering: with this one J11 takes 624,935
  search nodes; numbering each class consecutively (a_i = i, b_i = k+i, ..)
  makes J9 alone take 70 million.
* ``prism(n)``: outer cycle 0 .. n/2-1, inner cycle n/2 .. n-1, rungs
  (i, n/2+i); ``prism(6)`` equals ``tripm.generators.prism()``.
* ``mobius(n)``: the cycle 0 .. n-1 plus chords (i, i+n/2) for i < n/2.
* ``cycle(n)``: edges (i, i+1 mod n).

The random families come from ``tripm.generators``.  Each draws its graph
seeds from ``random.Random`` seeded by the workload seed, so one seed always
gives the same corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sizes are fixed per workload; the seed changes only the random edges, so
# the cost profile of a corpus is the same from seed to seed.
FOUR_REGULAR_SIZES = tuple(range(14, 61, 2))
FOUR_REGULAR_PER_SIZE = 2
# Above 40 vertices some random cubic graphs (several per cent of them)
# take 0.3 to 1 s in the Hamilton probe, so the tail and the throughput
# would follow the seed; the fixed snarks J7 and J9 show that probe's cost
# steadily.
CUBIC_SIZES = tuple(range(20, 41, 2))
# J11 (624,935 nodes, 5 to 8 s on a 2-vCPU Xeon VM) is left out: alone it
# would be most of a pass and leave too few passes for steady figures; J9
# and J7 exhaust the same Hamilton probe.
FLOWER_KS = tuple(range(3, 11))
BISUBDIVISIONS = 12
LADDER_SIZES = (100, 200, 300, 400)
# 800 is the longest cycle that passes today; the longer ones fail with
# RecursionError and stay in the corpus so that the defect shows.
CYCLE_SIZES = (200, 400, 600, 800, 1000, 2000)
SURVEY_GRAPHS = 400
SURVEY_BATCH = 10


@dataclass(frozen=True)
class Entry:
    """One graph of a per-graph corpus.

    ``eligible`` is what the construction guarantees: whether the graph is
    matching covered, so whether ``check`` may call it ineligible.
    """

    gid: str
    fmt: str  # "graph6" or "edgelist"
    text: str
    eligible: bool = True


def flower(tp, k: int):
    pairs = []
    for i in range(k):
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        pairs += [(a, b), (a, c), (a, d), (b, 4 * ((i + 1) % k) + 1)]
        if i < k - 1:
            pairs += [(c, c + 4), (d, d + 4)]
    pairs += [(4 * (k - 1) + 2, 3), (4 * (k - 1) + 3, 2)]
    return tp.make_graph(4 * k, pairs)


def prism(tp, n: int):
    h = n // 2
    pairs = [(i, (i + 1) % h) for i in range(h)]
    pairs += [(h + i, h + (i + 1) % h) for i in range(h)]
    pairs += [(i, h + i) for i in range(h)]
    return tp.make_graph(n, pairs)


def mobius(tp, n: int):
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(i, i + n // 2) for i in range(n // 2)]
    return tp.make_graph(n, pairs)


def cycle(tp, n: int):
    return tp.make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def as_entry(tp, gid: str, g, eligible: bool = True) -> Entry:
    if g.n <= 62 and g.is_simple():
        return Entry(gid, "graph6", tp.write_graph6(g), eligible)
    return Entry(gid, "edgelist", tp.write_edge_list(g), eligible)


def random_covered(tp, rng: random.Random, k: int, n: int):
    """A seeded random k-regular graph on n vertices that is matching
    covered; draws again until one is."""
    while True:
        g = tp.generators.random_regular(k, n, rng.randrange(2**32))
        if tp.is_matching_covered(g)[0]:
            return g


def four_regular(tp, seed: int, tiny: bool) -> list[Entry]:
    rng = random.Random(seed)
    sizes = FOUR_REGULAR_SIZES[:2] if tiny else FOUR_REGULAR_SIZES
    return [as_entry(tp, f"4reg-n{n}-{i}", random_covered(tp, rng, 4, n))
            for n in sizes for i in range(FOUR_REGULAR_PER_SIZE)]


def cubic_search(tp, seed: int, tiny: bool) -> list[Entry]:
    rng = random.Random(seed)
    ks = FLOWER_KS[:2] if tiny else FLOWER_KS
    out = [as_entry(tp, f"J{k}", flower(tp, k)) for k in ks]
    sizes = CUBIC_SIZES[:1] if tiny else CUBIC_SIZES
    out += [as_entry(tp, f"cubic-n{n}", random_covered(tp, rng, 3, n))
            for n in sizes]
    # 1 to 4 bisubdivisions in turn, so only the edges chosen vary
    for i in range(2 if tiny else BISUBDIVISIONS):
        g = tp.generators.petersen()
        for _ in range(1 + i % 4):
            g = tp.generators.bisubdivide(g, rng.randrange(g.m))
        out.append(as_entry(tp, f"petersen-bisub-{i}", g))
    # no-pm-cubic16 has no perfect matching, so it must come out ineligible
    out += [as_entry(tp, name, make(), eligible=name != "no-pm-cubic16")
            for name, make in tp.generators.NAMED.items()]
    return out


def large_sparse(tp, seed: int, tiny: bool) -> list[Entry]:
    del seed  # no random family: the corpus is the same for every seed
    ladders = (12, 20) if tiny else LADDER_SIZES
    cycles = (20, 1000) if tiny else CYCLE_SIZES
    out = []
    for n in ladders:
        out.append(as_entry(tp, f"prism-{n}", prism(tp, n)))
        out.append(as_entry(tp, f"mobius-{n}", mobius(tp, n)))
    out += [as_entry(tp, f"cycle-{n}", cycle(tp, n)) for n in cycles]
    return out


def survey_graphs(tp, seed: int, tiny: bool) -> list[str]:
    """graph6 lines of random 3- and 4-regular matching covered graphs on
    10, 12 or 14 vertices, cycling through both lists."""
    rng = random.Random(seed)
    count = 2 * SURVEY_BATCH if tiny else SURVEY_GRAPHS
    return [tp.write_graph6(random_covered(tp, rng, 3 + i % 2,
                                           10 + 2 * (i // 2 % 3)))
            for i in range(count)]


PER_GRAPH = {
    "four-regular": four_regular,
    "cubic-search": cubic_search,
    "large-sparse": large_sparse,
}
