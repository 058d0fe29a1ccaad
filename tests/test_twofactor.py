"""Even 2-factor search, cycle decomposition, alternation."""

import random

import pytest

from tripm import (
    Budget,
    BudgetExhausted,
    factor_cycles,
    find_even_2factor,
    is_perfect_matching,
    make_graph,
    structural_witness,
    triple_from_structural,
    verify_triple,
)
from tripm.generators import NAMED, k4, petersen

from conftest import random_multigraph_corpus, sampled_matching_covered
from oracles import brute_has_even_2factor, cycle_lengths, set_factor_cycles


def c6():
    return make_graph(6, [(i, (i + 1) % 6) for i in range(6)])


def two_triangles():
    return make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def test_factor_cycles_single_cycle_traversal_order():
    g = c6()
    # start at vertex 0 along edge (0,1), close through (0,5)
    assert factor_cycles(g, range(6)) == [[0, 2, 3, 4, 5, 1]]


def test_factor_cycles_orders_components_by_smallest_vertex():
    g = two_triangles()
    cycles = factor_cycles(g, range(6))
    assert [len(c) for c in cycles] == [3, 3]
    assert g.edges[cycles[0][0]] == (0, 1)
    assert g.edges[cycles[1][0]] == (3, 4)


def test_factor_cycles_rejects_wrong_degrees():
    g = k4()
    assert factor_cycles(g, [0, 1]) is None  # vertex 0 has degree 2 but 1,2 degree 1
    assert factor_cycles(g, [0]) is None


def cycle_union_edge_sets(count, seed):
    """Seeded (host, edge set) pairs: disjoint cycles of length 2 to 7
    (digons are parallel pairs) under a random relabelling, in a host with
    a few extra edges, some of which parallel a cycle edge."""
    rng = random.Random(seed)
    for _ in range(count):
        n, members = 0, []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(2, 7)
            members += [(n + i, n + (i + 1) % k) for i in range(k)]
            n += k
        perm = rng.sample(range(n), n)
        items = [((perm[u], perm[v]), True) for u, v in members]
        items += [(tuple(rng.sample(range(n), 2)), False)
                  for _ in range(rng.randint(0, 3))]
        items += [(p, False) for p, _ in rng.sample(items, rng.randint(0, 2))]
        items = sorted(((min(p), max(p)), member) for p, member in items)
        g = make_graph(n, [p for p, _ in items])
        yield g, frozenset(e for e, (_, member) in enumerate(items) if member)


def test_factor_cycles_matches_the_set_based_reference():
    """The array-based decomposition gives the set-based one's cycles,
    or None where it does, for a list with repeats, a set and a frozenset
    of the same ids."""
    rng = random.Random(4711)
    cases = list(cycle_union_edge_sets(400, seed=4712))
    for g in random_multigraph_corpus(400, seed=4713):
        cases.append((g, frozenset(rng.sample(range(g.m), rng.randint(0, g.m)))))
    decomposed = 0
    for g, ids in cases:
        want = set_factor_cycles(g, ids)
        repeats = list(ids) + rng.sample(sorted(ids), rng.randint(0, len(ids)))
        rng.shuffle(repeats)
        for given in (repeats, set(ids), frozenset(ids)):
            assert factor_cycles(g, given) == want, (g, given)
        decomposed += want is not None
    assert 400 <= decomposed < len(cases)


def test_find_even_2factor_on_cycle_and_k4():
    g = c6()
    assert find_even_2factor(g) == frozenset(range(6))
    f = find_even_2factor(k4())
    assert f is not None
    assert find_even_2factor(k4()) == f  # deterministic
    cycles = factor_cycles(k4(), f)
    assert cycles is not None
    assert sorted(len(c) % 2 for c in cycles) == [0] * len(cycles)


def test_find_even_2factor_negative_cases():
    # both 2-factors of the Petersen graph are pairs of 5-cycles
    assert find_even_2factor(petersen()) is None
    assert find_even_2factor(two_triangles()) is None
    with pytest.raises(ValueError):
        find_even_2factor(make_graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_find_even_2factor_agrees_with_bruteforce():
    for g in sampled_matching_covered(8, count=60, seed=5150, max_edges=16):
        got = find_even_2factor(g)
        if got is None:
            assert not brute_has_even_2factor(g)
        else:
            assert brute_has_even_2factor(g)
            cycles = factor_cycles(g, got)
            assert cycles is not None
            assert all(len(c) % 2 == 0 for c in cycles)
            assert sum(len(c) for c in cycles) == g.n


@pytest.mark.parametrize("name, factor, nodes", [
    ("cube", [0, 1, 3, 5, 8, 9, 10, 11], 13),
    ("icosahedron", [0, 1, 6, 9, 12, 15, 20, 21, 23, 25, 28, 29], 31),
    ("carvalho10", [0, 1, 3, 5, 6, 8, 10, 13, 15, 16], 19),
    ("petersen", None, 84),
])
def test_find_even_2factor_search_order_is_pinned(name, factor, nodes):
    # include-first edge-id order: the first factor found and the nodes
    # charged on the way are part of the search's contract
    b = Budget(None)
    found = find_even_2factor(NAMED[name](), b)
    assert (sorted(found) if found is not None else None) == factor
    assert b.used == nodes


def test_find_even_2factor_budget():
    with pytest.raises(BudgetExhausted):
        find_even_2factor(k4(), budget=Budget(limit=2))


def test_triple_from_even_2factor_alternates():
    g = c6()
    cert = triple_from_structural(g, structural_witness(g, frozenset(range(6))), ())
    assert cert.m1 == frozenset({0, 3, 5})
    assert cert.m2 == frozenset({1, 2, 4})
    assert cert.m3 == cert.m2
    assert verify_triple(g, cert)["ok"]
    assert cert.m1 & cert.m2 & cert.m3 == frozenset()
    for m in cert.matchings:
        assert is_perfect_matching(g, m)


def test_triple_from_even_2factor_validation():
    with pytest.raises(ValueError, match="degree out of range"):
        structural_witness(k4(), [0, 1])
    g8 = make_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3),
                        (4, 5), (5, 6), (6, 7), (4, 7)])
    inner = [e for e, (u, v) in enumerate(g8.edges) if v <= 3]
    with pytest.raises(ValueError, match="not perfect"):
        triple_from_structural(g8, structural_witness(g8, inner), ())
    g = two_triangles()
    with pytest.raises(ValueError, match="odd cycle"):
        triple_from_structural(g, structural_witness(g, range(6)), ())


def test_structural_from_factor_shape():
    g = c6()
    split = structural_witness(g, frozenset(range(6)))
    assert split.cycles == ((0, 2, 3, 4, 5, 1),)
    assert (split.branch_vertices, split.skeleton, split.chain_map) == ((), None, ())
    assert split.clause == "even-2-factor"


def test_cycle_lengths_oracle_helper():
    assert sorted(cycle_lengths(two_triangles(), range(6))) == [3, 3]
