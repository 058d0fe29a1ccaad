"""Blossom matching, constrained perfect matchings, enumeration, coverage."""

import pytest

from tripm import (
    Budget,
    BudgetExhausted,
    count_perfect_matchings,
    enumerate_perfect_matchings,
    is_factor_critical,
    is_matching,
    is_matching_covered,
    is_perfect_matching,
    make_graph,
    matched_vertices,
    max_matching,
    max_matching_size,
    perfect_matching_with_forced,
)
from tripm.generators import k4, k33, no_pm_cubic16, petersen, prism

from conftest import random_graph_corpus, random_multigraph_corpus
from oracles import (
    brute_is_k_connected,
    brute_max_matching_size,
    brute_perfect_matchings,
)


def test_max_matching_on_blossom_heavy_graph():
    # two triangles joined by a bridge force blossom handling
    g = make_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    m = max_matching(g)
    assert is_matching(g, m)
    assert len(m) == 3 == brute_max_matching_size(g)


def test_max_matching_matches_bruteforce_on_random_corpus():
    for g in random_graph_corpus(count=300, seed=424, max_n=9):
        m = max_matching(g)
        assert is_matching(g, m)
        assert len(m) == max_matching_size(g) == brute_max_matching_size(g)


def test_matched_vertices_and_predicates():
    g = k4()
    pm = max_matching(g)
    assert matched_vertices(g, pm) == frozenset(range(4))
    assert is_perfect_matching(g, pm)
    assert not is_perfect_matching(g, list(pm)[:1])
    assert not is_matching(g, [0, 1])  # edges (0,1) and (0,2) share vertex 0


@pytest.mark.parametrize("g,count", [
    (k4(), 3),
    (k33(), 6),
    (petersen(), 6),
    (prism(), 4),
])
def test_frozen_perfect_matching_counts(g, count):
    assert count_perfect_matchings(g) == count
    assert len(brute_perfect_matchings(g)) == count


def test_enumeration_is_deterministic_exact_and_duplicate_free():
    for g in random_graph_corpus(count=150, seed=77, max_n=8):
        if g.n % 2:
            continue
        pms = list(enumerate_perfect_matchings(g))
        assert pms == list(enumerate_perfect_matchings(g))
        assert len(set(pms)) == len(pms)
        assert set(pms) == set(brute_perfect_matchings(g))
        for pm in pms:
            assert is_perfect_matching(g, pm)


def test_enumeration_order_and_nodes_are_pinned():
    b = Budget(None)
    pms = [sorted(pm) for pm in enumerate_perfect_matchings(k33(), b)]
    assert pms == [[0, 4, 8], [0, 5, 7], [1, 3, 8], [1, 5, 6], [2, 3, 7],
                   [2, 4, 6]]
    assert b.used == 16


def test_enumeration_is_not_limited_by_recursion_depth():
    n = 2000
    g = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
    b = Budget(None)
    pms = list(enumerate_perfect_matchings(g, b))
    # edge 0 is (0, 1), edge 1 is (0, n-1), edge i + 1 is (i, i + 1)
    assert pms == [frozenset({0, *range(3, n, 2)}),
                   frozenset({1, *range(2, n - 1, 2)})]
    assert all(is_perfect_matching(g, pm) for pm in pms)
    assert b.used == n + 1


def test_enumeration_rejects_odd_n():
    with pytest.raises(ValueError):
        list(enumerate_perfect_matchings(make_graph(3, [(0, 1)])))


def test_enumeration_budget_exhausts_mid_stream():
    b = Budget(limit=3)
    it = enumerate_perfect_matchings(k33(), budget=b)
    with pytest.raises(BudgetExhausted):
        for _ in it:
            pass
    assert b.used == 4  # the charge that crossed the limit is counted


def test_empty_graph_has_one_empty_perfect_matching():
    g = make_graph(0, [])
    assert list(enumerate_perfect_matchings(g)) == [frozenset()]


def test_perfect_matching_with_forced_and_forbidden():
    g = petersen()
    for e in range(g.m):
        pm = perfect_matching_with_forced(g, forced=(e,))
        assert pm is not None and e in pm and is_perfect_matching(g, pm)
    # any two of the six Petersen matchings intersect, so avoiding one fails
    pm0 = perfect_matching_with_forced(g, forced=(0,))
    assert perfect_matching_with_forced(g, forbidden=pm0) is None
    # K3,3 is 3-edge-colorable, so a disjoint partner always exists
    h = k33()
    pm0 = perfect_matching_with_forced(h, forced=(0,))
    avoid = perfect_matching_with_forced(h, forbidden=pm0)
    assert avoid is not None and not (avoid & pm0)
    assert is_perfect_matching(h, avoid)


def test_perfect_matching_with_forced_validation():
    g = k4()
    with pytest.raises(ValueError, match="overlap"):
        perfect_matching_with_forced(g, forced=(0,), forbidden=(0,))
    with pytest.raises(ValueError, match="matching"):
        perfect_matching_with_forced(g, forced=(0, 1))


def test_forbidding_everything_returns_none():
    g = k4()
    assert perfect_matching_with_forced(g, forbidden=range(g.m)) is None


def test_forced_parallel_edge_is_honored():
    g = make_graph(2, [(0, 1), (0, 1)])
    pm = perfect_matching_with_forced(g, forced=(1,))
    assert pm == frozenset({1})
    pm = perfect_matching_with_forced(g, forbidden=(0,))
    assert pm == frozenset({1})


@pytest.mark.parametrize("g", [k4(), k33(), petersen(), prism()])
def test_classic_graphs_are_matching_covered(g):
    ok, report = is_matching_covered(g)
    assert ok
    witness = report["witness"]
    assert set(witness) == set(range(g.m))
    for e, pm in witness.items():
        assert e in pm and is_perfect_matching(g, pm)


@pytest.mark.parametrize("g,reason", [
    (make_graph(3, [(0, 1)]), "odd or empty vertex set"),
    (make_graph(0, []), "odd or empty vertex set"),
    (make_graph(4, [(0, 1), (2, 3)]), "not connected"),
    (make_graph(2, []), "not connected"),
    (no_pm_cubic16(), "no perfect matching"),
])
def test_not_matching_covered_reasons(g, reason):
    ok, report = is_matching_covered(g)
    assert not ok
    assert report["reason"] == reason


def test_edge_in_no_perfect_matching_is_named():
    # triangle with a pendant vertex: the unique perfect matching is
    # {(0,1),(2,3)}, so the scan flags the lowest uncovered edge id, (0,2)
    g = make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    ok, report = is_matching_covered(g)
    assert not ok
    assert report["reason"] == "edge in no perfect matching"
    assert g.edges[report["edge"]] == (0, 2)


def brute_gate(g):
    """(flag, reason, failing edge) of the matching covered gate, from the
    perfect matchings listed by brute force."""
    if g.n == 0 or g.n % 2:
        return False, "odd or empty vertex set", None
    if not brute_is_k_connected(g, 1):
        return False, "not connected", None
    pms = brute_perfect_matchings(g)
    if not pms:
        return False, "no perfect matching", None
    missed = sorted(set(range(g.m)) - set().union(*pms))
    if missed:
        return False, "edge in no perfect matching", missed[0]
    return True, None, None


def test_matching_covered_gate_agrees_with_bruteforce_on_multigraphs():
    reasons = set()
    for g in random_multigraph_corpus(1500, seed=11):
        ok, report = is_matching_covered(g)
        expected = brute_gate(g)
        assert (ok, report.get("reason"), report.get("edge")) == expected, g
        reasons.add(expected[1])
        if ok:
            witness = report["witness"]
            assert set(witness) == set(range(g.m))
            for e, pm in witness.items():
                assert e in pm and is_perfect_matching(g, pm), (g, e)
    assert reasons == {None, "odd or empty vertex set", "not connected",
                       "no perfect matching", "edge in no perfect matching"}


def test_factor_critical():
    c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_factor_critical(c5)
    assert not is_factor_critical(k4())  # even order
    p3 = make_graph(3, [(0, 1), (1, 2)])
    assert not is_factor_critical(p3)
    g = no_pm_cubic16()
    assert is_factor_critical(g, scope=range(1, 6))
    with pytest.raises(ValueError):
        is_factor_critical(g, scope=())
    with pytest.raises(ValueError):
        is_factor_critical(make_graph(4, [(0, 1), (2, 3)]), scope=(0, 2))


def test_budget_helpers():
    from tripm import as_budget
    b = as_budget(5)
    assert (b.limit, b.used, b.remaining) == (5, 0, 5)
    assert as_budget(b) is b
    assert as_budget(None).limit is None
    with pytest.raises(ValueError):
        as_budget(-1)
    with pytest.raises(TypeError):
        as_budget("10")
    b.charge(5)
    assert b.remaining == 0
    with pytest.raises(BudgetExhausted) as info:
        b.charge()
    assert info.value.used == 6
