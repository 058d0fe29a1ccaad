"""Blossom matching, constrained perfect matchings, enumeration, coverage."""

import random

import pytest

import tripm.matching
from tripm import (
    Budget,
    BudgetExhausted,
    TripleCertificate,
    count_perfect_matchings,
    enumerate_perfect_matchings,
    exposable_vertices,
    is_connected,
    is_factor_critical,
    is_k_connected,
    is_matching,
    is_matching_covered,
    is_perfect_matching,
    make_graph,
    matched_vertices,
    max_matching,
    max_matching_size,
    perfect_matching_with_forced,
    verify_triple,
)
from tripm.generators import k4, k33, no_pm_cubic16, petersen, prism, random_regular

from conftest import (
    flower,
    random_graph_corpus,
    random_multigraph_corpus,
    random_regular_multigraph_corpus,
)
from oracles import (
    brute_is_k_connected,
    brute_max_matching_size,
    brute_perfect_matchings,
    relabelled_perfect_matching_with_forced,
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


def test_exposable_vertices_agree_with_bruteforce():
    graphs = random_multigraph_corpus(count=400, seed=5151, max_n=10)
    graphs += [make_graph(n, []) for n in range(4)]
    assert any(g.n % 2 for g in graphs) and any(g.m == 0 for g in graphs)
    for g in graphs:
        nu = brute_max_matching_size(g)
        expected = {v for v in range(g.n) if brute_max_matching_size(
            g.induced_subgraph([u for u in range(g.n) if u != v])[0]) == nu}
        assert exposable_vertices(g) == expected, g


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


def random_constraints(g, rng):
    """A random matching to force and a random set of other edges to
    forbid, each edge drawn with a random probability."""
    forced, seen = set(), set()
    p_force, p_forbid = rng.random() * 0.3, rng.random() * 0.5
    for e in rng.sample(range(g.m), g.m):
        u, v = g.edges[e]
        if u not in seen and v not in seen and rng.random() < p_force:
            forced.add(e)
            seen |= {u, v}
    forbidden = {e for e in range(g.m)
                 if e not in forced and rng.random() < p_forbid}
    return forced, forbidden


def test_forced_matching_equals_the_relabelling_version():
    rng = random.Random(2024)
    graphs = (random_multigraph_corpus(count=1500, seed=61)
              + random_graph_corpus(count=1500, seed=62)
              + [random_regular(3, 60, s) for s in range(10)]
              + [random_regular(4, 40, s) for s in range(10)])
    cases = found = 0
    for g in graphs:
        for _ in range(3 if g.n <= 10 else 100):
            forced, forbidden = random_constraints(g, rng)
            pm = perfect_matching_with_forced(g, forced, forbidden)
            assert pm == relabelled_perfect_matching_with_forced(g, forced, forbidden)
            cases += 1
            found += pm is not None
    assert cases >= 10_000
    assert 0 < found < cases


def ladder(n, twist):
    """Prism (two n/2-cycles joined by rungs) or, with ``twist``, the
    Moebius ladder (an n-cycle with its n/2 long diagonals)."""
    h = n // 2
    if twist:
        return make_graph(n, [(i, (i + 1) % n) for i in range(n)]
                          + [(i, i + h) for i in range(h)])
    return make_graph(n, [(i, (i + 1) % h) for i in range(h)]
                      + [(h + i, h + (i + 1) % h) for i in range(h)]
                      + [(i, h + i) for i in range(h)])


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("g", [k4(), k33(), petersen(), prism()])
def test_classic_graphs_are_matching_covered(g):
    ok, report = is_matching_covered(g)
    assert ok
    assert report == {}


@pytest.mark.parametrize("g,reason", [
    (make_graph(3, [(0, 1)]), "odd or empty vertex set"),
    (make_graph(0, []), "odd or empty vertex set"),
    (make_graph(4, [(0, 1), (2, 3)]), "not connected"),
    (make_graph(2, []), "not connected"),
    (no_pm_cubic16(), "no perfect matching"),
    (cycle(7), "odd or empty vertex set"),
    (make_graph(12, list(prism().edges) + [(u + 6, v + 6) for u, v in prism().edges]),
     "not connected"),
])
def test_not_matching_covered_reasons(g, reason):
    assert is_matching_covered(g) == (False, {"reason": reason})


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
    assert reasons == {None, "odd or empty vertex set", "not connected",
                       "no perfect matching", "edge in no perfect matching"}


def test_matching_covered_gate_agrees_with_bruteforce_on_regular_multigraphs(
        monkeypatch):
    # on degree 4 the even-rest shortcut must decide some covered graphs,
    # leave others to the per-edge searches, and never decide a failing
    # one; a success report holds the disjoint pair (M1, M2) exactly when
    # some perfect matching avoids M1 = max_matching(g), and is empty
    # otherwise
    shortcut = []
    factor_cycles = tripm.matching.factor_cycles

    def spy(*args):
        cycles = factor_cycles(*args)
        shortcut.append(all(len(c) % 2 == 0 for c in cycles))
        return cycles
    monkeypatch.setattr(tripm.matching, "factor_cycles", spy)
    outcomes = {r: set() for r in range(1, 5)}
    decided = fell_through = paired = 0
    for g in random_regular_multigraph_corpus(4000, seed=17):
        r = g.degree(0)
        assert g.is_regular(r)
        shortcut.clear()
        ok, report = is_matching_covered(g)
        expected = brute_gate(g)
        assert (ok, report.get("reason"), report.get("edge")) == expected, g
        outcomes[r].add(ok)
        if r == 4 and ok:
            decided += shortcut == [True]
            fell_through += shortcut != [True]
        else:
            assert True not in shortcut, g
            if report.get("reason") == "not connected":
                assert shortcut == [], g
        if not ok:
            continue
        m1 = max_matching(g)
        if r == 4 and any(not pm & m1 for pm in brute_perfect_matchings(g)):
            assert list(report) == ["disjoint_pair"], g
            pair_m1, m2 = report["disjoint_pair"]
            assert pair_m1 == m1, g
            assert verify_triple(g, TripleCertificate(m1, m2, m2))["ok"], g
            paired += 1
        else:
            assert report == {}, g
    assert outcomes[2] == outcomes[3] == outcomes[4] == {True, False}
    assert decided > 0 and fell_through > 0 and paired > 0


class MatchingSearched(Exception):
    pass


def refuse_matching_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise MatchingSearched
    monkeypatch.setattr(tripm.matching, "_maximum_mates", refuse)
    monkeypatch.setattr(tripm.matching, "_augment", refuse)


@pytest.mark.parametrize("g", [petersen(), flower(5), ladder(400, False),
                               ladder(400, True), cycle(2000)])
def test_regular_yes_case_runs_no_matching(monkeypatch, g):
    refuse_matching_search(monkeypatch)
    assert is_matching_covered(g) == (True, {})


def test_four_regular_graphs_still_search(monkeypatch):
    refuse_matching_search(monkeypatch)
    with pytest.raises(MatchingSearched):
        is_matching_covered(random_regular(4, 20, 0))


def test_cubic_graph_with_a_bridge_names_the_bruteforce_edge():
    # two copies of K4 with one edge subdivided, the subdivision vertices
    # joined by a bridge: both sides are odd, so the bridge is in every
    # perfect matching and the edges beside it are in none
    side = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (3, 4)]
    g = make_graph(10, side + [(u + 5, v + 5) for u, v in side] + [(4, 9)])
    assert g.is_regular(3) and not is_k_connected(g, 2)
    ok, report = is_matching_covered(g)
    assert (ok, report["reason"], report["edge"]) == brute_gate(g)
    assert report["reason"] == "edge in no perfect matching"


def test_theta_is_matching_covered_through_the_search(monkeypatch):
    theta = make_graph(2, [(0, 1)] * 3)
    calls = []
    real = tripm.matching._maximum_mates

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(tripm.matching, "_maximum_mates", spy)
    assert is_matching_covered(theta) == (True, {})
    assert len(calls) == 1


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


def _factor_critical_by_deletion(g, scope):
    """The definition: every vertex deletion leaves a perfect matching."""
    for v in scope:
        sub, _, _ = g.induced_subgraph([u for u in scope if u != v])
        if max_matching_size(sub) * 2 != sub.n:
            return False
    return True


def test_factor_critical_agrees_with_vertex_deletion_on_random_scopes():
    rng = random.Random(5)
    cases = critical = 0
    for g in random_multigraph_corpus(4000, seed=5):
        for _ in range(2):
            scope = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            if not is_connected(g, vertices=scope):
                with pytest.raises(ValueError):
                    is_factor_critical(g, scope)
                continue
            expected = len(scope) % 2 == 1 and _factor_critical_by_deletion(g, scope)
            assert is_factor_critical(g, scope) == expected, (g, scope)
            cases += 1
            critical += expected
    assert cases > 4000 and critical > 1000


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
