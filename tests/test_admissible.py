"""Decision pipeline: direct search, structural search, the 4-regular
construction, and the check() orchestrator with its budget discipline."""

import pytest

import tripm.admissible
import tripm.graph
import tripm.matching
from tripm import (
    ADMISSIBLE,
    Budget,
    Graph,
    INELIGIBLE,
    NOT_ADMISSIBLE,
    UNKNOWN,
    check,
    enumerate_perfect_matchings,
    find_even_2factor,
    find_triple_direct,
    is_k_connected,
    is_matching_covered,
    make_graph,
    max_matching,
    parse_graph6,
    perfect_matching_with_forced,
    structural_check,
    verify_structural,
    verify_triple,
)
from tripm.admissible import (
    PROBE_NODES_PER_EDGE,
    _structural_candidate,
)
from tripm.generators import (
    bisubdivide_all,
    k4,
    no_pm_cubic16,
    octahedron,
    petersen,
    random_regular,
    wheel,
)
from tripm.twofactor import search_spanning

from conftest import (
    flower,
    random_multigraph_corpus,
    random_regular_multigraph_corpus,
    sampled_matching_covered,
    three_connected_four_regular,
)
from oracles import brute_is_hamiltonian, brute_perfect_matchings


def c4():
    return make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def digon():
    return make_graph(2, [(0, 1), (0, 1)])


# ---------------------------------------------------------------------------
# direct search


def test_direct_on_four_cycle_picks_the_disjoint_pair():
    v = find_triple_direct(c4())
    assert v.status == ADMISSIBLE
    assert v.triple.m1 == frozenset({0, 3})
    assert v.triple.m2 == frozenset({1, 2})
    assert v.triple.m3 == v.triple.m2
    assert verify_triple(c4(), v.triple)["ok"]


def test_direct_k2_is_negative_with_exhaustion_evidence():
    v = find_triple_direct(make_graph(2, [(0, 1)]))
    assert v.status == NOT_ADMISSIBLE
    assert v.evidence == {"stage": "direct", "perfect_matchings": 1,
                          "pairs_examined": 0}
    assert v.triple is None


def test_direct_petersen_is_admissible():
    # any two of the six matchings share one edge that the other four avoid
    v = find_triple_direct(petersen())
    assert v.status == ADMISSIBLE
    assert verify_triple(petersen(), v.triple)["ok"]
    assert len(v.triple.m1 & v.triple.m2) == 1


def test_direct_requires_matching_covered():
    with pytest.raises(ValueError, match="not matching covered"):
        find_triple_direct(no_pm_cubic16())


def test_direct_budget_phases():
    g = petersen()
    v = find_triple_direct(g, 3)
    assert v.status == UNKNOWN
    assert v.budget_report["phase"] == "enumeration"
    assert v.budget_report["limit"] == 3
    assert v.budget_report["matchings_seen"] <= 6
    # the second matching arrives within 11 nodes; its first pair needs one more
    v = find_triple_direct(g, 11)
    assert v.status == UNKNOWN
    assert v.budget_report["phase"] == "pair-scan"
    assert v.budget_report["matchings_seen"] == 2
    assert v.budget_report["pairs_examined"] == 0
    assert find_triple_direct(g, 12).status == ADMISSIBLE


def test_direct_never_negative_on_budget_stops():
    g = petersen()
    for limit in range(1, 60):
        assert find_triple_direct(g, limit).status in (UNKNOWN, ADMISSIBLE)
    k2 = make_graph(2, [(0, 1)])
    for limit in range(1, 6):
        assert find_triple_direct(k2, limit).status in (UNKNOWN, NOT_ADMISSIBLE)


def test_direct_verdict_nodes_accounting():
    # 11 enumeration nodes reach the second matching, and the pair (0, 1) decides
    v = find_triple_direct(petersen())
    assert v.status == ADMISSIBLE and v.nodes == 12


def test_direct_pulls_only_the_matchings_its_deciding_pair_needs(monkeypatch):
    yielded = []
    enumerate_all = tripm.admissible.enumerate_perfect_matchings

    def counted(*args, **kwargs):
        for pm in enumerate_all(*args, **kwargs):
            yielded.append(pm)
            yield pm

    monkeypatch.setattr(tripm.admissible, "enumerate_perfect_matchings", counted)
    assert find_triple_direct(petersen()).status == ADMISSIBLE
    assert len(yielded) == 2


def _decides(pms, mi, mj):
    inter = mi & mj
    return any(not pm & inter for pm in pms)


# a random cubic graph whose first deciding pair is (0, 4) in lexicographic
# order but (1, 3) in streamed order
STREAMED_PAIR_DIFFERS_G6 = "M?r@?cOHAOaCG`_W?"


def test_direct_streaming_scan_against_an_oracle():
    graphs = [g for g in random_multigraph_corpus(1500, seed=4)
              if is_matching_covered(g)[0]]
    assert len(graphs) > 150
    graphs.append(parse_graph6(STREAMED_PAIR_DIFFERS_G6))
    firsts = set()
    for g in graphs:
        pms = list(enumerate_perfect_matchings(g))
        assert set(pms) == set(brute_perfect_matchings(g))
        lexicographic = [(i, j) for i in range(len(pms))
                         for j in range(i + 1, len(pms))]
        streamed = sorted(lexicographic, key=lambda p: (p[1], p[0]))
        deciding = [p for p in streamed if _decides(pms, pms[p[0]], pms[p[1]])]
        admissible = any(_decides(pms, pms[i], pms[j]) for i, j in lexicographic)
        v = find_triple_direct(g)
        assert v.status == (ADMISSIBLE if admissible else NOT_ADMISSIBLE), g
        if admissible:
            i, j = deciding[0]
            firsts.add((i, j) == min(deciding))
            assert (v.triple.m1, v.triple.m2) == (pms[i], pms[j]), g
            assert verify_triple(g, v.triple)["ok"]
        else:
            assert v.evidence["pairs_examined"] == len(lexicographic)
        for limit in range(1, v.nodes):
            assert find_triple_direct(g, limit).status in (UNKNOWN, ADMISSIBLE), g
    assert firsts == {True, False}  # some graph tells the two orders apart


# ---------------------------------------------------------------------------
# structural search


def test_structural_wheel_finds_even_2factor():
    g = wheel(5)
    v = structural_check(g)
    assert v.status == ADMISSIBLE
    assert v.structural.clause == "even-2-factor"
    assert v.structural.spanning == frozenset({0, 1, 3, 5, 8, 9})
    assert v.triple.m3 == v.triple.m2
    assert verify_structural(g, v.structural)["ok"]


def test_structural_petersen_finds_k4_skeleton():
    g = petersen()
    v = structural_check(g)
    assert v.status == ADMISSIBLE
    assert v.structural.clause == "skeleton"
    assert v.structural.skeleton_part.skeleton == k4()
    assert verify_structural(g, v.structural)["ok"]
    assert verify_triple(g, v.triple)["ok"]


def test_structural_digon_uses_parallel_cycle():
    v = structural_check(digon())
    assert v.status == ADMISSIBLE
    assert v.structural.clause == "even-2-factor"
    assert v.structural.spanning == frozenset({0, 1})


def test_structural_k2_exhausts_both_phases():
    v = structural_check(make_graph(2, [(0, 1)]))
    assert v.status == NOT_ADMISSIBLE
    assert v.evidence == {
        "stage": "structural",
        "exhausted": ["even-2-factor", "spanning degree-{2,3} subgraphs"]}


def test_structural_requires_matching_covered():
    with pytest.raises(ValueError, match="not matching covered"):
        structural_check(no_pm_cubic16())


def test_structural_budget_phases():
    g = petersen()
    v = structural_check(g, 1)
    assert v.status == UNKNOWN
    assert v.budget_report["phase"] == "even-2-factor"
    v = structural_check(g, 100)  # the 2-factor space exhausts at 84 nodes
    assert v.status == UNKNOWN
    assert v.budget_report["phase"] == "skeleton-search"
    for limit in range(1, 120, 7):
        assert structural_check(g, limit).status in (UNKNOWN, ADMISSIBLE)


def test_structural_agrees_with_direct_on_small_corpus():
    for g in sampled_matching_covered(8, count=40, seed=3111, max_edges=16):
        a = find_triple_direct(g, 10**6)
        b = structural_check(g, 10**6)
        assert a.status == b.status
        assert a.status in (ADMISSIBLE, NOT_ADMISSIBLE)


def test_structural_skips_the_full_edge_leaf_only_on_cubic_graphs():
    # a theta graph with three chains of length 3: no 2-factor at all, and
    # its only witness is the full edge set, whose skeleton is a triple edge
    g = parse_graph6("GgAHs_")
    assert not g.is_regular(3)
    v = check(g)
    assert v.status == ADMISSIBLE
    assert v.structural.clause == "skeleton"
    skeleton = v.structural.skeleton_part.skeleton
    assert (skeleton.n, skeleton.edges) == (2, ((0, 1),) * 3)
    assert verify_structural(g, v.structural)["ok"]
    assert find_triple_direct(g).status == structural_check(g).status


@pytest.mark.parametrize("make, before, after", [
    (petersen, 264, 180),
    (lambda: flower(5), 1731, 940),
])
def test_structural_proves_no_even_2factor_once_on_cubic_graphs(
        make, before, after):
    g = make()
    phase1 = Budget(None)
    assert find_even_2factor(g, phase1) is None
    assert before - after == phase1.used
    v = structural_check(g)
    assert v.nodes == after
    # phase 2 colouring every leaf, the full edge set included, finds the
    # same witness
    full = search_spanning(g, Budget(None), 3, False,
                           lambda chosen: _structural_candidate(g, chosen, None))
    assert v.structural == full


# ---------------------------------------------------------------------------
# 4-regular construction, run by check() as its "four-regular" stage


def assert_constructed(g, v, step):
    assert v.status == ADMISSIBLE
    assert v.evidence["stage"] == "four-regular"
    assert v.evidence["step"] == step
    assert v.nodes == 0  # construction is purely polynomial
    assert verify_triple(g, v.triple)["ok"]


def test_fastpath_octahedron_step_ii():
    g = octahedron()
    v = check(g)
    assert_constructed(g, v, "ii")
    assert v.evidence == {"stage": "four-regular", "step": "ii"}
    assert v.triple.m2 == v.triple.m3
    assert not (v.triple.m1 & v.triple.m2)


def planted_step_iii_graph():
    """4-regular host built by adding one perfect matching to a cubic graph
    whose deletion leaves a cut vertex and three factor-critical gadgets."""
    base = no_pm_cubic16()
    extra = [(0, 1), (2, 4), (3, 6), (5, 11), (7, 9), (8, 13), (10, 15), (12, 14)]
    g = make_graph(16, list(base.edges) + extra)
    m1 = frozenset(g.edge_ids_between(u, v)[0] for u, v in extra)
    return g, m1


def test_fastpath_public_entry_on_planted_graph():
    # check() is the construction's one public entry; its M1 comes from
    # max_matching, which leaves G - M1 a perfect matching
    g, _ = planted_step_iii_graph()
    assert_constructed(g, check(g), "ii")


def test_check_falls_through_when_g_minus_m1_has_no_perfect_matching(
        monkeypatch):
    # G - M1 is no_pm_cubic16, so no M2 avoids the planted M1; the gate is
    # made to report no pair, as it would with M1 in max_matching's place,
    # and the stage leaves the graph to the searches
    g, m1 = planted_step_iii_graph()
    assert perfect_matching_with_forced(g, forbidden=m1) is None
    gate = tripm.admissible.is_matching_covered
    monkeypatch.setattr(tripm.admissible, "is_matching_covered",
                        lambda g: (gate(g)[0], {}))
    v = check(g)
    assert v.status == ADMISSIBLE
    assert verify_triple(g, v.triple)["ok"]
    assert (v.evidence or {}).get("stage") != "four-regular"


def test_fastpath_preconditions():
    assert check(petersen()).evidence is None
    # parallel edges are no obstacle: the stage decides the doubled C4
    doubled = make_graph(4, [(0, 1), (0, 1), (1, 2), (1, 2),
                             (2, 3), (2, 3), (0, 3), (0, 3)])
    v = check(doubled)
    assert_constructed(doubled, v, "ii")
    assert v.evidence == {"stage": "four-regular", "step": "ii"}
    # odd order never reaches the construction: the gate refuses it
    k5 = make_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert check(k5).status == INELIGIBLE


def test_fastpath_on_seeded_4_regular_multigraphs():
    decided = 0
    for g in random_regular_multigraph_corpus(800, seed=24):
        if not g.is_regular(4):
            continue
        v = check(g)
        if v.status == INELIGIBLE:
            continue
        m1 = max_matching(g)
        disjoint = any(not (m & m1) for m in brute_perfect_matchings(g))
        staged = (v.evidence or {}).get("stage") == "four-regular"
        assert staged is disjoint, g
        if staged:
            assert_constructed(g, v, "ii")
            decided += 1
        else:
            assert v.status == find_triple_direct(g).status, g
    assert decided > 0


def two_octahedra_with_bridge_pair():
    """4-regular and simple, but a 2-edge bridge keeps it only 2-connected."""
    o = octahedron()
    pairs = [p for p in o.edges if p != (0, 1)]
    pairs += [(u + 6, v + 6) for u, v in o.edges if (u, v) != (0, 1)]
    pairs += [(0, 6), (1, 7)]
    g = make_graph(12, pairs)
    assert g.is_regular(4) and g.is_simple() and not is_k_connected(g, 3)
    return g


def test_check_constructs_a_triple_on_a_graph_that_is_not_3_connected():
    g = two_octahedra_with_bridge_pair()
    assert_constructed(g, check(g), "ii")


def test_fastpath_small_seeded_corpus_all_admissible(monkeypatch):
    graphs = [octahedron()] + three_connected_four_regular(10, seed_start=400,
                                                           count=10)
    calls = []
    real = tripm.graph._biconnected_without
    monkeypatch.setattr(tripm.graph, "_biconnected_without",
                        lambda *args: calls.append(args) or real(*args))
    for g in graphs:
        assert_constructed(g, check(g), "ii")
    assert calls == []  # check() tests no 3-connectivity on these graphs


# ---------------------------------------------------------------------------
# orchestrator


def test_check_ineligible_reasons():
    v = check(no_pm_cubic16())
    assert v.status == INELIGIBLE
    assert v.reason == "not matching covered: no perfect matching"
    v = check(make_graph(0, []))
    assert v.status == INELIGIBLE
    assert v.reason == "not matching covered: odd or empty vertex set"
    v = check(make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    assert v.status == INELIGIBLE
    assert v.reason == "not matching covered: edge in no perfect matching (edge 1)"


def test_check_on_sparse_input_builds_no_vertex_lists():
    # fewer than n - 1 edges: not connected, read off the edge count alone
    g = Graph(10**6, ())
    v = check(g)
    assert v.status == INELIGIBLE
    assert v.reason == "not matching covered: not connected"
    assert "adjacency" not in g.__dict__


def test_check_shares_the_gates_disjoint_pair(monkeypatch):
    # the octahedron's rest E - M1 - M2 is a 6-cycle, so the gate proves it
    # matching covered from the pair, and the 4-regular stage takes the
    # pair from the gate's report: one maximum matching on G, one on
    # G - M1, and no per-edge trial (the gate's trials are the only
    # searches blocking two vertices)
    calls = []
    mates, augment = tripm.matching._maximum_mates, tripm.matching._augment

    def counted_mates(*args):
        calls.append("maximum matching")
        return mates(*args)

    def counted_augment(nbr, match, root, blocked=()):
        if len(blocked) == 2:
            calls.append("per-edge trial")
        return augment(nbr, match, root, blocked)
    monkeypatch.setattr(tripm.matching, "_maximum_mates", counted_mates)
    monkeypatch.setattr(tripm.matching, "_augment", counted_augment)
    g = octahedron()
    assert_constructed(g, check(g), "ii")
    assert calls == ["maximum matching"] * 2


def test_check_uses_fastpath_on_octahedron():
    v = check(octahedron())
    assert v.status == ADMISSIBLE
    assert v.evidence == {"stage": "four-regular", "step": "ii"}
    assert v.nodes == 0


def test_check_hamilton_probe_on_wheel():
    # a Hamilton cycle on an even order is an even 2-factor, so the
    # structural search's first phase decides the Hamiltonian wheel
    g = wheel(5)
    v = check(g)
    assert v.status == ADMISSIBLE
    assert v.evidence is None
    assert v.structural.clause == "even-2-factor"
    assert v.structural.cycle_components == ((0, 3, 5, 8, 9, 1),)
    assert verify_structural(g, v.structural)["ok"]


def test_check_decides_hamiltonian_graphs_by_even_2factor(matching_covered_small):
    decided = 0
    for n in (2, 4, 6):
        for g in matching_covered_small[n]:
            if g.is_regular(4) or not brute_is_hamiltonian(g):
                continue
            v = check(g)
            assert v.status == ADMISSIBLE, g
            assert v.evidence is None, g
            assert v.structural.clause == "even-2-factor", g
            assert verify_structural(g, v.structural)["ok"], g
            decided += 1
    assert decided > 0


@pytest.mark.parametrize("n", [1000, 2000])
def test_check_long_cycle_is_not_limited_by_recursion_depth(n):
    g = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
    v = check(g)
    assert v.status == ADMISSIBLE
    assert v.structural.clause == "even-2-factor"
    assert v.structural.spanning == frozenset(range(n))
    assert verify_structural(g, v.structural)["ok"]
    assert verify_triple(g, v.triple)["ok"]


def test_check_falls_through_to_structural_on_petersen():
    v = check(petersen())
    assert v.status == ADMISSIBLE
    assert v.evidence is None
    assert v.structural.clause == "skeleton"


def test_check_digon_end_to_end():
    g = digon()
    v = check(g)
    assert v.status == ADMISSIBLE
    assert v.evidence is None
    assert v.structural.clause == "even-2-factor"
    assert v.structural.cycle_components == ((0, 1),)
    assert verify_structural(g, v.structural)["ok"]


def test_check_k2_negative():
    v = check(make_graph(2, [(0, 1)]))
    assert v.status == NOT_ADMISSIBLE
    assert v.evidence["stage"] == "structural"
    assert v.nodes > 0


def test_check_budget_report_shape():
    v = check(petersen(), budget=10)
    assert v.status == UNKNOWN
    assert v.budget_report["limit"] == 10
    assert v.budget_report["used"] == v.nodes
    stages = v.budget_report["stages"]
    assert [s["phase"] for s in stages if "phase" in s]


def test_check_never_negative_under_budget_pressure():
    g = petersen()
    for limit in range(1, 200, 13):
        assert check(g, budget=limit).status in (UNKNOWN, ADMISSIBLE)


def test_check_budget_splits_in_halves():
    v = check(petersen(), budget=10)
    assert v.status == UNKNOWN
    assert [s["stage"] for s in v.budget_report["stages"]] == ["structural", "direct"]
    assert [s["limit"] for s in v.budget_report["stages"]] == [5, 5]


def test_check_charges_a_budget_it_is_given():
    shared = Budget(None)
    first = check(k4(), shared)
    second = check(petersen(), shared)
    assert first.nodes > 0 and second.nodes > 0
    assert shared.used == first.nodes + second.nodes
    # a partly spent budget bounds the searches by what it has left
    assert check(k4(), Budget(100)).nodes == 7
    partly = Budget(100, used=90)
    v = check(k4(), partly)
    assert [s["limit"] for s in v.budget_report["stages"]] == [5, 5]
    assert partly.used == 90 + v.nodes


def test_check_on_a_nearly_spent_budget_is_unknown():
    for g in (make_graph(2, [(0, 1)]), petersen(), bisubdivide_all(petersen())):
        assert check(g).definitive
        for used in (99, 100, 150):
            budget = Budget(100, used=used)
            v = check(g, budget)
            assert v.status == UNKNOWN
            assert budget.used == used + v.nodes


@pytest.fixture
def construction_undecided(monkeypatch):
    """The gate patched to report no disjoint pair, so the 4-regular
    construction decides nothing."""
    monkeypatch.setattr(tripm.admissible, "is_matching_covered",
                        lambda g: (True, {}))


def test_check_falls_to_structural_when_the_construction_does_not_decide(
        construction_undecided):
    g = octahedron()
    v = check(g)
    assert v.status == ADMISSIBLE
    assert v.evidence is None
    assert v.structural.clause == "even-2-factor"
    assert verify_structural(g, v.structural)["ok"]


def test_check_runs_the_direct_search_once(construction_undecided, monkeypatch):
    calls = []
    direct = tripm.admissible.find_triple_direct

    def counted(*args, **kwargs):
        calls.append(args)
        return direct(*args, **kwargs)

    monkeypatch.setattr(tripm.admissible, "find_triple_direct", counted)
    v = check(octahedron(), budget=2)
    assert v.status == UNKNOWN
    assert len(calls) == 1
    assert [s["stage"] for s in v.budget_report["stages"]] == ["structural", "direct"]


def test_check_rejects_a_bad_budget_even_when_the_construction_decides():
    with pytest.raises(ValueError):
        check(octahedron(), budget=-1)


def test_check_rejects_a_bad_budget_on_an_ineligible_graph():
    with pytest.raises(ValueError):
        check(no_pm_cubic16(), budget=-1)


@pytest.mark.parametrize("k, nodes", [(7, 2785), (9, 3719)])
def test_check_lets_the_direct_probe_decide_snarks(k, nodes):
    g = flower(k)
    probe = PROBE_NODES_PER_EDGE * g.m
    direct = find_triple_direct(g)
    v = check(g)
    assert v.status == ADMISSIBLE
    assert v.structural is None
    assert verify_triple(g, v.triple)["ok"]
    # the structural probe stops one node past its limit
    assert v.nodes == nodes == probe + 1 + direct.nodes
    assert v.triple == direct.triple


@pytest.mark.parametrize("make", [lambda: flower(3), lambda: flower(5), petersen])
def test_check_keeps_structural_certificates_the_probe_finds(make):
    g = make()
    v = check(g)
    assert v.status == ADMISSIBLE
    assert v.structural is not None
    assert v.nodes == structural_check(g).nodes
    assert verify_structural(g, v.structural)["ok"]


@pytest.mark.parametrize("k", [5, 7, 9])
def test_check_probe_round_under_budget_pressure(k):
    g = flower(k)
    probe = PROBE_NODES_PER_EDGE * g.m
    for limit in (0, 1, 97, 1000, 4 * probe - 1, 4 * probe, 4 * probe + 1,
                  10_000, 30_000):
        v = check(g, budget=limit)
        assert v.status in (UNKNOWN, ADMISSIBLE)
        assert v.nodes <= limit + 2


def test_check_runs_the_probe_round_from_four_probes_up():
    g = flower(7)
    probe = PROBE_NODES_PER_EDGE * g.m
    # below four probes the halves alone run, and the structural one decides
    below = check(g, budget=4 * probe - 1)
    assert below.structural is not None
    assert below.nodes == structural_check(g).nodes
    assert check(g, budget=4 * probe).structural is None


def test_check_budget_report_lists_every_search_that_ran():
    # neither search decides this graph within a probe, nor within a half
    g = random_regular(3, 60, 0)
    probe = PROBE_NODES_PER_EDGE * g.m
    limit = 4 * probe
    v = check(g, budget=limit)
    assert v.status == UNKNOWN
    stages = v.budget_report["stages"]
    assert [s["stage"] for s in stages] == [
        "structural", "direct", "structural", "direct"]
    half = (limit - 2 * (probe + 1)) // 2
    assert [s["limit"] for s in stages] == [probe, probe, half, half]
    assert v.budget_report["used"] == v.nodes == sum(s["used"] for s in stages)
    assert v.nodes <= limit + 2


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 9])
def test_routes_agree_on_flower_snarks(k):
    g = flower(k)
    statuses = {find_triple_direct(g).status, structural_check(g).status,
                check(g).status}
    assert statuses == {ADMISSIBLE}
