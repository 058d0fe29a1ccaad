"""Invariants of the decision pipeline on random matching covered graphs.

These pin properties rather than witnesses, so they hold whatever order
the searches explore.  Examples are derandomized, so every run draws the
same graphs.
"""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripm import (
    ADMISSIBLE,
    NOT_ADMISSIBLE,
    UNKNOWN,
    certificate_from_json,
    certificate_to_json,
    check,
    connected_components,
    find_triple_direct,
    is_matching_covered,
    make_graph,
    structural_check,
    verify_certificate,
)
from tripm.generators import (
    bisubdivide,
    bisubdivide_all,
    carvalho10,
    k33,
    petersen,
    prism,
    random_regular,
)

from conftest import petersen_with_triangles
from oracles import brute_cubic_colorable, brute_perfect_matchings

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)

# small named graphs to grow from; Petersen has no even 2-factor, so its
# verdict comes from the skeleton search, and Petersen bisubdivided once
# (n = 12) keeps the skeleton clause in reach after a few added edges
SEEDS = (petersen(), k33(), prism(), carvalho10(), bisubdivide(petersen(), 0))


@st.composite
def matching_covered_graphs(draw):
    """A matching covered multigraph on at most 12 vertices.

    Starts from a named graph, or from a random perfect matching plus a
    random spanning tree, and adds a few random edges.  Keeps only the
    edges that lie in some perfect matching and returns the largest
    component of what is left: each such component is matching covered.
    """
    seed = draw(st.sampled_from((None,) + SEEDS))
    if seed is None:
        n = 2 * draw(st.integers(1, 5))
        order = draw(st.permutations(range(n)))
        pairs = [order[i:i + 2] for i in range(0, n, 2)]
        pairs += [(order[i], order[draw(st.integers(0, i - 1))])
                  for i in range(1, n)]
    else:
        n, pairs = seed.n, list(seed.edges)
    vertex = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                           max_size=3))
    g = make_graph(n, pairs)
    allowed, _ = g.spanning_subgraph(set().union(*brute_perfect_matchings(g)))
    comp = max(connected_components(allowed), key=len)
    return allowed.induced_subgraph(comp)[0]


def relabel(g, perm):
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def as_json(g, verdict) -> str:
    certs = [c for c in (verdict.triple, verdict.structural) if c is not None]
    return json.dumps([verdict.status, verdict.nodes, verdict.evidence,
                       [certificate_to_json(g, c) for c in certs]],
                      sort_keys=True)


@PROPERTY
@given(st.data())
def test_status_is_invariant_under_relabelling(data):
    g = data.draw(matching_covered_graphs())
    perm = data.draw(st.permutations(range(g.n)))
    assert is_matching_covered(g)[0]
    assert check(relabel(g, perm)).status == check(g).status


@PROPERTY
@given(matching_covered_graphs(), st.integers(0, 400))
def test_a_budget_stop_never_changes_the_answer(g, limit):
    assert check(g, limit).status in (UNKNOWN, check(g).status)


@PROPERTY
@given(matching_covered_graphs())
def test_verdicts_repeat_byte_for_byte_and_round_trip(g):
    v = check(g)
    assert v.status in (ADMISSIBLE, NOT_ADMISSIBLE)
    assert as_json(g, v) == as_json(g, check(g))
    for cert in (v.triple, v.structural):
        if cert is None:
            continue
        blob = json.dumps(certificate_to_json(g, cert), sort_keys=True)
        decoded = certificate_from_json(g, json.loads(blob))
        assert verify_certificate(g, decoded)["ok"]
        assert json.dumps(certificate_to_json(g, decoded), sort_keys=True) == blob


@PROPERTY
@given(matching_covered_graphs())
def test_direct_and_structural_routes_agree(g):
    direct = find_triple_direct(g)
    structural = structural_check(g)
    assert direct.status == structural.status
    assert direct.status in (ADMISSIBLE, NOT_ADMISSIBLE)


@st.composite
def matching_covered_cubic_graphs(draw):
    """A random cubic graph on at most 12 vertices, or Petersen with one or
    two vertices replaced by triangles, kept only if matching covered."""
    if draw(st.booleans()):
        h = random_regular(3, draw(st.sampled_from((4, 6, 8, 10, 12))),
                           draw(st.integers(0, 10**6)))
    else:
        h = petersen_with_triangles(
            draw(st.sets(st.integers(0, 9), min_size=1, max_size=2)))
    assume(is_matching_covered(h)[0])
    return h


@PROPERTY
@given(matching_covered_cubic_graphs())
def test_full_bisubdivision_is_admissible_iff_colorable(h):
    # B(H) is its own only spanning degree-{2, 3} subgraph, with skeleton H
    expected = ADMISSIBLE if brute_cubic_colorable(h) else NOT_ADMISSIBLE
    assert check(bisubdivide_all(h)).status == expected
