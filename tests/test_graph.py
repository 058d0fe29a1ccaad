"""Graph container invariants: canonical edge ids, subgraphs, connectivity."""

import pytest

from tripm import Graph, make_graph, connected_components, is_connected, is_k_connected
from tripm.generators import double_wheel, k4, petersen, prism, wheel

from conftest import random_multigraph_corpus
from oracles import brute_is_k_connected


def test_make_graph_normalizes_and_sorts():
    g = make_graph(4, [(3, 1), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.m == 3


def test_parallel_edges_keep_insertion_order():
    g = make_graph(2, [(1, 0), (0, 1)])
    assert g.edges == ((0, 1), (0, 1))
    assert g.edge_ids_between(0, 1) == (0, 1)
    assert g.edge_ids_between(1, 0) == (0, 1)
    assert not g.is_simple()


def test_edge_ids_between_is_empty_outside_the_vertex_range():
    # a negative index must not wrap around to the last vertices
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert g.edge_ids_between(-1, 0) == ()
    assert g.edge_ids_between(-3, 1) == ()
    assert g.edge_ids_between(1, 3) == ()
    assert g.edge_ids_between(99, 100) == ()
    assert g.edge_ids_between(0, 0) == ()


def test_loops_rejected():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Graph(-1, ())
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))  # endpoint out of range
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (0, 1)))  # not sorted
    with pytest.raises(ValueError):
        Graph(3, ((1, 0),))  # u < v violated


@pytest.mark.parametrize("n, edges, message", [
    (3, ((1, 1),), "loop at vertex 1"),
    (2, ((5, 5),), "loop at vertex 5"),
    (2, ((0, 2),), "edge (0, 2) out of range for n=2"),
    (3, ((1, 0),), "edge (1, 0) out of range for n=3"),
    (3, ((-1, 1),), "edge (-1, 1) out of range for n=3"),
    (3, ((1, 2), (0, 1)), "edge list not canonically sorted"),
    (3, ((0, 1), (0, 2), (0, 1)), "edge list not canonically sorted"),
])
def test_constructor_error_messages(n, edges, message):
    with pytest.raises(ValueError) as info:
        Graph(n, edges)
    assert str(info.value) == message


def test_adjacency_and_incident():
    g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 2)])
    assert g.adjacency[1] == ((0, 0), (2, 2), (2, 3))
    assert g.incident[2] == (1, 2, 3)
    assert g.neighbor_sets[1] == frozenset({0, 2})
    assert g.neighbor_sets[3] == frozenset()


def test_degree_endpoints_other():
    g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 2)])
    assert g.degrees() == (2, 3, 3, 0)
    assert g.degree(1) == 3
    assert g.endpoints(2) == (1, 2)
    assert g.other(2, 1) == 2
    assert g.other(2, 2) == 1
    with pytest.raises(ValueError):
        g.other(2, 0)


def test_is_regular():
    assert k4().is_regular(3)
    assert not k4().is_regular(2)
    assert make_graph(2, []).is_regular(0)


def test_spanning_subgraph_keeps_vertices_and_maps_edges():
    g = prism()
    sub, emap = g.spanning_subgraph([5, 1, 3])
    assert sub.n == g.n
    assert emap == (1, 3, 5)
    assert sub.edges == tuple(g.edges[e] for e in emap)
    with pytest.raises(ValueError):
        g.spanning_subgraph([g.m])


def test_induced_subgraph_relabels():
    g = petersen()
    sub, vmap, emap = g.induced_subgraph([5, 6, 7, 8, 9])
    assert vmap == (5, 6, 7, 8, 9)
    assert sub.n == 5
    # inner 5-cycle of the Petersen graph
    assert sub.m == 5
    assert all(g.edges[old] == tuple(vmap[x] for x in sub.edges[new])
               for new, old in enumerate(emap))
    with pytest.raises(ValueError):
        g.induced_subgraph([10])


def test_connected_components_ordering():
    g = make_graph(6, [(4, 5), (0, 1), (1, 2)])
    assert connected_components(g) == [[0, 1, 2], [3], [4, 5]]


def test_connected_components_restricted():
    g = k4()
    # drop vertex 0: the rest of K4 stays connected
    assert connected_components(g, vertices=[1, 2, 3]) == [[1, 2, 3]]
    # keep only edge (0,1): two nontrivial pieces plus isolated vertices
    e01 = g.edge_ids_between(0, 1)[0]
    assert connected_components(g, edge_ids=[e01]) == [[0, 1], [2], [3]]


def test_is_connected():
    assert is_connected(k4())
    assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(make_graph(0, []))


@pytest.mark.parametrize("k,expected", [(1, True), (2, True), (3, True)])
def test_k4_is_three_connected(k, expected):
    assert is_k_connected(k4(), k) is expected


def test_cycle_is_two_but_not_three_connected():
    c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_k_connected(c5, 2)
    assert not is_k_connected(c5, 3)


def test_path_is_one_but_not_two_connected():
    p3 = make_graph(3, [(0, 1), (1, 2)])
    assert is_k_connected(p3, 1)
    assert not is_k_connected(p3, 2)


def test_k_connected_edge_cases():
    assert not is_k_connected(make_graph(1, []), 1)  # n must exceed k
    assert is_k_connected(petersen(), 3)
    with pytest.raises(ValueError):
        is_k_connected(k4(), 4)


def ladder_prism(n):
    half = n // 2
    pairs = [(i, (i + 1) % half) for i in range(half)]
    pairs += [(half + i, half + (i + 1) % half) for i in range(half)]
    pairs += [(i, half + i) for i in range(half)]
    return make_graph(n, pairs)


def two_k4_sharing_an_edge():
    # {2, 3} is a 2-cut: two K4s glued along the edge (2, 3)
    return make_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                          (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])


NAMED_CONNECTIVITY = [k4(), petersen(), prism(), ladder_prism(8),
                      ladder_prism(10), wheel(3), wheel(5), wheel(8),
                      double_wheel(6), two_k4_sharing_an_edge()]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_is_k_connected_agrees_with_the_subset_scan(k):
    graphs = NAMED_CONNECTIVITY + random_multigraph_corpus(400, seed=k)
    outcomes = set()
    for g in graphs:
        expected = brute_is_k_connected(g, k)
        assert is_k_connected(g, k) is expected, (k, g)
        outcomes.add(expected)
    assert outcomes == {True, False}

