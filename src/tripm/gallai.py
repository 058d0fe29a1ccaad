"""Gallai-Edmonds decomposition and its structural property checks.

D is the set of vertices that some maximum matching exposes.  It comes
from ``exposable_vertices``: one maximum matching plus one augmenting
search per matched vertex, so the decomposition costs about as much as
n augmenting searches rather than n + 1 maximum matchings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, connected_components, make_graph
from .matching import exposable_vertices, is_factor_critical, max_matching_size


@dataclass(frozen=True)
class GallaiEdmonds:
    """Vertex partition (d, a, c) plus the components of the subgraph
    induced on d and their edge counts into a.

    components[i] is a sorted vertex tuple; t[i] counts the edges joining
    that component to a (parallel edges counted individually).
    """

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]
    components: tuple[tuple[int, ...], ...]
    t: tuple[int, ...]

    @property
    def omega(self) -> int:
        return len(self.components)

    @property
    def omega1(self) -> int:
        return sum(1 for t in self.t if t == 1)


def gallai_edmonds(g: Graph) -> GallaiEdmonds:
    d = exposable_vertices(g)
    a = set()
    for v in d:
        for w in g.neighbor_sets[v]:
            if w not in d:
                a.add(w)
    c = set(range(g.n)) - d - a
    comps = connected_components(g, vertices=d) if d else []
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    t = [0] * len(comps)
    for u, v in g.edges:
        for x, y in ((u, v), (v, u)):
            if x in comp_of and y in a:
                t[comp_of[x]] += 1
    return GallaiEdmonds(
        d=d,
        a=frozenset(a),
        c=frozenset(c),
        components=tuple(tuple(comp) for comp in comps),
        t=tuple(t),
    )


def verify_decomposition(g: Graph, ge: GallaiEdmonds) -> dict:
    """Check the decomposition's structural guarantees on g.

    Returns a report with boolean fields:
      components_factor_critical -- every component of G[D] is factor
          critical;
      c_has_perfect_matching -- the subgraph induced on C has a perfect
          matching;
      a_matchable_into_components -- A can be matched into pairwise
          distinct D-components using edges of g;
      deficiency_consistent -- number of exposed vertices in a maximum
          matching equals omega - |A|.
    """
    ok_fc = all(is_factor_critical(g, comp) for comp in ge.components)

    if ge.c:
        sub, _, _ = g.induced_subgraph(sorted(ge.c))
        ok_c = max_matching_size(sub) * 2 == sub.n
    else:
        ok_c = True

    # bipartite matching between A and the component indices
    a_list = sorted(ge.a)
    na, nk = len(a_list), len(ge.components)
    comp_of = {}
    for i, comp in enumerate(ge.components):
        for v in comp:
            comp_of[v] = i
    pairs = [(i, na + comp_of[w]) for i, v in enumerate(a_list)
             for w in g.neighbor_sets[v] if w in comp_of]
    ok_a = max_matching_size(make_graph(na + nk, pairs)) == na

    deficiency = g.n - 2 * max_matching_size(g)
    ok_def = deficiency == ge.omega - len(ge.a)

    return {
        "components_factor_critical": ok_fc,
        "c_has_perfect_matching": ok_c,
        "a_matchable_into_components": ok_a,
        "deficiency_consistent": ok_def,
        "ok": ok_fc and ok_c and ok_a and ok_def,
    }
