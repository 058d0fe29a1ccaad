"""Bicontraction to cubic skeletons, 3-edge-coloring, and lifting."""

import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from tripm import (
    ADMISSIBLE,
    Budget,
    BudgetExhausted,
    Graph,
    SkeletonCertificate,
    SkeletonExtractionError,
    StructuralCertificate,
    certificate_from_json,
    certificate_to_json,
    check,
    color_cubic_3,
    is_perfect_matching,
    make_graph,
    structural_check,
    structural_witness,
    triple_from_structural,
    verify_structural,
    verify_triple,
    write_graph6,
)
from tripm.certificates import verify_certificate
from tripm.cli import main
from tripm.generators import (
    bisubdivide,
    cube,
    k4,
    k33,
    octahedron,
    petersen,
    prism,
    random_regular,
    wheel,
)

from conftest import random_cubic_corpus
from oracles import (
    brute_cubic_colorable,
    brute_split_components,
    rederiving_triple_from_structural,
)


# wheel on 5 rim vertices: rim + three consecutive spokes is a spanning
# bisubdivision of K4 (the rim arc 2-3-4-0 is the one length-3 chain)
W5_SPANNING = frozenset(range(8))


def wheel_skeleton_part() -> SkeletonCertificate:
    """The K4 skeleton of W5_SPANNING with K4's first coloring."""
    sk = structural_witness(wheel(5), W5_SPANNING).skeleton_part
    return sk.with_coloring(color_cubic_3(k4()))


def test_structural_witness_of_wheel_spanning_set():
    g = wheel(5)
    sc = structural_witness(g, W5_SPANNING).skeleton_part
    assert sc.branch_vertices == (0, 1, 2, 5)
    assert sc.skeleton == k4()
    assert sc.chain_map == ((0,), (1, 7, 5), (2,), (3,), (4,), (6,))
    assert sorted(len(p) for p in sc.chain_map) == [1, 1, 1, 1, 1, 3]
    assert sc.spanning == W5_SPANNING
    assert sc.coloring is None


def test_structural_witness_inverts_bisubdivision():
    g = petersen()
    h = bisubdivide(g, 0)
    sc = structural_witness(h, range(h.m)).skeleton_part
    assert sc.branch_vertices == tuple(range(10))
    assert sc.skeleton == g


def test_structural_witness_degree_out_of_range():
    g = wheel(5)
    with pytest.raises(SkeletonExtractionError) as info:
        structural_witness(g, range(g.m))  # hub keeps degree 5
    assert info.value.reason == "degree out of range"


def test_structural_witness_even_chain():
    # theta graph: a direct 0-1 edge plus a length-2 detour through 2,
    # with 3 appended to keep degrees in range
    g = make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    with pytest.raises(SkeletonExtractionError) as info:
        structural_witness(g, range(g.m))
    assert info.value.reason == "even chain"


def test_structural_witness_loop_chain():
    # triangle hanging off each of two bridge endpoints: the triangle at 0
    # walks 0-1-2-0 and closes on its own branch vertex
    g = make_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5), (4, 5)])
    with pytest.raises(SkeletonExtractionError) as info:
        structural_witness(g, range(g.m))
    assert info.value.reason == "loop chain"


def mixed_host():
    """C4 next to a theta whose three 4-5 chains have lengths 1, 3, 3."""
    return make_graph(10, [(0, 1), (1, 2), (2, 3), (0, 3),
                           (4, 5),
                           (4, 6), (6, 7), (5, 7),
                           (4, 8), (8, 9), (5, 9)])


def test_split_spanning_components():
    g = mixed_host()
    cert = structural_witness(g, range(g.m))
    assert cert.cycle_components == ((0, 2, 3, 1),)
    assert cert.skeleton_part.spanning == frozenset(range(4, 11))


def degree_23_edge_sets(count, seed):
    """Seeded (host, edge set) pairs.  The set is a disjoint union of
    cycles (digons and odd cycles included) and bisubdivided random cubic
    graphs under a random relabelling; the host adds a few edges outside
    the set."""
    rng = random.Random(seed)
    for _ in range(count):
        n, members = 0, []  # pieces side by side on vertices 0 .. n-1
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                k = rng.randint(2, 7)
                piece = make_graph(k, [(i, (i + 1) % k) for i in range(k)])
            else:
                piece = random_regular(3, rng.choice((4, 6, 8)), rng.randrange(10**6))
                for _ in range(rng.randint(0, 2)):
                    piece = bisubdivide(piece, rng.randrange(piece.m))
            members += [(u + n, v + n) for u, v in piece.edges]
            n += piece.n
        perm = rng.sample(range(n), n)
        items = [((perm[u], perm[v]), True) for u, v in members]
        items += [(tuple(rng.sample(range(n), 2)), False)
                  for _ in range(rng.randint(0, 3))]
        items = sorted(((min(p), max(p)), member) for p, member in items)
        g = Graph(n, tuple(p for p, _ in items))
        yield g, frozenset(e for e, (_, member) in enumerate(items) if member)


def test_structural_witness_splits_like_the_component_referee():
    mixed = 0
    for g, edge_set in degree_23_edge_sets(count=300, seed=2323):
        cert = structural_witness(g, edge_set)
        cycles, branch_edges = brute_split_components(g, edge_set)
        assert [frozenset(c) for c in cert.cycle_components] == cycles
        sk = cert.skeleton_part
        assert (frozenset() if sk is None else sk.spanning) == branch_edges
        assert cert.spanning == edge_set
        mixed += bool(cycles) and bool(branch_edges)
    assert mixed > 50


def test_color_cubic_3_k4_is_deterministic():
    # edges in id order, colors ascending: the first proper coloring
    assert color_cubic_3(k4()) == (1, 2, 3, 3, 2, 1)


def test_color_cubic_3_parallel_edges():
    theta = Graph(2, ((0, 1), (0, 1), (0, 1)))
    assert color_cubic_3(theta) == (1, 2, 3)


def test_color_cubic_3_proper_on_k33():
    h = k33()
    colors = color_cubic_3(h)
    assert colors is not None
    for v in range(h.n):
        assert sorted(colors[e] for e in h.incident[v]) == [1, 2, 3]


def test_color_cubic_3_petersen_has_no_coloring():
    assert color_cubic_3(petersen()) is None


def test_color_cubic_3_agrees_with_bruteforce(named_suite):
    cubic = [g for g in named_suite.values() if g.is_regular(3)]
    graphs = random_cubic_corpus(count=36, seed_base=4200) + cubic
    colorable = 0
    for h in graphs:
        colors = color_cubic_3(h)
        assert (colors is not None) == brute_cubic_colorable(h), h
        if colors is not None:
            colorable += 1
            for v in range(h.n):
                assert sorted(colors[e] for e in h.incident[v]) == [1, 2, 3], h
    assert 0 < colorable < len(graphs)


def test_color_cubic_3_colors_components_independently():
    # K4 beside a second K4: each component takes its own first coloring
    two = Graph(8, k4().edges + tuple((u + 4, v + 4) for u, v in k4().edges))
    assert color_cubic_3(two) == color_cubic_3(k4()) * 2


def test_color_cubic_3_validation_and_budget():
    with pytest.raises(ValueError, match="cubic"):
        color_cubic_3(octahedron())
    with pytest.raises(BudgetExhausted):
        color_cubic_3(petersen(), budget=Budget(limit=10))


def test_triple_from_structural_on_wheel_spanning_set():
    g = wheel(5)
    sc = wheel_skeleton_part()
    cert = triple_from_structural(g, StructuralCertificate(W5_SPANNING, (), sc))
    assert cert.m1 == frozenset({0, 6, 7})
    assert cert.m2 == frozenset({1, 4, 5})
    assert cert.m3 == frozenset({2, 3, 7})
    # the length-3 chain (1, 7, 5) has skeleton color 2: its ends lie in
    # m2 alone, its middle edge in both other matchings
    assert cert.m1 & cert.m3 == frozenset({7})
    assert cert.union() == W5_SPANNING
    assert verify_triple(g, cert)["ok"]
    for m in cert.matchings:
        assert is_perfect_matching(g, m)


def theta_skeleton_part() -> SkeletonCertificate:
    return SkeletonCertificate(
        branch_vertices=(4, 5),
        skeleton=Graph(2, ((0, 1), (0, 1), (0, 1))),
        chain_map=((4,), (5, 9, 7), (6, 10, 8)),
        coloring=(1, 2, 3),
    )


def mixed_certificate() -> StructuralCertificate:
    return StructuralCertificate(
        spanning=frozenset(range(11)),
        cycle_components=((0, 2, 3, 1),),
        skeleton_part=theta_skeleton_part(),
    )


def test_mixed_certificate_lifts_and_verifies():
    g = mixed_host()
    cert = mixed_certificate()
    assert cert.clause == "mixed"
    triple = triple_from_structural(g, cert)
    assert triple.m1 == frozenset({0, 3, 4, 9, 10})
    assert triple.m2 == frozenset({1, 2, 5, 7, 10})
    assert triple.m3 == frozenset({1, 2, 6, 8, 9})
    assert triple.m1 & triple.m2 & triple.m3 == frozenset()
    assert triple.union() == cert.spanning
    report = verify_structural(g, cert)
    assert report == {"ok": True, "violations": []}


def test_verify_structural_flags_bad_coloring():
    g = mixed_host()
    cert = mixed_certificate()
    bad = StructuralCertificate(
        cert.spanning, cert.cycle_components,
        cert.skeleton_part.with_coloring((1, 1, 3)))
    report = verify_structural(g, bad)
    assert not report["ok"]
    # an improper coloring lifts to classes that are not perfect matchings
    assert report["violations"][0].startswith("structural lift failed")
    short = replace(cert, skeleton_part=cert.skeleton_part.with_coloring((1, 2)))
    assert verify_structural(g, short) == {
        "ok": False, "violations": ["coloring length differs from skeleton size"]}


def test_verify_structural_flags_odd_cycle():
    g = make_graph(9, [(0, 1), (1, 2), (0, 2),
                       (3, 4),
                       (3, 5), (5, 6), (4, 6),
                       (3, 7), (7, 8), (4, 8)])
    sk = SkeletonCertificate(
        branch_vertices=(3, 4),
        skeleton=Graph(2, ((0, 1), (0, 1), (0, 1))),
        chain_map=((3,), (4, 8, 6), (5, 9, 7)),
        coloring=(1, 2, 3),
    )
    cert = StructuralCertificate(frozenset(range(10)), ((0, 2, 1),), sk)
    report = verify_structural(g, cert)
    assert not report["ok"]
    assert any("odd cycle" in v for v in report["violations"])


def test_verify_structural_flags_unaccounted_edges():
    g = mixed_host()
    cert = mixed_certificate()
    missing = StructuralCertificate(cert.spanning, (), cert.skeleton_part)
    report = verify_structural(g, missing)
    assert not report["ok"]
    assert report["violations"] == [
        "cycle components differ from the cycles of the spanning set"]


def test_verify_structural_flags_non_spanning_degrees():
    g = mixed_host()
    cert = mixed_certificate()
    shrunk = StructuralCertificate(
        cert.spanning - {0}, cert.cycle_components, cert.skeleton_part)
    report = verify_structural(g, shrunk)
    assert not report["ok"]


def test_verify_structural_flags_short_branch_vertex_list():
    g = petersen()
    cert = check(g).structural
    sk = cert.skeleton_part
    short = StructuralCertificate(
        cert.spanning, cert.cycle_components,
        replace(sk, branch_vertices=sk.branch_vertices[:-2]))
    report = verify_structural(g, short)
    assert not report["ok"]
    assert report["violations"] == [
        f"branch vertices {list(short.skeleton_part.branch_vertices)} differ "
        f"from the degree-3 vertices {list(sk.branch_vertices)}"]


def test_verify_structural_flags_cycle_ids_outside_the_graph(tmp_path, capsys):
    g = mixed_host()
    cert = mixed_certificate()
    stray = StructuralCertificate(
        cert.spanning, cert.cycle_components + ((99,),), cert.skeleton_part)
    report = verify_structural(g, stray)
    assert report == {"ok": False, "violations": [
        "cycle components differ from the cycles of the spanning set"]}
    # the C4's edges, sorted, with edge 2 listed twice: the same edge set
    # as the true cycle, but not the same multiset
    repeated = replace(cert, cycle_components=((0, 1, 2, 2, 3),))
    assert verify_structural(g, repeated) == report
    blob = certificate_to_json(g, repeated)
    decoded = certificate_from_json(g, json.loads(json.dumps(blob)))
    assert decoded.cycle_components == ((0, 1, 2, 2, 3),)
    assert verify_certificate(g, decoded) == report
    gpath, cpath = tmp_path / "g.g6", tmp_path / "cert.json"
    gpath.write_text(write_graph6(g) + "\n", encoding="utf-8")
    cpath.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["verify", str(gpath), str(cpath)]) == 1
    assert json.loads(capsys.readouterr().out) == report


def test_verify_structural_accepts_pure_even_2factor():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cert = StructuralCertificate(frozenset(range(4)), ((0, 2, 3, 1),), None)
    assert cert.clause == "even-2-factor"
    assert verify_structural(g, cert)["ok"]


def test_verify_structural_accepts_pure_skeleton():
    g = wheel(5)
    cert = StructuralCertificate(W5_SPANNING, (), wheel_skeleton_part())
    assert cert.clause == "skeleton"
    assert verify_structural(g, cert)["ok"]


def ladder(n, twist):
    """The large-sparse benchmark's ladders on n vertices: the prism (two
    n/2-cycles and their rungs) or, with ``twist``, the Moebius ladder
    (an n-cycle and its n/2 diagonals)."""
    h = n // 2
    if twist:
        return make_graph(n, [(i, (i + 1) % n) for i in range(n)]
                          + [(i, i + h) for i in range(h)])
    return make_graph(n, [(i, (i + 1) % h) for i in range(h)]
                      + [(h + i, h + (i + 1) % h) for i in range(h)]
                      + [(i, h + i) for i in range(h)])


def lift_or_error(lift, g, cert):
    try:
        return lift(g, cert)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_lift_along_given_cycles_equals_the_rederiving_reference():
    """The lift alternates each cycle component as given; the earlier lift
    traced the cycles again from their union.  Inside check() and after
    structural_witness both give the same triple, or the same error."""
    graphs = []
    for bi, base in enumerate((k4(), k33(), prism(), cube(), petersen())):
        rng = random.Random(1900 + bi)
        for _ in range(12):
            g = base
            for _ in range(rng.randint(1, 4)):
                g = bisubdivide(g, rng.randrange(g.m))
            graphs.append(g)
    for n in range(6, 41, 2):
        graphs += [ladder(n, False), ladder(n, True),
                   make_graph(n, [(i, (i + 1) % n) for i in range(n)])]
    clauses = Counter()
    for g in graphs:
        v = check(g)
        assert v.status == ADMISSIBLE, g
        if v.structural is not None:
            assert v.triple == rederiving_triple_from_structural(g, v.structural), g
            clauses[v.structural.clause] += 1
    lifted = 0
    for g, edge_set in degree_23_edge_sets(count=300, seed=1901):
        cert = structural_witness(g, edge_set)
        sk = cert.skeleton_part
        coloring = color_cubic_3(sk.skeleton) if sk is not None else None
        if coloring is not None:
            cert = replace(cert, skeleton_part=sk.with_coloring(coloring))
        elif sk is not None:
            continue
        got = lift_or_error(triple_from_structural, g, cert)
        assert got == lift_or_error(rederiving_triple_from_structural, g, cert)
        lifted += not isinstance(got, str)
        clauses[cert.clause] += 1
    assert min(clauses.values()) >= 20 and len(clauses) == 3, clauses
    assert lifted >= 50


def test_lift_needs_cycle_components_in_traversal_order():
    """A component listed in sorted, non-walk order does not alternate
    into matchings, so the lift raises.  verify_structural accepts it: it
    re-derives the split with structural_witness, compares components as
    edge multisets and lifts along the derived cycles, and the skeleton
    JSON stores components sorted anyway."""
    # a 6-cycle on 0 .. 5 beside a theta on 6, 7 with chains of length 1, 3, 3
    g = make_graph(12, [(i, (i + 1) % 6) for i in range(6)]
                   + [(6, 7), (6, 8), (8, 9), (7, 9), (6, 10), (10, 11), (7, 11)])
    cert = structural_witness(g, range(g.m))
    sk = cert.skeleton_part
    cert = replace(cert, skeleton_part=sk.with_coloring(color_cubic_3(sk.skeleton)))
    assert cert.cycle_components == ((0, 2, 3, 4, 5, 1),)
    assert verify_triple(g, triple_from_structural(g, cert))["ok"]
    unordered = replace(cert, cycle_components=((0, 1, 2, 3, 4, 5),))
    assert unordered.clause == "mixed"
    with pytest.raises(ValueError, match="structural lift failed"):
        triple_from_structural(g, unordered)
    assert verify_structural(g, unordered) == {"ok": True, "violations": []}
    blob = certificate_to_json(g, unordered)
    assert blob == certificate_to_json(g, cert)
    decoded = certificate_from_json(g, json.loads(json.dumps(blob)))
    assert decoded.cycle_components == ((0, 1, 2, 3, 4, 5),)
    assert verify_certificate(g, decoded) == {"ok": True, "violations": []}


def certified_corpus(seed):
    """(graph, structural certificate) pairs from the structural route.

    Ladders and bisubdivided K4, K3,3 and Petersen come from check().
    Mixed hosts put even cycles beside a Petersen graph and a theta, K4 or
    K3,3, each bisubdivided up to three times; check() calls such a
    disconnected host ineligible, so they come from structural_check, the
    route check() runs.
    """
    rng = random.Random(seed)
    graphs = [ladder(n, twist) for n in range(6, 27, 4) for twist in (False, True)]
    for base in (k4(), k33(), petersen()):
        for _ in range(12):
            g = base
            for _ in range(rng.randint(1, 3)):
                g = bisubdivide(g, rng.randrange(g.m))
            graphs.append(g)
    for g in graphs:
        v = check(g)
        if v.structural is not None:
            yield g, v.structural
    theta = make_graph(2, [(0, 1)] * 3)
    for _ in range(60):
        pieces = [make_graph(k, [(i, (i + 1) % k) for i in range(k)])
                  for k in rng.choices((2, 4, 6), k=rng.randint(1, 2))]
        for base in (petersen(), rng.choice((theta, k4(), k33()))):
            for _ in range(rng.randint(0, 3)):
                base = bisubdivide(base, rng.randrange(base.m))
            pieces.append(base)
        rng.shuffle(pieces)
        edges, n = [], 0
        for piece in pieces:
            edges += [(u + n, v + n) for u, v in piece.edges]
            n += piece.n
        g = make_graph(n, edges)
        yield g, structural_check(g, _gate=False).structural


def verifies(g, cert):
    """verify_structural on the certificate and, for the skeleton form,
    after a JSON round trip; the two must agree."""
    ok = verify_structural(g, cert)["ok"]
    if cert.skeleton_part is not None:
        blob = json.loads(json.dumps(certificate_to_json(g, cert)))
        assert verify_certificate(g, certificate_from_json(g, blob))["ok"] == ok
    return ok


def test_verify_structural_accepts_relistings_and_rejects_tampering():
    rng = random.Random(2222)
    seen = Counter()
    for g, cert in certified_corpus(seed=2221):
        assert verifies(g, cert), g
        seen[cert.clause] += 1
        for i, cyc in enumerate(cert.cycle_components):
            k = rng.randrange(len(cyc))
            for relisted, ok in ((cyc[k:] + cyc[:k], True),
                                 (tuple(sorted(cyc)), True),
                                 (cyc[:k + 1] + cyc[k:], False)):
                comps = list(cert.cycle_components)
                comps[i] = relisted
                assert verifies(g, replace(cert, cycle_components=tuple(comps))) == ok
            seen["cycle"] += 1
        sk = cert.skeleton_part
        if sk is None:
            continue
        # Graph keeps skeleton edges sorted, so chains move within a
        # parallel class, taking their colors with them
        order = sorted(range(sk.skeleton.m),
                       key=lambda i: (sk.skeleton.edges[i], rng.random()))
        seen["permuted"] += order != sorted(order)
        permuted = replace(sk, chain_map=tuple(sk.chain_map[i] for i in order),
                           coloring=tuple(sk.coloring[i] for i in order))
        assert verifies(g, replace(cert, skeleton_part=permuted))
        i = rng.randrange(sk.skeleton.m)
        a, _ = sk.skeleton.edges[i]
        j = next(j for j in sk.skeleton.incident[a] if j != i)
        keep = [x for x in range(sk.skeleton.m) if x != i]
        dropped = replace(
            sk, skeleton=Graph(sk.skeleton.n, tuple(sk.skeleton.edges[x] for x in keep)),
            chain_map=tuple(sk.chain_map[x] for x in keep),
            coloring=tuple(sk.coloring[x] for x in keep))
        recolored = sk.with_coloring(
            sk.coloring[:i] + (sk.coloring[j],) + sk.coloring[i + 1:])
        outside = [v for v in range(g.n) if v not in sk.branch_vertices]
        k = rng.randrange(sk.skeleton.n)
        moved = replace(sk, branch_vertices=sk.branch_vertices[:k]
                        + (rng.choice(outside),) + sk.branch_vertices[k + 1:])
        for bad in (dropped, recolored, moved):
            assert not verifies(g, replace(cert, skeleton_part=bad)), g
    assert min(seen.values()) >= 10 and len(seen) == 5, seen
