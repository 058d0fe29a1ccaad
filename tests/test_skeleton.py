"""Bicontraction to cubic skeletons, 3-edge-coloring, and lifting."""

import json
import random
from collections import Counter

import pytest

from tripm import (
    ADMISSIBLE,
    Budget,
    BudgetExhausted,
    CertificateFormatError,
    Graph,
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


def wheel_certificate() -> StructuralCertificate:
    """W5_SPANNING with its K4 skeleton's first coloring."""
    return StructuralCertificate(W5_SPANNING, color_cubic_3(k4()))


def test_structural_witness_of_wheel_spanning_set():
    g = wheel(5)
    split = structural_witness(g, W5_SPANNING)
    assert split.cycles == ()
    assert split.branch_vertices == (0, 1, 2, 5)
    assert split.skeleton == k4()
    assert split.chain_map == ((0,), (1, 7, 5), (2,), (3,), (4,), (6,))
    assert split.clause == "skeleton"


def test_structural_witness_inverts_bisubdivision():
    g = petersen()
    h = bisubdivide(g, 0)
    split = structural_witness(h, range(h.m))
    assert split.branch_vertices == tuple(range(10))
    assert split.skeleton == g


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
    split = structural_witness(g, range(g.m))
    assert split.cycles == ((0, 2, 3, 1),)
    assert split.branch_vertices == (4, 5)
    assert split.chain_map == ((4,), (5, 9, 7), (6, 10, 8))
    assert split.clause == "mixed"


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
        split = structural_witness(g, edge_set)
        cycles, branch_edges = brute_split_components(g, edge_set)
        assert [frozenset(c) for c in split.cycles] == cycles
        assert frozenset(e for c in split.chain_map for e in c) == branch_edges
        assert (split.skeleton is None) == (not branch_edges)
        mixed += split.clause == "mixed"
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
    cert = triple_from_structural(g, structural_witness(g, W5_SPANNING),
                                  color_cubic_3(k4()))
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


def mixed_certificate() -> StructuralCertificate:
    """All of mixed_host(): the C4 and the theta, whose three chains get
    colors 1, 2, 3."""
    return StructuralCertificate(frozenset(range(11)), (1, 2, 3))


def test_mixed_certificate_lifts_and_verifies():
    g = mixed_host()
    cert = mixed_certificate()
    triple = triple_from_structural(
        g, structural_witness(g, cert.spanning), cert.coloring)
    assert triple.m1 == frozenset({0, 3, 4, 9, 10})
    assert triple.m2 == frozenset({1, 2, 5, 7, 10})
    assert triple.m3 == frozenset({1, 2, 6, 8, 9})
    assert triple.m1 & triple.m2 & triple.m3 == frozenset()
    assert triple.union() == cert.spanning
    report = verify_structural(g, cert)
    assert report == {"ok": True, "violations": []}


def test_verify_structural_flags_bad_coloring():
    g = mixed_host()
    bad = StructuralCertificate(frozenset(range(11)), (1, 1, 3))
    report = verify_structural(g, bad)
    assert not report["ok"]
    # an improper coloring lifts to classes that are not perfect matchings
    assert report["violations"][0].startswith("structural lift failed")
    for coloring in ((1, 2), (1, 2, 3, 1)):
        assert verify_structural(g, StructuralCertificate(bad.spanning, coloring)) == {
            "ok": False, "violations": ["coloring length differs from skeleton size"]}
    for c in (0, 4, -1):
        assert verify_structural(g, StructuralCertificate(bad.spanning, (1, c, 3))) == {
            "ok": False, "violations": [f"skeleton edge 1 has invalid color {c}"]}
    # a pure cycle has no skeleton edge to color
    c4 = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert verify_structural(c4, StructuralCertificate(frozenset(range(4)), (1,))) == {
        "ok": False, "violations": ["coloring length differs from skeleton size"]}


def test_verify_structural_flags_odd_cycle():
    g = make_graph(9, [(0, 1), (1, 2), (0, 2),
                       (3, 4),
                       (3, 5), (5, 6), (4, 6),
                       (3, 7), (7, 8), (4, 8)])
    cert = StructuralCertificate(frozenset(range(10)), (1, 2, 3))
    assert structural_witness(g, cert.spanning).clause == "mixed"
    assert verify_structural(g, cert) == {
        "ok": False, "violations": ["odd cycle component in structural certificate"]}


def test_verify_structural_flags_an_untouched_vertex():
    # the theta alone: no component reaches the C4's vertices
    g = mixed_host()
    cert = StructuralCertificate(frozenset(range(4, 11)), (1, 2, 3))
    misses = "not perfect, misses vertices [0, 1, 2, 3]"
    assert verify_structural(g, cert) == {"ok": False, "violations": [
        f"structural lift failed: {[f'{m}: {misses}' for m in ('m1', 'm2', 'm3')]}"]}


def test_verify_structural_flags_non_spanning_degrees():
    g = mixed_host()
    cert = mixed_certificate()
    shrunk = StructuralCertificate(cert.spanning - {0}, cert.coloring)
    assert verify_structural(g, shrunk) == {"ok": False, "violations": [
        "spanning set does not split: degree out of range: vertex 0 has degree 1"]}


def test_verify_structural_flags_even_and_loop_chains():
    # the hosts of test_structural_witness_even_chain and _loop_chain
    even = make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    loop = make_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5), (4, 5)])
    for g, detail in ((even, "even chain: chain 0..1 has even length 2"),
                      (loop, "loop chain: chain of length 3 closes on vertex 0")):
        cert = StructuralCertificate(frozenset(range(g.m)), (1, 2, 3))
        assert verify_structural(g, cert) == {
            "ok": False, "violations": [f"spanning set does not split: {detail}"]}


def test_verify_structural_flags_spanning_ids_outside_the_graph(tmp_path, capsys):
    g = mixed_host()
    cert = mixed_certificate()
    stray = StructuralCertificate(cert.spanning | {-1, 99}, cert.coloring)
    assert verify_structural(g, stray) == {"ok": False, "violations": [
        "spanning edge ids out of range: [-1, 99]"]}
    # JSON cannot carry such an id: the decoder refuses it, and so does
    # tripm verify, with exit code 4
    blob = certificate_to_json(g, cert)
    blob["spanning"]["edge_ids"][0] = 99
    with pytest.raises(CertificateFormatError, match="edge id 99 out of range"):
        certificate_from_json(g, blob)
    gpath, cpath = tmp_path / "g.g6", tmp_path / "cert.json"
    gpath.write_text(write_graph6(g) + "\n", encoding="utf-8")
    cpath.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["verify", str(gpath), str(cpath)]) == 4
    assert "edge id 99 out of range" in capsys.readouterr().err


def test_verify_structural_accepts_pure_even_2factor():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cert = StructuralCertificate(frozenset(range(4)))
    assert structural_witness(g, cert.spanning).clause == "even-2-factor"
    assert verify_structural(g, cert)["ok"]


def test_verify_structural_accepts_pure_skeleton():
    g = wheel(5)
    cert = wheel_certificate()
    assert structural_witness(g, cert.spanning).clause == "skeleton"
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


def lift_or_error(lift, g, split, coloring):
    try:
        return lift(g, split, coloring)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_lift_along_given_cycles_equals_the_rederiving_reference():
    """The lift alternates each cycle of the split as given; the earlier
    lift traced the cycles again from their union.  Inside check() and
    after structural_witness both give the same triple, or the same error."""
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
            split = structural_witness(g, v.structural.spanning)
            assert v.triple == rederiving_triple_from_structural(
                g, split, v.structural.coloring), g
            clauses[split.clause] += 1
    lifted = 0
    for g, edge_set in degree_23_edge_sets(count=300, seed=1901):
        split = structural_witness(g, edge_set)
        coloring = color_cubic_3(split.skeleton) if split.skeleton is not None else ()
        if coloring is None:
            continue
        got = lift_or_error(triple_from_structural, g, split, coloring)
        assert got == lift_or_error(rederiving_triple_from_structural, g, split, coloring)
        lifted += not isinstance(got, str)
        clauses[split.clause] += 1
    assert min(clauses.values()) >= 20 and len(clauses) == 3, clauses
    assert lifted >= 50


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
    """verify_structural on the certificate and after a JSON round trip;
    the two must agree."""
    ok = verify_structural(g, cert)["ok"]
    blob = json.loads(json.dumps(certificate_to_json(g, cert)))
    assert verify_certificate(g, certificate_from_json(g, blob))["ok"] == ok
    return ok


def test_verify_structural_accepts_relistings_and_rejects_tampering():
    """A certificate decodes to itself however its JSON lists the spanning
    edges, and verifies.  A recolored chain, a coloring one color short or
    long, a color outside 1..3, a spanning edge dropped or one added are
    each rejected: an added edge makes two more branch vertices, so three
    more skeleton edges, or a degree out of range."""
    rng = random.Random(2222)
    seen = Counter()
    for g, cert in certified_corpus(seed=2221):
        assert verifies(g, cert), g
        split = structural_witness(g, cert.spanning)
        seen[split.clause] += 1
        blob = certificate_to_json(g, cert)
        span = blob["spanning"]
        order = rng.sample(range(len(span["edge_ids"])), len(span["edge_ids"]))
        span["edges"] = [span["edges"][i] for i in order]
        span["edge_ids"] = [span["edge_ids"][i] for i in order]
        assert certificate_from_json(g, blob) == cert
        if g.is_simple():
            del span["edge_ids"]
            assert certificate_from_json(g, blob) == cert
            seen["relisted without ids"] += 1
        coloring = cert.coloring
        bad = [coloring + (1,)]
        if coloring:
            sk = split.skeleton
            i = rng.randrange(sk.m)
            a, _ = sk.edges[i]
            j = next(j for j in sk.incident[a] if j != i)
            bad += [coloring[:i] + (coloring[j],) + coloring[i + 1:],
                    coloring[:-1],
                    coloring[:i] + (rng.choice((0, 4)),) + coloring[i + 1:]]
            seen["colored"] += 1
        for c in bad:
            assert not verifies(g, StructuralCertificate(cert.spanning, c)), g
        e = rng.choice(sorted(cert.spanning))
        assert not verifies(g, StructuralCertificate(cert.spanning - {e}, coloring)), g
        outside = sorted(set(range(g.m)) - cert.spanning)
        if outside:
            added = cert.spanning | {rng.choice(outside)}
            assert not verifies(g, StructuralCertificate(added, coloring)), g
            seen["added"] += 1
    assert min(seen.values()) >= 10 and len(seen) == 6, seen
