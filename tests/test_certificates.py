"""Certificate objects, the verifiers, and the JSON round trip."""

import json
import random
from collections import Counter

import pytest

import tripm.certificates

from tripm import (
    ADMISSIBLE,
    INELIGIBLE,
    NOT_ADMISSIBLE,
    UNKNOWN,
    CertificateFormatError,
    Graph,
    GraphFormatError,
    StructuralCertificate,
    TripleCertificate,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    check,
    color_cubic_3,
    make_graph,
    structural_witness,
    verify_certificate,
    verify_triple,
    write_graph6,
)
from tripm.generators import k4, petersen, wheel

from conftest import random_multigraph_corpus
from oracles import (
    brute_perfect_matchings, resorting_matching_to_json, set_verify_triple)
from test_skeleton import mixed_certificate, mixed_host, wheel_certificate


def k4_triple():
    # the three perfect matchings of K4 partition its edge set
    return TripleCertificate(frozenset({0, 5}), frozenset({1, 4}), frozenset({2, 3}))


def test_verify_triple_accepts_k4_partition():
    assert verify_triple(k4(), k4_triple()) == {"ok": True, "violations": []}


def test_verify_triple_violations_are_specific():
    g = k4()
    rep = verify_triple(g, TripleCertificate(frozenset({0, 5}), frozenset({0, 1}),
                                             frozenset({9})))
    assert not rep["ok"]
    assert any("m2" in v and "not a matching" in v for v in rep["violations"])
    assert any("m3" in v and "out of range" in v for v in rep["violations"])


def test_verify_triple_flags_common_edge():
    m = frozenset({0, 5})
    rep = verify_triple(k4(), TripleCertificate(m, m, m))
    assert not rep["ok"]
    assert rep["violations"] == ["triple intersection not empty: edges [0, 5]"]


def test_verify_triple_flags_missed_vertices():
    g = make_graph(4, [(0, 1), (2, 3)])
    rep = verify_triple(g, TripleCertificate(frozenset({0}), frozenset({0, 1}),
                                             frozenset({1})))
    assert any("misses vertices [2, 3]" in v for v in rep["violations"])


def seeded_triples(count, seed):
    """Seeded (graph, triple) pairs over random multigraphs and the empty
    graph.  A matching is a perfect matching or a random edge subset,
    sometimes with an id out of range; now and then m3 repeats m1, so the
    common intersection is not empty."""
    rng = random.Random(seed)
    graphs = [Graph(0, ())] + random_multigraph_corpus(300, seed)
    pms = [brute_perfect_matchings(g) for g in graphs]
    for i in range(count):
        g, perfect = graphs[i % len(graphs)], pms[i % len(graphs)]

        def pick():
            if perfect and rng.random() < 0.6:
                m = set(rng.choice(perfect))
            else:
                m = set(rng.sample(range(g.m), rng.randint(0, g.m)))
            if rng.random() < 0.1:
                m.add(rng.choice((-2, -1, g.m, g.m + 5)))
            return frozenset(m)

        m1, m2 = pick(), pick()
        yield g, TripleCertificate(m1, m2, m1 if rng.random() < 0.2 else pick())


def test_verify_triple_matches_the_set_based_reference():
    """Same report, violation strings included, as the earlier verifier
    that scanned every id for range and covered vertices with sets."""
    kinds = Counter()
    for g, cert in seeded_triples(2400, seed=1913):
        report = verify_triple(g, cert)
        assert report == set_verify_triple(g, cert), (g, cert)
        kinds["ok" if report["ok"] else "bad"] += 1
        kinds["empty graph"] += g.n == 0
        for v in report["violations"]:
            kinds[next(k for k in ("out of range", "not a matching", "not perfect",
                                   "intersection not empty") if k in v)] += 1
    assert len(kinds) == 7 and min(kinds.values()) >= 5, kinds


def test_matching_pairs_need_no_second_sort_on_multigraphs(monkeypatch):
    """Edge-id order is endpoint-pair order, so the encoder's pairs come
    out sorted: every certificate of check() on multigraphs with parallel
    edges encodes byte for byte as under the earlier re-sorting encoder."""
    certs = []
    for g in random_multigraph_corpus(300, seed=1917):
        v = check(g)
        if v.status == ADMISSIBLE and not g.is_simple():
            certs += [(g, c) for c in (v.triple, v.structural) if c is not None]
    # a theta, alone and beside a digon: structural certificates whose
    # chains and cycle are parallel edges
    for g in (make_graph(2, [(0, 1)] * 3), make_graph(4, [(0, 1)] * 3 + [(2, 3)] * 2)):
        certs.append((g, StructuralCertificate(
            frozenset(range(g.m)), color_cubic_3(structural_witness(g, range(g.m)).skeleton))))
    kinds = Counter(certificate_to_json(g, c)["type"] for g, c in certs)
    assert set(kinds) == {"triple", "structural"}, kinds
    encoded = [json.dumps(certificate_to_json(g, c)) for g, c in certs]
    monkeypatch.setattr(tripm.certificates, "_matching_to_json",
                        resorting_matching_to_json)
    assert encoded == [json.dumps(certificate_to_json(g, c)) for g, c in certs]


def test_graph_echo_is_a_fresh_object_per_certificate():
    # the echo's text is kept for the last graph; the dicts are not shared
    g = petersen()
    first = certificate_to_json(g, check(g).triple)
    first["graph"]["data"] = "tampered"
    again = certificate_to_json(g, check(g).triple)
    assert again["graph"] == {"format": "graph6", "data": "IheA@GUAo"}
    other = certificate_to_json(k4(), k4_triple())
    assert other["graph"] == {"format": "graph6", "data": "C~"}


def test_verdict_guards():
    with pytest.raises(ValueError):
        Verdict(ADMISSIBLE)
    with pytest.raises(ValueError):
        Verdict(NOT_ADMISSIBLE)
    v = Verdict(ADMISSIBLE, triple=k4_triple())
    assert v.definitive
    assert Verdict(INELIGIBLE, reason="x").definitive
    assert not Verdict(UNKNOWN).definitive


def test_triple_json_round_trip():
    g = k4()
    cert = k4_triple()
    blob = certificate_to_json(g, cert)
    assert blob["type"] == "triple"
    assert blob["graph"] == {"format": "graph6", "data": "C~"}
    text = json.dumps(blob)
    back = certificate_from_json(g, json.loads(text))
    assert back == cert
    # re-serialization is bit for bit identical
    assert json.dumps(certificate_to_json(g, back)) == text


def test_even2factor_json_round_trip():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cert = StructuralCertificate(frozenset(range(4)))
    blob = certificate_to_json(g, cert)
    assert blob == {"type": "structural",
                    "graph": {"format": "graph6", "data": write_graph6(g)},
                    "spanning": {"edges": [[0, 1], [0, 3], [1, 2], [2, 3]],
                                 "edge_ids": [0, 1, 2, 3]},
                    "coloring": []}
    back = certificate_from_json(g, blob)
    assert back == cert
    assert verify_certificate(g, back)["ok"]
    assert json.dumps(certificate_to_json(g, back)) == json.dumps(blob)


def test_skeleton_json_round_trip_pure():
    g = wheel(5)
    cert = wheel_certificate()
    blob = certificate_to_json(g, cert)
    assert blob["type"] == "structural"
    assert blob["coloring"] == [1, 2, 3, 3, 2, 1]
    back = certificate_from_json(g, blob)
    assert back == cert
    assert verify_certificate(g, back)["ok"]
    assert json.dumps(certificate_to_json(g, back)) == json.dumps(blob)


def test_skeleton_json_round_trip_mixed():
    g = mixed_host()
    cert = mixed_certificate()
    blob = certificate_to_json(g, cert)
    assert sorted(blob) == ["coloring", "graph", "spanning", "type"]
    back = certificate_from_json(g, blob)
    assert back == cert
    assert verify_certificate(g, back)["ok"]
    assert json.dumps(certificate_to_json(g, back)) == json.dumps(blob)


def test_decoding_refuses_the_old_structural_types():
    """The even2factor and skeleton objects that stored the split are
    refused, stored fields and all, with no second reader."""
    g = mixed_host()
    blob = certificate_to_json(g, mixed_certificate())
    echo, spanning = blob["graph"], blob["spanning"]
    for old in ({"type": "even2factor", "graph": echo, "factor": spanning,
                 "cycles": [[0, 1, 2, 3]]},
                {"type": "skeleton", "graph": echo, "clause": "mixed",
                 "spanning": spanning, "cycle_components": [[0, 1, 2, 3]],
                 "branch_vertices": [4, 5],
                 "skeleton": {"n": 2, "edges": [[0, 1]] * 3},
                 "chain_map": [[4], [5, 9, 7], [6, 10, 8]],
                 "coloring": {"0": [1], "1": [2], "2": [3]}}):
        with pytest.raises(CertificateFormatError, match="unknown certificate type"):
            certificate_from_json(g, old)
    # the new type needs its coloring as a list of integers
    for coloring in (None, {"0": [1], "1": [2], "2": [3]}, [1, 2, "3"], [1, True, 3]):
        blob["coloring"] = coloring
        with pytest.raises(CertificateFormatError, match="coloring"):
            certificate_from_json(g, blob)


def test_decoding_requires_matching_graph_echo():
    blob = certificate_to_json(k4(), k4_triple())
    with pytest.raises(CertificateFormatError, match="does not match"):
        certificate_from_json(petersen(), blob)


def test_decoding_schema_errors():
    g = k4()
    with pytest.raises(CertificateFormatError, match="'type'"):
        certificate_from_json(g, [])
    with pytest.raises(CertificateFormatError, match="unknown certificate type"):
        certificate_from_json(g, {"type": "magic",
                                  "graph": {"format": "graph6", "data": "C~"}})
    with pytest.raises(CertificateFormatError, match="format"):
        certificate_from_json(g, {"type": "triple", "graph": {}})
    blob = certificate_to_json(g, k4_triple())
    del blob["matchings"][2]
    with pytest.raises(CertificateFormatError, match="exactly 3"):
        certificate_from_json(g, blob)


def test_decoding_rejects_inconsistent_edge_ids():
    g = k4()
    blob = certificate_to_json(g, k4_triple())
    blob["matchings"][0]["edge_ids"] = [0, 4]  # pairs still say {0, 5}
    with pytest.raises(CertificateFormatError, match="disagree"):
        certificate_from_json(g, blob)


def test_decoding_multigraph_requires_edge_ids():
    g = make_graph(2, [(0, 1), (0, 1)])
    obj = {"type": "triple",
           "graph": {"format": "edgelist", "data": "2 2\n0 1\n0 1\n"},
           "matchings": [{"edges": [[0, 1]]}] * 3}
    with pytest.raises(CertificateFormatError, match="edge_ids required"):
        certificate_from_json(g, obj)
    obj = {"type": "triple",
           "graph": {"format": "edgelist", "data": "2 2\n0 1\n0 1\n"},
           "matchings": [{"edges": [[0, 1]], "edge_ids": [0]},
                         {"edges": [[0, 1]], "edge_ids": [1]},
                         {"edges": [[0, 1]], "edge_ids": [1]}]}
    cert = certificate_from_json(g, obj)
    assert verify_certificate(g, cert)["ok"]


def test_decoding_nonedge_and_repeats():
    g = k4()
    obj = certificate_to_json(g, k4_triple())
    obj["matchings"][0] = {"edges": [[0, 1], [0, 1]]}
    with pytest.raises(CertificateFormatError, match="repeated"):
        certificate_from_json(g, obj)
    # with edge ids, a pair repeated along with its id is refused too
    obj = certificate_to_json(g, k4_triple())
    m = obj["matchings"][0]
    m["edges"].append(m["edges"][0])
    m["edge_ids"].append(m["edge_ids"][0])
    with pytest.raises(CertificateFormatError, match="repeated"):
        certificate_from_json(g, obj)
    from tripm import write_graph6
    g2 = make_graph(4, [(0, 1), (2, 3)])
    obj = {"type": "triple",
           "graph": {"format": "graph6", "data": write_graph6(g2)},
           "matchings": [{"edges": [[0, 2]]}] * 3}
    assert certificate_from_json(g2, {**obj, "matchings": [
        {"edges": [[0, 1], [2, 3]]}] * 3}) is not None
    with pytest.raises(CertificateFormatError, match="not an edge"):
        certificate_from_json(g2, obj)


@pytest.mark.parametrize("pair", [[-10, 1], [99, 100]])
def test_decoding_rejects_vertex_pairs_outside_the_graph(pair):
    # without edge_ids the decoder looks pairs up in the graph; a negative
    # vertex must not wrap around to a real one
    g = petersen()
    blob = certificate_to_json(g, check(g).triple)
    for m in blob["matchings"]:
        del m["edge_ids"]
    assert verify_certificate(g, certificate_from_json(g, blob))["ok"]
    blob["matchings"][0]["edges"][0] = pair
    with pytest.raises(CertificateFormatError, match="out of range"):
        certificate_from_json(g, blob)


DELETE = object()
JUNK = (DELETE, "x", None, True, 1.5, -1, 10**6, [], [0], [["x"]], {})


def _node_paths(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def test_decoding_corrupted_nodes_raises_only_format_errors():
    """Every node of a valid certificate, replaced by junk or deleted,
    either decodes to something the verifier judges or raises a
    documented format error."""
    c4 = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cases = [(k4(), k4_triple()),
             (c4, StructuralCertificate(frozenset(range(4)))),
             (mixed_host(), mixed_certificate())]
    for g, cert in cases:
        text = json.dumps(certificate_to_json(g, cert))
        for path in list(_node_paths(json.loads(text)))[1:]:
            for junk in JUNK:
                blob = json.loads(text)
                parent = blob
                for key in path[:-1]:
                    parent = parent[key]
                if junk is not DELETE:
                    parent[path[-1]] = junk
                elif isinstance(parent, dict):
                    del parent[path[-1]]
                else:
                    continue
                try:
                    decoded = certificate_from_json(g, blob)
                except (CertificateFormatError, GraphFormatError):
                    continue
                report = verify_certificate(g, decoded)
                assert isinstance(report["ok"], bool), (path, junk)


def test_tampered_even2factor_decodes_then_fails_verification():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    blob = certificate_to_json(g, StructuralCertificate(frozenset(range(4))))
    blob["spanning"] = {"edges": [[0, 1], [1, 2]], "edge_ids": [0, 2]}
    cert = certificate_from_json(g, blob)  # structurally fine, semantically not
    rep = verify_certificate(g, cert)
    assert rep == {"ok": False, "violations": [
        "spanning set does not split: degree out of range: vertex 0 has degree 1"]}


def test_tampered_skeleton_chain_fails_verification():
    g = wheel(5)
    blob = certificate_to_json(g, wheel_certificate())
    # the spoke to rim vertex 2 (edge 6) moves to rim vertex 3 (edge 8):
    # the rim arc 0-4-3 between branch vertices becomes an even chain
    span = blob["spanning"]
    span["edge_ids"] = [8 if e == 6 else e for e in span["edge_ids"]]
    span["edges"] = [list(g.edges[e]) for e in span["edge_ids"]]
    cert = certificate_from_json(g, blob)
    assert verify_certificate(g, cert) == {"ok": False, "violations": [
        "spanning set does not split: even chain: chain 0..3 has even length 2"]}


def test_verify_certificate_rejects_unknown_types():
    rep = verify_certificate(k4(), object())
    assert not rep["ok"]
