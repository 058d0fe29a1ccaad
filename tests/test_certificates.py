"""Certificate objects, the verifiers, and the JSON round trip."""

import json

import pytest

from tripm import (
    ADMISSIBLE,
    INELIGIBLE,
    NOT_ADMISSIBLE,
    UNKNOWN,
    CertificateFormatError,
    GraphFormatError,
    StructuralCertificate,
    TripleCertificate,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    check,
    color_cubic_3,
    extract_skeleton,
    make_graph,
    verify_certificate,
    verify_triple,
)
from tripm.generators import k4, petersen, wheel

from test_skeleton import W5_SPANNING, mixed_certificate, mixed_host


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
    cert = StructuralCertificate(frozenset(range(4)), ((0, 2, 3, 1),), None)
    blob = certificate_to_json(g, cert)
    assert blob["type"] == "even2factor"
    back = certificate_from_json(g, blob)
    assert back == cert
    assert verify_certificate(g, back)["ok"]
    assert json.dumps(certificate_to_json(g, back)) == json.dumps(blob)


def test_skeleton_json_round_trip_pure():
    g = wheel(5)
    sk = extract_skeleton(g, W5_SPANNING).with_coloring(color_cubic_3(k4()))
    cert = StructuralCertificate(W5_SPANNING, (), sk)
    blob = certificate_to_json(g, cert)
    assert blob["type"] == "skeleton"
    assert blob["clause"] == "skeleton"
    assert blob["coloring"] == {"0": [1], "1": [2], "2": [3],
                                "3": [3], "4": [2], "5": [1]}
    back = certificate_from_json(g, blob)
    assert verify_certificate(g, back)["ok"]
    assert back.skeleton_part.chain_map == sk.chain_map
    assert back.skeleton_part == sk
    assert json.dumps(certificate_to_json(g, back)) == json.dumps(blob)


def test_skeleton_json_round_trip_mixed():
    g = mixed_host()
    cert = mixed_certificate()
    blob = certificate_to_json(g, cert)
    assert blob["clause"] == "mixed"
    back = certificate_from_json(g, blob)
    assert verify_certificate(g, back)["ok"]
    assert back.spanning == cert.spanning
    # cycle components serialize as sorted id lists; compare as sets
    assert ({frozenset(c) for c in back.cycle_components}
            == {frozenset(c) for c in cert.cycle_components})
    assert json.dumps(certificate_to_json(g, back)) == json.dumps(blob)


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
             (c4, StructuralCertificate(frozenset(range(4)), ((0, 2, 3, 1),), None)),
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
    blob = certificate_to_json(
        g, StructuralCertificate(frozenset(range(4)), ((0, 2, 3, 1),), None))
    blob["factor"] = {"edges": [[0, 1], [1, 2]], "edge_ids": [0, 2]}
    cert = certificate_from_json(g, blob)  # structurally fine, semantically not
    rep = verify_certificate(g, cert)
    assert not rep["ok"]


def test_tampered_skeleton_chain_fails_verification():
    g = wheel(5)
    sk = extract_skeleton(g, W5_SPANNING).with_coloring(color_cubic_3(k4()))
    blob = certificate_to_json(g, StructuralCertificate(W5_SPANNING, (), sk))
    blob["chain_map"][1] = [1, 5, 7]  # edges exist but no longer walk a path
    cert = certificate_from_json(g, blob)
    rep = verify_certificate(g, cert)
    assert not rep["ok"]
    assert any("chain" in v for v in rep["violations"])


def test_verify_certificate_rejects_unknown_types():
    rep = verify_certificate(k4(), object())
    assert not rep["ok"]
