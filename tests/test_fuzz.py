"""Decoders under random input: each returns a value or raises only its
documented format error.  Examples are derandomized, so every run draws
the same inputs."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tripm import (
    CertificateFormatError,
    Graph,
    GraphFormatError,
    TripleCertificate,
    certificate_from_json,
    certificate_to_json,
    check,
    parse_edge_list,
    parse_graph6,
    verify_certificate,
    write_edge_list,
)
from tripm.generators import petersen, wheel

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=200)

# graph6 data characters are chr(63) .. chr(126); mix in a few outside it
GRAPH6_CHARS = st.characters(min_codepoint=58, max_codepoint=130)
TOKENS = st.sampled_from(["0", "1", "2", "3", "4", "-1", "10", "x", "#", "1.5",
                          "0x1", "１", "\t", "9" * 30])


@FUZZ
@given(st.text(GRAPH6_CHARS, max_size=20) | st.text(max_size=20))
def test_parse_graph6_raises_only_format_errors(text):
    try:
        g = parse_graph6(text)
    except GraphFormatError:
        return
    assert isinstance(g, Graph)


@FUZZ
@given(st.lists(st.lists(TOKENS, max_size=3).map(" ".join), max_size=7)
       .map("\n".join) | st.text(max_size=30))
def test_parse_edge_list_raises_only_format_errors(text):
    try:
        g = parse_edge_list(text)
    except GraphFormatError:
        return
    assert parse_edge_list(write_edge_list(g)) == g


JSON_LEAVES = (st.none() | st.booleans() | st.integers(-12, 120)
               | st.floats(allow_nan=False) | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12)
# near misses decode further than random JSON does
REPLACEMENTS = (st.integers(-12, 120) | st.lists(st.integers(-12, 120), max_size=3)
                | JSON_VALUES)


def _certificates():
    """Triple and structural certificates of two graphs, and each triple
    once more without edge ids, so the decoder looks the pairs up."""
    out = []
    for g in (petersen(), wheel(5)):
        verdict = check(g)
        for cert in (verdict.triple, verdict.structural):
            out.append((g, json.dumps(certificate_to_json(g, cert))))
        blob = certificate_to_json(g, verdict.triple)
        for m in blob["matchings"]:
            del m["edge_ids"]
        out.append((g, json.dumps(blob)))
    return out


CERTIFICATES = _certificates()


def _paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, child in obj.items():
            yield from _paths(child, path + (key,))
    elif isinstance(obj, list):
        for i, child in enumerate(obj):
            yield from _paths(child, path + (i,))


@FUZZ
@given(st.sampled_from(range(len(CERTIFICATES))), st.data())
def test_certificate_from_json_raises_only_format_errors(which, data):
    """A valid certificate with a few nodes replaced by random JSON."""
    g, text = CERTIFICATES[which]
    blob = json.loads(text)
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(_paths(blob))[1:]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = blob
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(REPLACEMENTS)
    try:
        cert = certificate_from_json(g, blob)
    except (CertificateFormatError, GraphFormatError):
        return
    assert isinstance(verify_certificate(g, cert)["ok"], bool)
    if isinstance(cert, TripleCertificate):
        # a decoded matching holds exactly the edges its pairs name
        for m, obj in zip(cert.matchings, blob["matchings"]):
            assert sorted(g.edges[e] for e in m) == sorted(
                (min(p), max(p)) for p in obj["edges"])
