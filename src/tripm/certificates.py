"""Certificate types, triple verification, and certificate JSON.

A triple certificate is three perfect matchings whose common intersection
is empty.  A structural certificate witnesses the equivalent structural
form: a spanning subgraph whose components are even cycles or bisubdivided
cubic pieces, carried as its edge set and a proper 3-edge-coloring of the
pieces' skeleton; the rest is derived from the edge set.  JSON encodings
embed the graph so that a certificate file plus the graph is enough to
re-verify from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import Graph
from .formats import parse_edge_list, parse_graph6, write_edge_list, write_graph6

ADMISSIBLE = "admissible"
NOT_ADMISSIBLE = "not-admissible"
UNKNOWN = "unknown"
INELIGIBLE = "ineligible"


class CertificateFormatError(ValueError):
    """Certificate JSON that does not match the schema or the graph."""


@dataclass(frozen=True)
class TripleCertificate:
    """Three perfect matchings (edge-id sets) with empty intersection."""

    m1: frozenset[int]
    m2: frozenset[int]
    m3: frozenset[int]

    @property
    def matchings(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return (self.m1, self.m2, self.m3)

    def union(self) -> frozenset[int]:
        return self.m1 | self.m2 | self.m3


@dataclass(frozen=True)
class StructuralCertificate:
    """Spanning witness: an edge set whose components are even cycles or
    bisubdivisions of 3-edge-colorable cubic graphs, plus one color in
    1..3 per skeleton edge, in skeleton edge-id order (empty when no
    vertex has degree 3).  The cycles, branch vertices, skeleton, chains
    and clause are derived from the set by ``skeleton.structural_witness``.
    """

    spanning: frozenset[int]
    coloring: tuple[int, ...] = ()


@dataclass(frozen=True)
class Verdict:
    """Outcome of an admissibility decision.

    admissible carries a triple (and possibly the structural witness that
    produced it); not-admissible carries exhaustion evidence and is never
    produced on a budget stop; unknown carries a budget report; ineligible
    carries the matching-covered failure reason.
    """

    status: str
    triple: TripleCertificate | None = None
    structural: StructuralCertificate | None = None
    evidence: dict | None = None
    budget_report: dict | None = None
    reason: str | None = None
    nodes: int = 0

    def __post_init__(self) -> None:
        if self.status == ADMISSIBLE and self.triple is None:
            raise ValueError("admissible verdict requires a triple certificate")
        if self.status == NOT_ADMISSIBLE and self.evidence is None:
            raise ValueError("negative verdict requires exhaustion evidence")

    @property
    def definitive(self) -> bool:
        return self.status in (ADMISSIBLE, NOT_ADMISSIBLE, INELIGIBLE)


def verify_triple(g: Graph, cert: TripleCertificate) -> dict:
    """Check the three-matching certificate against g.

    Never raises; returns {"ok": bool, "violations": [str, ...]} where each
    violation names the failed condition and the offending ids.

    Each matching costs one pass that marks the vertices it covers; ids
    are scanned for range only when the smallest or largest is out of it.
    """
    violations: list[str] = []
    n, edges = g.n, g.edges
    for name, m in zip(("m1", "m2", "m3"), cert.matchings):
        if m and (min(m) < 0 or max(m) >= g.m):
            bad = sorted(e for e in m if not (0 <= e < g.m))
            violations.append(f"{name}: edge ids out of range: {bad}")
            continue
        covered = bytearray(n)
        for e in m:
            u, v = edges[e]
            if covered[u] or covered[v]:
                violations.append(f"{name}: edges {sorted(m)} are not a matching")
                break
            covered[u] = covered[v] = 1
        else:
            if 2 * len(m) != n:
                missed = [v for v in range(n) if not covered[v]]
                violations.append(f"{name}: not perfect, misses vertices {missed}")
    common = cert.m1 & cert.m2 & cert.m3
    if common:
        violations.append(f"triple intersection not empty: edges {sorted(common)}")
    return {"ok": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# JSON encoding


def _graph_echo(g: Graph) -> dict:
    fmt, data = _encoded_echo(g)
    return {"format": fmt, "data": data}


@lru_cache(maxsize=1)
def _encoded_echo(g: Graph) -> tuple[str, str]:
    """The echo's format and text, kept for the last graph encoded: a
    verdict's triple and structural certificates embed the same echo."""
    if g.is_simple() and g.n <= 62:
        return "graph6", write_graph6(g)
    return "edgelist", write_edge_list(g)


def _echo_to_graph(obj) -> Graph:
    if not (isinstance(obj, dict) and isinstance(obj.get("data"), str)):
        raise CertificateFormatError("graph echo must carry 'format' and 'data'")
    if obj.get("format") == "graph6":
        return parse_graph6(obj["data"])
    if obj.get("format") == "edgelist":
        return parse_edge_list(obj["data"])
    raise CertificateFormatError(f"unknown graph format {obj.get('format')!r}")


def _list(obj, label: str) -> list:
    if not isinstance(obj, list):
        raise CertificateFormatError(f"{label}: expected a list")
    return obj


def _ints(obj, label: str) -> tuple[int, ...]:
    """A list of integers; strings, floats and booleans are refused."""
    if not (isinstance(obj, (list, tuple)) and all(type(x) is int for x in obj)):
        raise CertificateFormatError(f"{label}: expected a list of integers")
    return tuple(obj)


def _pair(obj, label: str) -> tuple[int, int]:
    pair = _ints(obj, label)
    if len(pair) != 2:
        raise CertificateFormatError(f"{label}: edge entries must be [u, v] pairs")
    return pair


def _edge_ids(g: Graph, obj, label: str) -> tuple[int, ...]:
    ids = _ints(obj, label)
    for e in ids:
        if not (0 <= e < g.m):
            raise CertificateFormatError(f"{label}: edge id {e} out of range")
    return ids


def _matching_to_json(g: Graph, m) -> dict:
    ids = sorted(m)
    edges = g.edges
    # edge ids follow endpoint-pair order, so the pairs come out sorted too
    return {"edges": [list(edges[e]) for e in ids], "edge_ids": ids}


def _matching_from_json(g: Graph, obj, label: str) -> frozenset[int]:
    if not isinstance(obj, dict) or "edges" not in obj:
        raise CertificateFormatError(f"{label}: expected an object with 'edges'")
    pairs = []
    for p in _list(obj["edges"], label):
        u, v = _pair(p, label)
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise CertificateFormatError(f"{label}: vertex pair {[u, v]} out of range")
        pairs.append((min(u, v), max(u, v)))
    if "edge_ids" in obj:
        ids = _edge_ids(g, obj["edge_ids"], label)
        if sorted(g.edges[e] for e in ids) != sorted(pairs):
            raise CertificateFormatError(f"{label}: edge ids disagree with [u, v] pairs")
    else:
        # derive ids from pairs; ambiguous only in multigraphs, where ids are required
        ids = []
        for u, v in pairs:
            cands = g.edge_ids_between(u, v)
            if not cands:
                raise CertificateFormatError(f"{label}: ({u}, {v}) is not an edge")
            if len(cands) > 1:
                raise CertificateFormatError(
                    f"{label}: ({u}, {v}) is a parallel class, edge_ids required")
            ids.append(cands[0])
    if len(set(ids)) != len(ids):
        raise CertificateFormatError(f"{label}: repeated edges")
    return frozenset(ids)


def certificate_to_json(g: Graph, cert) -> dict:
    if isinstance(cert, TripleCertificate):
        return {
            "type": "triple",
            "graph": _graph_echo(g),
            "matchings": [_matching_to_json(g, m) for m in cert.matchings],
        }
    if isinstance(cert, StructuralCertificate):
        return {
            "type": "structural",
            "graph": _graph_echo(g),
            "spanning": _matching_to_json(g, cert.spanning),
            "coloring": list(cert.coloring),
        }
    raise TypeError(f"cannot encode certificate of type {type(cert)!r}")


def certificate_from_json(g: Graph, obj):
    """Decode and structurally validate a certificate against g.

    The embedded graph echo must equal g exactly.  Semantic verification is
    a separate step (verify_certificate).
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise CertificateFormatError("certificate must be an object with a 'type'")
    echo = _echo_to_graph(obj.get("graph"))
    if echo != g:
        raise CertificateFormatError("embedded graph does not match the given graph")
    kind = obj["type"]
    if kind == "triple":
        ms = obj.get("matchings")
        if not (isinstance(ms, list) and len(ms) == 3):
            raise CertificateFormatError("triple certificate needs exactly 3 matchings")
        m1, m2, m3 = (_matching_from_json(g, m, f"matching {i+1}")
                      for i, m in enumerate(ms))
        return TripleCertificate(m1, m2, m3)
    if kind == "structural":
        return StructuralCertificate(
            _matching_from_json(g, obj.get("spanning"), "spanning"),
            _ints(obj.get("coloring"), "coloring"))
    raise CertificateFormatError(f"unknown certificate type {kind!r}")


def verify_certificate(g: Graph, cert) -> dict:
    """Dispatching verifier; see verify_triple / verify_structural."""
    if isinstance(cert, TripleCertificate):
        return verify_triple(g, cert)
    if isinstance(cert, StructuralCertificate):
        from .skeleton import verify_structural
        return verify_structural(g, cert)
    return {"ok": False, "violations": [f"unknown certificate type {type(cert)!r}"]}
