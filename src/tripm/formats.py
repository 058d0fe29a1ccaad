"""Graph serialization: graph6 strings and a plain edge-list format.

graph6 support is the header-less single-byte form (n <= 62), one graph per
line.  Multigraphs cannot be expressed in graph6 and must use the edge-list
format: a header line ``n m`` followed by m lines ``u v``.  Both parsers
skip lines that start with ``#``.
"""

from __future__ import annotations

from .graph import Graph, make_graph


class GraphFormatError(ValueError):
    """Malformed graph text; message carries the byte or line position."""


def parse_graph6(text: str) -> Graph:
    if "#" in text:  # outside the graph6 range: text without one skips this
        text = "\n".join(ln for ln in text.splitlines()
                         if not ln.lstrip().startswith("#"))
    s = text.strip()
    if not s:
        raise GraphFormatError("empty graph6 string")
    for i, ch in enumerate(s):
        o = ord(ch)
        if o < 63 or o > 126:
            raise GraphFormatError(f"byte {i}: character {ch!r} outside graph6 range")
    first = ord(s[0])
    if first == 126:
        raise GraphFormatError("byte 0: long-form vertex counts (n > 62) not supported")
    n = first - 63
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - 1 != nchars:
        raise GraphFormatError(
            f"byte {len(s)}: expected {nchars} data characters for n={n}, got {len(s) - 1}"
        )
    bits = []
    for i, ch in enumerate(s[1:], start=1):
        val = ord(ch) - 63
        for k in range(5, -1, -1):
            bits.append((val >> k) & 1)
    for j in range(nbits, len(bits)):
        if bits[j]:
            raise GraphFormatError(f"byte {len(s) - 1}: nonzero padding bits")
    pairs = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                pairs.append((u, v))
            idx += 1
    return make_graph(n, pairs)


def write_graph6(g: Graph) -> str:
    if g.n > 62:
        raise GraphFormatError("graph6 single-byte form requires n <= 62")
    if not g.is_simple():
        raise GraphFormatError("graph6 cannot express parallel edges")
    present = set(g.edges)
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if (u, v) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    stripped = []  # (line number, text) of the lines that are not comments
    for no, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if ln and ln[0] != "#":
            stripped.append((no, ln))
    if not stripped:
        raise GraphFormatError("line 1: missing 'n m' header")
    no, header = stripped[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {no}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {no}: header must be two integers") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {no}: negative count in header")
    body = stripped[1:]
    if len(body) != m:
        raise GraphFormatError(f"line {no}: header promises {m} edges, found {len(body)}")
    pairs = []
    for no, ln in body:
        try:
            a, b = ln.split()
            u, v = int(a), int(b)
        except ValueError:  # a wrong field count or a field that is no integer
            shape = "'u v'" if len(ln.split()) != 2 else "two integers"
            raise GraphFormatError(f"line {no}: edge line must be {shape}") from None
        if u == v:
            raise GraphFormatError(f"line {no}: loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {no}: endpoint out of range for n={n}")
        pairs.append((u, v) if u < v else (v, u))
    pairs.sort()  # equal pairs are equal tuples, so parallel edges keep their order
    return Graph(n, tuple(pairs))


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
