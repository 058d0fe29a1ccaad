"""Digest of tripm's outputs on the benchmark corpora.

    python3 tools/digest.py [CHECKOUT] [--seeds 0 1 7]

Imports ``tripm`` from ``CHECKOUT/src`` and the corpora from
``CHECKOUT/perfbench/corpora.py`` (by default the checkout that holds this
script), and changes neither.  Prints one line per corpus and seed: the
corpus, the seed and the first 16 hex digits of a sha256 over its outputs.
Two checkouts that print the same lines give the same outputs, so a change
that must not alter any output is checked by running this on the parent
and on the change.

For the per-graph corpora the hash covers, graph by graph, what ``check()``
returns under the default budget: status, nodes, evidence, reason, budget
report and the JSON of every certificate.  For ``survey-xval`` it covers
each ``tripm survey --cross-validate --jobs 1`` call on the corpus's
batches: exit code, every record without ``elapsed_ms``, and the summary.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


def load(checkout: Path):
    """Import tripm, its CLI and the corpora from ``checkout``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import corpora
    import tripm
    import tripm.cli
    if Path(tripm.__file__).resolve().parent != (checkout / "src" / "tripm").resolve():
        raise SystemExit(f"tripm was imported from {tripm.__file__}, "
                         f"not from {checkout / 'src'}")
    return tripm, corpora


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def per_graph_digest(tp, entries) -> str:
    h = hashlib.sha256()
    for entry in entries:
        parse = tp.parse_graph6 if entry.fmt == "graph6" else tp.parse_edge_list
        g = parse(entry.text)
        v = tp.check(g, tp.DEFAULT_BUDGET)
        certs = [tp.certificate_to_json(g, c)
                 for c in (v.triple, v.structural) if c is not None]
        h.update(canonical([entry.gid, v.status, v.nodes, v.evidence, v.reason,
                            v.budget_report, certs]))
    return h.hexdigest()[:16]


def survey_digest(tp, corpora, lines: list[str]) -> str:
    h = hashlib.sha256()
    argv = ["--cross-validate", "--jobs", "1", "--budget", str(tp.DEFAULT_BUDGET)]
    step = corpora.SURVEY_BATCH
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.g6"
        for i in range(0, len(lines), step):
            path.write_text("\n".join(lines[i:i + step]) + "\n", encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = tp.cli.main(["survey", str(path)] + argv)
            records = [json.loads(ln) for ln in out.getvalue().splitlines()]
            for r in records:
                r.pop("elapsed_ms", None)
            h.update(canonical([rc, records]))
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7])
    args = parser.parse_args(argv)
    tp, corpora = load(args.checkout.resolve())
    for name, build in corpora.PER_GRAPH.items():
        for seed in args.seeds:
            print(f"{name:<14} seed {seed:<3} "
                  f"{per_graph_digest(tp, build(tp, seed, False))}", flush=True)
    for seed in args.seeds:
        lines = corpora.survey_graphs(tp, seed, False)
        print(f"{'survey-xval':<14} seed {seed:<3} "
              f"{survey_digest(tp, corpora, lines)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
