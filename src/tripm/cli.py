"""Command line front end.

Subcommands: check (single graph), survey (graph6 stream to JSONL),
generate (graph families), verify (certificate against graph), decompose
(Gallai-Edmonds dump).  Exit codes for check: 0 admissible, 1 not
admissible, 2 unknown, 3 ineligible, 4 parse or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .admissible import check, find_triple_direct, structural_check
from .budget import DEFAULT_BUDGET
from .certificates import (
    ADMISSIBLE,
    INELIGIBLE,
    NOT_ADMISSIBLE,
    UNKNOWN,
    CertificateFormatError,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)
from .formats import (
    GraphFormatError,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .gallai import gallai_edmonds, verify_decomposition
from .generators import NAMED, PARAMETRIC, generate
from .graph import Graph

EXIT_CODE = {ADMISSIBLE: 0, NOT_ADMISSIBLE: 1, UNKNOWN: 2, INELIGIBLE: 3}
EXIT_ERROR = 4


class UsageError(Exception):
    """Bad input outside argparse's reach (env values, file contents)."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


def _parse_graph(text: str, fmt: str | None) -> Graph:
    if fmt is None:
        # edge-list lines contain whitespace, graph6 strings never do; no
        # graph6 string starts with '#', so comment lines are skipped
        content = next((ln for ln in map(str.strip, text.splitlines())
                        if ln and ln[0] != "#"), "")
        fmt = "edgelist" if len(content.split()) > 1 else "graph6"
    if fmt == "graph6":
        return parse_graph6(text)
    return parse_edge_list(text)


def _resolve_budget(args) -> int:
    budget = args.budget
    if budget is None:
        env = os.environ.get("TRIPM_BUDGET")
        if env is None:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise UsageError(f"TRIPM_BUDGET must be an integer, got {env!r}") from None
    if budget < 0:
        raise UsageError(f"budget must be >= 0, got {budget}")
    return budget


def _emit_graph(g: Graph, fmt: str | None) -> str:
    if fmt == "graph6" or (fmt is None and g.is_simple() and g.n <= 62):
        return write_graph6(g)
    return write_edge_list(g)


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    g = _parse_graph(_read_text(args.input), args.format)
    budget = _resolve_budget(args)
    start = time.perf_counter()
    verdict = check(g, budget)
    elapsed = (time.perf_counter() - start) * 1000
    report = {
        "verdict": verdict.status,
        "n": g.n,
        "m": g.m,
        "budget": budget,
        "nodes": verdict.nodes,
        "elapsed_ms": round(elapsed, 2),
    }
    if verdict.triple is not None:
        report["certificate"] = certificate_to_json(g, verdict.triple)
    if verdict.structural is not None:
        report["structural_certificate"] = certificate_to_json(g, verdict.structural)
    if verdict.evidence is not None:
        report["evidence"] = verdict.evidence
    if verdict.reason is not None:
        report["reason"] = verdict.reason
    if verdict.budget_report is not None:
        report["budget_report"] = verdict.budget_report
    print(json.dumps(report, indent=2))
    if args.cert_out and verdict.status == ADMISSIBLE:
        cert = report.get("structural_certificate") or report["certificate"]
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            json.dump(cert, fh, indent=2)
            fh.write("\n")
    return EXIT_CODE[verdict.status]


def _survey_one(item: tuple[int, str], budget: int, cross: bool) -> dict:
    """One survey record; a graph that fails to parse, or whose check
    raises, becomes an ``error`` record so the rest of the survey goes on."""
    lineno, line = item
    try:
        g = parse_graph6(line)
    except GraphFormatError as exc:
        return {"line": lineno, "graph6": line, "verdict": "error",
                "error": str(exc)}
    try:
        return _survey_record(lineno, line, g, budget, cross)
    except Exception as exc:
        import traceback  # imported here: only a failing graph needs it
        print(f"tripm: survey line {lineno}:\n{traceback.format_exc()}",
              file=sys.stderr, end="")
        return {"line": lineno, "graph6": line, "verdict": "error",
                "error": str(exc), "error_type": type(exc).__name__}


def _survey_record(lineno: int, line: str, g: Graph, budget: int,
                   cross: bool) -> dict:
    start = time.perf_counter()
    verdict = check(g, budget)
    record = {
        "line": lineno,
        "graph6": line,
        "verdict": verdict.status,
        "n": g.n,
        "nodes": verdict.nodes,
        "elapsed_ms": round((time.perf_counter() - start) * 1000, 2),
    }
    if verdict.triple is not None:
        record["certificate"] = certificate_to_json(g, verdict.triple)
    if cross and verdict.status != INELIGIBLE:
        direct = find_triple_direct(g, budget, _gate=False).status
        structural = _structural_status(g, budget, verdict)
        record.update(direct=direct, structural=structural,
                      agree={direct, structural} != {ADMISSIBLE, NOT_ADMISSIBLE})
    return record


def _structural_status(g: Graph, budget: int, verdict: Verdict) -> str:
    """The structural route's status under the full budget, reusing check()'s
    verdict when its structural stage decided: that search is deterministic."""
    if verdict.structural is not None or (
            verdict.evidence or {}).get("stage") == "structural":
        return verdict.status
    return structural_check(g, budget, _gate=False).status


def cmd_survey(args) -> int:
    budget = _resolve_budget(args)
    if args.jobs is not None and args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    # blank and '#' comment lines are skipped but keep their line numbers
    lines = map(str.strip, _read_text(args.input).splitlines())
    items = [(i, ln) for i, ln in enumerate(lines, start=1)
             if ln and ln[0] != "#"]
    worker = functools.partial(_survey_one, budget=budget,
                               cross=args.cross_validate)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs > 1 and len(items) > 1:
        # imported here: the pool machinery costs every other command memory
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            _print_survey(pool.map(worker, items, chunksize=8),
                          args.cross_validate)
    else:
        _print_survey(map(worker, items), args.cross_validate)
    return 0


def _print_survey(records, cross: bool) -> None:
    """Print each record as it arrives, in input order, then the summary."""
    counts = {ADMISSIBLE: 0, NOT_ADMISSIBLE: 0, UNKNOWN: 0, INELIGIBLE: 0,
              "error": 0}
    disagreements = 0
    for record in records:
        counts[record["verdict"]] += 1
        if record.get("agree") is False:
            disagreements += 1
        print(json.dumps(record, separators=(",", ":")), flush=True)
    summary = {"summary": dict(counts, total=sum(counts.values()))}
    if cross:
        summary["summary"]["disagreements"] = disagreements
    print(json.dumps(summary, separators=(",", ":")))


def cmd_generate(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    out = []
    for i in range(args.count):
        seed = args.seed + i if args.seed is not None else None
        try:
            g = generate(args.family, n=args.n, k=args.k, seed=seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        out.append(_emit_graph(g, args.format))
    for block in out:
        print(block.rstrip("\n"))
    return 0


def cmd_verify(args) -> int:
    g = _parse_graph(_read_text(args.graph), args.format)
    text = _read_text(args.certificate)
    try:
        obj = json.loads(text)
    except RecursionError:
        raise CertificateFormatError(
            "certificate JSON is nested too deeply") from None
    cert = certificate_from_json(g, obj)
    report = verify_certificate(g, cert)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def cmd_decompose(args) -> int:
    g = _parse_graph(_read_text(args.input), args.format)
    ge = gallai_edmonds(g)
    report = {
        "n": g.n,
        "d": sorted(ge.d),
        "a": sorted(ge.a),
        "c": sorted(ge.c),
        "components": [list(comp) for comp in ge.components],
        "t": list(ge.t),
        "omega": ge.omega,
        "omega1": ge.omega1,
        "properties": verify_decomposition(g, ge),
    }
    print(json.dumps(report, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripm",
        description="Decide and certify the three-perfect-matching "
                    "intersection property on matching covered graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("graph6", "edgelist"), default=None,
                       help="input format (default: sniff)")

    p = sub.add_parser("check", help="decide one graph")
    p.add_argument("input", nargs="?", default="-",
                   help="graph file or - for stdin")
    add_format(p)
    p.add_argument("--budget", type=int, default=None,
                   help=f"search node budget (default {DEFAULT_BUDGET}, "
                        "or TRIPM_BUDGET)")
    p.add_argument("--cert-out", default=None,
                   help="write the certificate JSON here when admissible")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("survey", help="decide a graph6 stream, emit JSONL")
    p.add_argument("input", nargs="?", default="-",
                   help="graph6 stream, one per line, or - for stdin")
    p.add_argument("--budget", type=int, default=None,
                   help="per-graph node budget")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes, at least 1 (default: all cores)")
    p.add_argument("--cross-validate", action="store_true",
                   help="also run direct and structural checks separately "
                        "and record agreement")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("generate", help="emit graphs from a family")
    p.add_argument("family", choices=sorted(NAMED) + sorted(PARAMETRIC))
    p.add_argument("--n", type=int, default=None, help="size parameter")
    p.add_argument("--k", type=int, default=None, help="degree parameter")
    p.add_argument("--seed", type=int, default=None,
                   help="seed; --count increments it per graph")
    p.add_argument("--count", type=int, default=1,
                   help="number of graphs, at least 1")
    p.add_argument("--format", choices=("graph6", "edgelist"), default=None,
                   help="output format (default: graph6 when expressible)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="verify a certificate against a graph")
    p.add_argument("graph", help="graph file or - for stdin")
    p.add_argument("certificate", help="certificate JSON file")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="Gallai-Edmonds decomposition JSON")
    p.add_argument("input", nargs="?", default="-",
                   help="graph file or - for stdin")
    add_format(p)
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, CertificateFormatError, UsageError,
            json.JSONDecodeError) as exc:
        print(f"tripm: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"tripm: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
