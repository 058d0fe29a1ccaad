"""Benchmark harness for tripm: verified verdicts per second and latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness imports ``tripm`` from
``src/`` of that checkout, builds the workload's corpus from the seed
(``corpora.py``), then drives the program as a closed loop: one process,
one operation at a time, the default node budget.  For the three per-graph
workloads an operation is what ``tripm check`` does for one graph: parse
its text, ``check()``, and ``certificate_to_json`` on each certificate.
For ``survey-xval`` it is one in-process ``tripm survey --cross-validate
--jobs 1`` call on a batch of graphs.

The corpus runs in whole passes until ``--seconds`` have gone by, and for
at least as many passes as the tail percentile needs, so no figure depends
on where a pass was cut.  Every output is checked outside the timed
region: certificates round-trip through JSON byte for byte and verify,
negative verdicts are confirmed by the other route with no budget, and
later passes must reproduce the first exactly.  A wrong answer stops the
run with exit code 1.  An exception counts as a failed operation; its type
is printed with the graph.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics from a traced run (``tracing.py``).  The last line of
standard output is the JSON result; the lines before it are a readable
summary.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpora
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
# set-up runs at least this many times and for at least this long
SETUP_REPEATS = 7
SETUP_SECONDS = 1.5
# Tail latency is read at a fixed percentile per workload; run() adds
# passes until at least TAIL_BEYOND samples lie beyond it.
TAIL_PERCENTILE = {
    "four-regular": 95,
    "cubic-search": 97,
    "large-sparse": 76,
    "survey-xval": 95,
}
TAIL_BEYOND = 10


class WrongAnswer(Exception):
    """An output failed the correctness gate; the message names the graph."""


@dataclass
class Op:
    """One timed operation over ``graphs`` graphs, of which ``failed``
    raised or came back as error records and ``unknown`` ran out of
    budget."""

    seconds: float
    graphs: int = 1
    failed: int = 0
    unknown: int = 0
    nodes: int = 0


def load_tripm():
    """Import tripm and its CLI afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "tripm" or m.startswith("tripm.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tp = importlib.import_module("tripm")
    importlib.import_module("tripm.cli")
    if Path(tp.__file__).resolve().parent != SRC / "tripm":
        raise ImportError(f"tripm was imported from {tp.__file__}, not from {SRC}")
    return tp


def percentile(sorted_xs: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def samples_beyond(n: int, p: float) -> int:
    return n - math.ceil(p / 100 * n)


def parse_entry(tp, entry: corpora.Entry):
    parse = tp.parse_graph6 if entry.fmt == "graph6" else tp.parse_edge_list
    return parse(entry.text)


def check_certificate(tp, g, text: str, where: str) -> None:
    """Certificate JSON must decode, re-encode byte for byte, and verify."""
    cert = tp.certificate_from_json(g, json.loads(text))
    if json.dumps(tp.certificate_to_json(g, cert)) != text:
        raise WrongAnswer(f"{where}: certificate does not round-trip through JSON")
    report = tp.verify_certificate(g, cert)
    if not report["ok"]:
        raise WrongAnswer(f"{where}: certificate fails verification: "
                          f"{report['violations']}")


def confirm_negative(tp, g, stage: str | None, where: str) -> None:
    """A not-admissible verdict must be confirmed by the other route with
    no budget; by both routes when the verdict does not name its own."""
    others = {"direct": [tp.structural_check], "structural": [tp.find_triple_direct]}
    for route in others.get(stage, [tp.structural_check, tp.find_triple_direct]):
        status = route(g, None).status
        if status != tp.NOT_ADMISSIBLE:
            raise WrongAnswer(f"{where}: not-admissible, but {route.__name__} "
                              f"with no budget says {status}")


class Runner:
    """Shared state of a workload: the tracer while one is installed and
    the graphs whose exception was already reported."""

    def __init__(self, tp):
        self.tp = tp
        self.tracer: tracing.Tracer | None = None
        self.errors: set[str] = set()
        self.output_bytes: list[int] = []  # per pass; survey only

    def _start(self, gid: str) -> None:
        """Tag the spans of the operation about to run with its graph id."""
        if self.tracer is not None:
            self.tracer.graph = gid

    def _report_error(self, gid: str, exc: Exception) -> None:
        if gid not in self.errors:
            self.errors.add(gid)
            print(f"error: {gid}: {type(exc).__name__}", file=sys.stderr)


class PerGraph(Runner):
    """One ``tripm check`` operation per corpus entry."""

    def __init__(self, tp, entries: list[corpora.Entry]):
        super().__init__(tp)
        self.entries = entries
        self.first: dict[str, tuple] = {}  # gid -> output of its first run

    @property
    def ops_per_pass(self) -> int:
        return len(self.entries)

    def graphs(self):
        return [parse_entry(self.tp, e) for e in self.entries]

    def run_pass(self) -> list[Op]:
        tp = self.tp
        ops = []
        for entry in self.entries:
            self._start(entry.gid)
            start = time.perf_counter()
            try:
                g = parse_entry(tp, entry)
                verdict = tp.check(g, tp.DEFAULT_BUDGET)
                certs = [tp.certificate_to_json(g, c)
                         for c in (verdict.triple, verdict.structural)
                         if c is not None]
            except Exception as exc:  # a crash is a measured failure
                ops.append(Op(time.perf_counter() - start, failed=1))
                self._report_error(entry.gid, exc)
                continue
            ops.append(Op(time.perf_counter() - start,
                          unknown=int(verdict.status == tp.UNKNOWN),
                          nodes=verdict.nodes))
            out = (verdict.status, verdict.nodes,
                   (verdict.evidence or {}).get("stage"),
                   [json.dumps(c) for c in certs])
            if self.first.setdefault(entry.gid, out) != out:
                raise WrongAnswer(f"{entry.gid}: output differs between passes")
        return ops

    def gate(self) -> None:
        tp = self.tp
        for entry in self.entries:
            if entry.gid not in self.first:
                continue  # it raised; counted as failed
            status, _, stage, texts = self.first[entry.gid]
            if (status == tp.INELIGIBLE) == entry.eligible:
                raise WrongAnswer(
                    f"{entry.gid}: verdict {status}, but the graph is "
                    f"{'' if entry.eligible else 'not '}matching covered "
                    "by construction")
            g = parse_entry(tp, entry)
            if status == tp.ADMISSIBLE:
                for text in texts:
                    check_certificate(tp, g, text, entry.gid)
            elif status == tp.NOT_ADMISSIBLE:
                confirm_negative(tp, g, stage, entry.gid)


class Survey(Runner):
    """One ``tripm survey --cross-validate --jobs 1`` call per batch file."""

    def __init__(self, tp, lines: list[str], batch_dir: Path):
        super().__init__(tp)
        batch_dir.mkdir(parents=True, exist_ok=True)
        self.batches = []
        step = corpora.SURVEY_BATCH
        for i in range(0, len(lines), step):
            path = batch_dir / f"batch-{i // step:03d}.g6"
            path.write_text("\n".join(lines[i:i + step]) + "\n", encoding="utf-8")
            self.batches.append((path, lines[i:i + step]))
        self.first: dict[int, tuple] = {}  # batch -> output of its first run

    @property
    def ops_per_pass(self) -> int:
        return len(self.batches)

    def graphs(self):
        return [self.tp.parse_graph6(ln) for _, lines in self.batches for ln in lines]

    def run_pass(self) -> list[Op]:
        tp = self.tp
        argv = ["--cross-validate", "--jobs", "1", "--budget", str(tp.DEFAULT_BUDGET)]
        ops = []
        nbytes = 0
        for i, (path, lines) in enumerate(self.batches):
            self._start(path.name)
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = tp.cli.main(["survey", str(path)] + argv)
            except Exception as exc:  # the whole batch is lost
                ops.append(Op(time.perf_counter() - start, graphs=len(lines),
                              failed=len(lines)))
                self._report_error(path.name, exc)
                continue
            elapsed = time.perf_counter() - start
            text = buf.getvalue()
            nbytes += len(text.encode())
            *records, summary = [json.loads(ln) for ln in text.splitlines()]
            ops.append(Op(
                elapsed, graphs=len(lines),
                failed=len(lines) - len(records) + sum(
                    r["verdict"] == "error" for r in records),
                unknown=sum(r["verdict"] == tp.UNKNOWN for r in records),
                nodes=sum(r.get("nodes", 0) for r in records)))
            # elapsed_ms is the only field allowed to change between passes
            out = (rc, summary, [{k: v for k, v in r.items() if k != "elapsed_ms"}
                                 for r in records])
            if self.first.setdefault(i, out) != out:
                raise WrongAnswer(f"{path.name}: output differs between passes")
        self.output_bytes.append(nbytes)
        return ops

    def gate(self) -> None:
        tp = self.tp
        for i, (path, lines) in enumerate(self.batches):
            if i not in self.first:
                continue  # it raised; counted as failed
            rc, summary, records = self.first[i]
            summary = summary["summary"]
            if rc != 0 or summary["total"] != len(lines):
                raise WrongAnswer(f"{path.name}: survey exit {rc}, "
                                  f"{summary['total']} of {len(lines)} graphs")
            if summary.get("disagreements") != 0:
                bad = [r["graph6"] for r in records if r.get("agree") is False]
                raise WrongAnswer(f"{path.name}: the routes disagree on {bad}")
            for r in records:
                where = f"{path.name} line {r['line']} ({r['graph6']})"
                if r["graph6"] != lines[r["line"] - 1]:
                    raise WrongAnswer(f"{where}: record names the wrong graph")
                g = tp.parse_graph6(r["graph6"])
                if r["verdict"] == tp.ADMISSIBLE:
                    check_certificate(tp, g, json.dumps(r["certificate"]), where)
                elif r["verdict"] == tp.NOT_ADMISSIBLE:
                    confirm_negative(tp, g, None, where)
                elif r["verdict"] == tp.INELIGIBLE:
                    raise WrongAnswer(f"{where}: ineligible, but the graph is "
                                      "matching covered by construction")


def build(tp, workload: str, seed: int, tiny: bool) -> Runner:
    if workload == "survey-xval":
        return Survey(tp, corpora.survey_graphs(tp, seed, tiny),
                      WORK / f"survey-seed{seed}")
    return PerGraph(tp, corpora.PER_GRAPH[workload](tp, seed, tiny))


def setup(workload: str, seed: int, tiny: bool):
    """Import tripm and build the corpus repeatedly; returns the last
    set-up and the median set-up time."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        tp = load_tripm()
        runner = build(tp, workload, seed, tiny)
        times.append(time.perf_counter() - start)
    return runner, statistics.median(times)


def measure(runner: Runner, seconds: float, min_passes: int) -> list[list[Op]]:
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    return passes


def isolated_gallai_ms(runner: Runner) -> float:
    """Mean time of gallai_edmonds(G - M1) over the corpus's 4-regular
    simple graphs with an even vertex count, M1 a maximum matching; 0 when
    there are none."""
    tp = runner.tp
    times = []
    for g in runner.graphs():
        if g.n % 2 or not g.is_regular(4) or not g.is_simple():
            continue
        sub, _ = g.spanning_subgraph(set(range(g.m)) - tp.max_matching(g))
        start = time.perf_counter()
        tp.gallai_edmonds(sub)
        times.append(time.perf_counter() - start)
    return statistics.fmean(times) * 1000 if times else 0.0


def pass_seconds(ops: list[Op]) -> float:
    return sum(op.seconds for op in ops)


def verified_per_s(ops: list[Op]) -> float:
    """Verified verdicts per second; failed graphs add time, not count."""
    return sum(op.graphs - op.failed - op.unknown for op in ops) / pass_seconds(ops)


def end_to_end(workload: str, passes: list[list[Op]], setup_s: float) -> dict:
    ops = [op for p in passes for op in p]
    attempted = sum(op.graphs for op in ops)
    failed = sum(op.failed for op in ops)
    unknown = sum(op.unknown for op in ops)
    lat = sorted(op.seconds * 1000 for op in ops)
    return {
        # median over passes, so that a burst of load on the machine
        # skews one pass rather than the figure
        "graphs_per_s": statistics.median(verified_per_s(p) for p in passes),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": percentile(lat, TAIL_PERCENTILE[workload]),
        "ok_frac": 1 - failed / attempted,
        "decided_frac": 1 - unknown / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(runner: Runner, seconds: float,
              spans_path: Path) -> tuple[dict, list[list[Op]], list[str]]:
    """Untraced passes for half the time, then traced passes for the rest;
    layer figures are medians over the traced passes."""
    plain = measure(runner, seconds / 2, 1)
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "tripm" or name.startswith("tripm.")}
    tracer = tracing.Tracer(modules, runner.tp.Budget)
    runner.tracer = tracer
    runner.output_bytes.clear()
    tracer.install()
    traced, bounds = [], []
    start = time.perf_counter()
    try:
        while not traced or time.perf_counter() - start < seconds / 2:
            lo = len(tracer.spans)
            traced.append(runner.run_pass())
            bounds.append((lo, len(tracer.spans)))
    finally:
        tracer.uninstall()
        runner.tracer = None
    per_pass = [tracing.aggregate(tracer.spans, lo, hi) for lo, hi in bounds]
    keys = set().union(*per_pass)
    layers = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in keys}
    layers["admissible.nodes_total"] = sum(op.nodes for op in traced[0])
    layers["cli.output_bytes"] = (statistics.median(runner.output_bytes)
                                  if runner.output_bytes else 0)
    layers["gallai.isolated_ms"] = isolated_gallai_ms(runner)
    plain_ms = statistics.median(pass_seconds(p) for p in plain) * 1000
    layers["trace.pass_ms"] = plain_ms
    layers["trace.overhead_ms"] = (
        statistics.median(pass_seconds(p) for p in traced) * 1000 - plain_ms)
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return layers, plain + traced, tracer.absent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """Set up, measure, check, print the summary; returns the result object."""
    spec = load_spec()
    runner, setup_s = setup(workload, seed, tiny)
    p = TAIL_PERCENTILE[workload]
    if trace:
        values, passes, absent = per_layer(
            runner, seconds, WORK / f"spans-{workload}-seed{seed}.jsonl")
        wanted = spec["per_layer"]
    else:
        min_passes = 1
        while samples_beyond(min_passes * runner.ops_per_pass, p) < TAIL_BEYOND:
            min_passes += 1
        passes = measure(runner, seconds, min_passes)
        values = end_to_end(workload, passes, setup_s)
        absent = []
        wanted = spec["end_to_end"]
    runner.gate()

    ops = [op for ps in passes for op in ps]
    attempted = sum(op.graphs for op in ops)
    failed = sum(op.failed for op in ops)
    unknown = sum(op.unknown for op in ops)
    print(f"{workload} seed {seed}: {len(passes)} passes x {runner.ops_per_pass} "
          f"operations = {len(ops)} samples, {attempted} graphs"
          f"{' (traced run)' if trace else ''}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = ""
        if m["name"] == "latency_tail_ms":
            note = f"  (p{p}, {samples_beyond(len(ops), p)} samples beyond)"
        print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}{note}")
    print(f"  {'error_frac':<40} {failed / attempted:>14.6g}  ({failed} of {attempted})")
    print(f"  {'unknown_frac':<40} {unknown / attempted:>14.6g}  ({unknown} of {attempted})")
    print(f"  {'nodes_total':<40} {sum(op.nodes for op in passes[0]):>14d}  per pass")
    for layer in absent:
        print(f"  absent: {layer} (no wrapped name found)")
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tripm").is_dir():
        print(f"perfbench: no tripm sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WrongAnswer as exc:
        print(f"perfbench: WRONG ANSWER: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
