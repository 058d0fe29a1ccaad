"""Spans around the calls into each layer of ``tripm``, recorded from
outside the package.

``Tracer.install`` rebinds a layer's public functions in the modules that
import them (``tripm.admissible.is_k_connected`` and so on) to wrappers
that record a span per call: name, start, end, parent span and the id of
the graph (or survey batch) being checked, plus search nodes where the
call receives a ``Budget`` and a flag for calls whose result says whether
they succeeded.  ``uninstall`` restores
the original bindings.  A name that a later version of the package no
longer has is reported as absent, and its metrics read zero.

Spans stay in memory until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# layer -> (kind, [(module, attribute), ...]).  Kinds: "plain" records a
# span; "nodes" adds the budget nodes the call charged; "color" and "stage"
# add whether the call succeeded; "gen" records one span per resumption of
# a generator and counts what it yields.
LAYERS = {
    "graph.k_connected": ("plain", [("tripm.admissible", "is_k_connected")]),
    "graph.edge_ids_between": ("plain", [("tripm.graph", "Graph.edge_ids_between")]),
    "matching.gate": ("plain", [("tripm.admissible", "is_matching_covered")]),
    "matching.forced_pm": ("plain", [
        ("tripm.admissible", "perfect_matching_with_forced"),
        ("tripm.matching", "perfect_matching_with_forced")]),
    "matching.max_matching": ("plain", [
        ("tripm.admissible", "max_matching"),
        ("tripm.matching", "max_matching_size"),
        ("tripm.gallai", "max_matching_size")]),
    "matching.enum": ("gen", [("tripm.admissible", "enumerate_perfect_matchings")]),
    "gallai": ("plain", [("tripm.admissible", "gallai_edmonds")]),
    "twofactor.hamilton": ("stage", [("tripm.admissible", "hamilton_cycle")]),
    "twofactor.even2f": ("nodes", [("tripm.admissible", "find_even_2factor")]),
    "skeleton.color": ("color", [("tripm.admissible", "color_cubic_3")]),
    "skeleton.lift": ("plain", [("tripm.admissible", "triple_from_structural")]),
    "admissible.fastpath": ("stage", [("tripm.admissible", "_fastpath_from_m1")]),
    "admissible.structural": ("stage", [("tripm.admissible", "structural_check")]),
    "admissible.direct": ("stage", [("tripm.admissible", "find_triple_direct")]),
    "admissible.check": ("plain", [("tripm", "check"), ("tripm.cli", "check")]),
    "certificates.encode": ("plain", [
        ("tripm", "certificate_to_json"), ("tripm.cli", "certificate_to_json")]),
    "certificates.verify_triple": ("plain", [
        ("tripm.admissible", "verify_triple"), ("tripm.twofactor", "verify_triple"),
        ("tripm.skeleton", "verify_triple"), ("tripm.certificates", "verify_triple")]),
    "formats.parse": ("plain", [
        ("tripm", "parse_graph6"), ("tripm", "parse_edge_list"),
        ("tripm.cli", "parse_graph6")]),
}

# check() stages: the Hamilton probe is the hamilton_cycle call itself
STAGES = {
    "fastpath": "admissible.fastpath",
    "hamilton": "twofactor.hamilton",
    "structural": "admissible.structural",
    "direct": "admissible.direct",
}
STAGE_SPANS = frozenset(STAGES.values())

# span record fields
NAME, START, END, PARENT, GRAPH, NODES, OK = range(7)


def _succeeded(name: str, result) -> bool:
    if name == "skeleton.color":
        return result is not None
    if name == "twofactor.hamilton":
        return result is not None and len(result) % 2 == 0
    return result.definitive


class Tracer:
    def __init__(self, modules: dict, budget_type: type):
        self.modules = modules  # module name -> module object
        self.budget_type = budget_type
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.graph = ""  # id of the graph being checked
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, (kind, targets) in LAYERS.items():
            found = 0
            for mod_name, attr in targets:
                owner = self.modules.get(mod_name)
                if owner is not None and "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, kind, fn))
                found += 1
            if not found:
                self.absent.append(layer)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _open(self, name: str) -> list:
        stack = self.stack
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
               self.graph, 0, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        self.stack.pop()
        rec[END] = time.perf_counter()

    def _wrap(self, name: str, kind: str, fn):
        tracer = self
        if kind == "gen":
            def traced_gen(gen):
                while True:
                    rec = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(rec)
                    rec[OK] = True
                    yield item

            def wrapper(*args, **kwargs):
                return traced_gen(fn(*args, **kwargs))
            return wrapper

        def wrapper(*args, **kwargs):
            budget = None
            if kind in ("nodes", "stage"):
                budget = next((a for a in args
                               if isinstance(a, tracer.budget_type)), None)
            before = budget.used if budget is not None else 0
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                if budget is not None:
                    rec[NODES] = budget.used - before
            if kind in ("color", "stage"):
                rec[OK] = _succeeded(name, result)
            return result
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


def aggregate(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer totals over spans[lo:hi] (one pass of the corpus).

    Self time is a span's duration minus the durations of its children;
    stage nodes likewise exclude the nodes of stages nested inside them
    (the fast path falls back to the direct search on the same budget).
    """
    child_time = defaultdict(float)
    child_nodes = defaultdict(int)
    for i in range(lo, hi):
        rec = spans[i]
        parent = rec[PARENT]
        if parent >= lo:
            child_time[parent] += rec[END] - rec[START]
            if rec[NAME] in STAGE_SPANS and spans[parent][NAME] in STAGE_SPANS:
                child_nodes[parent] += rec[NODES]
    out: dict[str, float] = defaultdict(float)
    for layer in LAYERS:  # a layer that never ran still reports zeros
        for field in ("calls", "self_ms", "nodes"):
            out[f"{layer}.{field}"] = 0
    out["matching.enum.yielded"] = 0
    color_ok = 0
    decider: dict[int, str] = {}  # check() span -> stage that decided it
    for i in range(lo, hi):
        name, start, end, parent, _, nodes, ok = spans[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_ms"] += (end - start - child_time[i]) * 1000
        out[f"{name}.nodes"] += nodes - child_nodes[i]
        if name == "matching.enum" and ok:
            out["matching.enum.yielded"] += 1
        if name == "skeleton.color" and ok:
            color_ok += 1
        if name in STAGE_SPANS and ok:
            check_span = _enclosing_check(spans, parent, lo)
            if check_span is not None:
                decider[check_span] = name
    calls = out["skeleton.color.calls"]
    out["skeleton.color.success_ratio"] = color_ok / calls if calls else 0.0
    for stage, span in STAGES.items():
        out[f"admissible.{stage}.nodes"] = out[f"{span}.nodes"]
        out[f"admissible.{stage}.self_ms"] = out[f"{span}.self_ms"]
        out[f"admissible.decided_by.{stage}"] = sum(
            1 for s in decider.values() if s == span)
    return out


def _enclosing_check(spans, parent: int, lo: int) -> int | None:
    """The check() span a stage runs in directly, or None for a stage
    nested in another stage or called outside check()."""
    while parent >= lo:
        name = spans[parent][NAME]
        if name == "admissible.check":
            return parent
        if name in STAGE_SPANS:
            return None
        parent = spans[parent][PARENT]
    return None
