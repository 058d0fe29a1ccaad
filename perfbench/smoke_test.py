"""Smoke test of the harness: every workload on a tiny corpus, untraced
and traced, must pass its correctness gate and report every metric named
in BENCHMARK.json.

    python3 perfbench/smoke_test.py

It takes well under a minute; the repository's test suite does not
collect it.
"""

from __future__ import annotations

import sys

import run
import tracing


def check_absent_name() -> None:
    """A wrapped name that the package no longer has is reported absent,
    and its metrics read zero."""
    tp = run.load_tripm()
    del tp.admissible.hamilton_cycle
    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith("tripm")}
    tracer = tracing.Tracer(modules, tp.Budget)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["twofactor.hamilton"], tracer.absent
    assert tracing.aggregate([], 0, 0)["admissible.hamilton.nodes"] == 0


def main() -> int:
    check_absent_name()
    spec = run.load_spec()
    missing = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload, seed=1, seconds=0, trace=trace, tiny=True)
            assert result["correct"] and result["attempted"] >= 1, result
            names = {m["name"] for m in spec[kind]}
            if set(result["metrics"]) != names:
                missing.append((workload, kind, sorted(names ^ set(result["metrics"]))))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name)
    if missing:
        print(f"smoke test FAILED, metric names differ: {missing}")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
