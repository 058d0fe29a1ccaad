"""The benchmark's tracer wraps package functions by name.  A renamed
function or a dropped import would silently zero its per-layer figures,
so every name it wraps must still resolve, except for three layers whose
one target the package no longer has: ``twofactor.hamilton`` (no Hamilton
probe), and ``gallai`` and ``graph.k_connected``, which the tracer looks up
in ``tripm.admissible``; its 4-regular stage is the disjoint-pair test and
calls neither the Gallai-Edmonds decomposition nor 3-connectivity."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_name():
    tracing = load_tracing()
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "tripm" or name.startswith("tripm.")}
    for name in saved:
        del sys.modules[name]
    try:
        tp = importlib.import_module("tripm")
        importlib.import_module("tripm.cli")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "tripm" or name.startswith("tripm.")}
        tracer = tracing.Tracer(modules, tp.Budget)
        try:
            tracer.install()
            assert set(tracer.absent) == {
                "twofactor.hamilton", "gallai", "graph.k_connected"}, tracer.absent
        finally:
            tracer.uninstall()
    finally:
        for name in [n for n in sys.modules if n == "tripm" or n.startswith("tripm.")]:
            del sys.modules[name]
        sys.modules.update(saved)
