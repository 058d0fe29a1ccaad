"""Module layering: no module of the package imports a sibling's private
(underscore-prefixed) names; what one module needs from another is a
public function.  The package's ``__all__`` is its public surface."""

import ast
import inspect
from pathlib import Path

import tripm

SRC = Path(tripm.__file__).parent


def private_imports(path: Path) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "tripm"):
            hits += [f"{path.name}:{node.lineno} imports {alias.name}"
                     for alias in node.names if alias.name.startswith("_")]
    return hits


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_all_names_exactly_the_public_attributes():
    public = {name for name, value in vars(tripm).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    exported = {name for name in tripm.__all__
                if not inspect.ismodule(getattr(tripm, name))}
    assert exported == public
    assert len(tripm.__all__) == len(set(tripm.__all__))
    for gone in ("extract_skeleton", "lift_triple", "rebuild_skeleton_certificate",
                 "SkeletonCertificate"):
        assert gone not in tripm.__all__
        assert not hasattr(tripm, gone)
