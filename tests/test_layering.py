"""Module layering: no module of the package imports a sibling's private
(underscore-prefixed) names; what one module needs from another is a
public function."""

import ast
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
