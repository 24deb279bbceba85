"""The package's public names, and the ones the benchmark's checker needs.

``bench/checks.py`` imports from ``respole`` by name.  A trim of ``__all__``
that drops one of those names would make every benchmark item fail its check;
this test reads the checker's imports and fails first instead.
"""

import ast
import importlib
from pathlib import Path

import respole

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def test_every_public_name_resolves_and_appears_once():
    assert len(respole.__all__) == len(set(respole.__all__))
    for name in respole.__all__:
        assert hasattr(respole, name), name


def test_bench_checker_imports_only_public_names():
    tree = ast.parse(CHECKS.read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "respole"
               for alias in node.names]
    assert imports
    for module, name in imports:
        if module == "respole":
            assert name in respole.__all__, name
        else:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
