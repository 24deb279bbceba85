"""The package's public names, and the ones the benchmark needs.

``bench/checks.py`` imports from ``respole`` by name.  A trim of ``__all__``
that drops one of those names would make every benchmark item fail its check;
this test reads the checker's imports and fails first instead.

Four names that no program path calls are left out of the package's surface
but stay defined in their modules, because the benchmark's tracer wraps each
of them there by module and name; the tests also use them as independent
references.  Once the tracer no longer lists a name, it can go.
"""

import ast
import importlib
from pathlib import Path

import respole

BENCH = Path(__file__).resolve().parents[1] / "bench"
CHECKS = BENCH / "checks.py"
TRACER = BENCH / "tracer.py"

MODULE_ONLY = {
    "build_h_eff": "feshbach",
    "classify": "poles",
    "finite_lattice_hamiltonian": "oracle",
    "scattering_solve": "scattering",
}


def traced_pairs() -> set:
    """The (module, function) pairs of the tracer's ``TRACED``, read from its
    source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("bench/tracer.py defines no TRACED")


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


def test_public_surface_leaves_the_module_only_names_in_their_modules():
    assert len(respole.__all__) == 32
    assert not MODULE_ONLY.keys() & set(respole.__all__)
    for name, module in MODULE_ONLY.items():
        assert not hasattr(respole, name), name
        assert hasattr(importlib.import_module(f"respole.{module}"), name), f"{module}.{name}"


def test_every_module_only_name_is_traced():
    # a module-only name that the tracer does not wrap has nothing left
    # keeping it, and should be deleted
    traced = traced_pairs()
    for name, module in MODULE_ONLY.items():
        assert (module, name) in traced, f"{module}.{name}"
