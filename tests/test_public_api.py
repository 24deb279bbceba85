"""The package's public names, and the ones the benchmark's checker needs.

``bench/checks.py`` imports from ``respole`` by name.  A trim of ``__all__``
that drops one of those names would make every benchmark item fail its check;
this test reads the checker's imports and fails first instead.

Seven names that no program path calls are left out of the package's surface
but stay defined in their modules: the benchmark's tracer wraps some of them
there, ``verify_green_identity`` calls two, and the tests use them as
independent references.
"""

import ast
import importlib
from pathlib import Path

import respole

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"

MODULE_ONLY = {
    "build_h_eff": "feshbach",
    "classify": "poles",
    "finite_lattice_hamiltonian": "oracle",
    "scattering_solve": "scattering",
    "green_function": "scattering",
    "ScatteringSolution": "scattering",
    "GreenPair": "scattering",
}


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
