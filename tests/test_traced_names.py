"""The benchmark's tracer wraps package functions by (module, name).

It cannot yet skip a name the package no longer defines, so deleting or
renaming a traced function would crash a traced benchmark run.  This test
reads the list and fails first instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"respole.{module}"), name, None))
