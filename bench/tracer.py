"""Span tracer that wraps respole's layer functions from outside the package.

``Tracer.install()`` replaces each traced function at every module of the
package that binds it (``respole.siegert.solve_poles`` and
``respole.cli.solve_poles`` alike), so calls are caught whichever name they go
through.  Each call records a span: name, start, end, parent span and item id.
Spans stay in flat in-memory arrays until ``write`` saves them at the end of
the run.  ``uninstall()`` puts the original functions back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import time
from array import array

# (module, function) pairs wrapped as spans.  _format.format_float is left out
# on purpose: it runs millions of times and its cost shows as the self time of
# the callers that format (cmd_sweep, sweep_rows_csv, dumps).
TRACED = (
    ("cli", "main"),
    ("cli", "cmd_sweep"),
    ("_format", "dumps"),
    ("model", "device_from_json"),
    ("model", "p_space_hamiltonian"),
    ("siegert", "solve_poles"),
    ("siegert", "secular_polynomial"),
    ("siegert", "poly_roots"),
    ("poles", "classify"),
    ("feshbach", "feshbach_pole_search"),
    ("feshbach", "default_seeds"),
    ("feshbach", "build_h_eff"),
    ("scattering", "scattering_solve"),
    ("scattering", "transmission_sweep"),
    ("scattering", "sweep_rows_csv"),
    ("oracle", "build_report"),
    ("oracle", "bound_energies_from_truncation"),
    ("oracle", "finite_lattice_hamiltonian"),
    ("oracle", "pole_residual_report"),
    ("oracle", "pole_set_distance"),
)

# dumps recurses through its own module's binding; wrapping that binding too
# would turn every nested value into a span, so its recursion stays inside
# the outer span.
SKIP_BINDINGS = {("_format", "dumps"): ("respole._format",)}

# Functions whose results feed counters: span name -> counter -> size of result.
RESULT_COUNTERS = {
    "feshbach.default_seeds": ("feshbach.seeds_attempted", len),
    "feshbach.feshbach_pole_search": ("feshbach.poles_returned", len),
}


def _package_modules(package: str = "respole") -> list:
    pkg = importlib.import_module(package)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{package}.{info.name}"))
    return mods


class Tracer:
    """Collects spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = [f"{m}.{f}" for m, f in TRACED]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {}
        self.item = -1
        self._stack: list[int] = []
        self._patches = self._find_patches()

    def _wrap(self, fn, span_id: int):
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counted = RESULT_COUNTERS.get(self.names[span_id])
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counted is not None:
                key, size = counted
                tracer.counters[key] = tracer.counters.get(key, 0) + size(result)
            return result

        return traced

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        modules = _package_modules()
        patches = []
        for span_id, (mod_name, fn_name) in enumerate(TRACED):
            owner = importlib.import_module(f"respole.{mod_name}")
            original = getattr(owner, fn_name)
            wrapper = self._wrap(original, span_id)
            skip = SKIP_BINDINGS.get((mod_name, fn_name), ())
            for mod in modules:
                if mod.__name__ not in skip and getattr(mod, fn_name, None) is original:
                    patches.append((mod, fn_name, original, wrapper))
        return patches

    def install(self) -> None:
        for mod, fn_name, _, wrapper in self._patches:
            setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original, _ in self._patches:
            setattr(mod, fn_name, original)

    def span_count(self) -> int:
        return len(self.span_name)

    def totals(self, first_span: int = 0) -> dict[str, dict]:
        """Calls and self time (ms) per traced name over the spans from
        ``first_span`` on.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous and nest, so children never overlap.
        """
        last = len(self.span_name)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        child = {}
        for idx in range(last - 1, first_span - 1, -1):
            dur = self.span_end[idx] - self.span_start[idx]
            name = self.span_name[idx]
            calls[name] += 1
            self_s[name] += dur - child.pop(idx, 0.0)
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + dur
        return {
            n: {"calls": calls[i], "self_ms": self_s[i] * 1e3}
            for i, n in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Save every span as gzipped CSV: name, start_s, end_s, parent, item."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,item\n")
            for idx in range(len(self.span_name)):
                fh.write(
                    f"{idx},{self.names[self.span_name[idx]]},{self.span_start[idx]!r},"
                    f"{self.span_end[idx]!r},{self.span_parent[idx]},{self.span_item[idx]}\n"
                )
