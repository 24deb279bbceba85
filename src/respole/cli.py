"""Command-line front end.

Subcommands: poles, transmission, sweep, wavefunction, oracle, equivalence.
Configuration layering: command-line flags override a --config JSON file,
which overrides the built-in defaults (t=1, t1=1, eps_d=0, sites=200).
Exit codes: 0 success, 2 validation error or an input too large to
allocate, 3 numerical failure.

``main(argv)`` may be called any number of times in one process. The parser
is built once, at import, and each call finds its command function in this
module by name, so a ``cmd_*`` rebound after import is the one that runs.

Floats print as ``'%.17g'`` does: ``poles`` and ``oracle`` fill fixed
templates, whose JSON is byte for byte what ``_format.dumps`` writes,
``wavefunction`` formats value by value, and the rows of ``sweep`` and
``transmission`` go through the array formatter ``_format.csv_rows``, which
also writes the class name that ends each ``sweep`` row.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from ._format import csv_rows, format_float
from .errors import NumericalError, ParameterError
from .feshbach import feshbach_pole_search
from .model import (DeviceSpec, _as_index, _as_real, _json_index, device_from_json, make_tdot,
                    tdot_params)
from .oracle import build_report, pole_set_distance
from .poles import _CODE_LABELS
from .scattering import sweep_rows_csv, transmission_sweep
from .siegert import solve_poles, solve_tdot_sweep
from .wavefunction import evaluate, wavefunction_csv

DEFAULTS = {"t": 1.0, "t1": 1.0, "eps_d": 0.0, "sites": 200}
MODEL_KEYS = ("t", "t1", "eps_d")

POLE_COLUMNS = (
    "z_re", "z_im", "k_re", "k_im", "E_re", "E_im",
    "class", "amp0_re", "amp0_im", "ampd_re", "ampd_im",
)
# %.17g renders exactly as format_float does
POLE_ROW = ",".join(["%.17g"] * 6 + ["%s"] + ["%.17g"] * 4)


def _pole_row(p) -> tuple:
    """The values of one pole in ``POLE_COLUMNS`` order."""
    z, k, E, a0, ad = p.z, p.k, p.E, p.amp0, p.amp_d
    return (z.real, z.imag, k.real, k.imag, E.real, E.imag, p.pole_class.value,
            a0.real, a0.imag, ad.real, ad.imag)


def _json_record(pad: str) -> str:
    """``dumps``' layout of one pole as an object keyed by ``POLE_COLUMNS``,
    as an item of a list indented by ``pad``."""
    fields = ",\n".join(
        f'{pad}    "{c}": ' + ('"%s"' if c == "class" else "%.17g") for c in POLE_COLUMNS
    )
    return f"{pad}  {{\n{fields}\n{pad}  }}"


# The JSON item of one pole, by the indent of its list: 0 for the bare list of
# one method, 2 for the lists inside the object of both.  Class strings are
# enum values with no quote, backslash or newline, so "%s" needs no escaping.
POLE_JSON_RECORD = {indent: _json_record(" " * indent) for indent in (0, 2)}
POLE_JSON_BOTH = '{\n  "siegert": %s,\n  "feshbach": %s,\n  "max_dz": %s\n}\n'
# The oracle report as ``dumps`` lays it out: the item of one pole in the
# "poles" list, and the whole object, whose two energy lists hold one value
# per line.  Class strings need no escaping, as in POLE_JSON_RECORD.
ORACLE_JSON_POLE = ('    {\n      "z": [\n        %.17g,\n        %.17g\n      ],\n'
                    '      "residual": %.17g,\n      "lattice_row_dev": %.17g,\n'
                    '      "class": "%s"\n    }')
ORACLE_JSON = ('{\n  "poles": %s,\n  "bound_compare": {\n    "siegert": %s,\n'
               '    "lattice": %s,\n    "max_abs_diff": %s\n  }\n}\n')
# the sweep's columns: the (rows, 7) float table of solve_tdot_sweep and the
# class name of each row's code, both written by csv_rows
POLE_SWEEP_HEADER = "param,z_re,z_im,k_re,k_im,E_re,E_im,class"
# numpy refuses, with a ValueError, an array whose size in bytes overflows its
# index type; the grids hold at most complex values, so a longer grid is an
# input too large to allocate
MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(complex).itemsize


def _check_grid(points: int) -> None:
    """MemoryError (exit 2) for a grid longer than any array numpy can hold."""
    if points > MAX_GRID_POINTS:
        raise MemoryError(f"a grid of {points} points is larger than any array")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t", type=float, default=None, help="lead hopping (> 0)")
    sub.add_argument("--t1", type=float, default=None, help="dot-lead coupling")
    sub.add_argument("--eps-d", type=float, default=None, dest="eps_d",
                     help="dot onsite potential")
    sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("--out", default=None, help="write output to this path")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file: {exc}")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config file is not valid UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, cfg: dict, key: str, cast=float):
    """flag > config > default; a config value is checked by ``_as_real``, or
    where ``cast`` is int by ``_as_index`` after ``_json_index``."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key not in cfg:
        return DEFAULTS.get(key)
    what = f"config value for {key}"
    return _as_index(_json_index(cfg[key]), what) if cast is int else _as_real(cfg[key], what)


def _resolve_device(args: argparse.Namespace, cfg: dict) -> DeviceSpec:
    """The config's device, or a T-dot from flags over the config's T-dot
    (its ``model`` or its top-level t, t1, eps_d) over the defaults."""
    base = cfg
    if cfg.get("model") is not None:
        spec = device_from_json(cfg["model"])
        if all(getattr(args, k) is None for k in MODEL_KEYS):
            return spec
        params = tdot_params(spec)
        if params is None:
            raise ParameterError(
                "model flags cannot override a generalized device from --config"
            )
        base = dict(zip(MODEL_KEYS, params))
    return make_tdot(*(_resolve(args, base, k) for k in MODEL_KEYS))


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output file: {exc}")


def _pole_text(poles) -> str:
    header = f"{'z':>42} {'k':>42} {'E':>42} {'class':>13}"
    lines = [header]
    for p in poles:
        lines.append(f"{str(p.z):>42} {str(p.k):>42} {str(p.E):>42} {p.pole_class.value:>13}")
    return "\n".join(lines) + "\n"


def _pole_csv(poles) -> str:
    rows = [POLE_ROW % _pole_row(p) for p in poles]
    return "\n".join([",".join(POLE_COLUMNS), *rows]) + "\n"


def _json_list(items: list[str], indent: int) -> str:
    """A list of formatted items, each already indented by ``indent`` + 2,
    exactly as ``dumps`` writes it at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def _pole_json(poles, indent: int) -> str:
    """The list of pole records exactly as ``dumps`` writes it at ``indent``."""
    record = POLE_JSON_RECORD[indent]
    return _json_list([record % _pole_row(p) for p in poles], indent)


def _oracle_json(report: dict) -> str:
    """``dumps(report) + "\\n"`` of a ``build_report`` report, from
    ``ORACLE_JSON``."""
    poles = [ORACLE_JSON_POLE % (*p["z"], p["residual"], p["lattice_row_dev"], p["class"])
             for p in report["poles"]]
    bound = report["bound_compare"]
    energies = [_json_list(["      %.17g" % e for e in bound[side]], 4)
                for side in ("siegert", "lattice")]
    diff = bound["max_abs_diff"]
    return ORACLE_JSON % (_json_list(poles, 2), *energies,
                          "null" if diff is None else format_float(diff))


def cmd_poles(args: argparse.Namespace, cfg: dict, spec: DeviceSpec) -> None:
    # built per call, so a rebound module name (a test's fake, a tracer) is used
    routes = {"siegert": solve_poles, "feshbach": feshbach_pole_search}
    methods = list(routes) if args.method == "both" else [args.method]
    sets = {m: routes[m](spec) for m in methods}
    poles = sets[methods[0]]
    dz = pole_set_distance(*sets.values()) if len(sets) == 2 else None
    if args.format == "json":
        if dz is None:
            text = _pole_json(poles, 0) + "\n"
        else:
            text = POLE_JSON_BOTH % (_pole_json(sets["siegert"], 2),
                                     _pole_json(sets["feshbach"], 2), format_float(dz))
    elif args.format == "csv":
        text = _pole_csv(poles)
        if dz is not None:
            text += f"# max_dz = {format_float(dz)}\n"
    else:
        text = _pole_text(poles)
        if dz is not None:
            text += f"max |dz| between methods = {format_float(dz)}\n"
    _emit(text, args.out)


def cmd_transmission(args: argparse.Namespace, cfg: dict, spec: DeviceSpec) -> None:
    k_min = _resolve(args, cfg, "kmin")
    k_max = _resolve(args, cfg, "kmax")
    steps = _resolve(args, cfg, "steps", cast=int)
    if k_min is None or k_max is None or steps is None:
        raise ParameterError("transmission needs --kmin, --kmax and --steps")
    _check_grid(steps)
    _emit(sweep_rows_csv(transmission_sweep(spec, k_min, k_max, steps)), args.out)


def _multiset(counts) -> str:
    """A sweep point's classes, sorted by name and joined by "+", from its
    row count per class of ``_CODE_LABELS``."""
    return "+".join(sorted(name for name, n in zip(_CODE_LABELS, counts.tolist())
                           for _ in range(n)))


def cmd_sweep(args: argparse.Namespace, cfg: dict, spec: DeviceSpec) -> None:
    if args.steps < 2:
        raise ParameterError(f"sweep needs at least 2 steps, got {args.steps}")
    _check_grid(args.steps)
    for flag, value in (("--from", args.start), ("--to", args.stop),
                        ("range --to minus --from", args.stop - args.start)):
        if not math.isfinite(value):
            raise ParameterError(f"sweep {flag} must be finite, got {value}")
    # start + (stop - start) * i / (steps - 1) in float arithmetic for each i;
    # an overflow gives inf, which the solver rejects
    with np.errstate(over="ignore"):
        values = (args.start + (args.stop - args.start) * np.arange(args.steps)
                  / (args.steps - 1))
    table, codes, counts = solve_tdot_sweep(spec, args.param.replace("-", "_"), values)
    changes = [
        f"# classification change at {args.param}={format_float(values[i + 1])}: "
        f"{_multiset(counts[i])} -> {_multiset(counts[i + 1])}"
        for i in np.flatnonzero((counts[1:] != counts[:-1]).any(axis=1)).tolist()
    ]
    # csv_rows joins header, rows and changes at once, so a long sweep is copied once
    _emit(csv_rows(table, codes, _CODE_LABELS, header=POLE_SWEEP_HEADER + "\n",
                   trailer="\n".join(changes or ["# no classification changes"]) + "\n"),
          args.out)


def cmd_wavefunction(args: argparse.Namespace, cfg: dict, spec: DeviceSpec) -> None:
    poles = solve_poles(spec)
    if not 0 <= args.pole_index < len(poles):
        raise ParameterError(
            f"pole index {args.pole_index} out of range for a {len(poles)}-pole model"
        )
    if args.xmax < 1:
        raise ParameterError(f"--xmax must be >= 1, got {args.xmax}")
    _check_grid(2 * args.xmax + 1)
    samples = evaluate(poles[args.pole_index], args.xmax)
    _emit(wavefunction_csv(samples), args.out)


def cmd_oracle(args: argparse.Namespace, cfg: dict, spec: DeviceSpec) -> None:
    sites = _resolve(args, cfg, "sites", cast=int)
    # the oracle never builds the lattice, but one whose even sector (sites + n
    # rows) no array could hold as a matrix stays an input error, as documented
    _check_grid(max(sites + spec.n_sites, 0) ** 2)
    _emit(_oracle_json(build_report(spec, sites)), args.out)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent form, such
    as ``--eps-d -1e-05``, as the flag's value rather than as an option;
    argparse's own pattern has no exponent.  Subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="respole",
        description="S-matrix poles and scattering observables of 1D tight-binding "
                    "open quantum systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("poles", help="find all S-matrix poles")
    _add_model_flags(sp)
    sp.add_argument("--method", choices=("siegert", "feshbach", "both"),
                    default="siegert")
    sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sp.set_defaults(handler="cmd_poles")

    se = subs.add_parser("equivalence", help="alias of poles --method both")
    _add_model_flags(se)
    se.add_argument("--format", choices=("table", "csv", "json"), default="table")
    se.set_defaults(handler="cmd_poles", method="both")

    st = subs.add_parser("transmission", help="T(k), R(k) sweep as CSV")
    _add_model_flags(st)
    st.add_argument("--kmin", type=float, default=None)
    st.add_argument("--kmax", type=float, default=None)
    st.add_argument("--steps", type=int, default=None)
    st.set_defaults(handler="cmd_transmission")

    sw = subs.add_parser("sweep", help="pole trajectories over a model parameter")
    _add_model_flags(sw)
    sw.add_argument("--param", choices=("t1", "eps-d"), required=True)
    sw.add_argument("--from", dest="start", type=float, required=True)
    sw.add_argument("--to", dest="stop", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.set_defaults(handler="cmd_sweep")

    wf = subs.add_parser("wavefunction", help="sample one pole's wavefunction")
    _add_model_flags(wf)
    wf.add_argument("--pole-index", dest="pole_index", type=int, required=True)
    wf.add_argument("--xmax", type=int, default=20)
    wf.set_defaults(handler="cmd_wavefunction")

    so = subs.add_parser("oracle", help="truncated-lattice audit report (JSON)")
    _add_model_flags(so)
    so.add_argument("--sites", type=int, default=None,
                    help="lead sites per side of the hard-wall lattice")
    so.set_defaults(handler="cmd_oracle")

    return parser


# parse_args keeps no state between calls, and the help formatter reads the
# terminal width each time it formats, so one parser serves every call
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args.config)
        globals()[args.handler](args, cfg, _resolve_device(args, cfg))
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
