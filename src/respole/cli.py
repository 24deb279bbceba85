"""Command-line front end.

Subcommands: poles, transmission, sweep, wavefunction, oracle, equivalence.
Configuration layering: command-line flags override a --config JSON file,
which overrides the built-in defaults (t=1, t1=1, eps_d=0, sites=200).
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from ._format import dumps, format_float
from .errors import NumericalError, ParameterError
from .feshbach import feshbach_pole_search
from .model import DeviceSpec, device_from_json, json_number, make_tdot, tdot_params
from .oracle import build_report, pole_set_distance
from .poles import pole_to_record
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
POLE_SWEEP_HEADER = "param,z_re,z_im,k_re,k_im,E_re,E_im,class"
POLE_SWEEP_ROW = ",".join(["%.17g"] * 7 + ["%s"])


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
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, cfg: dict, key: str, cast=float):
    """flag > config > default; a config value that ``cast`` rejects, a
    boolean, or a non-integral number where ``cast`` is int is a
    ParameterError, as the matching flag would be."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key not in cfg:
        return DEFAULTS.get(key)
    return json_number(cfg[key], cast, f"config value for {key}")


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
        base = vars(params)
    return make_tdot(*(_resolve(args, base, k) for k in MODEL_KEYS))


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _pole_table(poles) -> str:
    header = f"{'z':>42} {'k':>42} {'E':>42} {'class':>13}"
    lines = [header]
    for p in poles:
        lines.append(f"{str(p.z):>42} {str(p.k):>42} {str(p.E):>42} {p.pole_class.value:>13}")
    return "\n".join(lines) + "\n"


def _pole_csv(poles) -> str:
    rows = [POLE_ROW % tuple(pole_to_record(p).values()) for p in poles]
    return "\n".join([",".join(POLE_COLUMNS), *rows]) + "\n"


def cmd_poles(args: argparse.Namespace, cfg: dict, spec: DeviceSpec) -> None:
    # built per call, so a rebound module name (a test's fake, a tracer) is used
    routes = {"siegert": solve_poles, "feshbach": feshbach_pole_search}
    methods = list(routes) if args.method == "both" else [args.method]
    sets = {m: routes[m](spec) for m in methods}
    poles = sets[methods[0]]
    dz = pole_set_distance(*sets.values()) if len(sets) == 2 else None
    if args.format == "json":
        records = {m: [pole_to_record(p) for p in s] for m, s in sets.items()}
        text = dumps(records[methods[0]] if dz is None else {**records, "max_dz": dz}) + "\n"
    elif args.format == "csv":
        text = _pole_csv(poles)
        if dz is not None:
            text += f"# max_dz = {format_float(dz)}\n"
    else:
        text = _pole_table(poles)
        if dz is not None:
            text += f"max |dz| between methods = {format_float(dz)}\n"
    _emit(text, args.out)


def cmd_transmission(args: argparse.Namespace, cfg: dict, spec: DeviceSpec) -> None:
    k_min = _resolve(args, cfg, "kmin")
    k_max = _resolve(args, cfg, "kmax")
    steps = _resolve(args, cfg, "steps", cast=int)
    if k_min is None or k_max is None or steps is None:
        raise ParameterError("transmission needs --kmin, --kmax and --steps")
    rows = transmission_sweep(spec, k_min, k_max, steps)
    _emit(sweep_rows_csv(rows), args.out)


def cmd_sweep(args: argparse.Namespace, cfg: dict, spec: DeviceSpec) -> None:
    params = tdot_params(spec)
    if params is None:
        raise ParameterError("pole sweeps support only T-dot models")
    name = args.param.replace("-", "_")
    if name not in ("t1", "eps_d"):
        raise ParameterError(f"unsupported sweep parameter {args.param!r}; use t1 or eps-d")
    if args.steps < 2:
        raise ParameterError(f"sweep needs at least 2 steps, got {args.steps}")
    for flag, value in (("--from", args.start), ("--to", args.stop),
                        ("range --to minus --from", args.stop - args.start)):
        if not math.isfinite(value):
            raise ParameterError(f"sweep {flag} must be finite, got {value}")
    values = [
        args.start + (args.stop - args.start) * i / (args.steps - 1)
        for i in range(args.steps)
    ]
    all_poles = solve_tdot_sweep(params, name, values)
    lines = [POLE_SWEEP_HEADER]
    transitions = []
    prev_multiset = None
    for v, poles in zip(values, all_poles):
        multiset = tuple(sorted(p.pole_class.value for p in poles))
        if prev_multiset is not None and multiset != prev_multiset:
            transitions.append((v, prev_multiset, multiset))
        prev_multiset = multiset
        lines.extend(
            POLE_SWEEP_ROW % (v, p.z.real, p.z.imag, p.k.real, p.k.imag,
                              p.E.real, p.E.imag, p.pole_class.value)
            for p in poles
        )
    if transitions:
        for v, before, after in transitions:
            lines.append(
                f"# classification change at {args.param}={format_float(v)}: "
                f"{'+'.join(before)} -> {'+'.join(after)}"
            )
    else:
        lines.append("# no classification changes")
    _emit("\n".join(lines) + "\n", args.out)


def cmd_wavefunction(args: argparse.Namespace, cfg: dict, spec: DeviceSpec) -> None:
    poles = solve_poles(spec)
    if not 0 <= args.pole_index < len(poles):
        raise ParameterError(
            f"pole index {args.pole_index} out of range for a {len(poles)}-pole model"
        )
    if args.xmax < 1:
        raise ParameterError(f"--xmax must be >= 1, got {args.xmax}")
    samples = evaluate(poles[args.pole_index], args.xmax)
    _emit(wavefunction_csv(samples), args.out)


def cmd_oracle(args: argparse.Namespace, cfg: dict, spec: DeviceSpec) -> None:
    report = build_report(spec, _resolve(args, cfg, "sites", cast=int))
    _emit(dumps(report) + "\n", args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    sp.set_defaults(func=cmd_poles)

    se = subs.add_parser("equivalence", help="alias of poles --method both")
    _add_model_flags(se)
    se.add_argument("--format", choices=("table", "csv", "json"), default="table")
    se.set_defaults(func=cmd_poles, method="both")

    st = subs.add_parser("transmission", help="T(k), R(k) sweep as CSV")
    _add_model_flags(st)
    st.add_argument("--kmin", type=float, default=None)
    st.add_argument("--kmax", type=float, default=None)
    st.add_argument("--steps", type=int, default=None)
    st.set_defaults(func=cmd_transmission)

    sw = subs.add_parser("sweep", help="pole trajectories over a model parameter")
    _add_model_flags(sw)
    sw.add_argument("--param", required=True, help="t1 or eps-d")
    sw.add_argument("--from", dest="start", type=float, required=True)
    sw.add_argument("--to", dest="stop", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.set_defaults(func=cmd_sweep)

    wf = subs.add_parser("wavefunction", help="sample one pole's wavefunction")
    _add_model_flags(wf)
    wf.add_argument("--pole-index", dest="pole_index", type=int, required=True)
    wf.add_argument("--xmax", type=int, default=20)
    wf.set_defaults(func=cmd_wavefunction)

    so = subs.add_parser("oracle", help="truncated-lattice audit report (JSON)")
    _add_model_flags(so)
    so.add_argument("--sites", type=int, default=None,
                    help="lead sites per side of the hard-wall lattice")
    so.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args.config)
        args.func(args, cfg, _resolve_device(args, cfg))
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
