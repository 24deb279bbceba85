"""Output checks for benchmark items, run outside the timed region.

Each check parses what the CLI printed and tests it against a reference that
does not go through the timed code path: the closed T-dot quartic evaluated
here, the closed form at eps_d = 0, matrices built here from the device JSON,
and the contracts the README states.

A failed item is *visible* when the program itself reported the problem: a
nonzero exit code, or its own agreement figure (``max_dz`` of ``poles
--method both``, ``max_abs_diff`` of ``oracle``) showing the mismatch.  A
failure the program did not report is *silent*; a run with a silent failure
is not correct.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from respole import closed_form_eps0, device_from_json, verify_green_identity
from workloads import device_arrays

SWEEP_COLUMNS = "param,z_re,z_im,k_re,k_im,E_re,E_im,class"
TRANSMISSION_COLUMNS = "k,E,T,R,ReB,ImB,ReC,ImC"

QUARTIC_REL_TOL = 1e-10
EPS0_TOL = 1e-10
ROUTE_TOL = 1e-9  # README: the two routes agree to better than 1e-9 in z
BACKWARD_TOL = 1e-8
UNITARITY_TOL = 1e-12
GREEN_TOL = 1e-12
AMPLITUDE_TOL = 1e-10
RESIDUAL_TOL = 1e-10  # acceptance criterion 3

_BARE_NONFINITE = re.compile(r"(?<![\w.])(-?)(inf|nan)\b")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    category: str = ""  # "exit2", "exit3" or "check" when not ok
    reason: str = ""
    visible: bool = True


OK = Verdict(True)


def _fail(reason: str, visible: bool = False) -> Verdict:
    return Verdict(False, "check", reason, visible)


def parse_json(text: str):
    """JSON as the CLI writes it; non-finite floats come out bare (``inf``)."""
    fixed = _BARE_NONFINITE.sub(
        lambda m: m.group(1) + ("Infinity" if m.group(2) == "inf" else "NaN"), text
    )
    return json.loads(fixed)


def check_item(item, exit_code: int, out: str) -> Verdict:
    """Verdict on one item from its exit code and standard output."""
    if exit_code == 2:
        return Verdict(False, "exit2", "validation error")
    if exit_code == 3:
        return Verdict(False, "exit3", "numerical failure")
    if exit_code != 0:
        return Verdict(False, "check", f"exit code {exit_code}")
    try:
        return _CHECKS[item.kind](item, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return _fail(f"malformed output: {exc}")


def _quartic_rel_residual(z: complex, t: float, t1: float, eps_d: float) -> float:
    coeffs = (-t * t, -t * eps_d, t1 * t1, t * eps_d, t * t)
    val = 0j
    scale = 0.0
    for c in reversed(coeffs):
        val = val * z + c
        scale = scale * abs(z) + abs(c)
    return abs(val) / scale


def _set_distance(a: list[complex], b: list[complex]) -> float:
    if len(a) != len(b):
        return math.inf
    return max(max(min(abs(x - y) for y in b) for x in a),
               max(min(abs(x - y) for y in a) for x in b))


def check_sweep(item, out: str) -> Verdict:
    """4 poles per point (1 when decoupled), each a root of the closed quartic
    to QUARTIC_REL_TOL; points at eps_d = 0 match the closed form."""
    m = item.meta
    lines = out.splitlines()
    if not lines or lines[0] != SWEEP_COLUMNS:
        return _fail("bad sweep header")
    groups: list[tuple[str, list[complex]]] = []
    comments = 0
    for line in lines[1:]:
        if line.startswith("#"):
            comments += 1
            continue
        fields = line.split(",")
        z = complex(float(fields[1]), float(fields[2]))
        if groups and groups[-1][0] == fields[0]:
            groups[-1][1].append(z)
        else:
            groups.append((fields[0], [z]))
    steps = m["steps"]
    if len(groups) != steps or comments == 0:
        return _fail(f"{len(groups)} sweep points for {steps} steps")
    t = m["t"]
    for i, (value, zs) in enumerate(groups):
        expected = m["start"] + (m["stop"] - m["start"]) * i / (steps - 1)
        if float(value) != expected:
            return _fail(f"point {i} at {value}, expected {expected!r}")
        t1 = expected if m["param"] == "t1" else m["t1"]
        eps_d = expected if m["param"] == "eps_d" else m["eps_d"]
        if t1 == 0.0:
            if len(zs) != 1 or abs(-t * (zs[0] + 1 / zs[0]) - eps_d) > 1e-10 * max(1.0, abs(eps_d)):
                return _fail(f"decoupled point {i} is not the level eps_d")
            continue
        if len(zs) != 4:
            return _fail(f"{len(zs)} poles at point {i}")
        worst = max(_quartic_rel_residual(z, t, t1, eps_d) for z in zs)
        if worst > QUARTIC_REL_TOL:
            return _fail(f"quartic residual {worst:.2e} at point {i}")
        if eps_d == 0.0:
            ref = [p.z for p in closed_form_eps0(t, t1).poles]
            d = _set_distance(zs, ref)
            if d > EPS0_TOL:
                return _fail(f"eps_d = 0 point off the closed form by {d:.2e}")
    return OK


def _secular_backward_error(model: dict, z: complex) -> float:
    """Smallest singular value of z (E(z) - H_eff(z)), relative to the size of
    its matrix coefficients, with the matrices built here from the JSON."""
    h, c, t = device_arrays(model)
    n = h.shape[0]
    a2 = -t * np.eye(n)
    a2[c, c] = t
    m = a2 * z * z - h * z - t * np.eye(n)
    sigma = np.linalg.svd(m, compute_uv=False)[-1]
    return float(sigma / (t * abs(z) ** 2 + np.linalg.norm(h, 2) * abs(z) + t))


def check_poles(item, out: str) -> Verdict:
    """Both routes return 2n poles and agree to ROUTE_TOL; every polynomial-
    route pole is a root of the secular matrix built here."""
    doc = parse_json(out)
    n = item.meta["n_sites"]
    max_dz = float(doc["max_dz"])
    flagged = not max_dz < ROUTE_TOL
    counts = (len(doc["siegert"]), len(doc["feshbach"]))
    if counts != (2 * n, 2 * n):
        return _fail(f"pole counts {counts} for {n} sites, max_dz {max_dz:.2e}", flagged)
    if flagged:
        return _fail(f"routes disagree, max_dz {max_dz:.2e}", True)
    for rec in doc["siegert"]:
        z = complex(rec["z_re"], rec["z_im"])
        err = _secular_backward_error(item.meta["model"], z)
        if err > BACKWARD_TOL:
            return _fail(f"pole {z} has secular backward error {err:.2e}")
    return OK


def check_transmission(item, out: str) -> Verdict:
    """Every row has R + T = 1; at three k the contact amplitude matches a
    solve built here and the Green identity holds."""
    m = item.meta
    lines = out.splitlines()
    if not lines or lines[0] != TRANSMISSION_COLUMNS:
        return _fail("bad transmission header")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != m["steps"]:
        return _fail(f"{len(rows)} rows for {m['steps']} steps")
    ks = np.linspace(m["k_min"], m["k_max"], m["steps"])
    for i, row in enumerate(rows):
        if row[0] != ks[i]:
            return _fail(f"row {i} at k = {row[0]!r}, expected {ks[i]!r}")
        if abs(row[2] + row[3] - 1.0) > UNITARITY_TOL:
            return _fail(f"R + T - 1 = {row[2] + row[3] - 1.0:.2e} at row {i}")
    h, c, t = device_arrays(m["model"])
    spec = device_from_json(m["model"])
    for i in (0, len(rows) // 2, len(rows) - 1):
        k = rows[i][0]
        z = complex(math.cos(k), math.sin(k))
        mat = -2.0 * t * math.cos(k) * np.eye(h.shape[0]) - h
        mat = mat.astype(complex)
        mat[c, c] += 2.0 * t * z
        rhs = np.zeros(h.shape[0], dtype=complex)
        rhs[c] = 2j * t * math.sin(k)
        amp = np.linalg.solve(mat, rhs)[c]
        got = complex(rows[i][6], rows[i][7])
        if abs(got - amp) > AMPLITUDE_TOL * max(1.0, abs(amp)):
            return _fail(f"contact amplitude off by {abs(got - amp):.2e} at k = {k!r}")
        g = verify_green_identity(spec, k)
        if g > GREEN_TOL:
            return _fail(f"Green identity off by {g:.2e} at k = {k!r}")
    return OK


def _row_scale(model: dict, z: complex) -> float:
    """Size of the terms in a Schroedinger row at pole z: (|E| + ||H|| +
    2t|z|) times the largest amplitude, contact amplitude pinned to 1."""
    h, c, t = device_arrays(model)
    n = h.shape[0]
    mat = (-t * (z + 1 / z)) * np.eye(n) - h
    mat = mat.astype(complex)
    mat[c, c] += 2.0 * t * z
    v = np.linalg.svd(mat)[2][-1].conj()
    amps = np.abs(v / v[c])
    return (abs(t * (z + 1 / z)) + np.linalg.norm(h, 2) + 2.0 * t * abs(z)) * float(amps.max())


def check_oracle(item, out: str) -> Verdict:
    """Bound-state counts match and the pole residuals are within the
    acceptance suite's tolerance: as stated for T-dots; for other devices
    the row residual is taken relative to the size of the row's terms, since
    amplitudes off the contact can be large."""
    doc = parse_json(out)
    model = item.meta["model"]
    n = model.get("n_sites", 2)
    if len(doc["poles"]) != 2 * n:
        return _fail(f"{len(doc['poles'])} poles for {n} sites")
    if doc["bound_compare"]["max_abs_diff"] is None:
        return _fail("bound-state counts differ", True)
    for p in doc["poles"]:
        if p["residual"] > RESIDUAL_TOL:
            return _fail(f"secular residual {p['residual']:.2e}")
        row_tol = RESIDUAL_TOL
        if "tdot" not in model:
            row_tol *= max(1.0, _row_scale(model, complex(*p["z"])))
        if p["lattice_row_dev"] > row_tol:
            return _fail(f"row residual {p['lattice_row_dev']:.2e} above {row_tol:.2e}")
    return OK


_CHECKS = {
    "sweep": check_sweep,
    "poles": check_poles,
    "transmission": check_transmission,
    "oracle": check_oracle,
}
