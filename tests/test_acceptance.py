"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import json
import math
import time

import numpy as np

from respole import (
    PoleClass,
    bound_energies_from_truncation,
    feshbach_pole_search,
    make_tdot,
    normalize_bound,
    pole_residual_report,
    pole_set_distance,
    solve_poles,
    verify_green_identity,
)
from respole.cli import main
from respole.scattering import scattering_solve
from respole.wavefunction import evaluate

T1_GRID = (0.25, 0.5, 1.0, 1.5, 2.0)
EPS_GRID = (-3.0, -2.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0, 3.0)
BOUND = (PoleClass.BOUND_LOWER, PoleClass.BOUND_UPPER)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_closed_form_reproduction(capsys):
    t0 = time.perf_counter()
    poles = solve_poles(make_tdot(1.0, 1.0, 0.0))
    elapsed = time.perf_counter() - t0

    p = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
    q = 1.0 / p
    expected_e = [-(p + q), (p + q), -1j * (p - q), 1j * (p - q)]
    expected_k = [
        1j * math.log(p),
        math.pi + 1j * math.log(p),
        math.pi / 2 - 1j * math.log(p),
        -math.pi / 2 - 1j * math.log(p),
    ]
    de = max(min(abs(pole.E - e) for e in expected_e) for pole in poles)
    dk = max(min(abs(pole.k - k) for k in expected_k) for pole in poles)

    code = main(["poles", "--t", "1", "--t1", "1", "--eps-d", "0",
                 "--method", "siegert", "--format", "json"])
    cli_records = json.loads(capsys.readouterr().out)

    ok = (
        len(poles) == 4 and len(cli_records) == 4
        and de < 1e-8 and dk < 1e-8 and code == 0 and elapsed < 0.1
    )
    with capsys.disabled():
        report(1, ok, f"4 poles, max|dE|={de:.2e}, max|dk|={dk:.2e}, {elapsed*1e3:.1f} ms")
    assert ok


def test_criterion_2_route_equivalence(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for t1 in T1_GRID:
        for ed in EPS_GRID:
            spec = make_tdot(1.0, t1, ed)
            d = pole_set_distance(solve_poles(spec), feshbach_pole_search(spec))
            worst = max(worst, d)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    with capsys.disabled():
        report(2, ok, f"45 grid points, max|dz|={worst:.2e}, {elapsed:.2f} s")
    assert ok


def test_criterion_3_pole_residuals(capsys):
    worst_sec = worst_row = 0.0
    for t1 in T1_GRID:
        for ed in EPS_GRID:
            spec = make_tdot(1.0, t1, ed)
            for poles in (solve_poles(spec), feshbach_pole_search(spec)):
                for rec in pole_residual_report(spec, poles):
                    worst_sec = max(worst_sec, rec["residual"])
                    worst_row = max(worst_row, rec["lattice_row_dev"])
    ok = worst_sec < 1e-10 and worst_row < 1e-10
    with capsys.disabled():
        report(3, ok, f"max secular={worst_sec:.2e}, max row dev={worst_row:.2e}")
    assert ok


def test_criterion_4_vieta(capsys):
    worst_prod = worst_sum = 0.0
    for t1 in T1_GRID:
        for ed in EPS_GRID:
            zs = [p.z for p in solve_poles(make_tdot(1.0, t1, ed))]
            worst_prod = max(worst_prod, abs(np.prod(zs) - (-1.0)))
            worst_sum = max(worst_sum, abs(sum(zs) - (-ed)))
    ok = worst_prod < 1e-12 and worst_sum < 1e-12
    with capsys.disabled():
        report(4, ok, f"|prod+1| max={worst_prod:.2e}, |sum+eps_d| max={worst_sum:.2e}")
    assert ok


def _class_multisets(t1, values):
    out = []
    for ed in values:
        poles = solve_poles(make_tdot(1.0, t1, float(ed)))
        out.append(tuple(sorted(p.pole_class.value for p in poles)))
    return out


def test_criterion_5_region_structure(capsys):
    values = np.linspace(-3.0, 3.0, 601)
    structure_ok = True
    multisets = []
    for ed in values:
        poles = solve_poles(make_tdot(1.0, 1.0, float(ed)))
        classes = tuple(sorted(p.pole_class.value for p in poles))
        multisets.append(classes)
        n_bound = sum(c.startswith("Bound") for c in classes)
        rest = tuple(c for c in classes if not c.startswith("Bound"))
        if len(poles) != 4 or n_bound != 2:
            structure_ok = False
        if rest not in (("AntiResonant", "Resonant"), ("AntiBound", "AntiBound")):
            structure_ok = False
    detected = [i for i in range(1, len(multisets)) if multisets[i] != multisets[i - 1]]
    exists = len(set(multisets)) > 1
    iff_ok = (len(detected) > 0) == exists

    # the detector must also fire where a transition genuinely exists
    alt = _class_multisets(0.5, np.linspace(-3.0, 3.0, 121))
    alt_detected = [i for i in range(1, len(alt)) if alt[i] != alt[i - 1]]
    alt_ok = len(set(alt)) > 1 and len(alt_detected) > 0

    ok = structure_ok and iff_ok and alt_ok
    with capsys.disabled():
        report(5, ok, f"601 points, transitions detected={len(detected)} "
                      f"(exists={exists}); t1=0.5 control detects {len(alt_detected)}")
    assert ok


def test_criterion_6_unitarity(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        spec = make_tdot(1.0, float(rng.uniform(1e-6, 2.0)), float(rng.uniform(-3, 3)))
        for k in rng.uniform(0.01, math.pi - 0.01, size=1000):
            sol = scattering_solve(spec, float(k))
            worst = max(worst, abs(sol.R[0] + sol.T[0] - 1.0))
    ok = worst < 1e-12
    with capsys.disabled():
        report(6, ok, f"20 parameter sets x 1000 k, max|R+T-1|={worst:.2e}")
    assert ok


def test_criterion_7_fano_zero(capsys):
    spec = make_tdot(1.0, 1.0, 0.3)
    t_zero = scattering_solve(spec, math.acos(-0.3 / 2.0)).T[0]
    t_mid = scattering_solve(spec, math.pi / 2).T[0]
    ok = t_zero < 1e-20 and abs(t_mid - 9.0 / 34.0) < 1e-12
    with capsys.disabled():
        report(7, ok, f"T(k*)={t_zero:.2e}, |T(pi/2)-9/34|={abs(t_mid-9/34):.2e}")
    assert ok


def test_criterion_8_green_identity(capsys):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        spec = make_tdot(
            float(rng.uniform(0.3, 2.5)),
            float(rng.uniform(0.05, 2.0)),
            float(rng.uniform(-3, 3)),
        )
        k = float(rng.uniform(0.02, math.pi - 0.02))
        worst = max(worst, verify_green_identity(spec, k))
    ok = worst < 1e-12
    with capsys.disabled():
        report(8, ok, f"100 random draws, max deviation={worst:.2e}")
    assert ok


def test_criterion_9_truncated_lattice_oracle(capsys):
    t0 = time.perf_counter()
    worst_de = 0.0
    count_ok = True
    failing_points = []
    for t1 in T1_GRID:
        for ed in EPS_GRID:
            spec = make_tdot(1.0, t1, ed)
            lattice = bound_energies_from_truncation(spec, 200)
            sieg = sorted(
                p.E.real for p in solve_poles(spec) if p.pole_class in BOUND
            )
            if len(lattice) != len(sieg):
                count_ok = False
                failing_points.append((t1, ed, "count"))
                continue
            de = max(abs(a - b) for a, b in zip(lattice, sieg))
            if de > 1e-8:
                failing_points.append((t1, ed, f"{de:.1e}"))
            worst_de = max(worst_de, de)
    elapsed = time.perf_counter() - t0
    ok = count_ok and worst_de < 1e-8 and elapsed < 30.0
    with capsys.disabled():
        report(9, ok, f"counts {'agree' if count_ok else 'MISMATCH'}, "
                      f"max|dE|={worst_de:.2e} (bound 1e-8), {elapsed:.1f} s; "
                      f"exceeding points: {failing_points if failing_points else 'none'}")
    # Weakly bound states (|z| -> 1 at small t1 or large |eps_d|) carry a
    # hard-wall truncation error far above 1e-8 at N=200; the criterion is
    # asserted as stated and fails honestly at those grid points.
    assert ok


def test_criterion_10_wavefunction_geometry(capsys):
    poles = {p.pole_class: p for p in solve_poles(make_tdot(1.0, 1.0, 0.0))}
    worst_ratio = 0.0
    for cls in (PoleClass.BOUND_LOWER, PoleClass.BOUND_UPPER,
                PoleClass.RESONANT, PoleClass.ANTI_RESONANT):
        pole = poles[cls]
        samples = {s.x: s for s in evaluate(pole, 21)}
        target = abs(pole.z)
        for x in range(1, 21):
            ratio = samples[x + 1].magnitude / samples[x].magnitude
            worst_ratio = max(worst_ratio, abs(ratio - target))

    bound = poles[PoleClass.BOUND_LOWER]
    norm = normalize_bound(bound)
    direct = abs(norm.amp_d) ** 2 + abs(norm.amp0) ** 2 * (
        1.0 + 2.0 * sum(abs(norm.z) ** (2 * x) for x in range(1, 201))
    )
    norm_dev = abs(direct - 1.0)
    ok = worst_ratio < 1e-12 and norm_dev < 1e-12
    with capsys.disabled():
        report(10, ok, f"ratio deviation={worst_ratio:.2e}, norm deviation={norm_dev:.2e}")
    assert ok
