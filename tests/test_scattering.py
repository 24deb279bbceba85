import cmath
import json
import math
import re
from dataclasses import asdict, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from respole import (
    DeviceSpec,
    NumericalError,
    ParameterError,
    PoleClass,
    ScatteringSweep,
    device_from_json,
    make_tdot,
    secular_residual,
    solve_poles,
    transmission_sweep,
    verify_green_identity,
)
from respole._format import CSV_CHUNK, format_float
from respole.cli import main
from respole.feshbach import build_h_eff
from respole.scattering import (
    SOLVE_CHUNK,
    SWEEP_HEADER,
    _abs_squared,
    _solve_inner,
    scattering_solve,
    sweep_rows_csv,
)
from test_cli import SQUARE_OVERFLOW
from test_oracle import random_device


class Row(NamedTuple):
    """One k of a sweep as Python numbers, for the per-k references."""

    k: float
    E: float
    B: complex
    C: complex
    amps: tuple
    T: float
    R: float


def green_column(spec, k):
    """The contact column of the retarded Green's function at k, in site
    order: the inner solve with the unit source on the contact."""
    return _solve_inner(spec, np.array([k]), incident=False)[1][0]


def independent_2x2_solve(t, t1, ed, k, rhs0):
    """Oracle: assemble and invert the 2x2 system by hand."""
    z = complex(math.cos(k), math.sin(k))
    E = -2 * t * math.cos(k)
    m = np.array([[E + 2 * t * z, t1], [t1, E - ed]], dtype=complex)
    return np.linalg.solve(m, np.array([rhs0, 0.0], dtype=complex))


def lattice_resolvent(t1, ed, t, k, eta, half):
    """Oracle: banded solve of (E + i eta - H) g = delta_0 on a finite chain,
    site order x=-half..0, dot, 1..half."""
    dim = 2 * half + 2
    i_contact, i_dot = half, half + 1
    ec = -2 * t * math.cos(k) + 1j * eta
    ab = np.zeros((5, dim), complex)
    ab[2, :] = ec
    ab[2, i_dot] = ec - ed

    def pos(x):
        return x + half if x <= 0 else x + half + 1

    for x in range(-half, half):
        i, j = pos(x), pos(x + 1)
        ab[2 + i - j, j] = t
        ab[2 + j - i, i] = t
    ab[2 + i_contact - i_dot, i_dot] = t1
    ab[2 + i_dot - i_contact, i_contact] = t1
    rhs = np.zeros(dim, complex)
    rhs[i_contact] = 1.0
    g = solve_banded((2, 2), ab, rhs)
    return g[i_contact], g[i_dot]


def reference_sweep(spec, k_min, k_max, steps):
    """Oracle: one single-matrix solve of E I - H_eff(z) per k."""
    rows = []
    for k in np.linspace(k_min, k_max, steps).tolist():
        z = complex(math.cos(k), math.sin(k))
        E = -2.0 * spec.lead_t * math.cos(k)
        m = E * np.eye(spec.n_sites, dtype=complex) - build_h_eff(spec, z)
        rhs = np.zeros(spec.n_sites, dtype=complex)
        rhs[spec.contact] = 2j * spec.lead_t * math.sin(k)
        amps = np.linalg.solve(m, rhs).tolist()
        c = amps[spec.contact]
        rows.append(Row(k=k, E=E, B=c - 1.0, C=c, amps=tuple(amps),
                        T=abs(c) ** 2, R=abs(c - 1.0) ** 2))
    return rows


def assert_columns_equal(sweep, ref):
    """Every column of ``sweep`` holds the bits of the per-k ``ref`` rows
    (so -0.0 differs from 0.0), with the same dtype and shape."""
    for name in ("k", "E", "T", "R", "B", "C", "amps"):
        expected = np.array([getattr(r, name) for r in ref])
        got = getattr(sweep, name)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
        assert got.tobytes() == expected.tobytes(), name


def reference_csv(rows):
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(",".join(
            format_float(v)
            for v in (r.k, r.E, r.T, r.R, r.B.real, r.B.imag, r.C.real, r.C.imag)
        ))
    return "\n".join(lines) + "\n"


def extrapolate_to_zero(xs, ys):
    ys = list(ys)
    n = len(xs)
    for m in range(1, n):
        for i in range(n - m):
            ys[i] = (xs[i + m] * ys[i] - xs[i] * ys[i + 1]) / (xs[i + m] - xs[i])
    return ys[0]


def test_fano_point_transmission():
    sol = scattering_solve(make_tdot(1.0, 1.0, 0.3), math.pi / 2)
    assert sol.T[0] == pytest.approx(9.0 / 34.0, abs=1e-12)
    assert sol.R[0] == pytest.approx(25.0 / 34.0, abs=1e-12)
    oracle = independent_2x2_solve(1.0, 1.0, 0.3, math.pi / 2, 2j)
    assert sol.C[0] == pytest.approx(complex(oracle[0]), abs=1e-12)
    assert abs(sol.amps[0, 1] - oracle[1]) < 1e-12


def test_transmission_zero_at_dot_level():
    k_star = math.acos(-0.15)
    sol = scattering_solve(make_tdot(1.0, 1.0, 0.3), k_star)
    assert sol.T[0] < 1e-20


def test_decoupled_limit_transmits_perfectly():
    sol = scattering_solve(make_tdot(1.0, 1e-8, 0.0), math.pi / 3)
    assert sol.T[0] == pytest.approx(1.0, abs=1e-12)


def test_transmission_zero_tracks_dot_level():
    for ed in (-1.5, -0.3, 0.9, 1.9):
        sol = scattering_solve(make_tdot(1.0, 0.8, ed), math.acos(-ed / 2.0))
        assert sol.T[0] < 1e-20


def test_continuity_and_unitarity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        t1 = rng.uniform(0.05, 2.0)
        ed = rng.uniform(-3.0, 3.0)
        spec = make_tdot(1.0, t1, ed)
        for k in rng.uniform(0.01, math.pi - 0.01, size=50):
            sol = scattering_solve(spec, float(k))
            assert abs(1.0 + sol.B[0] - sol.C[0]) < 1e-12
            assert sol.C[0] == sol.amps[0, 0]
            assert abs(sol.R[0] + sol.T[0] - 1.0) < 1e-12


def test_k_domain_validation():
    spec = make_tdot(1.0, 1.0, 0.0)
    for bad in (0.0, -0.5, math.pi, 4.0):
        with pytest.raises(ParameterError):
            scattering_solve(spec, bad)


# the two entry points that take one k: the scattering solve, and the check
# of the identity that solves the Green's function column at that k
K_SOLVES = [scattering_solve, pytest.param(verify_green_identity, id="green_function")]


def result_bits(result):
    """The bytes of every column of a sweep, or of one float."""
    if isinstance(result, ScatteringSweep):
        return [getattr(result, f.name).tobytes() for f in fields(result)]
    assert type(result) is float
    return np.float64(result).tobytes()


@pytest.mark.parametrize("solve", K_SOLVES)
@pytest.mark.parametrize(
    "k", [1, np.int64(1), np.float32(1.0), np.float64(1.0), Fraction(1)],
    ids=["int", "int64", "float32", "float64", "fraction"],
)
def test_k_accepts_any_real_number(solve, k):
    # k becomes a float first: the k column is float64 and every bit agrees
    spec = make_tdot(1.0, 0.7, 0.3)
    assert result_bits(solve(spec, k)) == result_bits(solve(spec, 1.0))


@pytest.mark.parametrize("solve", K_SOLVES)
@pytest.mark.parametrize("k", [True, False, np.bool_(True), "1.0", 1 + 0j, None],
                         ids=["true", "false", "np_bool", "str", "complex", "none"])
def test_k_rejects_bools_and_non_numbers(solve, k):
    with pytest.raises(ParameterError, match="^wave number must be a real number, got "):
        solve(make_tdot(1.0, 0.7, 0.3), k)


def test_green_function_values():
    g00, gd0 = green_column(make_tdot(1.0, 1.0, 0.3), math.pi / 2).tolist()
    # 2x2 inverse: G00 = (E - ed)/det, Gd0 = -t1/det with det = -1 - 0.6i
    det = complex(-1.0, -0.6)
    assert g00 == pytest.approx(-0.3 / det, abs=1e-12)
    assert gd0 == pytest.approx(-1.0 / det, abs=1e-12)
    assert g00 == pytest.approx(0.22058824 - 0.13235294j, abs=1e-7)
    assert gd0 == pytest.approx(0.73529412 - 0.44117647j, abs=1e-7)


def test_green_function_residual_invariant():
    rng = np.random.default_rng(77)
    for _ in range(50):
        spec = make_tdot(1.0, rng.uniform(0.1, 2.0), rng.uniform(-2.5, 2.5))
        k = float(rng.uniform(0.05, math.pi - 0.05))
        z = complex(math.cos(k), math.sin(k))
        E = -2 * math.cos(k)
        m = E * np.eye(2) - build_h_eff(spec, z)
        resid = m @ green_column(spec, k) - np.array([1.0, 0.0])
        assert np.max(np.abs(resid)) < 1e-12


def test_green_function_decoupled_limit():
    # residual dot level at t1 = 1e-12 shifts G00 from -i/(2 t sin k) at the
    # 1e-9 level because E(pi/2) only rounds to ~1e-16, not exactly 0
    g00 = green_column(make_tdot(1.0, 1e-12, 0.0), math.pi / 2)[0]
    assert abs(g00 - (-0.5j)) < 1e-8


def test_green_function_against_lattice_resolvent():
    # independent route: finite-lattice resolvent, eta ladder extrapolated
    k = math.pi / 2
    g = green_column(make_tdot(1.0, 1.0, 0.3), k)
    etas = [3.2e-2, 2.4e-2, 1.6e-2, 1.2e-2, 8e-3]
    pairs = [lattice_resolvent(1.0, 0.3, 1.0, k, e, 30000) for e in etas]
    g00 = extrapolate_to_zero(etas, [p[0] for p in pairs])
    gd0 = extrapolate_to_zero(etas, [p[1] for p in pairs])
    assert abs(g00 - g[0]) < 1e-6
    assert abs(gd0 - g[1]) < 1e-6


def test_green_identity_examples():
    assert verify_green_identity(make_tdot(1.0, 1.0, 0.3), math.pi / 2) < 1e-12
    assert verify_green_identity(make_tdot(1.0, 1.0, 0.0), 0.3) < 1e-12
    assert verify_green_identity(make_tdot(2.0, 0.7, -1.1), 2.5) < 1e-12


def test_transmission_sweep_basics():
    spec = make_tdot(1.0, 1.0, 0.3)
    sweep = transmission_sweep(spec, 0.1, 3.0, 5)
    assert isinstance(sweep, ScatteringSweep)
    for name in ("k", "E", "T", "R"):
        col = getattr(sweep, name)
        assert (col.dtype, col.shape) == (np.float64, (5,)), name
    for name in ("B", "C"):
        col = getattr(sweep, name)
        assert (col.dtype, col.shape) == (np.complex128, (5,)), name
    assert (sweep.amps.dtype, sweep.amps.shape) == (np.complex128, (5, 2))
    assert sweep.k[0] == pytest.approx(0.1)
    assert sweep.k[-1] == pytest.approx(3.0)
    assert np.array_equal(sweep.C, sweep.amps[:, spec.contact])
    assert np.array_equal(sweep.B, sweep.C - 1.0)
    assert np.all(np.abs(sweep.R + sweep.T - 1.0) < 1e-12)


def test_transmission_sweep_locates_fano_zero():
    spec = make_tdot(1.0, 1.0, 0.3)
    k_star = math.acos(-0.15)
    sweep = transmission_sweep(spec, k_star - 0.02, k_star + 0.02, 101)
    assert sweep.T.min() < 1e-6


def test_transmission_symmetric_for_centered_dot():
    spec = make_tdot(1.0, 1.0, 0.0)
    sweep = transmission_sweep(spec, 0.4, math.pi - 0.4, 41)
    assert sweep.T.shape == (41,)
    assert np.abs(sweep.T - sweep.T[::-1]).max() < 1e-12


def test_transmission_sweep_validation():
    spec = make_tdot(1.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        transmission_sweep(spec, 0.5, 0.4, 10)
    with pytest.raises(ParameterError):
        transmission_sweep(spec, 0.1, 4.0, 10)
    with pytest.raises(ParameterError):
        transmission_sweep(spec, 0.1, 3.0, 1)


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.5", 0.5 + 0j, None],
                         ids=["true", "false", "np_bool", "str", "complex", "none"])
@pytest.mark.parametrize("end", ["k_min", "k_max"])
def test_transmission_sweep_rejects_bool_and_non_real_endpoints(end, bad):
    ends = {"k_min": 0.5, "k_max": 2.0, end: bad}
    with pytest.raises(ParameterError, match="^wave number must be a real number, got "):
        transmission_sweep(make_tdot(1.0, 0.7, 0.3), ends["k_min"], ends["k_max"], 5)


@pytest.mark.parametrize("steps", [5.0, "5", True, np.float64(5.0), None])
def test_transmission_sweep_rejects_non_integer_steps(steps):
    with pytest.raises(ParameterError, match="^steps must be an integer, got "):
        transmission_sweep(make_tdot(1.0, 0.7, 0.3), 0.5, 2.0, steps)


def test_transmission_sweep_accepts_numpy_and_integer_arguments():
    spec = make_tdot(1.0, 0.7, 0.3)
    ref = transmission_sweep(spec, 1.0, 2.0, 5)
    # a float32 endpoint is read as its float, so the grid stays float64
    for args in ((1, 2, np.int64(5)), (np.float64(1.0), np.float32(2.0), np.int32(5)),
                 (1.0, np.float32(2.0), 5), (np.float32(1.0), np.float32(2.0), 5)):
        got = transmission_sweep(spec, *args)
        assert got.k.tobytes() == ref.k.tobytes() and got.T.tobytes() == ref.T.tobytes()
    # the range message shows the values as given
    with pytest.raises(ParameterError, match=re.escape("got k_min=0, k_max=2")):
        transmission_sweep(spec, 0, 2, 5)


def test_sweep_csv_shape():
    text = sweep_rows_csv(transmission_sweep(make_tdot(1.0, 1.0, 0.3), 0.1, 3.0, 5))
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 6
    assert all(len(line.split(",")) == 8 for line in lines[1:])


def sweep_rows(sweep):
    """The rows of a sweep as records for ``reference_csv``."""
    names = ("k", "E", "B", "C", "T", "R")
    return [Row(**dict(zip(names, row)), amps=())
            for row in zip(*(getattr(sweep, name).tolist() for name in names))]


def test_sweep_csv_matches_printf_on_workload_grids():
    # the transmission workload's shapes: T-dots and random devices of 3-8
    # sites on 1000-3000 k values
    rng = np.random.default_rng(77)
    specs = [make_tdot(1.0, rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0)) for _ in range(3)]
    specs += [random_device(rng, n) for n in (3, 5, 8)]
    for spec in specs:
        k_min, k_max = rng.uniform(0.01, 0.3), math.pi - rng.uniform(0.01, 0.3)
        sweep = transmission_sweep(spec, k_min, k_max, int(rng.integers(1000, 3001)))
        assert sweep_rows_csv(sweep) == reference_csv(sweep_rows(sweep))


# both sides of the first and after the second pass boundary, and the same
# counts around 256 rows, inside a pass
@pytest.mark.parametrize("steps", [255, 256, 257, 549, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1,
                                   2 * CSV_CHUNK + 37])
def test_sweep_csv_matches_printf_at_chunk_edges(steps):
    sweep = transmission_sweep(make_tdot(1.0, 0.7, -1.1), 0.05, 3.09, steps)
    assert sweep_rows_csv(sweep) == reference_csv(sweep_rows(sweep))


def test_sweep_csv_matches_printf_through_the_antiresonance():
    # T vanishes at E = eps_d, so near k* it drops below 1e-4 and prints
    # with an exponent
    k_star = math.acos(-0.15)
    sweep = transmission_sweep(make_tdot(1.0, 1.0, 0.3), k_star - 0.02, k_star + 0.02, 401)
    assert (sweep.T < 1e-4).sum() > 10
    text = sweep_rows_csv(sweep)
    assert text == reference_csv(sweep_rows(sweep))
    assert "e-05," in text and "e-06," in text


@pytest.mark.parametrize("t", [1e17, 1e-6])
def test_sweep_csv_matches_printf_at_extreme_lead_hoppings(t):
    # E = -2t cos k leaves the formatter's fast range on both sides
    sweep = transmission_sweep(make_tdot(t, 0.5, 0.3), 0.05, 3.09, 301)
    text = sweep_rows_csv(sweep)
    assert text == reference_csv(sweep_rows(sweep))
    assert ("e+17," if t > 1 else "e-06,") in text


def test_smatrix_denominator_vanishes_at_poles():
    spec = make_tdot(1.0, 1.0, 0.3)
    res = next(p for p in solve_poles(spec) if p.pole_class is PoleClass.RESONANT)
    assert abs(secular_residual(spec, res.z)) < 1e-10


SIGNED_ZEROS = DeviceSpec(n_sites=3, onsite=(0.5, -0.0, 1.2),
                          hoppings=((0, 1, -0.6), (1, 2, -0.0), (0, 2, 0.4)),
                          contact=1, lead_t=1.0)
# a 6-site chain with its middle bond missing: the amplitudes past the gap
# are zeros, whose signs follow the signed zeros of E I - h
SPARSE_CHAIN = DeviceSpec(n_sites=6, onsite=(0.0, -0.3, 0.0, 0.7, -0.0, 0.2),
                          hoppings=((0, 1, -0.9), (1, 2, -0.8), (3, 4, -0.6), (4, 5, -0.5)),
                          contact=2, lead_t=1.1)


def test_batched_sweep_matches_per_k_solves_bit_for_bit(tmp_path, capsys):
    # E = -2t cos k changes sign inside the grid, so the zeros of E I - h
    # are signed both ways: a device with signed zeros and a sparse chain
    # hold the matrix fill to the bits of the per-k E I - H_eff
    rng = np.random.default_rng(2024)
    specs = [make_tdot(1.0, 0.7, -0.4)] + [
        random_device(rng, n) for n in (3, 4, 5, 6, 7, 8)
    ] + [SIGNED_ZEROS, SPARSE_CHAIN]
    steps = 2 * SOLVE_CHUNK + 37  # three chunks, the last one partial
    for idx, spec in enumerate(specs):
        k_min, k_max = 0.05 + 0.01 * idx, math.pi - 0.07
        ref = reference_sweep(spec, k_min, k_max, steps)
        sweep = transmission_sweep(spec, k_min, k_max, steps)
        assert_columns_equal(sweep, ref)
        for i in (0, SOLVE_CHUNK, steps - 1):
            # the one-k solve is the sweep's row i, bytes and all
            one = scattering_solve(spec, ref[i].k)
            for f in fields(sweep):
                got, row = getattr(one, f.name), getattr(sweep, f.name)[i:i + 1]
                assert (got.dtype, got.shape) == (row.dtype, row.shape), f.name
                assert got.tobytes() == row.tobytes(), f.name
        cfg = tmp_path / f"dev{idx}.json"
        cfg.write_text(json.dumps({"model": asdict(spec)}))
        code = main(["transmission", "--config", str(cfg), "--kmin", repr(k_min),
                     "--kmax", repr(k_max), "--steps", str(steps)])
        assert code == 0
        assert capsys.readouterr().out == reference_csv(ref)


def with_uncoupled_level(n_sites, level, lead_t):
    """A chain of n_sites - 1 sites with the contact on site 2, and a last
    site at ``level`` bonded to none: E I - H_eff is singular exactly where
    E(k) equals the level."""
    chain = n_sites - 1
    return DeviceSpec(
        n_sites=n_sites,
        onsite=tuple(0.3 * (-1) ** i - 0.1 * i for i in range(chain)) + (level,),
        hoppings=tuple((i, i + 1, -0.8 + 0.05 * i) for i in range(chain - 1)),
        contact=2,
        lead_t=lead_t,
    )


def test_singular_point_past_first_chunk_is_named():
    # a T-dot with the bad k in the last, partial chunk; then an 8-site
    # device over four chunks, with the bad k once in a middle chunk and once
    # in the last, partial one, which solves in a prefix of the buffers
    steps_8 = 3 * SOLVE_CHUNK + 60
    for n_sites, lead_t, steps, bad in ((2, 1.0, SOLVE_CHUNK + 100, SOLVE_CHUNK + 40),
                                        (8, 1.3, steps_8, SOLVE_CHUNK + 40),
                                        (8, 1.3, steps_8, 3 * SOLVE_CHUNK + 20)):
        ks = np.linspace(0.2, 2.9, steps).tolist()
        k_bad = ks[bad]
        level = -2.0 * lead_t * math.cos(k_bad)
        if n_sites == 2:
            spec = make_tdot(lead_t, 0.0, level)
        else:
            spec = with_uncoupled_level(n_sites, level, lead_t)
        match = re.escape(f"singular at k = {k_bad}") + "$"
        with pytest.raises(NumericalError, match=match):
            transmission_sweep(spec, 0.2, 2.9, steps)
        # the grid without that k solves
        if bad < steps - 1:
            assert np.isfinite(transmission_sweep(spec, ks[bad + 1], 2.9, steps - bad - 1).T).all()


def test_overflowing_energy_is_named_without_a_warning():
    # with t = 1e308, E = -2t cos k overflows to inf and the matrix fill
    # holds inf and nan; the sweep names the first k, and under the suite's
    # warnings-as-errors filter no numpy warning escapes before it
    spec = make_tdot(1e308, 0.5, 0.3)
    with pytest.raises(NumericalError, match=re.escape("ill-conditioned at k = 0.05") + "$"):
        transmission_sweep(spec, 0.05, 3.09, 5)


def test_amplitude_whose_square_overflows_is_named():
    # |C|**2 leaves the float range at every k where the source 2 t sin k is
    # not below the subnormals; at k = 1e-130 it is, C is 0, and the next k is
    # the first named
    spec = device_from_json(SQUARE_OVERFLOW)
    for solve, k in ((lambda: transmission_sweep(spec, 0.1, 3.0, 7), 0.1),
                     (lambda: transmission_sweep(spec, 1e-130, 3.0, 7), 0.5),
                     (lambda: scattering_solve(spec, 1.55), 1.55)):
        with pytest.raises(NumericalError) as exc:
            solve()
        assert str(exc.value) == f"inner system ill-conditioned at k = {k}"
        assert isinstance(exc.value.__cause__, OverflowError)
    sweep = scattering_solve(spec, 1e-130)
    assert (sweep.C.tolist(), sweep.T.tolist(), sweep.R.tolist()) == ([0j], [0.0], [1.0])


def test_numpy_cos_and_sin_are_the_c_library_bit_for_bit():
    # _solve_inner takes cos and sin of the whole k grid with numpy; the CSV
    # keeps its bits only while numpy's float64 loops call the C library, as
    # math.cos and math.sin do.  A numpy with its own vectorized float64
    # sin/cos fails here first.  Random grids of several lengths, workload
    # grids, and the ends of (0, pi): the smallest subnormal, and the doubles
    # on either side of pi, alone and inside a longer array
    rng = np.random.default_rng(34)
    ends = [5e-324, 1e-323, 2.2250738585072014e-308, 1e-8,
            math.nextafter(math.pi, 0.0), math.pi, math.nextafter(math.pi, 4.0)]
    grids = [rng.uniform(0.0, math.pi, size) for size in (1, 3, 8, 17, 255, 256, 257, 100_000)]
    grids += [np.linspace(0.05, 3.09, steps) for steps in (1000, 2999)]
    grids += [np.array(ends), np.concatenate([rng.uniform(0.0, math.pi, 61), ends] * 3)]
    for ks in grids:
        for vectorized, scalar in ((np.cos, math.cos), (np.sin, math.sin)):
            expected = np.array([scalar(k) for k in ks.tolist()])
            assert vectorized(ks).tobytes() == expected.tobytes(), (vectorized, len(ks))


def python_abs_squared(v: complex) -> float:
    """``abs(v) ** 2``.  For a v with a part that is not finite, CPython's
    complex abs returns inf if a part is infinite and else a nan of its own,
    but on the nan path it leaves errno as it was, so a stale ERANGE from an
    earlier libm call makes it raise OverflowError; the value is written
    out here."""
    if cmath.isfinite(v):
        return abs(v) ** 2
    return math.inf if cmath.isinf(v) else math.nan


def assert_abs_squared_is_python(values):
    """The T/R column of ``values`` is Python's ``abs(c) ** 2`` of each, bit
    for bit, alone and as the rows of a stack, as ``_sweep`` squares C and
    B; or both raise the same error, that of the first value that Python's
    square overflows."""
    c = np.array(values, dtype=complex)
    try:
        ref = np.array([python_abs_squared(v) for v in c.tolist()])
    except OverflowError as exc:
        with pytest.raises(OverflowError) as got:
            _abs_squared(c)
        assert str(got.value) == str(exc)
        return
    got = _abs_squared(c)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    stacked = _abs_squared(np.stack([c, c[::-1]]))
    assert stacked.tobytes() == np.stack([ref, ref[::-1]]).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                min_size=1, max_size=8))
def test_abs_squared_on_any_bit_pattern(bits):
    # nan payloads, +-inf, +-0, subnormals and every exponent
    parts = np.array(bits, dtype=np.uint64).view(float)
    values = np.empty(len(parts), complex)
    values.real, values.imag = parts[:, 0], parts[:, 1]
    assert_abs_squared_is_python(values)


# moduli whose square lies near a midpoint between two doubles: the C
# library's pow(x, 2) may round them the other way than x * x, and on
# glibc 2.36 it does for each of these
POW_MIDPOINTS = [0.11204792820010268, 0.08947526957284335, 0.4266997193518904,
                 0.48459686213666525, 0.052159749329441174, 0.2766063813683321,
                 0.3082865005087723, 1.3964943176580127, 0.938684407053467,
                 1.110364335394407, 0.977434230222296, 1.4018738756025906]


def test_abs_squared_near_rounding_midpoints():
    for x in POW_MIDPOINTS:
        # the exact residual of x * x is at least 0.45 of the gap below it,
        # so the value goes through Python's pow
        sq = x * x
        residual = Fraction(x) ** 2 - Fraction(sq)
        assert abs(residual) >= 0.45 * Fraction(sq - math.nextafter(sq, 0.0))
    values = [complex(s * x, 0.0) for x in POW_MIDPOINTS for s in (1.0, -1.0)]
    values += [complex(0.0, x) for x in POW_MIDPOINTS]
    assert_abs_squared_is_python(values)


def test_abs_squared_on_special_values():
    tiny = 5e-324
    values = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
              complex(tiny, 0.0), complex(-tiny, tiny), complex(1e-310, -2.5e-309),
              complex(2.2250738585072014e-308, 0.0), complex(1e-160, 1e-160),
              complex(math.inf, 0.0), complex(-math.inf, math.nan), complex(math.nan, 1.0),
              complex(0.0, math.nan), complex(math.nan, math.inf), complex(1.0, -math.inf)]
    assert_abs_squared_is_python(values)
    # a square beyond the float range raises Python's OverflowError
    assert_abs_squared_is_python([0.5, complex(1e200, 0.0), complex(1e300, 1e300)])
    with pytest.raises(OverflowError):
        _abs_squared(np.array([0.5, 1e200], dtype=complex))


def test_abs_squared_at_the_edges_of_the_fast_range():
    # squares just inside and outside [1e-290, 1e300], on the real and
    # imaginary axis and at an angle
    values = []
    for edge in (1e-290, 1e300):
        h = math.sqrt(edge)
        for _ in range(4):
            h = math.nextafter(h, 0.0)
        for _ in range(9):
            values += [complex(h, 0.0), complex(0.0, -h), complex(0.6 * h, 0.8 * h)]
            h = math.nextafter(h, math.inf)
    sq = [abs(v) ** 2 for v in values]
    assert min(sq) < 1e-290 < max(x for x in sq if x < 1.0)
    assert min(x for x in sq if x > 1.0) < 1e300 < max(sq)
    assert_abs_squared_is_python(values)
