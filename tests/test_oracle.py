import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import respole.oracle
from respole import (
    DeviceSpec,
    NumericalError,
    ParameterError,
    PoleClass,
    SpectralPole,
    bound_energies_from_truncation,
    build_report,
    closed_form_eps0,
    energy_from_z,
    feshbach_pole_search,
    k_from_z,
    make_tdot,
    p_space_hamiltonian,
    pole_residual_report,
    pole_set_distance,
    q_space_reconstruct,
    secular_residual,
    solve_poles,
)
from respole.poles import BOUND_CLASSES, classify
from respole._format import dumps
from respole.oracle import EDGE, finite_lattice_hamiltonian
from test_cli import json_devices
from test_feshbach import bit_identity_devices, star_of_identical_dots

T1_GRID = (0.25, 0.5, 1.0, 1.5, 2.0)
EPS_GRID = (-3.0, -2.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0, 3.0)


def random_device(rng, n):
    """A chain with extra random bonds; the contact is never site 0."""
    bonds = {(i, i + 1): -rng.uniform(0.3, 1.5) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 2, n):
            if rng.uniform() < 0.3:
                bonds[(i, j)] = rng.uniform(-1.5, 1.5)
    return DeviceSpec(
        n_sites=n,
        onsite=tuple(rng.uniform(-2.0, 2.0, size=n).tolist()),
        hoppings=tuple((i, j, a) for (i, j), a in bonds.items()),
        contact=int(rng.integers(1, n)),
        lead_t=float(rng.uniform(0.5, 2.0)),
    )


def even_sector(spec, N):
    """The truncated Hamiltonian on the contact, the lead pairs
    (|x> + |-x>)/sqrt(2) for x = 1..N and the non-contact device sites: the
    x >= 0 block of the lattice with the contact-(x=1) bond scaled by
    sqrt(2), since the contact meets both x = +1 and x = -1.  The contact is
    row 0, lead pair x is row x, site i is row N + i + (i < contact)."""
    c = spec.contact
    rows = [0 if i == c else N + i + (i < c) for i in range(spec.n_sites)]
    h = np.zeros((N + spec.n_sites,) * 2)
    x = np.arange(N)
    h[x, x + 1] = h[x + 1, x] = -spec.lead_t
    h[0, 1] = h[1, 0] = -spec.lead_t * math.sqrt(2.0)
    h[np.ix_(rows, rows)] = p_space_hamiltonian(spec)
    return h


def inertia(spec, N, shifts):
    """The oracle's closed-form count of even-sector eigenvalues below each shift."""
    return respole.oracle._inertia(p_space_hamiltonian(spec), spec.contact, spec.lead_t,
                                   N, shifts)


def outside_band(rng, t, size):
    """``size`` shifts with 2t <= |s| <= 5t, on both sides of the band."""
    return t * rng.choice([-1.0, 1.0], size=size) * rng.uniform(2.0, 5.0, size=size)


def record_shifts(monkeypatch):
    """Patch the oracle's inertia count to record every shift it is given;
    returns the list the shifts go to."""
    seen = []
    count = respole.oracle._inertia

    def recording(hp, contact, t, N, shifts):
        seen.extend(np.asarray(shifts, dtype=float).tolist())
        return count(hp, contact, t, N, shifts)

    monkeypatch.setattr(respole.oracle, "_inertia", recording)
    return seen


def dense_bound_energies(spec, N):
    """Reference: every eigenvalue of the full 2N + n lattice outside the band."""
    evals = np.linalg.eigvalsh(finite_lattice_hamiltonian(spec, N))
    return sorted(float(e) for e in evals if abs(e) > 2.0 * spec.lead_t * EDGE)


def test_small_lattice_assembly():
    lat = finite_lattice_hamiltonian(make_tdot(1.0, 1.0, 0.0), 1)
    # rows: x=-1, x=0, x=+1, dot
    expected = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [-1.0, 0.0, -1.0, -1.0],
            [0.0, -1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(lat, expected)
    # the contact is row N = 1, the only lattice site the dot meets
    assert np.flatnonzero(lat[3]).tolist() == [1]
    with pytest.raises(ParameterError):
        finite_lattice_hamiltonian(make_tdot(1.0, 1.0, 0.0), 0)


def walked_lattice(spec, N):
    """The hard-wall lattice assembled site by site from onsite and hoppings."""
    extras = [i for i in range(spec.n_sites) if i != spec.contact]
    h = np.zeros((2 * N + 1 + len(extras),) * 2)
    for x in range(2 * N):
        h[x, x + 1] = h[x + 1, x] = -spec.lead_t

    def row_of(site):
        return N if site == spec.contact else 2 * N + 1 + extras.index(site)

    for i in range(spec.n_sites):
        h[row_of(i), row_of(i)] = spec.onsite[i]
    for i, j, amp in spec.hoppings:
        h[row_of(i), row_of(j)] = h[row_of(j), row_of(i)] = amp
    return h


def test_lattice_places_the_device_block_as_the_site_walk_does():
    rng = np.random.default_rng(19)
    for n in range(1, 7):
        for contact in range(n):
            for N in rng.choice(np.arange(1, 31), size=6, replace=False).tolist():
                if n == 1:
                    spec = DeviceSpec(1, (float(rng.uniform(-2.0, 2.0)),), (), 0, 1.3)
                else:
                    base = random_device(rng, n)
                    spec = DeviceSpec(n, base.onsite, base.hoppings, contact, base.lead_t)
                assert np.array_equal(finite_lattice_hamiltonian(spec, N),
                                      walked_lattice(spec, N))


def test_small_lattice_eigenvalues_satisfy_char_poly():
    lat = finite_lattice_hamiltonian(make_tdot(1.0, 1.0, 0.0), 1)
    evals = np.linalg.eigvalsh(lat)
    for e in evals:
        # residual of det(H - e I) via an LU determinant
        assert abs(np.linalg.det(lat - e * np.eye(4))) < 1e-12


def test_generalized_lattice_assembly():
    spec = DeviceSpec(3, (0.1, 0.5, -0.2), ((0, 1, -0.8), (1, 2, -0.6)), 0, 1.0)
    lat = finite_lattice_hamiltonian(spec, 2)
    # 5 lead sites + 2 extra device sites
    assert lat.shape == (7, 7)
    assert lat[2, 2] == 0.1       # contact onsite sits at x = 0
    assert lat[5, 5] == 0.5
    assert lat[6, 6] == -0.2
    assert lat[2, 5] == -0.8
    assert lat[5, 6] == -0.6
    assert np.array_equal(lat, lat.T)


def test_bound_energies_match_closed_form():
    vals = bound_energies_from_truncation(make_tdot(1.0, 1.0, 0.0), 200)
    cf = closed_form_eps0(1.0, 1.0)
    assert len(vals) == 2
    assert vals[0] == pytest.approx(-(cf.p + cf.q), abs=1e-8)
    assert vals[1] == pytest.approx(+(cf.p + cf.q), abs=1e-8)


def test_bound_energies_match_solver_with_detuned_dot():
    spec = make_tdot(1.0, 1.0, 3.0)
    vals = bound_energies_from_truncation(spec, 200)
    sieg = sorted(
        p.E.real for p in solve_poles(spec)
        if p.pole_class in (PoleClass.BOUND_LOWER, PoleClass.BOUND_UPPER)
    )
    assert len(vals) == len(sieg) == 2
    for a, b in zip(vals, sieg):
        assert abs(a - b) < 1e-8


def test_bound_energies_decoupled_limit_empty():
    vals = bound_energies_from_truncation(make_tdot(1.0, 1e-12, 0.0), 200)
    assert vals == []


def test_bound_count_matches_over_grid():
    for t1 in (0.5, 1.0, 2.0):
        for ed in (-3.0, -1.0, 0.0, 1.0, 3.0):
            spec = make_tdot(1.0, t1, ed)
            lattice = bound_energies_from_truncation(spec, 200)
            bound = [
                p for p in solve_poles(spec)
                if p.pole_class in (PoleClass.BOUND_LOWER, PoleClass.BOUND_UPPER)
            ]
            assert len(lattice) == len(bound)


def test_bound_energy_convergence_in_lattice_size():
    # measurable but converged truncation error: moderate binding
    spec = make_tdot(1.0, 0.5, 0.0)
    exact = sorted(
        p.E.real for p in solve_poles(spec)
        if p.pole_class in (PoleClass.BOUND_LOWER, PoleClass.BOUND_UPPER)
    )
    err = {}
    for n in (100, 200):
        vals = bound_energies_from_truncation(spec, n)
        err[n] = max(abs(a - b) for a, b in zip(vals, exact))
    assert err[200] < err[100] < 1e-6


def test_truncation_needs_enough_sites():
    with pytest.raises(ParameterError):
        bound_energies_from_truncation(make_tdot(1.0, 1.0, 0.0), 5)


def test_bound_state_newton_that_does_not_converge_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(respole.oracle, "MAX_NEWTON", 1)
    with pytest.raises(NumericalError) as exc:
        bound_energies_from_truncation(make_tdot(1.0, 0.5, 3.0), 50)
    assert str(exc.value) == "bound-state Newton iteration failed to converge in 1 steps"


def test_band_edge_eigensolve_that_does_not_converge_is_a_numerical_error(monkeypatch):
    # the first eigvalsh call is _inertia's edge count, the second the band-edge solve
    eigvalsh, calls = np.linalg.eigvalsh, []

    def fails_second(a):
        calls.append(a.shape)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("forced")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", fails_second)
    with pytest.raises(NumericalError) as exc:
        bound_energies_from_truncation(make_tdot(1.0, 0.5, 3.0), 50)
    assert str(exc.value) == "band-edge eigensolve failed to converge"
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
    assert calls == [(2, 2, 2), (2, 2, 2)]


def test_residual_report_closed_form_poles():
    spec = make_tdot(1.0, 1.0, 0.0)
    report = pole_residual_report(spec, solve_poles(spec))
    assert len(report) == 4
    for rec in report:
        assert rec["residual"] < 1e-12
        assert rec["lattice_row_dev"] < 1e-12


def test_residual_report_perturbed_root():
    # oracle first: |P(0.79)| / 0.79^2 with P the quartic z^4 + z^2 - 1
    z = 0.79
    expected = abs(z**4 + z**2 - 1.0) / z**2
    assert expected == pytest.approx(0.0217927, abs=1e-7)
    E = energy_from_z(z, 1.0)
    fake = SpectralPole(
        z=complex(z), k=k_from_z(z), E=E, pole_class=classify(z),
        amps=(1.0 + 0j, -1.0 / E),
    )
    (rec,) = pole_residual_report(make_tdot(1.0, 1.0, 0.0), [fake])
    assert rec["residual"] == pytest.approx(expected, abs=1e-9)
    # dot row is exact by construction; the contact row carries det/(E - eps_d)
    assert rec["lattice_row_dev"] == pytest.approx(expected / abs(E), abs=1e-9)


def test_residual_report_empty():
    assert pole_residual_report(make_tdot(1.0, 1.0, 0.0), []) == []


def test_pole_set_distance():
    spec = make_tdot(1.0, 0.8, 0.4)
    a = solve_poles(spec)
    b = feshbach_pole_search(spec)
    assert pole_set_distance(a, b) < 1e-9
    assert pole_set_distance(a, a[:3]) == math.inf
    assert pole_set_distance([], []) == 0.0


def reference_pole_set_distance(a, b):
    """``pole_set_distance`` as a generator of Python complex ``abs`` over
    every pair: the reference that the ``np.hypot`` form must match bit for
    bit, OverflowError included."""
    if len(a) != len(b):
        return math.inf
    if not a:
        return 0.0
    za = [p.z for p in a]
    zb = [p.z for p in b]
    d_ab = max(min(abs(x - y) for y in zb) for x in za)
    d_ba = max(min(abs(x - y) for y in za) for x in zb)
    return max(d_ab, d_ba)


def distance_outcome(distance, a, b):
    """The distance as its repr, or the OverflowError's message."""
    try:
        return repr(distance(a, b))
    except OverflowError as exc:
        return f"OverflowError: {exc}"


def at(zs):
    """Poles with the given Bloch factors; only z matters to the distance."""
    pole = solve_poles(make_tdot(1.0, 1.0, 0.0))[0]
    return [replace(pole, z=complex(z)) for z in zs]


def test_pole_set_distance_equals_the_generator_bit_for_bit():
    cases = []
    for spec in bit_identity_devices():
        siegert, feshbach = solve_poles(spec), feshbach_pole_search(spec)
        cases += [(siegert, feshbach), (feshbach, siegert), (siegert, siegert[::-1])]
    huge = 1.5e308
    cases += [
        (at([1, 2]), at([1])), (at([]), at([3j])), (at([]), at([])),
        # finite parts whose modulus is past the float range: abs raises
        (at([complex(huge, huge), 1]), at([0.5, 0.25j])),
        # a part that overflows in the difference: abs reads inf
        (at([huge, 1]), at([-huge, 2])),
        # signed zeros and equal sets
        (at([complex(-0.0, 1), complex(0.0, -0.0)]), at([complex(0.0, 1), -0.0])),
        (at([0.5, -0.5]), at([0.5, -0.5])),
    ]
    outcomes = [distance_outcome(reference_pole_set_distance, a, b) for a, b in cases]
    assert [distance_outcome(pole_set_distance, a, b) for a, b in cases] == outcomes
    assert {"inf", "0.0", "OverflowError: absolute value too large"} <= set(outcomes)
    assert type(pole_set_distance(*cases[0])) is float


def test_build_report_structure():
    report = build_report(make_tdot(1.0, 1.0, 0.0), 200)
    assert set(report) == {"poles", "bound_compare"}
    assert len(report["poles"]) == 4
    for entry in report["poles"]:
        assert set(entry) == {"z", "residual", "lattice_row_dev", "class"}
        assert entry["residual"] < 1e-10
        assert entry["lattice_row_dev"] < 1e-10
    bc = report["bound_compare"]
    assert len(bc["siegert"]) == len(bc["lattice"]) == 2
    assert bc["max_abs_diff"] < 1e-8


def test_build_report_poles_are_the_residual_report_rows():
    rng = np.random.default_rng(97)
    specs = [make_tdot(1.0, t1, ed) for t1 in T1_GRID for ed in (-3.0, -0.3, 0.0, 1.0)]
    specs += [random_device(rng, n) for n in range(2, 9) for _ in range(2)]
    for spec in specs:
        rows = pole_residual_report(spec, solve_poles(spec))
        assert rows == build_report(spec, 60)["poles"]
        for row in rows:
            assert list(row) == ["z", "residual", "lattice_row_dev", "class"]
            assert row["class"] in {c.value for c in PoleClass}


def test_even_sector_plus_bare_chain_is_the_full_spectrum():
    rng = np.random.default_rng(7)
    specs = [make_tdot(1.0, t1, ed) for t1, ed in ((0.5, -1.0), (1.0, 0.0), (2.0, 3.0))]
    specs += [random_device(rng, int(rng.integers(2, 7))) for _ in range(12)]
    for k, spec in enumerate(specs):
        N = 10 + 2 * k
        full = finite_lattice_hamiltonian(spec, N)
        even = even_sector(spec, N)
        assert even.shape == (N + spec.n_sites,) * 2
        odd = -2.0 * spec.lead_t * np.cos(np.pi * np.arange(1, N + 1) / (N + 1))
        union = np.sort(np.concatenate([np.linalg.eigvalsh(even), odd]))
        tol = 1e-12 * np.max(np.abs(full))
        assert np.max(np.abs(np.linalg.eigvalsh(full) - union)) < tol


def test_even_sector_is_the_folded_lattice_block():
    # built directly, the even sector is bit for bit the x >= 0 block of the
    # full lattice with the contact-(x=1) bond scaled by sqrt(2)
    rng = np.random.default_rng(41)
    specs = [make_tdot(t, t1, ed) for t, t1, ed in
             ((1.0, 0.5, -1.0), (0.7, -0.0, 2.5), (2.0, 1e-7, 0.0), (1.3, -2.0, 3.0))]
    for n in range(1, 9):
        for contact in sorted({0, n // 2, n - 1}):
            bonds = tuple((i, j, float(rng.uniform(-1.5, 1.5)))
                          for i in range(n) for j in range(i + 1, n)
                          if j == i + 1 or rng.uniform() < 0.3)
            specs.append(DeviceSpec(n, tuple(rng.uniform(-2.0, 2.0, n).tolist()), bonds,
                                    contact, float(rng.uniform(0.5, 2.0))))
    for spec in specs:
        for N in (1, 2, 10, 37, 400):
            folded = finite_lattice_hamiltonian(spec, N)[N:, N:].copy()
            folded[0, 1] = folded[1, 0] = folded[0, 1] * math.sqrt(2.0)
            even = even_sector(spec, N)
            assert even.dtype == folded.dtype and even.shape == folded.shape
            assert even.tobytes() == folded.tobytes()


def test_bound_energies_match_dense_full_lattice():
    specs = [(make_tdot(1.0, t1, ed), 200) for t1 in T1_GRID for ed in EPS_GRID]
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = random_device(rng, int(rng.integers(2, 7)))
        specs.append((spec, int(rng.integers(100, 201))))
    for spec, N in specs:
        got = bound_energies_from_truncation(spec, N)
        ref = dense_bound_energies(spec, N)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert abs(a - b) < 1e-13 * max(1.0, abs(b))


def certificate_bound(spec, N):
    """The self-check's delta: 1e-10 * max|H| * dim of the even sector."""
    h = even_sector(spec, N)
    return 1e-10 * np.max(np.abs(h)) * h.shape[0]


def moved_by_ten_bounds(evals, bound):
    """The lowest eigenvalue, an isolated bound state, moved up by 10 delta."""
    evals = evals.copy()
    evals[0] += 10.0 * bound
    return evals


def neighbour_written_over(evals, bound):
    """Reported energy 1 written over energy 0: one repeated, one missing."""
    evals = evals.copy()
    evals[1] = evals[0]
    return evals


def with_nan(evals, bound):
    evals = evals.copy()
    evals[-1] = np.nan
    return evals


def corrupt_the_solve(monkeypatch, corrupt, bound):
    """Patch the root finder the oracle calls to corrupt the energies it
    returns; the inertia counts that check them run untouched."""
    bound_roots = respole.oracle._bound_roots

    def corrupted(*args):
        return corrupt(bound_roots(*args), bound)

    monkeypatch.setattr(respole.oracle, "_bound_roots", corrupted)


@pytest.mark.parametrize("corrupt", [moved_by_ten_bounds, neighbour_written_over],
                         ids=["moved", "duplicated"])
def test_eigenvalue_certificate_raises(monkeypatch, corrupt):
    # a residual check of eigenpairs passes a repeated pair, so it could not
    # see the duplicated case; the inertia counts see both
    spec, N = make_tdot(1.0, 1.0, 0.0), 50
    bound = certificate_bound(spec, N)
    assert np.diff(np.linalg.eigvalsh(even_sector(spec, N))[:2]) > 20.0 * bound
    corrupt_the_solve(monkeypatch, corrupt, bound)
    with pytest.raises(NumericalError, match="self-check"):
        bound_energies_from_truncation(spec, N)


def test_non_finite_eigenvalue_is_a_numerical_error(monkeypatch):
    spec, N = make_tdot(1.0, 1.0, 0.0), 50
    corrupt_the_solve(monkeypatch, with_nan, certificate_bound(spec, N))
    with pytest.raises(NumericalError, match="non-finite"):
        bound_energies_from_truncation(spec, N)


def test_eigenvalue_certificate_passes_a_move_below_the_bound(monkeypatch):
    spec, N = make_tdot(1.0, 1.0, 0.0), 50
    bound = certificate_bound(spec, N)
    exact = bound_energies_from_truncation(spec, N)
    corrupt_the_solve(monkeypatch, lambda evals, bound: evals + 0.5 * bound, bound)
    assert bound_energies_from_truncation(spec, N) == [e + 0.5 * bound for e in exact]


def test_schur_complement_eigensolve_failure_is_a_numerical_error(monkeypatch):
    eigvalsh = np.linalg.eigvalsh

    def failing(a):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(respole.oracle.np.linalg, "eigvalsh", failing)
    with pytest.raises(NumericalError, match="failed to converge"):
        bound_energies_from_truncation(make_tdot(1.0, 1.0, 0.0), 50)


def test_newton_eigensolve_failure_is_a_numerical_error(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(respole.oracle.np.linalg, "eigh", failing)
    with pytest.raises(NumericalError, match="failed to converge"):
        bound_energies_from_truncation(make_tdot(1.0, 1.0, 0.0), 50)


def device_with_contact(rng, n, contact):
    """A random connected device of n sites with the contact on any site."""
    bonds = tuple((i, j, float(rng.uniform(-1.5, 1.5)))
                  for i in range(n) for j in range(i + 1, n)
                  if j == i + 1 or rng.uniform() < 0.3)
    return DeviceSpec(n, tuple(rng.uniform(-2.0, 2.0, n).tolist()), bonds, contact,
                      float(rng.uniform(0.5, 2.0)))


def inertia_devices():
    rng = np.random.default_rng(97)
    specs = [make_tdot(t, t1, ed) for t, t1, ed in
             ((1.0, 1.0, 0.0), (1.0, 1.0, 0.3), (1.0, 0.25, -3.0), (0.7, 2.0, -0.4),
              (1.0, 0.0, 0.5), (1e-3, 1e-3, 2e-4), (1e-170, 5e-171, 3e-171),
              (1e160, 5e159, 3e159))]
    specs += [device_with_contact(rng, n, c) for n in range(1, 9)
              for c in sorted({0, int(rng.integers(0, n)), n - 1})]
    return specs


@pytest.mark.parametrize("N", [10, 11, 37, 400])
def test_inertia_counts_the_eigenvalues_below_each_shift(N):
    rng = np.random.default_rng(N)
    unambiguous = total = 0
    for spec in inertia_devices():
        t = spec.lead_t
        h = even_sector(spec, N)
        evals = np.linalg.eigvalsh(h)
        shifts = outside_band(rng, t, 20)
        got = inertia(spec, N, shifts)
        # an eigenvalue within rounding of a shift may fall either side of it
        tol = 1e-12 * np.max(np.abs(h)) * h.shape[0]
        for shift, count in zip(shifts, got):
            lo = np.sum(evals < shift - tol)
            hi = np.sum(evals < shift + tol)
            assert lo <= count <= hi, (spec, shift)
            unambiguous += int(lo == hi)
            total += 1
    assert unambiguous >= 0.95 * total


@pytest.mark.parametrize("shift", [0.0, -0.0, 1.0, -1.9, 0.5 * (1.0 + math.sqrt(5.0)),
                                   np.nextafter(2.0, 0.0), np.nextafter(-2.0, 0.0), 2.0, -2.0])
def test_inertia_inside_the_band_is_a_numerical_error(shift):
    # g_N has a pole at every level of the bare chain inside the band, and
    # no count the oracle needs is taken there or on the band edge: 0 and
    # the golden ratio are chain levels at N = 11 and N = 9
    spec = make_tdot(1.0, 1.0, 0.3)
    for N in (9, 11):
        with pytest.raises(NumericalError, match="inside the band"):
            inertia(spec, N, np.array([3.0, shift, -3.0]))


def scaled_exactly(x, e):
    """x * 2**e, or None where that overflows or loses a bit to a subnormal."""
    if math.frexp(x)[1] + e > 1024:
        return None
    y = math.ldexp(x, e)
    return y if math.ldexp(y, -e) == x else None


def test_inertia_is_invariant_under_power_of_two_scaling():
    # scaling the device, the lead and the shifts by 2**e changes no count,
    # down to subnormal entries: the counts first scale max|H| into [1/2, 1)
    rng = np.random.default_rng(3)
    for spec in inertia_devices():
        for N in (11, 37):
            t = spec.lead_t
            shifts = outside_band(rng, t, 20)
            exact = inertia(spec, N, shifts).tolist()
            for e in (-1060, -1040, 1000):
                onsite = [scaled_exactly(x, e) for x in spec.onsite]
                bonds = [(i, j, scaled_exactly(a, e)) for i, j, a in spec.hoppings]
                lead = scaled_exactly(t, e)
                if None in (lead, *onsite, *(a for _, _, a in bonds)):
                    continue
                scaled = DeviceSpec(spec.n_sites, tuple(onsite), tuple(bonds), spec.contact, lead)
                assert inertia(scaled, N, np.ldexp(shifts, e)).tolist() == exact, (spec, e)


def ldlt_inertia(h, N, shifts):
    """Eigenvalues of the even sector ``h`` below each shift, from the LDL^T
    pivots d <- h_xx - s - h_{x,x+1}**2 / d of its chain rows, eliminated from
    the wall inward, and the eigenvalues of the Schur complement left on the
    contact and device rows, its contact row scaled so that the contact entry
    is at most 1 in size."""
    _, exp = math.frexp(np.max(np.abs(h)))
    shifts = np.ldexp(shifts, -exp)
    bond2 = (np.ldexp(np.diagonal(h, 1), -exp) ** 2).tolist()
    rows = [0, *range(N + 1, h.shape[0])]
    with np.errstate(all="ignore"):
        pivots = np.subtract.outer(np.ldexp(np.diagonal(h)[1 : N + 1], -exp), shifts)
        for x in range(N - 2, -1, -1):
            pivots[x] -= bond2[x + 1] / pivots[x + 1]
        schur = np.ldexp(h[np.ix_(rows, rows)], -exp) - shifts[:, None, None] * np.eye(len(rows))
        contact = schur[:, 0, 0] - bond2[0] / pivots[0]
        scale = 1.0 / np.sqrt(np.maximum(1.0, np.abs(contact)))
    schur[:, 0, 1:] *= scale[:, None]
    schur[:, 1:, 0] *= scale[:, None]
    schur[:, 0, 0] = np.clip(contact, -1.0, 1.0)
    evals = np.linalg.eigvalsh(schur)
    return np.count_nonzero(np.signbit(pivots), axis=0) + np.count_nonzero(evals < 0.0, axis=1)


def test_inertia_matches_the_ldlt_recurrence():
    # the closed form in the chain's Green's function against the pivots of
    # the chain rows eliminated one by one, both exact, on the same shifts
    spec, N = make_tdot(1.0, 1.0, 0.3), 40
    shifts = np.concatenate([np.linspace(-3.0, -2.0, 20)[:-1], np.linspace(2.0, 51.0, 180)[1:]])
    assert inertia(spec, N, shifts).tolist() == ldlt_inertia(even_sector(spec, N), N,
                                                             shifts).tolist()


def test_bound_states_within_the_bound_of_the_band_edge(monkeypatch):
    # bound states so weak that E + delta (below the band) and E - delta
    # (above it) lie inside the band: the self-check moves those shifts onto
    # the reporting edge, whose counts already certify that half of the check
    spec, N = make_tdot(1.0, 0.099951, 0.0), 400
    bound = certificate_bound(spec, N)
    ref = dense_bound_energies(spec, N)
    assert len(ref) == 2 and all(2.0 < abs(e) < 2.0 + bound for e in ref)
    shifts = record_shifts(monkeypatch)
    got = bound_energies_from_truncation(spec, N)
    assert len(got) == 2
    for a, b in zip(got, ref):
        assert abs(a - b) <= 1e-14 * abs(b)
    assert len(shifts) == 6 and min(map(abs, shifts)) == 2.0 * EDGE


def test_every_shift_lies_outside_the_band(monkeypatch):
    # on the acceptance grid of T-dots at N = 200, as criterion 9 runs it
    shifts = record_shifts(monkeypatch)
    for t1 in T1_GRID:
        for ed in EPS_GRID:
            bound_energies_from_truncation(make_tdot(1.0, t1, ed), 200)
    assert len(shifts) > 2 * len(T1_GRID) * len(EPS_GRID)
    assert min(map(abs, shifts)) >= 2.0 * EDGE


def scaled_device(spec, scale):
    """Every energy of the device, the lead hopping included, times scale."""
    return DeviceSpec(spec.n_sites, tuple(e * scale for e in spec.onsite),
                      tuple((i, j, a * scale) for i, j, a in spec.hoppings), spec.contact,
                      spec.lead_t * scale)


def test_bound_energies_scale_with_the_lead_hopping():
    # the reporting edge is relative to t: a uniformly scaled device keeps its
    # bound states, down to t = 1e-170 and up to 1e100
    rng = np.random.default_rng(29)
    specs = [make_tdot(1.0, t1, ed) for t1, ed in ((0.5, 0.3), (1.0, 0.0), (0.25, -3.0))]
    for n in range(1, 7):
        specs.append(replace(device_with_contact(rng, n, int(rng.integers(0, n))), lead_t=1.0))
    for spec in specs:
        exact = bound_energies_from_truncation(spec, 200)
        assert exact
        for scale in (1e-170, 1e-13, 2.0 ** -40, 1e100):
            got = bound_energies_from_truncation(scaled_device(spec, scale), 200)
            assert len(got) == len(exact), (spec, scale)
            for a, b in zip(got, exact):
                assert abs(a / (spec.lead_t * scale) - b) <= 1e-12 * abs(b), (spec, scale)


def test_truncation_that_loses_a_weakly_bound_state():
    # at small N the wall pushes a weakly bound state into the band: the
    # outgoing-wave route finds two bound states, the truncated lattice one
    spec, N = make_tdot(1.0, 0.25, 3.0), 10
    sieg = [p for p in solve_poles(spec) if p.pole_class in BOUND_CLASSES]
    ref = dense_bound_energies(spec, N)
    assert len(sieg) == 2 and len(ref) == 1
    edge = 2.0 * EDGE
    counts = inertia(spec, N, [-edge, edge]).tolist()
    evals = np.linalg.eigvalsh(even_sector(spec, N))
    assert counts == [np.sum(evals < -edge), np.sum(evals < edge)]
    got = bound_energies_from_truncation(spec, N)
    assert len(got) == 1 and abs(got[0] - ref[0]) <= 1e-14 * abs(ref[0])


def test_device_energies_beyond_the_float_range_of_the_lead_raise():
    # |E| / t = 1e301 leaves no room for 2 t cosh(kappa) to bracket the roots
    with pytest.raises(NumericalError, match="out of range"):
        bound_energies_from_truncation(make_tdot(1e-301, 1.0, 0.0), 50)


def test_a_lattice_too_large_for_a_dense_solve():
    # the even sector at N = 100000 would be an 80 GB matrix; the closed form
    # needs nothing of that size, and a strongly bound state has converged
    spec = make_tdot(1.0, 2.0, 0.3)
    far, near = bound_energies_from_truncation(spec, 100000), bound_energies_from_truncation(spec, 400)
    assert len(far) == len(near) == 2
    for a, b in zip(far, near):
        assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


def test_bound_energies_move_only_in_the_last_bits():
    # the closed-form solve against the eigenvector solve of the even sector;
    # the scaled T-dots put kappa, with |E| = 2 t cosh(kappa), up to 576,
    # where one ulp of kappa moves E by 1e-13 |E|
    specs = [(make_tdot(1.0, t1, ed), 200) for t1 in T1_GRID for ed in EPS_GRID]
    specs += [(make_tdot(t, t1, ed), 50) for t, t1, ed in
              ((1e-160, 1.0, 0.3), (1e-250, 2.0, 1.0), (1.0, 1e8, 0.3), (1.0, 1e3, -2.0))]
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        spec = device_with_contact(rng, n, int(rng.integers(0, n)))
        specs.append((spec, int(rng.integers(100, 201))))
    for spec, N in specs:
        got = bound_energies_from_truncation(spec, N)
        ref = [e for e in np.linalg.eigh(even_sector(spec, N))[0]
               if abs(e) > 2.0 * spec.lead_t * EDGE]
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


def mirrored_residual_report(spec, poles):
    """``pole_residual_report`` with the lead rows at x = -2, -1, 1, 2 all
    evaluated and the contact row's lead term from psi(-1) + psi(1): the
    reference whose floats the one-sided rows must reproduce exactly."""
    secular = secular_residual(spec, np.array([p.z for p in poles], dtype=complex))
    hp = p_space_hamiltonian(spec)
    t = spec.lead_t
    out = []
    for pole, sec in zip(poles, secular):
        E = pole.E
        psi = {x: q_space_reconstruct(pole, x) for x in range(-3, 4)}
        devs = [abs(-t * (psi[x - 1] + psi[x + 1]) - E * psi[x]) for x in (-2, -1, 1, 2)]
        for i in range(spec.n_sites):
            row = sum(hp[i, j] * pole.amps[j] for j in range(spec.n_sites))
            if i == spec.contact:
                row += -t * (psi[-1] + psi[1])
            devs.append(abs(row - E * pole.amps[i]))
        out.append({"z": [pole.z.real, pole.z.imag], "residual": abs(complex(sec)),
                    "lattice_row_dev": max(devs), "class": pole.pole_class.value})
    return out


def assert_residuals_match_the_mirrored_rows(spec, poles):
    """Each report row has the reference's keys in order and its class, and
    each number is a Python float with the bits of the reference's."""
    got = pole_residual_report(spec, poles)
    ref = mirrored_residual_report(spec, poles)
    assert len(got) == len(ref)
    for r, m in zip(got, ref):
        assert list(r) == ["z", "residual", "lattice_row_dev", "class"]
        assert r["class"] == m["class"]
        for value, expected in [*zip(r["z"], m["z"]),
                                (r["residual"], m["residual"]),
                                (r["lattice_row_dev"], m["lattice_row_dev"])]:
            assert type(value) is float
            assert value.hex() == float(expected).hex()


def off_root(pole, factor):
    """The pole moved to z * factor, with its E and amplitudes kept."""
    return replace(pole, z=pole.z * factor)


@pytest.mark.parametrize("n", range(1, 9))
@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data())
def test_residual_report_matches_the_mirrored_rows(n, data):
    spec = data.draw(json_devices(n))
    for route in (solve_poles, feshbach_pole_search):
        try:
            poles = route(spec)
        except NumericalError:
            continue
        assert_residuals_match_the_mirrored_rows(spec, poles)
        assert_residuals_match_the_mirrored_rows(spec, [off_root(p, 1.001) for p in poles])


def test_residual_report_matches_the_mirrored_rows_on_stars_and_fake_poles():
    rng = np.random.default_rng(83)
    for _ in range(12):
        spec = star_of_identical_dots(rng)
        assert_residuals_match_the_mirrored_rows(spec, solve_poles(spec))
    spec = make_tdot(1.0, 1.0, 0.0)
    z = 0.79
    E = energy_from_z(z, 1.0)
    fake = SpectralPole(z=complex(z), k=k_from_z(z), E=E, pole_class=classify(z),
                        amps=(1.0 + 0j, -1.0 / E))
    assert_residuals_match_the_mirrored_rows(spec, [fake])
    # at t = 1e10 and |z| = 1e102 both terms of the row at x = 2 overflow, so
    # it is inf - inf, a NaN, and max must meet it where the mirrored rows did
    spec = make_tdot(1e10, 1.0, 0.0)
    huge = [replace(fake, z=z, E=energy_from_z(z, 1e10)) for z in (1e102 + 0j, -1e102j)]
    assert all(math.isnan(r["lattice_row_dev"]) for r in mirrored_residual_report(spec, huge))
    assert_residuals_match_the_mirrored_rows(spec, huge)
    # a device row with finite parts whose modulus overflows: numpy's abs gives
    # inf, and so must the report, where Python's abs would raise
    spec = DeviceSpec(1, (0.0,), (), 0, 1.0)
    wide = replace(fake, z=0.5 + 0j, E=1.0 + 0j, amps=(complex(7e307, 7e307),))
    with np.errstate(over="ignore"):
        assert mirrored_residual_report(spec, [wide])[0]["lattice_row_dev"] == math.inf
        assert_residuals_match_the_mirrored_rows(spec, [wide])


def test_bound_energies_come_out_ascending():
    rng = np.random.default_rng(89)
    for spec in [make_tdot(1.0, 1.5, 0.4), *(random_device(rng, n) for n in range(2, 9))]:
        energies = bound_energies_from_truncation(spec, 30)
        assert len(energies) >= 1 and energies == sorted(energies)


@pytest.mark.parametrize("spec", [
    make_tdot(1.0, 1.0, 0.0), make_tdot(1.0, 0.0, 0.5), make_tdot(1.0, 0.25, 3.0),
    DeviceSpec(3, (0.0, 0.5, -0.2), ((0, 1, -0.8), (1, 2, -0.6)), 1, 1.3),
], ids=["symmetric", "decoupled", "weakly_bound", "chain"])
def test_dumps_round_trips_the_oracle_report(spec):
    report = build_report(spec, 60)
    assert json.loads(dumps(report)) == report


@pytest.mark.parametrize("value", [True, 1, (1.0,), {"a": [False]}, [np.int64(1)], 1j])
def test_dumps_refuses_types_no_caller_passes(value):
    with pytest.raises(TypeError, match="^cannot serialize "):
        dumps(value)


def finite_lead_secular(spec, N):
    """det(E(z) I - H_P + 2tz r_N(z) P_c) in mpmath: the outgoing-wave secular
    function with the self-energy -2tz of the two infinite leads replaced by
    that of two N-site leads, -2tz r_N(z), r_N = (1 - z^2N) / (1 - z^(2N+2))."""
    h = mpmath.matrix(p_space_hamiltonian(spec).tolist())
    t, c = mpmath.mpf(spec.lead_t), spec.contact

    def f(z):
        m = -h
        for i in range(spec.n_sites):
            m[i, i] += -t * (z + 1 / z)
        m[c, c] += 2 * t * z * (1 - z ** (2 * N)) / (1 - z ** (2 * N + 2))
        return mpmath.det(m)

    return f


def test_oracle_is_the_outgoing_wave_equation_with_a_finite_lead():
    # criterion 9's grid at N = 200, where the oracle and the outgoing-wave
    # route differ by up to 2e-5: Newton on the finite-lead secular function,
    # started from each outgoing-wave bound state, lands on the oracle's
    # energy, so the gap is exactly the hard-wall shift of r_N
    N, worst, states = 200, 0.0, 0
    for t1 in T1_GRID:
        for ed in EPS_GRID:
            spec = make_tdot(1.0, t1, ed)
            want = bound_energies_from_truncation(spec, N)
            got = []
            with mpmath.workdps(40):
                f = finite_lead_secular(spec, N)
                for p in solve_poles(spec):
                    if p.pole_class not in BOUND_CLASSES:
                        continue
                    z = mpmath.mpf(p.z.real)
                    for _ in range(60):
                        step = f(z) / mpmath.diff(f, z)
                        z -= step
                        if abs(step) <= mpmath.mpf(10) ** -35 * abs(z):
                            break
                    else:
                        raise AssertionError(f"Newton did not converge at {(t1, ed)}")
                    got.append(float(-spec.lead_t * (z + 1 / z)))
            assert len(got) == len(want), (t1, ed)
            for a, b in zip(sorted(got), want):
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
            states += len(got)
    assert states == 90
    assert worst <= 1e-12
