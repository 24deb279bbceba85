import math

import numpy as np
import pytest

import respole.oracle
from respole import (
    DeviceSpec,
    NumericalError,
    ParameterError,
    PoleClass,
    SpectralPole,
    bound_energies_from_truncation,
    build_report,
    classify,
    closed_form_eps0,
    energy_from_z,
    feshbach_pole_search,
    finite_lattice_hamiltonian,
    k_from_z,
    make_tdot,
    pole_residual_report,
    pole_set_distance,
    solve_poles,
)
from respole.oracle import _even_sector

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


def dense_bound_energies(spec, N):
    """Reference: every eigenvalue of the full 2N + n lattice outside the band."""
    evals = np.linalg.eigvalsh(finite_lattice_hamiltonian(spec, N))
    return sorted(float(e) for e in evals if abs(e) > 2.0 * spec.lead_t + 1e-12)


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


def test_residual_report_closed_form_poles():
    spec = make_tdot(1.0, 1.0, 0.0)
    report = pole_residual_report(spec, solve_poles(spec))
    assert len(report) == 4
    for rec in report:
        assert rec.secular < 1e-12
        assert rec.lattice_row_dev < 1e-12


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
    assert rec.secular == pytest.approx(expected, abs=1e-9)
    # dot row is exact by construction; the contact row carries det/(E - eps_d)
    assert rec.lattice_row_dev == pytest.approx(expected / abs(E), abs=1e-9)


def test_residual_report_empty():
    assert pole_residual_report(make_tdot(1.0, 1.0, 0.0), []) == []


def test_pole_set_distance():
    spec = make_tdot(1.0, 0.8, 0.4)
    a = solve_poles(spec)
    b = feshbach_pole_search(spec)
    assert pole_set_distance(a, b) < 1e-9
    assert pole_set_distance(a, a[:3]) == math.inf
    assert pole_set_distance([], []) == 0.0


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


def test_even_sector_plus_bare_chain_is_the_full_spectrum():
    rng = np.random.default_rng(7)
    specs = [make_tdot(1.0, t1, ed) for t1, ed in ((0.5, -1.0), (1.0, 0.0), (2.0, 3.0))]
    specs += [random_device(rng, int(rng.integers(2, 7))) for _ in range(12)]
    for k, spec in enumerate(specs):
        N = 10 + 2 * k
        full = finite_lattice_hamiltonian(spec, N)
        even = _even_sector(spec, N)
        assert even.shape == (N + spec.n_sites,) * 2
        odd = -2.0 * spec.lead_t * np.cos(np.pi * np.arange(1, N + 1) / (N + 1))
        union = np.sort(np.concatenate([np.linalg.eigvalsh(even), odd]))
        tol = 1e-12 * np.max(np.abs(full))
        assert np.max(np.abs(np.linalg.eigvalsh(full) - union)) < tol


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


def test_eigenpair_self_check_raises(monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(h):
        evals, evecs = eigh(h)
        return evals, evecs + 1e-6

    monkeypatch.setattr(respole.oracle.np.linalg, "eigh", perturbed)
    with pytest.raises(NumericalError, match="self-check"):
        bound_energies_from_truncation(make_tdot(1.0, 1.0, 0.0), 50)
