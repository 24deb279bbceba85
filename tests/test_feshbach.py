import math

import numpy as np
import pytest

import respole.feshbach
from respole import (
    DeviceSpec,
    NumericalError,
    ParameterError,
    PoleClass,
    build_h_eff,
    feshbach_pole_search,
    make_tdot,
    p_space_hamiltonian,
    q_space_reconstruct,
    secular_residual,
    self_energy,
    solve_poles,
    z_pair_from_energy,
)

P = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
Q = 1.0 / P

GEN_DEVICE = DeviceSpec(
    n_sites=3,
    onsite=(0.0, 0.5, -0.2),
    hoppings=((0, 1, -0.8), (1, 2, -0.6)),
    contact=0,
    lead_t=1.0,
)


def quartic(t, t1, ed, z):
    """The secular quartic, evaluated directly (independent of the solver)."""
    return t * t * z**4 + t * ed * z**3 + t1 * t1 * z * z - t * ed * z - t * t


def test_self_energy_is_retarded_on_shell():
    rng = np.random.default_rng(2)
    for _ in range(200):
        t = rng.uniform(0.2, 3.0)
        e = rng.uniform(-2 * t + 1e-3, 2 * t - 1e-3)
        z_ret, _ = z_pair_from_energy(e, t)
        assert self_energy(z_ret, t).imag < 0


def test_build_h_eff_tdot_entries():
    h = build_h_eff(make_tdot(1.0, 1.0, 0.0), 1j)
    assert np.allclose(h, [[-2j, -1.0], [-1.0, 0.0]], atol=1e-15)
    h = build_h_eff(make_tdot(1.0, 0.5, 0.3), 1.0)
    assert np.allclose(h, [[-2.0, -0.5], [-0.5, 0.3]], atol=1e-15)
    h = build_h_eff(make_tdot(1.0, 1.0, 0.0), Q)
    assert np.allclose(h, [[-2.0 * Q, -1.0], [-1.0, 0.0]], atol=1e-15)


def test_hermiticity_breaking_is_localized():
    rng = np.random.default_rng(9)
    for _ in range(30):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 1e-3:
            continue
        diff = build_h_eff(GEN_DEVICE, z) - p_space_hamiltonian(GEN_DEVICE)
        expected = np.zeros_like(diff)
        expected[0, 0] = -2.0 * GEN_DEVICE.lead_t * z
        assert np.allclose(diff, expected, atol=1e-15)


def test_secular_residual_vanishes_at_closed_form_roots():
    spec = make_tdot(1.0, 1.0, 0.0)
    assert abs(secular_residual(spec, Q)) < 1e-9
    assert abs(secular_residual(spec, 1j * P)) < 1e-9


def test_secular_residual_off_root_value():
    # brute-force 2x2 determinant at z = 0.5: E = -2.5, so
    # (E + 2z)(E - 0) - 1 = (-1.5)(-2.5) - 1 = 2.75
    spec = make_tdot(1.0, 1.0, 0.0)
    val = secular_residual(spec, 0.5)
    assert val == pytest.approx(2.75, abs=1e-12)
    # and it matches -quartic(z)/z^2
    assert val == pytest.approx(-quartic(1, 1, 0, 0.5) / 0.25, abs=1e-12)


def test_residual_times_z_power_is_polynomial():
    rng = np.random.default_rng(31)
    for spec in (make_tdot(1.0, 1.0, 0.3), GEN_DEVICE):
        n = spec.n_sites
        degree = 2 * n
        # interpolate z^n * residual from degree+1 samples
        theta = 2 * np.pi * (np.arange(degree + 1) + 0.3) / (degree + 1)
        zs = np.exp(1j * theta)
        g = np.array([z**n * secular_residual(spec, z) for z in zs])
        coeffs = np.linalg.solve(zs[:, None] ** np.arange(degree + 1)[None, :], g)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            if abs(z) < 0.1 or abs(z) > 3:
                continue
            direct = z**n * secular_residual(spec, z)
            interp = sum(c * z**j for j, c in enumerate(coeffs))
            assert abs(direct - interp) <= 1e-10 * max(1.0, abs(direct))


def test_pole_search_finds_all_four():
    poles = feshbach_pole_search(make_tdot(1.0, 1.0, 0.0))
    assert len(poles) == 4
    found = sorted((round(p.z.real, 7), round(p.z.imag, 7)) for p in poles)
    expected = sorted(
        (round(z.real, 7), round(z.imag, 7)) for z in (Q, -Q, 1j * P, -1j * P)
    )
    assert found == expected
    for p in poles:
        assert abs(secular_residual(make_tdot(1.0, 1.0, 0.0), p.z)) < 1e-12


def test_pole_search_returns_exactly_2n_poles():
    for spec in (make_tdot(1.0, 1.0, 0.0), make_tdot(1.0, 0.7, -1.1), GEN_DEVICE):
        poles = feshbach_pole_search(spec)
        ref = solve_poles(spec)
        assert len(poles) == len(ref) == 2 * spec.n_sites
        for a, b in ((ref, poles), (poles, ref)):
            for p in a:
                assert min(abs(p.z - q.z) for q in b) <= 1e-12 * max(1.0, abs(p.z))


def test_pole_search_refuses_a_multiple_root():
    # three identical side dots on one contact: two combinations of them miss
    # the contact, so E = 0.4 is a double root that no disc can isolate
    star = DeviceSpec(
        n_sites=4,
        onsite=(0.0, 0.4, 0.4, 0.4),
        hoppings=((0, 1, -0.7), (0, 2, -0.7), (0, 3, -0.7)),
        contact=0,
        lead_t=1.0,
    )
    level = [p for p in solve_poles(star) if abs(p.E - 0.4) < 1e-12]
    assert len(level) == 4  # z and 1/z, each twice
    with pytest.raises(NumericalError):
        feshbach_pole_search(star)


def test_pole_search_decoupled_dot():
    poles = feshbach_pole_search(make_tdot(1.0, 0.0, 0.5))
    assert any(
        p.pole_class is PoleClass.DECOUPLED and p.E == pytest.approx(0.5) for p in poles
    )
    (pole,) = poles
    assert pole.amps == (0j, 1.0 + 0j)


def test_pole_search_reports_total_failure(monkeypatch):
    monkeypatch.setattr(respole.feshbach, "MAX_ITER", 1)
    with pytest.raises(NumericalError):
        feshbach_pole_search(make_tdot(1.0, 1.0, 0.0))


def closed_form_residual(spec, zs):
    """det(E(z) - H_eff(z)) of a 1- or 2-site device, written out by hand."""
    t = spec.lead_t
    e = -t * (zs + 1.0 / zs)
    c = spec.contact
    if spec.n_sites == 1:
        return e - spec.onsite[0] + 2.0 * t * zs
    hp = p_space_hamiltonian(spec)
    a = e - hp[0, 0] + (2.0 * t * zs if c == 0 else 0.0)
    d = e - hp[1, 1] + (2.0 * t * zs if c == 1 else 0.0)
    return a * d - hp[0, 1] * hp[1, 0]


def small_devices_and_zs(rng, count):
    """Random 1- and 2-site devices on either contact, each with 60 z: a
    complex cloud, and real and imaginary z with +0 and -0 parts."""
    for k in range(count):
        n = 1 + k % 2
        hops = ((0, 1, float(rng.uniform(-2.0, 2.0))),) if n == 2 and k % 3 else ()
        spec = DeviceSpec(
            n_sites=n,
            onsite=tuple(rng.uniform(-3.0, 3.0, size=n).tolist()),
            hoppings=hops,
            contact=int(rng.integers(0, n)),
            lead_t=float(rng.uniform(0.3, 2.5)),
        )
        x = rng.uniform(-2.0, 2.0, size=6).tolist()
        signed = [complex(v, s) for v in x for s in (0.0, -0.0)]
        signed += [complex(s, v) for v in x for s in (0.0, -0.0)]
        cloud = rng.normal(size=36) + 1j * rng.normal(size=36)
        yield spec, np.concatenate([cloud, np.array(signed)])


def test_secular_residual_equals_the_closed_forms_bit_for_bit():
    rng = np.random.default_rng(41)
    for spec, zs in small_devices_and_zs(rng, 200):
        got = secular_residual(spec, zs)
        assert got.shape == zs.shape
        assert np.abs(got).tobytes() == np.abs(closed_form_residual(spec, zs)).tobytes()


def test_secular_residual_scalar_is_the_array_element():
    rng = np.random.default_rng(43)
    devices = list(small_devices_and_zs(rng, 8)) + [(GEN_DEVICE, rng.normal(size=20) + 1j)]
    for spec, zs in devices:
        batch = secular_residual(spec, zs)
        for z, value in zip(zs.tolist(), batch.tolist()):
            scalar = secular_residual(spec, z)
            assert type(scalar) is complex and scalar == value
    with pytest.raises(ParameterError):
        secular_residual(GEN_DEVICE, np.array([1.0, 0.0]))


def test_q_space_reconstruct_values():
    poles = feshbach_pole_search(make_tdot(1.0, 1.0, 0.0))
    bound = next(p for p in poles if p.z == pytest.approx(Q, abs=1e-9))
    res = next(p for p in poles if p.z == pytest.approx(1j * P, abs=1e-9))
    assert q_space_reconstruct(bound, 2) == pytest.approx(Q * Q, abs=1e-9)
    assert q_space_reconstruct(res, 2) == pytest.approx(-P * P, abs=1e-9)
    assert q_space_reconstruct(res, 0) == res.amp0
    assert abs(q_space_reconstruct(res, 5)) > abs(q_space_reconstruct(res, 1))


def test_reconstruction_satisfies_lattice_equation():
    for spec in (make_tdot(1.0, 1.0, 0.0), make_tdot(1.0, 0.7, -1.1), GEN_DEVICE):
        for pole in feshbach_pole_search(spec):
            psi = {x: q_space_reconstruct(pole, x) for x in range(-4, 5)}
            t = spec.lead_t
            for x in (-3, -2, -1, 1, 2, 3):
                lhs = -t * (psi[x - 1] + psi[x + 1])
                assert abs(lhs - pole.E * psi[x]) < 1e-10


def test_search_is_deterministic():
    spec = make_tdot(1.0, 0.6, 0.4)
    a = feshbach_pole_search(spec)
    b = feshbach_pole_search(spec)
    assert [(p.z, p.pole_class) for p in a] == [(p.z, p.pole_class) for p in b]


def broadcast_secular_stack(h, t, contact, zs):
    """E(z) I - H_eff(z) built as a broadcast copy of -h with fancy-index
    adds on the diagonal and the contact entry: the construction that
    ``_secular_stack`` must reproduce bit for bit."""
    m = np.broadcast_to(-h, (zs.size, *h.shape)).astype(complex)
    idx = np.arange(h.shape[0])
    m[:, idx, idx] += (-t * (zs + 1.0 / zs))[:, None]
    m[:, contact, contact] += 2.0 * t * zs
    return m


def test_secular_stack_equals_the_broadcast_construction_bit_for_bit():
    rng = np.random.default_rng(47)
    radii = np.concatenate([np.logspace(-8.0, 8.0, 33), np.ones(8)])
    phases = rng.uniform(-np.pi, np.pi, radii.size)
    zs = radii * np.exp(1j * phases)
    # real, imaginary and unit-modulus z with signed-zero parts
    zs = np.concatenate([zs, [1.0, -1.0, 1j, -1j, complex(1.0, -0.0), complex(-0.0, 1.0)]])
    for k in range(120):
        n = 1 + k % 8
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        # zero and signed-zero bonds make +0.0 and -0.0 entries of -h
        amps = rng.choice([0.0, -0.0, 1.0], len(pairs)) * rng.uniform(-1.5, 1.5, len(pairs))
        spec = DeviceSpec(
            n_sites=n,
            onsite=tuple(rng.choice([0.0, 1.0], n) * rng.uniform(-2.0, 2.0, n)),
            hoppings=tuple((i, j, float(a)) for (i, j), a in zip(pairs, amps)),
            contact=0,
            lead_t=float(rng.uniform(0.3, 2.5)),
        )
        h = p_space_hamiltonian(spec)
        for contact in range(n):
            got = respole.feshbach._secular_stack(h, spec.lead_t, contact, zs)
            want = broadcast_secular_stack(h, spec.lead_t, contact, zs)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_newton_ratios_fall_back_per_matrix_on_a_singular_stack():
    # one site at onsite 0 and t = 1: M(z) = z - 1/z vanishes exactly at z = +-1
    spec = DeviceSpec(n_sites=1, onsite=(0.0,), hoppings=(), contact=0, lead_t=1.0)
    h, t = p_space_hamiltonian(spec), spec.lead_t
    zs = np.array([0.5, 1.0, 2j, -1.0, 1.7 + 0.3j, -0.4 - 1.1j])
    stack = respole.feshbach._secular_stack(h, t, 0, zs)
    assert stack[1, 0, 0] == 0 and stack[3, 0, 0] == 0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(stack)
    ratios = respole.feshbach._newton_ratios(stack, t, 0, zs)
    assert ratios.shape == zs.shape
    assert ratios[1] == 0 and ratios[3] == 0
    for i in (0, 2, 4, 5):
        one = respole.feshbach._newton_ratios(
            respole.feshbach._secular_stack(h, t, 0, zs[i:i + 1]), t, 0, zs[i:i + 1])
        assert ratios[i:i + 1].tobytes() == one.tobytes()
