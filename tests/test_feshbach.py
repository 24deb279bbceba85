import math
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import respole.feshbach
from respole import (
    DeviceSpec,
    NumericalError,
    ParameterError,
    PoleClass,
    feshbach_pole_search,
    make_tdot,
    p_space_hamiltonian,
    q_space_reconstruct,
    secular_residual,
    self_energy,
    solve_poles,
    z_pair_from_energy,
)
from respole.dispersion import energy_from_z, k_from_z
from respole.feshbach import build_h_eff
from respole.poles import CONTACT_PIN_TOL, SpectralPole, classify, poles_from_roots
from respole.siegert import poly_roots, secular_polynomial
from test_cli import json_devices
from test_siegert import assert_matches, mp_companion_roots

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


@pytest.mark.parametrize("n", [2, 3])
def test_secular_residual_past_the_float_range_is_silent(n):
    # the 2x2 product and numpy's det overflow at these poles: the residual
    # reads inf, and no RuntimeWarning (an error in this suite) is printed
    onsite = (-1e150, 1e150, 0.0)[:n]
    bonds = ((0, 1, -1e150), (1, 2, -1e150))[:n - 1]
    spec = DeviceSpec(n, onsite, bonds, 0, 1e300)
    residual = secular_residual(spec, np.array([p.z for p in solve_poles(spec)]))
    assert np.isinf(residual).any()


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


def test_pole_search_deflates_a_multiple_root():
    # three identical side dots on one contact: two combinations of them miss
    # the contact, so E = 0.4 is a double root, found in closed form
    star = DeviceSpec(
        n_sites=4,
        onsite=(0.0, 0.4, 0.4, 0.4),
        hoppings=((0, 1, -0.7), (0, 2, -0.7), (0, 3, -0.7)),
        contact=0,
        lead_t=1.0,
    )
    level = [p for p in feshbach_pole_search(star) if abs(p.E - 0.4) < 1e-12]
    assert len(level) == 4  # z and 1/z, each twice
    for p in level:
        assert abs(p.amp0) < 1e-12
    zs = [p.z for p in level]
    assert zs[0] == zs[1] == zs[2].conjugate() == zs[3].conjugate()
    assert_matches([p.z for p in feshbach_pole_search(star)],
                   [p.z for p in solve_poles(star)], 1e-13)


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
    adds on the diagonal and the contact entry: the matrices whose
    determinant ``secular_residual`` must reproduce bit for bit."""
    m = np.broadcast_to(-h, (zs.size, *h.shape)).astype(complex)
    idx = np.arange(h.shape[0])
    m[:, idx, idx] += (-t * (zs + 1.0 / zs))[:, None]
    m[:, contact, contact] += 2.0 * t * zs
    return m


def broadcast_determinant(m):
    """det of a (len(zs), n, n) stack: the exact 1x1 and 2x2 products of
    the entries for n <= 2, ``np.linalg.det`` above that."""
    if m.shape[-1] == 1:
        return m[:, 0, 0]
    if m.shape[-1] == 2:
        return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    return np.linalg.det(m)


def test_secular_residual_equals_the_broadcast_determinant_bit_for_bit():
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
            got = secular_residual(replace(spec, contact=contact), zs)
            want = broadcast_determinant(broadcast_secular_stack(h, spec.lead_t, contact, zs))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def star_of_identical_dots(rng):
    """A hub on the lead with 2-7 identical side dots: one level repeated on
    combinations of the dots that the contact does not see."""
    d = int(rng.integers(2, 8))
    v = float(rng.uniform(0.2, 1.5))
    hops = tuple((0, i, float(rng.choice((-1.0, 1.0))) * v) for i in range(1, d + 1))
    onsite = (float(rng.uniform(-2.0, 2.0)),) + (float(rng.uniform(-2.5, 2.5)),) * d
    return DeviceSpec(d + 1, onsite, hops, 0, float(rng.uniform(0.5, 2.0)))


def repeated_level_device(rng):
    """Q diag(levels) Q^T for a random orthogonal Q and 2-8 levels drawn from
    fewer distinct values, every pair of sites bonded, any contact; the
    levels repeat to rounding, and the contact sees each repeated one."""
    n = int(rng.integers(2, 9))
    distinct = rng.uniform(-2.5, 2.5, int(rng.integers(1, n)))
    levels = rng.choice(distinct, n)
    levels[:distinct.size] = distinct
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    h = (q * levels) @ q.T
    hops = tuple((i, j, float(h[i, j])) for i in range(n) for j in range(i + 1, n))
    return DeviceSpec(n, tuple(np.diag(h).tolist()), hops, int(rng.integers(n)), 1.0)


def mirror_chain(rng):
    """A chain of 3, 5 or 7 sites, symmetric about its middle site, with the
    contact there: the odd levels miss the contact but are simple."""
    k = int(rng.integers(1, 4))
    half_e = rng.uniform(-2.0, 2.0, k)
    half_v = rng.uniform(0.3, 1.5, k) * rng.choice((-1.0, 1.0), k)
    onsite = np.concatenate([half_e[::-1], [rng.uniform(-2.0, 2.0)], half_e])
    bonds = np.concatenate([half_v[::-1], half_v])
    hops = tuple((i, i + 1, float(v)) for i, v in enumerate(bonds))
    return DeviceSpec(2 * k + 1, tuple(onsite.tolist()), hops, k, 1.0)


def both_routes(spec):
    """Both routes' poles, or None if both raised a typed error: each route
    must solve every device the other one solves."""
    results = []
    for route in (solve_poles, feshbach_pole_search):
        try:
            results.append(route(spec))
        except (ParameterError, NumericalError):
            results.append(None)
    assert (results[0] is None) == (results[1] is None), (spec, results)
    return results


FAMILIES = {
    "star": star_of_identical_dots,
    "repeated": repeated_level_device,
    "mirror": mirror_chain,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_repeated_and_hidden_levels_match_the_outgoing_wave_route(family):
    rng = np.random.default_rng(sorted(FAMILIES).index(family) + 53)
    for _ in range(60):
        spec = FAMILIES[family](rng)
        siegert, feshbach = both_routes(spec)
        assert siegert is not None, spec
        assert_matches([p.z for p in feshbach], [p.z for p in siegert], 1e-12)
        assert (sorted(p.pole_class.value for p in feshbach)
                == sorted(p.pole_class.value for p in siegert))
        # a real device's roots come in exact conjugate pairs
        zs = [p.z for p in feshbach]
        assert sorted(zs, key=lambda z: (z.real, z.imag)) == sorted(
            (z.conjugate() for z in zs), key=lambda z: (z.real, z.imag))
        for pole in feshbach:
            # every state, deflated ones included, is a null vector
            m = pole.E * np.eye(spec.n_sites) - build_h_eff(spec, pole.z)
            a = np.array(pole.amps)
            assert np.linalg.norm(m @ a) <= 1e-12 * max(1.0, abs(pole.z)) ** 2 * np.linalg.norm(a)


@pytest.mark.parametrize("family", FAMILIES)
def test_repeated_and_hidden_levels_match_mpmath(family):
    rng = np.random.default_rng(sorted(FAMILIES).index(family) + 59)
    for _ in range(6):
        spec = FAMILIES[family](rng)
        zs = [p.z for p in feshbach_pole_search(spec)]
        assert_matches(zs, mp_companion_roots(spec, dps=50), 1e-13)


def test_pole_search_refuses_an_exceptional_point():
    # the T-dot at which the quartic has a double root at z0 = 2, to rounding
    z0 = 2.0
    eps_d = -2.0 * (z0**4 + 1.0) / (z0 * (z0 * z0 + 1.0))
    t1 = math.sqrt((1.0 - z0**4 - eps_d * (z0**3 - z0)) / (z0 * z0))
    with pytest.raises(NumericalError):
        feshbach_pole_search(make_tdot(1.0, t1, eps_d))


@pytest.mark.parametrize("t1", [1e-3, 1e-5, 1e-7, 1e-9])
def test_weakly_coupled_dot_amplitudes_match_mpmath(t1):
    # near the dot level E - eps_d is far below the rounding of E, so the dot
    # amplitude -t1 / (E - eps_d) must come from the secular equation
    for eps_d in (0.4, -1.3, 2.5):
        with mpmath.workdps(50):
            roots = mpmath.polyroots([1, eps_d, mpmath.mpf(t1) ** 2, -eps_d, -1],
                                     maxsteps=300, extraprec=300)
            for pole in feshbach_pole_search(make_tdot(1.0, t1, eps_d)):
                z = min(roots, key=lambda r: abs(complex(r) - pole.z))
                amp_d = complex(-t1 / (-(z + 1 / z) - eps_d))
                assert abs(pole.amp_d - amp_d) <= 1e-12 * max(1.0, abs(amp_d)), (eps_d, pole)


def reference_sorted_roots(roots):
    """Each row of a stack of roots sorted by (Re z, Im z) with
    ``np.lexsort``, and the order that sorts it: the reference for
    ``sorted_roots``."""
    order = np.lexsort((roots.imag, roots.real))
    return np.take_along_axis(roots, order, axis=-1), order


def stacked_poles_from_roots(roots, null_vectors, t, contact):
    """The poles of an (m, 2n) stack of devices from their roots and (m, 2n,
    n) null vectors, assembled over the stack axis with index grids and the
    public scalar functions: the reference that ``poles_from_roots`` on one
    device must match bit for bit.  A root whose state misses the contact
    within 1e-7 of z = +-1 is the band-edge double root +-1."""
    v = np.asarray(null_vectors, dtype=complex)
    mag = np.abs(v)
    seen = mag[..., contact] > CONTACT_PIN_TOL * mag.max(axis=-1)
    roots = np.asarray(roots, dtype=complex)
    edge = np.where(roots.real < 0, -1.0, 1.0)
    roots, order = reference_sorted_roots(
        np.where(~seen & (np.abs(roots - edge) <= 1e-7), edge, roots))
    rows, cols = np.arange(roots.shape[0])[:, None], np.arange(roots.shape[1])
    v, mag, seen = v[rows, order], mag[rows, order], seen[rows, order]
    pin = np.where(seen, contact, mag.argmax(axis=-1))
    amps = v / v[rows, cols, pin][..., None]
    amps[rows, cols, pin] = 1.0
    return [
        [SpectralPole(z, k_from_z(z), energy_from_z(z, t), classify(z), amps=tuple(a),
                      contact=contact)
         for z, a in zip(zs, device)]
        for zs, device in zip(roots.tolist(), amps.tolist())
    ]


def assert_routes_match_the_stacked_assembly(spec):
    """Both routes' poles equal, field for field by repr, those of the
    stacked reference on a stack of one: for the outgoing-wave route from a
    stacked eigensolve, for the Feshbach route from the roots and states it
    passes to ``poles_from_roots``.  Returns the outgoing-wave poles."""
    h, t, c = p_space_hamiltonian(spec), spec.lead_t, spec.contact
    (want,) = stacked_poles_from_roots(*poly_roots(secular_polynomial(h[None], t, c)), t, c)
    siegert = solve_poles(spec)
    assert [repr(p) for p in siegert] == [repr(p) for p in want]
    passed = []

    def recording(roots, vectors, t, contact):
        passed.append(stacked_poles_from_roots(roots[None], vectors[None], t, contact)[0])
        return poles_from_roots(roots, vectors, t, contact)

    with mock.patch.object(respole.feshbach, "poles_from_roots", recording):
        try:
            feshbach = feshbach_pole_search(spec)
        except NumericalError:
            return siegert  # an exceptional point the Aberth certificate refuses
    (want,) = passed
    assert [repr(p) for p in feshbach] == [repr(p) for p in want]
    return siegert


@pytest.mark.parametrize("n", range(1, 9))
@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data())
def test_routes_match_the_stacked_pole_assembly(n, data):
    assert_routes_match_the_stacked_assembly(data.draw(json_devices(n)))


def test_stars_match_the_stacked_pole_assembly_with_the_pin_moved():
    rng = np.random.default_rng(83)
    for _ in range(12):
        spec = star_of_identical_dots(rng)
        poles = assert_routes_match_the_stacked_assembly(spec)
        # the combinations of identical dots miss the hub, so their
        # largest entry, not the contact, is pinned to 1
        assert any(p.amp0 != 1.0 for p in poles)


def reference_newton_correction(z, level, weight, t):
    """f/f' of ``_newton_correction``, written with a fresh array per
    operation: the reference that the in-place form must match bit for bit."""
    zz = z[:, None]
    tz = t * zz
    q = tz + level
    big_p = q * zz + t
    inverse = 1.0 / np.where(big_p == 0.0, respole.feshbach.EPS * t, big_p)
    slope = (q + tz) * inverse
    total = inverse @ weight
    c = 2.0 * t * z
    s = 1.0 - c * z * total
    ds = c * (z * ((slope * inverse) @ weight) - 2.0 * total)
    return s / (s * slope.sum(axis=1) + ds)


def reference_aberth_roots(level, weight, t):
    """``_aberth_roots`` with a fresh array per operation and
    ``reference_newton_correction``: the roots, or the message of the
    NumericalError, that the in-place form must give bit for bit."""
    eps = respole.feshbach.EPS
    z = np.array(respole.feshbach.default_seeds(level.size), dtype=complex)
    own = np.diag(np.full(z.size, np.inf))
    last_step = np.full(z.size, np.inf)
    moving = np.ones(z.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(respole.feshbach.MAX_ITER):
            ratio = reference_newton_correction(z, level, weight, t)
            step = ratio / (1.0 - ratio * (1.0 / (z[:, None] - z + own)).sum(axis=1))
            size = np.abs(step)
            if not np.isfinite(size).all():
                return "Aberth step is not finite (coinciding iterates)"
            size_z = np.abs(z)
            move = moving & ((size < last_step)
                             | (size > respole.feshbach.STALL_BOUND * size_z))
            z = np.where(move, z - step, z)
            moving = move & (size > 4.0 * eps * size_z)
            last_step = size
            if not moving.any():
                break
        else:
            return f"{moving.sum()} of {z.size} Aberth iterates still moving"
    radius = z.size * np.abs(ratio) + np.where(move, size, 0.0)
    if not np.all(np.abs(z[:, None] - z) + own > radius[:, None] + radius):
        return "Aberth roots overlap: an exceptional point cannot be certified"
    partner = np.abs(z[:, None] - z.conj()).argmin(axis=1)
    if np.any(partner[partner] != np.arange(z.size)):
        return "Aberth roots are not closed under conjugation"
    return 0.5 * (z + z[partner].conj())


def bit_identity_devices():
    """Seeded random devices of 1-8 sites, stars of identical dots (the
    cluster path) and near-threshold T-dots (t1 <= 1e-3, eps_d = +-2)."""
    rng = np.random.default_rng(89)
    for n in range(1, 9):
        for _ in range(12):
            yield dense_random_device(rng, n)
    for _ in range(24):
        yield star_of_identical_dots(rng)
    for eps_d in (-2.0, 2.0):
        for t1 in np.exp(rng.uniform(math.log(1e-6), math.log(1e-3), 12)).tolist():
            yield make_tdot(1.0, t1, eps_d)


def dense_random_device(rng, n):
    """n sites, each pair bonded with probability 0.6, any contact and lead
    hopping."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
    return DeviceSpec(n, tuple(rng.uniform(-2.5, 2.5, n).tolist()),
                      tuple((i, j, float(rng.uniform(-1.5, 1.5))) for i, j in pairs),
                      int(rng.integers(n)), float(rng.uniform(0.5, 2.0)))


def test_routes_equal_the_allocating_forms_bit_for_bit():
    # every root of the Aberth iteration, and every field of both routes'
    # poles (z, k, E, class and amplitudes, by repr, so signed zeros too)
    checked = []

    def both_forms(level, weight, t):
        try:
            roots = aberth(level, weight, t)
        except NumericalError as exc:
            assert str(exc) == reference_aberth_roots(level, weight, t)
            raise
        want = reference_aberth_roots(level, weight, t)
        assert roots.dtype == want.dtype and roots.tobytes() == want.tobytes()
        checked.append(level.size)
        return roots

    aberth = respole.feshbach._aberth_roots
    with mock.patch.object(respole.feshbach, "_aberth_roots", both_forms):
        for spec in bit_identity_devices():
            assert_routes_match_the_stacked_assembly(spec)
    assert len(checked) >= 140 and set(checked) == set(range(1, 9))
