import math

import mpmath
import numpy as np
import pytest

from respole import (
    ClassificationError,
    DeviceSpec,
    NumericalError,
    ParameterError,
    PoleClass,
    build_h_eff,
    classify,
    closed_form_eps0,
    feshbach_pole_search,
    make_tdot,
    p_space_hamiltonian,
    secular_residual,
    solve_poles,
)
from respole._format import format_float
from respole.cli import main
from respole.dispersion import energy_from_z, k_from_z
from respole.poles import CONTACT_PIN_TOL, SpectralPole, decoupled_poles, poles_from_roots
from respole.siegert import poly_roots, secular_polynomial

P = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
Q = 1.0 / P

T1_GRID = (0.25, 0.5, 1.0, 1.5, 2.0)
EPS_GRID = (-3.0, -2.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0, 3.0)


def quartic(t, t1, ed):
    """Descending coefficients of the closed T-dot quartic."""
    return [t * t, t * ed, t1 * t1, -t * ed, -t * t]


def polynomial_of(spec):
    return secular_polynomial(p_space_hamiltonian(spec), spec.lead_t, spec.contact)


def random_device(rng, n):
    """A chain with random levels, a few extra bonds and a random contact."""
    bonds = {(i, i + 1): rng.uniform(-1.5, 1.5) for i in range(n - 1)}
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        bonds.setdefault((i, j), rng.uniform(-1.0, 1.0))
    return DeviceSpec(
        n, tuple(rng.uniform(-2.0, 2.0, n).tolist()),
        tuple((i, j, float(a)) for (i, j), a in bonds.items()),
        int(rng.integers(0, n)), float(rng.uniform(0.5, 2.0)),
    )


def outside_band_device(rng, n):
    """Levels outside the band, weakly bonded: every root is usually real,
    so a lone device's eigensolve returns real null vectors."""
    t = float(rng.uniform(0.5, 2.0))
    bonds = {(i, i + 1): 0.15 * rng.uniform(-1.5, 1.5) for i in range(n - 1)}
    levels = rng.choice((-1.0, 1.0), n) * rng.uniform(2.5, 4.0, n) * t
    return DeviceSpec(
        n, tuple(levels.tolist()), tuple((i, j, float(a)) for (i, j), a in bonds.items()),
        int(rng.integers(0, n)), t,
    )


def reference_pole(z, null_vector, t, contact):
    """One pole built on its own, with the contact (else the largest entry)
    of its null vector pinned to 1 in complex arithmetic."""
    v = np.asarray(null_vector, dtype=complex)
    mag = np.abs(v)
    pin = contact if mag[contact] > CONTACT_PIN_TOL * mag.max() else int(np.argmax(mag))
    amps = v / v[pin]
    amps[pin] = 1.0
    return SpectralPole(
        z=z, k=k_from_z(z), E=energy_from_z(z, t), pole_class=classify(z),
        amps=tuple(amps.tolist()), contact=contact,
    )


def reference_poles(spec):
    """The unstacked route: one eigensolve of this device's own companion
    matrix, each pole built on its own, sorted by (Re z, Im z)."""
    n, t, c = spec.n_sites, spec.lead_t, spec.contact
    lead = np.full(n, -t)
    lead[c] = t
    companion = np.zeros((2 * n, 2 * n))
    companion[:n, n:] = np.eye(n)
    companion[n:, :n] = t * np.eye(n) / lead[:, None]
    companion[n:, n:] = p_space_hamiltonian(spec) / lead[:, None]
    roots, vectors = np.linalg.eig(companion)
    poles = [
        reference_pole(z, v, t, c)
        for z, v in zip(np.asarray(roots, dtype=complex).tolist(), vectors[n:].T)
    ]
    poles.sort(key=lambda p: (p.z.real, p.z.imag))
    return poles


def mp_companion_roots(spec, dps=40):
    """Eigenvalues of the block companion matrix, built and solved in mpmath
    straight from the device fields."""
    n = spec.n_sites
    with mpmath.workdps(dps):
        t = mpmath.mpf(spec.lead_t)
        h = mpmath.zeros(n, n)
        for i, e in enumerate(spec.onsite):
            h[i, i] = e
        for i, j, a in spec.hoppings:
            h[i, j] = h[j, i] = a
        comp = mpmath.zeros(2 * n, 2 * n)
        for i in range(n):
            comp[i, n + i] = 1
            # row i of z^2 v = -A2^-1 (A0 v + A1 z v), A2 = -t (I - 2 P_c)
            lead = t if i == spec.contact else -t
            comp[n + i, i] = t / lead
            for j in range(n):
                comp[n + i, n + j] = h[i, j] / lead
        roots = mpmath.eig(comp, left=False, right=False)
        return [complex(r) for r in roots]


def mp_quartic_roots(t, t1, ed):
    with mpmath.workdps(60):
        roots = mpmath.polyroots(quartic(t, t1, ed), maxsteps=400, extraprec=400)
        return [complex(r) for r in roots]


def assert_matches(zs, ref, rel):
    """Same count, and each z within rel * max(1, |z|) of its own reference root."""
    assert len(zs) == len(ref)
    left = list(ref)
    for z in zs:
        j = min(range(len(left)), key=lambda i: abs(z - left[i]))
        assert abs(z - left[j]) <= rel * max(1.0, abs(z)), (z, left[j])
        left.pop(j)


def test_secular_polynomial_tdot():
    stack = polynomial_of(make_tdot(1, 1, 0))
    assert stack.shape == (3, 2, 2) and stack.dtype == float
    assert np.array_equal(stack[0], -np.eye(2))
    assert np.array_equal(stack[1], [[0, 1], [1, 0]])
    assert np.array_equal(stack[2], np.diag([1, -1]))
    stack = polynomial_of(make_tdot(2, 1, 0.3))
    assert np.array_equal(stack, [-2 * np.eye(2), [[0, 1], [1, -0.3]], np.diag([2, -2])])


def test_secular_polynomial_determinant_identity():
    # det(A0 + A1 z + A2 z^2) = z^n det(E - H_eff); for a T-dot it is minus the quartic
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        spec = random_device(rng, n)
        stack = polynomial_of(spec)
        for z in rng.normal(size=3) + 1j * rng.normal(size=3):
            lhs = np.linalg.det(stack[0] + stack[1] * z + stack[2] * z * z)
            rhs = z**n * secular_residual(spec, complex(z))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    for t, t1, ed in [(1, 1, 0), (1, 0.5, 0.3), (2, 1, -1.3), (0.7, 1.4, 2.0)]:
        stack = polynomial_of(make_tdot(t, t1, ed))
        for z in (0.3 + 0.4j, -1.2, 2j):
            lhs = np.linalg.det(stack[0] + stack[1] * z + stack[2] * z * z)
            assert abs(lhs + np.polyval(quartic(t, t1, ed), z)) < 1e-12 * max(1, abs(z)) ** 4


def test_poly_roots_quartic():
    roots, vectors = poly_roots(polynomial_of(make_tdot(1, 1, 0)))
    assert roots.shape == (4,) and vectors.shape == (4, 2)
    assert_matches(roots.tolist(), [Q, -Q, P * 1j, -P * 1j], 1e-14)


def test_poly_roots_factorable():
    # 1 x 1 stacks are scalar quadratics
    roots = sorted(poly_roots(np.array([[[-1.0]], [[0.0]], [[1.0]]]))[0].real)
    assert roots == pytest.approx([-1.0, 1.0], abs=1e-15)
    roots = sorted(poly_roots(np.array([[[2.0]], [[-3.0]], [[1.0]]]))[0].real)
    assert roots == pytest.approx([1.0, 2.0], abs=1e-15)
    # a diagonal stack splits into one scalar quadratic per site: z^2 - 1 on
    # site 0 and z^2 - 5 z + 6 on site 1, each root with its unit vector
    roots, vectors = poly_roots(
        np.array([np.diag([-1.0, 6.0]), np.diag([0.0, -5.0]), np.eye(2)])
    )
    assert_matches(roots.tolist(), [-1.0, 1.0, 2.0, 3.0], 1e-14)
    for z, v in zip(roots.real, vectors):
        site = 0 if abs(z) < 1.5 else 1
        assert abs(v[1 - site]) < 1e-15 * abs(v[site])


def test_poly_roots_validation():
    with pytest.raises(ParameterError):
        poly_roots(np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(ParameterError):
        poly_roots(np.zeros((2, 2, 2)))
    with pytest.raises(ParameterError):
        poly_roots(np.array([np.eye(2), np.eye(2), np.diag([1.0, 0.0])]))
    with pytest.raises(ParameterError):
        poly_roots(np.array([np.eye(2), np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]))


def test_poly_roots_stack_matches_single_solves():
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(5, 3, 3, 3))
    stack[:, 2] = np.eye(3) * rng.choice((-1.0, 1.0), (5, 1, 3))
    roots, vectors = poly_roots(stack)
    assert roots.shape == (5, 6) and vectors.shape == (5, 6, 3)
    for i in range(5):
        r, v = poly_roots(stack[i])
        assert np.array_equal(roots[i], r) and np.array_equal(vectors[i], v)
    stack[3, 2, 0, 1] = 0.5
    with pytest.raises(ParameterError):
        poly_roots(stack)
    with pytest.raises(ParameterError):
        poly_roots(stack[None])


def test_poly_roots_null_vectors():
    rng = np.random.default_rng(8)
    for n in (1, 3, 12):
        stack = rng.normal(size=(3, n, n))
        stack[2] = np.diag(rng.choice((-1.0, 1.0), n) * rng.uniform(0.5, 2.0, n))
        roots, vectors = poly_roots(stack)
        assert roots.shape == (2 * n,) and vectors.shape == (2 * n, n)
        scale = [np.linalg.norm(a, 2) for a in stack]
        for z, v in zip(roots, vectors):
            resid = (stack[0] + stack[1] * z + stack[2] * z * z) @ v
            size = scale[0] + scale[1] * abs(z) + scale[2] * abs(z) ** 2
            assert np.linalg.norm(resid) < 1e-13 * size * np.linalg.norm(v)


def test_solve_poles_matches_mpmath_on_tdot_grid():
    for t1 in T1_GRID:
        for ed in EPS_GRID:
            zs = [p.z for p in solve_poles(make_tdot(1.0, t1, ed))]
            assert_matches(zs, mp_quartic_roots(1.0, t1, ed), 1e-13)


def test_solve_poles_matches_mpmath_on_random_devices():
    # the mpmath reference costs about 1 s at 12 sites, so the sizes past 8
    # get one draw each
    rng = np.random.default_rng(2024)
    for n in [*range(1, 9)] * 2 + [9, 12]:
        spec = random_device(rng, n)
        zs = [p.z for p in solve_poles(spec)]
        assert_matches(zs, mp_companion_roots(spec), 1e-13)


def test_solve_poles_near_threshold_tdots():
    # band-edge dot level with a tiny coupling: two roots pinch together near
    # z = -sign(eps_d), where a rounding in the coefficients moves them most
    rng = np.random.default_rng(31)
    cases = [(1.5778559492225104e-06, 2.0)]
    cases += [
        (float(np.exp(rng.uniform(np.log(1e-6), np.log(1e-3)))), float(s))
        for s in rng.choice((-2.0, 2.0), 40)
    ]
    for t1, ed in cases:
        zs = [p.z for p in solve_poles(make_tdot(1.0, t1, ed))]
        assert_matches(zs, mp_quartic_roots(1.0, t1, ed), 1e-11)


def test_amplitudes_are_null_vectors_when_state_misses_contact():
    # site 2 is cut off from the lead, so its E = 0.9 states have no contact
    # amplitude; both routes must return the state on site 2 alone
    spec = DeviceSpec(3, (0.0, 0.4, 0.9), ((0, 1, -0.7),), 0, 1.0)
    for route in (solve_poles, feshbach_pole_search):
        poles = route(spec)
        for pole in poles:
            m = pole.E * np.eye(3) - build_h_eff(spec, pole.z)
            a = np.array(pole.amps)
            assert np.linalg.norm(m @ a) / np.linalg.norm(a) < 1e-12
        cut = [p for p in poles if abs(p.E - 0.9) < 1e-12]
        assert len(cut) == 2
        for pole in cut:
            assert pole.amps[2] == 1 and abs(pole.amps[0]) < 1e-12


def test_classify_examples():
    assert classify(Q) is PoleClass.BOUND_LOWER
    assert classify(-Q) is PoleClass.BOUND_UPPER
    assert classify(1j * P) is PoleClass.RESONANT
    assert classify(-1j * P) is PoleClass.ANTI_RESONANT
    assert classify(1.2) is PoleClass.ANTI_BOUND
    assert classify(-1.2) is PoleClass.ANTI_BOUND
    assert classify(complex(-1.2, -1e-15)) is PoleClass.ANTI_BOUND  # zone wrap
    assert classify(1j) is PoleClass.THRESHOLD
    assert classify(1.0 + 1e-12) is PoleClass.THRESHOLD


def test_classify_rejects_upper_half_off_axis():
    with pytest.raises(ClassificationError):
        classify(0.5 + 0.5j)
    with pytest.raises(ParameterError):
        classify(0)


@pytest.mark.parametrize("z", [complex(math.nan, math.nan), complex(math.nan, 0.0),
                               complex(0.5, math.inf), complex(-math.inf, -1.0), math.nan])
def test_classify_rejects_non_finite(z):
    with pytest.raises(ClassificationError):
        classify(z)


@pytest.mark.parametrize("bad", [0.0, math.nan, complex(math.inf, 1.0)])
def test_poles_from_roots_rejects_zero_or_non_finite_root(bad):
    roots = np.array([[1j * P, -1j * P, Q, bad]])
    vectors = np.ones((1, 4, 2))
    with np.errstate(all="raise"), pytest.raises(NumericalError, match="zero or not finite"):
        poles_from_roots(roots, vectors, 1.0, 0)


def test_closed_form_symmetric_dot():
    cf = closed_form_eps0(1.0, 1.0)
    assert cf.p == pytest.approx(1.2720196, abs=1e-7)
    assert cf.q == pytest.approx(0.7861514, abs=1e-7)
    assert abs(cf.p * cf.q - 1.0) < 1e-14
    assert abs(cf.p**2 - cf.q**2 - 1.0) < 1e-12  # equals (t1/t)^2
    bl, bh, res, ar = cf.poles
    assert bl.E == pytest.approx(-2.0581710, abs=1e-7)
    assert bh.E == pytest.approx(+2.0581710, abs=1e-7)
    assert res.E == pytest.approx(-0.4858683j, abs=1e-7)
    assert ar.E == pytest.approx(+0.4858683j, abs=1e-7)
    assert ar.E == res.E.conjugate()
    # oracle: each closed-form z is a root of the quartic
    for pole in cf.poles:
        z = pole.z
        assert abs(z**4 + z**2 - 1.0) < 1e-12


def test_closed_form_scaled_parameters():
    cf = closed_form_eps0(2.0, 1.0)
    assert cf.p == pytest.approx(math.sqrt((1 + math.sqrt(65.0)) / 8.0), abs=1e-14)
    assert cf.p > 1
    for pole in cf.poles:
        z = pole.z
        assert abs(4 * z**4 + z * z - 4) < 1e-12
    for t, t1 in [(0.5, 0.25), (1.0, 1.5), (2.0, 0.5)]:
        cf = closed_form_eps0(t, t1)
        assert abs(cf.p * cf.q - 1.0) < 1e-14
        assert abs(cf.p**2 - cf.q**2 - (t1 / t) ** 2) < 1e-12


def test_closed_form_validation():
    with pytest.raises(ParameterError):
        closed_form_eps0(1.0, 0.0)
    with pytest.raises(ParameterError):
        closed_form_eps0(0.0, 1.0)


def test_solve_poles_matches_closed_form():
    poles = solve_poles(make_tdot(1.0, 1.0, 0.0))
    assert len(poles) == 4
    classes = sorted(p.pole_class.value for p in poles)
    assert classes == ["AntiResonant", "BoundLower", "BoundUpper", "Resonant"]
    cf = {p.pole_class: p for p in closed_form_eps0(1.0, 1.0).poles}
    for pole in poles:
        ref = cf[pole.pole_class]
        assert abs(pole.z - ref.z) < 1e-10
        assert abs(pole.E - ref.E) < 1e-10
        assert abs(pole.k - ref.k) < 1e-10


def test_solve_poles_amplitude_ratios():
    poles = solve_poles(make_tdot(1.0, 1.0, 0.0))
    res = next(p for p in poles if p.pole_class is PoleClass.RESONANT)
    # second secular row: amp_d / amp0 = -t1 / (E - eps_d)
    assert res.amp_d / res.amp0 == pytest.approx(-1.0 / res.E, abs=1e-10)
    assert res.amp_d / res.amp0 == pytest.approx(-2.0581710j, abs=1e-6)
    bl = next(p for p in poles if p.pole_class is PoleClass.BOUND_LOWER)
    assert bl.amp_d / bl.amp0 == pytest.approx(P - Q, abs=1e-10)
    assert bl.amp_d / bl.amp0 == pytest.approx(0.4858683, abs=1e-6)


def test_solve_poles_closed_form_grid():
    for t in (0.5, 1.0, 2.0):
        for t1 in (0.25, 0.5, 1.0, 1.5):
            poles = solve_poles(make_tdot(t, t1, 0.0))
            ref = [p.z for p in closed_form_eps0(t, t1).poles]
            assert len(poles) == 4
            for pole in poles:
                assert min(abs(pole.z - w) for w in ref) < 1e-10


def test_vieta_invariants():
    for t1 in (0.25, 0.5, 1.0, 1.5, 2.0):
        for ed in (-3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0):
            poles = solve_poles(make_tdot(1.0, t1, ed))
            zs = [p.z for p in poles]
            prod = np.prod(zs)
            assert abs(prod - (-1.0)) < 1e-12 * 10
            assert abs(sum(zs) - (-ed)) < 1e-12 * max(1.0, abs(ed)) * 10


def test_root_set_closed_under_conjugation():
    for t1, ed in [(1.0, 0.7), (0.5, -2.8), (1.5, 1.3)]:
        zs = [p.z for p in solve_poles(make_tdot(1.0, t1, ed))]
        for z in zs:
            assert min(abs(z.conjugate() - w) for w in zs) < 1e-10


def test_exactly_two_bound_roots():
    for t1 in (0.25, 0.5, 1.0, 2.0):
        for ed in np.linspace(-3, 3, 31):
            poles = solve_poles(make_tdot(1.0, t1, float(ed)))
            inside = [p for p in poles if abs(p.z) < 1]
            assert len(inside) == 2
            assert all(p.pole_class in (PoleClass.BOUND_LOWER, PoleClass.BOUND_UPPER)
                       for p in inside)
            rest = sorted(p.pole_class.value for p in poles if abs(p.z) >= 1)
            assert rest in (["AntiResonant", "Resonant"], ["AntiBound", "AntiBound"])


def test_contact_row_residuals():
    # the one-step outgoing condition <+-1|Phi> = z <0|Phi> closes the
    # contact and dot rows of the full lattice equation
    for t, t1, ed in [(1.0, 1.0, 0.0), (1.0, 0.5, 1.2), (2.0, 0.7, -0.9)]:
        spec = make_tdot(t, t1, ed)
        for pole in solve_poles(spec):
            amp1 = pole.z * pole.amp0
            contact_row = -t * 2 * amp1 - t1 * pole.amp_d - pole.E * pole.amp0
            dot_row = -t1 * pole.amp0 + ed * pole.amp_d - pole.E * pole.amp_d
            assert abs(contact_row) < 1e-10
            assert abs(dot_row) < 1e-10


def test_solve_poles_sorted_and_decoupled():
    poles = solve_poles(make_tdot(1.0, 0.3, 0.8))
    keys = [(p.z.real, p.z.imag) for p in poles]
    assert keys == sorted(keys)
    dec = solve_poles(make_tdot(1.0, 0.0, 0.5))
    assert [p.pole_class for p in dec] == [PoleClass.DECOUPLED]
    assert dec[0].E == 0.5


def test_batch_of_one_matches_per_device_reference():
    # repr compares every field to the last bit, signed zeros and the type
    # of each amplitude included
    rng = np.random.default_rng(77)
    all_real = 0
    for i in range(300):
        n = 1 + i % 10
        spec = outside_band_device(rng, n) if i % 2 else random_device(rng, n)
        ref = reference_poles(spec)
        all_real += n > 1 and all(p.z.imag == 0 for p in ref)
        assert repr(solve_poles(spec)) == repr(ref)
    assert all_real >= 50


def reference_sweep_csv(param, start, stop, steps, **model):
    """The sweep CSV from one unstacked eigensolve per grid point."""
    name = param.replace("-", "_")
    lines = ["param,z_re,z_im,k_re,k_im,E_re,E_im,class"]
    changes = []
    before = None
    for i in range(steps):
        v = start + (stop - start) * i / (steps - 1)
        spec = make_tdot(**{"t": 1.0, "t1": 1.0, "eps_d": 0.0, **model, name: v})
        poles = decoupled_poles(spec) or reference_poles(spec)
        after = tuple(sorted(p.pole_class.value for p in poles))
        if before is not None and after != before:
            changes.append(f"# classification change at {param}={format_float(v)}: "
                           f"{'+'.join(before)} -> {'+'.join(after)}")
        before = after
        for p in poles:
            fields = (v, p.z.real, p.z.imag, p.k.real, p.k.imag, p.E.real, p.E.imag)
            lines.append(",".join([*map(format_float, fields), p.pole_class.value]))
    return "\n".join(lines + (changes or ["# no classification changes"])) + "\n"


@pytest.mark.parametrize("param, start, stop, steps, model", [
    ("t1", -1.0, 1.0, 21, {"eps_d": 0.3}),
    ("t1", -0.5, 2.5, 31, {"eps_d": -3.0, "t": 1.3}),
    ("eps-d", -3.0, 3.0, 25, {"t1": 0.0}),
    ("eps-d", -3.0, 3.0, 61, {"t1": 0.4}),
    ("eps-d", -2.5, 2.5, 41, {"t1": 1e-7}),
], ids=["t1_through_0", "t1_outside_band", "eps_d_decoupled", "eps_d_edges", "eps_d_weak"])
def test_sweep_csv_matches_per_point_solves(param, start, stop, steps, model, capsys):
    flags = [f"--{k.replace('_', '-')}={v!r}" for k, v in model.items()]
    code = main(["sweep", "--param", param, f"--from={start!r}", f"--to={stop!r}",
                 "--steps", str(steps), *flags])
    assert code == 0
    assert capsys.readouterr().out == reference_sweep_csv(param, start, stop, steps, **model)
