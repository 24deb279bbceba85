import cmath
import contextlib
import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respole import (
    ClassificationError,
    DeviceSpec,
    NumericalError,
    ParameterError,
    PoleClass,
    closed_form_eps0,
    feshbach_pole_search,
    make_tdot,
    p_space_hamiltonian,
    secular_residual,
    solve_poles,
)
from respole._format import CSV_CHUNK, format_float
from respole.cli import main
from respole.dispersion import energy_from_z, k_from_z
from respole.feshbach import build_h_eff
from respole.poles import (
    CONTACT_PIN_TOL,
    SpectralPole,
    CLASSIFY_TOL,
    classify,
    decoupled_poles,
    poles_from_roots,
    sorted_roots,
    _CODE_LABELS,
    _band_edge_roots,
    _pole_table,
)
from respole.siegert import (
    poly_roots,
    secular_polynomial,
    solve_tdot_sweep,
)

P = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
Q = 1.0 / P

T1_GRID = (0.25, 0.5, 1.0, 1.5, 2.0)
EPS_GRID = (-3.0, -2.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0, 3.0)


def quartic(t, t1, ed):
    """Descending coefficients of the closed T-dot quartic."""
    return [t * t, t * ed, t1 * t1, -t * ed, -t * t]


def companion_of(spec):
    return secular_polynomial(p_space_hamiltonian(spec), spec.lead_t, spec.contact)


def reference_coefficients(h, t, contact):
    """The real coefficient stack (A0, A1, A2), ascending powers of z, of
    z (E(z) I - H_eff(z)) = A0 + A1 z + A2 z^2 for a device block or an
    (m, n, n) stack of them: A0 = -t I, A1 = -h, A2 = -t (I - 2 P_c), with
    (3, n, n) or (m, 3, n, n) shape."""
    h = np.asarray(h, dtype=float)
    lead = -t * np.eye(h.shape[-1])
    coeffs = np.empty((*h.shape[:-2], 3, *h.shape[-2:]))
    coeffs[..., 0, :, :] = lead
    np.negative(h, out=coeffs[..., 1, :, :])
    lead[contact, contact] = t
    coeffs[..., 2, :, :] = lead
    return coeffs


def reference_companion(coeffs):
    """The block companion matrices [[0, I], [-A2^-1 A0, -A2^-1 A1]] of a
    coefficient stack with diagonal A2, with the lower block built from one
    concatenation: the reference for ``secular_polynomial``."""
    n = coeffs.shape[-1]
    lead = np.diagonal(coeffs[..., 2, :, :], axis1=-2, axis2=-1)
    companion = np.zeros((*coeffs.shape[:-3], 2 * n, 2 * n), dtype=np.result_type(coeffs, 1.0))
    companion[..., :n, n:] = np.eye(n)
    with np.errstate(over="ignore"):
        companion[..., n:, :] = (
            -np.concatenate((coeffs[..., 0, :, :], coeffs[..., 1, :, :]), axis=-1)
            / lead[..., :, None])
    return companion


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
    companion = companion_of(make_tdot(1, 1, 0))
    assert companion.shape == (4, 4) and companion.dtype == float
    assert np.array_equal(companion, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, -1], [0, -1, 1, 0]])
    companion = companion_of(make_tdot(2, 1, 0.3))
    assert np.array_equal(
        companion, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, -0.5], [0, -1, 0.5, 0.3 / -2]])


def test_secular_polynomial_determinant_identity():
    # det(z I - C) det(A2) = det(A0 + A1 z + A2 z^2) = z^n det(E - H_eff);
    # for a T-dot it is minus the quartic
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        spec = random_device(rng, n)
        companion = companion_of(spec)
        a2 = reference_coefficients(p_space_hamiltonian(spec), spec.lead_t, spec.contact)[2]
        for z in rng.normal(size=3) + 1j * rng.normal(size=3):
            lhs = np.linalg.det(z * np.eye(2 * n) - companion) * np.linalg.det(a2)
            rhs = z**n * secular_residual(spec, complex(z))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    for t, t1, ed in [(1, 1, 0), (1, 0.5, 0.3), (2, 1, -1.3), (0.7, 1.4, 2.0)]:
        companion = companion_of(make_tdot(t, t1, ed))
        for z in (0.3 + 0.4j, -1.2, 2j):
            lhs = np.linalg.det(z * np.eye(4) - companion) * -t * t
            assert abs(lhs + np.polyval(quartic(t, t1, ed), z)) < 1e-12 * max(1, abs(z)) ** 4


def test_poly_roots_quartic():
    roots, vectors = poly_roots(companion_of(make_tdot(1, 1, 0)))
    assert roots.shape == (4,) and vectors.shape == (4, 2)
    assert_matches(roots.tolist(), [Q, -Q, P * 1j, -P * 1j], 1e-14)


def test_companion_and_sort_equal_their_references_bit_for_bit():
    rng = np.random.default_rng(15)
    for n in range(1, 9):
        # signed-zero, tiny and huge entries, a lone block and stacks of one
        # and of five
        h = rng.choice((0.0, -0.0, 1.0, 1e-300, 1e300), (5, n, n)) * rng.normal(size=(5, n, n))
        h = h + h.swapaxes(-1, -2)
        for t in (1.0, 0.3, 1e-300):
            for contact in sorted({0, n // 2, n - 1}):
                for block in (h[0], h[:1], h):
                    got = secular_polynomial(block, t, contact)
                    want = reference_companion(reference_coefficients(block, t, contact))
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
    # rows with ties in Re z, Im z or both, signed zeros among them
    parts = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
    roots = rng.choice(parts, (200, 12)) + 1j * rng.choice(parts, (200, 12))
    roots = np.where(roots == 0, 2.0, roots)
    for stack in (roots, roots[7]):
        got, got_order = sorted_roots(stack)
        want_order = np.lexsort((stack.imag, stack.real))
        want = np.take_along_axis(stack, want_order, axis=-1)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_order, want_order)


def test_poly_roots_stack_matches_single_solves():
    rng = np.random.default_rng(12)
    for n, contact in ((1, 0), (3, 1), (5, 4)):
        spec = random_device(rng, n)
        h = p_space_hamiltonian(spec) + rng.normal(scale=0.3, size=(5, n, n))
        h = h + h.swapaxes(-1, -2)
        roots, vectors = poly_roots(secular_polynomial(h, spec.lead_t, contact))
        assert roots.shape == (5, 2 * n) and vectors.shape == (5, 2 * n, n)
        for i in range(5):
            r, v = poly_roots(secular_polynomial(h[i], spec.lead_t, contact))
            assert np.array_equal(roots[i], r) and np.array_equal(vectors[i], v)


def test_poly_roots_null_vectors():
    rng = np.random.default_rng(8)
    for n in (1, 3, 12):
        spec = random_device(rng, n)
        h = p_space_hamiltonian(spec)
        stack = reference_coefficients(h, spec.lead_t, spec.contact)
        roots, vectors = poly_roots(secular_polynomial(h, spec.lead_t, spec.contact))
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


def assert_relative_match(zs, ref, rel):
    """Same count, and each reference root within rel * |root| of its own z."""
    assert len(zs) == len(ref)
    left = list(zs)
    for r in ref:
        j = min(range(len(left)), key=lambda i: abs(left[i] - r))
        assert abs(left[j] - r) <= rel * abs(r), (left[j], r)
        left.pop(j)


# Strongly coupled T-dots (t = 1, eps_d = 0.7): the deep bound and anti-bound
# roots, |z| ~ 1/t1, lose digits in the forward companion, whose norm is t1.
# Measured relative errors: 8.6e-13 at t1 = 1e4, 3.4e-9 at 1e8, 4.4e-6 at 1e12
# (ROADMAP item 2); the Feshbach route stays within 3e-16 at all three.
STRONG_COUPLINGS = [
    1e4,
    pytest.param(1e8, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2")),
    pytest.param(1e12, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2")),
]


@pytest.mark.parametrize("t1", STRONG_COUPLINGS)
def test_solve_poles_matches_mpmath_relatively_at_strong_coupling(t1):
    zs = [p.z for p in solve_poles(make_tdot(1.0, t1, 0.7))]
    assert_relative_match(zs, mp_quartic_roots(1.0, t1, 0.7), 1e-9)


@pytest.mark.parametrize("t1", [1e4, 1e8, 1e12])
def test_feshbach_route_matches_mpmath_relatively_at_strong_coupling(t1):
    zs = [p.z for p in feshbach_pole_search(make_tdot(1.0, t1, 0.7))]
    assert_relative_match(zs, mp_quartic_roots(1.0, t1, 0.7), 1e-9)


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


def reference_class(z):
    """The class rule written out on its own, from k_from_z: the reference
    that classify and the array form _pole_table must both follow."""
    k = k_from_z(z)
    if abs(abs(z) - 1.0) <= CLASSIFY_TOL:
        return PoleClass.THRESHOLD
    d_zero = abs(k.real)
    wrapped = math.remainder(k.real - math.pi, 2.0 * math.pi)
    d_pi = abs(wrapped + 2.0 * math.pi if wrapped <= -math.pi else wrapped)
    if k.imag > 0:
        if d_zero <= CLASSIFY_TOL:
            return PoleClass.BOUND_LOWER
        if d_pi <= CLASSIFY_TOL:
            return PoleClass.BOUND_UPPER
        raise ClassificationError(
            f"pole at k = {k} lies in the upper half plane off the bound-state "
            "lines; no state of this model can sit there"
        )
    if d_zero <= CLASSIFY_TOL or d_pi <= CLASSIFY_TOL:
        return PoleClass.ANTI_BOUND
    return PoleClass.RESONANT if k.real > 0 else PoleClass.ANTI_RESONANT


def test_classify_and_pole_table_follow_the_class_rule():
    # classify gives the class of the rule written out on its own, and the
    # array form the k, E and class of the scalar functions, on every class
    # and near each boundary (unit circle, Re k = 0 and +-pi, the zone wrap)
    rng = np.random.default_rng(31)
    zs = [Q, -Q, 1j * P, -1j * P, 1.2, -1.2, complex(-1.2, -1e-15), complex(-1.2, 1e-15),
          1j, 1.0 + 1e-12, complex(0.5, 1e-10), complex(-0.5, -1e-10), -0.5 - 0.0j]
    for r, phase in zip(rng.lognormal(0.0, 1.0, 3000), rng.uniform(-np.pi, np.pi, 3000)):
        # inside the unit circle only the real axis holds states
        zs.append(complex(r * np.cos(phase), r * np.sin(phase)) if r > 1
                  else complex(r * np.sign(phase)))
    assert len(zs) == 3013
    for z in map(complex, zs):
        assert classify(z) is reference_class(z)
    table_equals_scalar_functions([zs], 0.7)
    with pytest.raises(ClassificationError, match="upper half plane"):
        classify(0.5 + 0.5j)


def awkward_roots():
    """Roots on the class boundaries: the negative real axis with a signed
    zero imaginary part (Re k folds to +pi), |z| = 1 +- CLASSIFY_TOL just
    inside and outside the threshold band, signed zero real parts, and
    moduli near 1e+-150, and Re k either side of CLASSIFY_TOL from the
    bound-state lines."""
    mags = [1.0 - CLASSIFY_TOL, 1.0 + CLASSIFY_TOL, 1.0 - 2.0 * CLASSIFY_TOL,
            1.0 + 2.0 * CLASSIFY_TOL, 0.5, 2.0, 1e-150, 1e150, 3e-151, 7e149]
    mags += [math.nextafter(m, d) for m in mags[:2] for d in (0.0, math.inf)]
    zs = []
    for m in mags:
        zs += [complex(-m, 0.0), complex(-m, -0.0), complex(m, 0.0), complex(m, -0.0),
               complex(0.0, -m), complex(-0.0, -m), complex(0.0, m), complex(-0.0, m),
               complex(-m, -1e-300), complex(-m, -m * 1e-10), complex(m * 1e-10, -m)]
    # Re k within and beyond CLASSIFY_TOL of the lines 0 and +-pi, on both
    # sheets: a bound or anti-bound state, or a resonance or an error
    for m in (0.5, 2.0):
        for d in (0.5 * CLASSIFY_TOL, 1.5 * CLASSIFY_TOL):
            zs += [cmath.rect(m, a) for a in (d, -d, math.pi - d, d - math.pi)]
    # off the axes with |z| within an ulp of 1 +- CLASSIFY_TOL, where numpy's
    # complex abs and the C library's hypot round to opposite sides of the
    # threshold band
    zs += [complex(-0.8982057522372497, -0.4395752775667852),
           complex(0.527836423879105, -0.8493460470423806),
           complex(0.9429834513022862, -0.3328396138833669),
           complex(-0.720500965697066, -0.693453932449442),
           complex(-0.6124072361179518, -0.7905424562604915),
           complex(0.7415801703126871, -0.6708642552700256),
           complex(-0.9905284332642779, -0.13730777434295224)]
    # |Re z| = |Im z| exactly, where the complex quotient 1/z changes from
    # dividing through by Re z to dividing through by Im z
    for m in mags[:6] + [0.7071067811865476, 0.7071067811865475, 3.0]:
        zs += [complex(sr * m, si * m) for sr in (1.0, -1.0) for si in (1.0, -1.0)]
    return zs


def scalar_fields(z, t):
    """Re z, Im z, Re k, Im k, Re E, Im E and the class of one root, from the
    scalar functions."""
    k, E = k_from_z(z), energy_from_z(z, t)
    return (z.real, z.imag, k.real, k.imag, E.real, E.imag, classify(z))


def table_equals_scalar_functions(roots, t):
    """The array form on a stack of roots equals k_from_z, energy_from_z and
    classify on each root, value for value by repr; or both raise the same
    error, that of the first root (in C order) the scalar functions
    reject."""
    roots = np.asarray(roots, dtype=complex)
    try:
        ref = [scalar_fields(z, t) for z in roots.ravel().tolist()]
    except (ClassificationError, OverflowError) as exc:
        with pytest.raises(type(exc)) as got:
            _pole_table(roots, t)
        assert str(got.value) == str(exc)
        return
    fields, codes = _pole_table(roots, t)
    assert fields.shape == (*roots.shape, 6) and codes.shape == roots.shape
    # root by root, so that a mismatch reports one root
    for f, c, r in zip(fields.reshape(-1, 6).tolist(), codes.ravel().tolist(), ref, strict=True):
        assert repr((*f, list(PoleClass)[c])) == repr(r)


def classify_follows_the_class_rule(z):
    """classify gives the class of the rule written out on its own, or both
    raise the same ClassificationError."""
    try:
        ref = reference_class(z)
    except ClassificationError as exc:
        with pytest.raises(ClassificationError) as got:
            classify(z)
        assert str(got.value) == str(exc)
        return
    assert classify(z) is ref


ROOTS = st.one_of(
    st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300, allow_nan=False,
                       allow_infinity=False),
    st.sampled_from(awkward_roots()),
    st.builds(lambda m, s: s * m, st.floats(1e-150, 1e150), st.sampled_from((-1.0, 1.0)))
    .map(complex),
    # the lower half plane, where every root is a state
    st.builds(complex, st.floats(-1e150, 1e150), st.floats(-1e150, -1e-150)),
)


@settings(max_examples=400, deadline=None)
@given(zs=st.lists(ROOTS, min_size=1, max_size=12), t=st.floats(1e-3, 1e3))
def test_pole_table_property(zs, t):
    # repr tells -0.0 from 0.0 and every last bit
    for z in zs:
        classify_follows_the_class_rule(z)
    # the array form on the roots as one row and, if they split evenly, as two
    table_equals_scalar_functions([zs], t)
    if len(zs) % 2 == 0:
        table_equals_scalar_functions(np.reshape(zs, (2, -1)), t)


def test_pole_table_on_awkward_roots():
    zs = awkward_roots()
    for z in zs:
        classify_follows_the_class_rule(z)
    # the array form on every root that is a state, as one stack, and on
    # each root that raises, after two that do not
    states, errors = [], []
    for z in zs:
        try:
            classify(z)
        except ClassificationError:
            errors.append(z)
        else:
            states.append(z)
    assert len(states) > 150 and len(errors) > 20
    for t in (0.7, 1.0, 1e-3, 1e3):
        table_equals_scalar_functions(np.reshape(states, (1, -1)), t)
        table_equals_scalar_functions(np.reshape(states[:len(states) // 2 * 2], (-1, 2)), t)
        for z in errors:
            table_equals_scalar_functions([[Q, -Q], [z, states[-1]]], t)
    # the fold: Log of the negative real axis with -0.0 imaginary part is -pi i,
    # which k_from_z moves to +pi
    z = complex(-0.5, -0.0)
    assert k_from_z(z).real == math.pi and classify(z) is PoleClass.BOUND_UPPER


def test_upper_half_plane_root_raises_through_the_pass():
    # off the bound-state lines in the upper half plane: the same error from
    # classify, from the array form and from a route's pole assembly
    z = 0.5 + 0.5j
    with pytest.raises(ClassificationError) as ref:
        classify(z)
    for call in (lambda: _pole_table(np.array([[Q, 1.2], [z, 0.5 + 0.6j]]), 1.0),
                 lambda: poles_from_roots(np.array([Q, z, -Q, 2.0]), np.ones((4, 2)), 1.0, 0)):
        with pytest.raises(ClassificationError) as got:
            call()
        assert str(got.value) == str(ref.value)
        assert "upper half plane" in str(got.value)


def test_band_edge_roots_snap_only_states_that_miss_the_contact():
    near = [complex(-1.0, 3e-8), complex(-1.0 + 9e-8, 0.0), complex(1.0, -5e-8),
            complex(1.0 - 1e-8, 0.0)]
    far = [complex(-1.0, 2e-7), complex(1.0 + 1.5e-7, 0.0), 1j, -0.5 + 0j]
    roots = np.array(near + far)
    got = _band_edge_roots(roots, np.ones(roots.size, dtype=bool))
    assert repr(got.tolist()) == repr([-1 + 0j, -1 + 0j, 1 + 0j, 1 + 0j] + far)
    # a root whose state the contact sees keeps its value
    got = _band_edge_roots(roots, np.zeros(roots.size, dtype=bool))
    assert got.tobytes() == roots.tobytes()


@pytest.mark.parametrize("bad", [0.0, math.nan, complex(math.inf, 1.0)])
def test_poles_from_roots_rejects_zero_or_non_finite_root(bad):
    roots = np.array([1j * P, -1j * P, Q, bad])
    vectors = np.ones((4, 2))
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
    # t and t1 are checked as make_tdot checks them
    with pytest.raises(ParameterError, match="^lead hopping t must be finite and > 0, got inf$"):
        closed_form_eps0(math.inf, 1.0)
    with pytest.raises(ParameterError, match="must be a real number, got True$"):
        closed_form_eps0(1.0, True)


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


def chunk_edge_sweeps(rows):
    """Sweeps of rows - 1, rows and rows + 1 rows, by row count.  A coupled
    point gives 4 rows and a t1 = 0 point 1: all points decoupled, all
    coupled, and a t1 grid whose middle point is exactly 0."""
    return {
        rows - 1: ("eps-d", -3.0, 3.0, rows - 1, {"t1": 0.0}),
        rows: ("eps-d", -3.0, 3.0, rows // 4, {"t1": 0.4}),
        rows + 1: ("t1", -1.0, 1.0, rows // 4 + 1, {"eps_d": 0.3}),
    }


# row counts on either side of the formatter's pass, and around 256 rows,
# inside a pass
CHUNK_EDGE_SWEEPS = {**chunk_edge_sweeps(256), **chunk_edge_sweeps(CSV_CHUNK)}
# a t1 grid whose middle point is 0 after CSV_CHUNK // 4 coupled points: its
# Decoupled row is the first of the formatter's second pass
DECOUPLED_ON_CHUNK_EDGE = ("t1", -1.0, 1.0, CSV_CHUNK // 2 + 1, {"eps_d": -0.7})


@pytest.mark.parametrize("param, start, stop, steps, model", [
    ("t1", -1.0, 1.0, 21, {"eps_d": 0.3}),
    ("t1", -0.5, 2.5, 31, {"eps_d": -3.0, "t": 1.3}),
    ("eps-d", -3.0, 3.0, 25, {"t1": 0.0}),
    ("eps-d", -3.0, 3.0, 61, {"t1": 0.4}),
    ("eps-d", -2.5, 2.5, 41, {"t1": 1e-7}),
    ("eps-d", -4.0, 4.0, 301, {"t1": 0.1}),
    ("t1", 0.0, 3.0, 301, {"eps_d": 2.0}),
    *CHUNK_EDGE_SWEEPS.values(),
    DECOUPLED_ON_CHUNK_EDGE,
    # z, k and E spread from 1e-25 to 1e10: fields on both sides of 1e-4
    ("eps-d", -3.0, 3.0, 41, {"t": 1e-9, "t1": 0.5}),
    # the whole model scaled by 1e-9: every parameter and energy below 1e-4
    ("eps-d", -3e-9, 3e-9, 61, {"t": 1e-9, "t1": 3e-10}),
    ("t1", -0.0, -1.0, 11, {"eps_d": 0.5}),
], ids=["t1_through_0", "t1_outside_band", "eps_d_decoupled", "eps_d_edges", "eps_d_weak",
        "eps_d_workload", "t1_workload_band_edge", "rows_255", "rows_256", "rows_257",
        "rows_chunk_minus_1", "rows_chunk", "rows_chunk_plus_1", "decoupled_on_chunk_edge",
        "tiny_lead_hopping", "tiny_model", "t1_from_minus_zero"])
def test_sweep_csv_matches_per_point_solves(param, start, stop, steps, model, capsys):
    flags = [f"--{k.replace('_', '-')}={v!r}" for k, v in model.items()]
    code = main(["sweep", "--param", param, f"--from={start!r}", f"--to={stop!r}",
                 "--steps", str(steps), *flags])
    assert code == 0
    assert capsys.readouterr().out == reference_sweep_csv(param, start, stop, steps, **model)


@pytest.mark.parametrize("rows", CHUNK_EDGE_SWEEPS)
def test_chunk_edge_sweeps_have_their_row_counts(rows):
    param, start, stop, steps, model = CHUNK_EDGE_SWEEPS[rows]
    lines = reference_sweep_csv(param, start, stop, steps, **model).splitlines()
    assert sum(not line.startswith("#") for line in lines[1:]) == rows


def test_decoupled_row_is_the_first_of_a_chunk():
    lines = reference_sweep_csv(*DECOUPLED_ON_CHUNK_EDGE[:4], **DECOUPLED_ON_CHUNK_EDGE[4])
    rows = [line for line in lines.splitlines()[1:] if not line.startswith("#")]
    assert [i for i, row in enumerate(rows) if row.endswith(",Decoupled")] == [CSV_CHUNK]


@pytest.mark.parametrize("spec", [
    DeviceSpec(3, (0.0, 0.5, -0.2), ((0, 1, -0.8), (1, 2, -0.6)), 0, 1.0),
    DeviceSpec(2, (0.0, 0.3), ((0, 1, -1.0),), 1, 1.0),
    DeviceSpec(2, (0.1, 0.3), ((0, 1, -1.0),), 0, 1.0),
    DeviceSpec(1, (0.0,), (), 0, 1.0),
], ids=["three_sites", "contact_on_dot", "level_on_contact", "one_site"])
def test_tdot_sweep_rejects_other_devices(spec):
    with pytest.raises(ParameterError, match="only T-dot models"):
        solve_tdot_sweep(spec, "t1", [0.5, 1.0])


def test_tdot_sweep_rejects_a_parameter_other_than_t1_or_eps_d():
    with pytest.raises(ParameterError, match="^a T-dot sweep varies t1 or eps_d, not 't'$"):
        solve_tdot_sweep(make_tdot(1.0, 1.0, 0.0), "t", [0.1, 0.2])


def random_tdot_stack(rng, m, t1_low):
    """Device blocks of m random T-dots: |t1| log-uniform from t1_low to 10
    with either sign, eps_d across both band edges, one in four points on a
    round eps_d (0, +-1 or +-2)."""
    t1 = np.exp(rng.uniform(np.log(t1_low), np.log(10.0), m)) * rng.choice((-1.0, 1.0), m)
    eps_d = rng.uniform(-4.0, 4.0, m)
    round_ = rng.uniform(size=m) < 0.25
    eps_d[round_] = rng.choice((0.0, -1.0, 1.0, -2.0, 2.0), int(round_.sum()))
    h = np.zeros((m, 2, 2))
    h[:, 0, 1] = h[:, 1, 0] = -t1
    h[:, 1, 1] = eps_d
    return h


def test_sweep_eigensolve_failure_is_a_numerical_error(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(NumericalError) as exc:
        solve_tdot_sweep(make_tdot(1.0, 0.5, 0.3), "t1", [0.0, 0.5, 1.0])
    assert str(exc.value) == "companion eigensolve did not converge"
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def test_eigenvalue_only_roots_equal_poly_roots_bit_for_bit():
    # the sweep takes its roots from LAPACK's eigenvalue-only path; that is
    # only safe while it returns the very roots poly_roots does
    rng = np.random.default_rng(2024)
    points = 0
    for t in rng.uniform(0.5, 2.0, 20).tolist() + [1.0, 0.5, 2.0]:
        for t1_low in (1e-17, 1e-7, 1e-3):
            h = random_tdot_stack(rng, 150, t1_low)
            h[:10, 1, 1] = rng.choice((-2.0, 2.0), 10) * t  # on the band edges
            companion = secular_polynomial(h, t, 0)
            fast, ref = np.linalg.eigvals(companion), poly_roots(companion)[0]
            assert fast.dtype == ref.dtype and fast.tobytes() == ref.tobytes()
            fast, ref = sorted_roots(fast)[0], sorted_roots(ref)[0]
            assert fast.dtype == ref.dtype and fast.tobytes() == ref.tobytes()
            points += len(companion)
    assert points >= 10_000


def test_tdot_sweep_points_equal_solve_poles():
    # every point's rows (value, z, k, E), class names and class counts, to
    # the last bit, against the solve of the point's own T-dot; the values
    # include t1 = 0 and -0.0, whose points are decoupled
    cases = [
        ("t1", 1.3, 0.4, [-1.0, -0.0, 0.0, 1e-7, 0.5, 2.0]),
        ("eps_d", 0.8, 0.6, [-2.5, -1.6, -1.6000000001, 0.0, 1.6, 3.0]),
        ("eps_d", 1.0, -0.0, [-3.0, 0.0, 2.0]),
        ("t1", 1.0, 0.3, [0.0, 0.0, 0.0]),
        ("t1", 1.0, 0.3, [0.5, 0.5]),
    ]
    for name, t, other, values in cases:
        spec = make_tdot(t, other, 0.1) if name == "eps_d" else make_tdot(t, 1.0, other)
        table, codes, counts = solve_tdot_sweep(spec, name, values)
        labels = [_CODE_LABELS[c] for c in codes.tolist()]
        assert counts.shape == (len(values), len(_CODE_LABELS))
        assert table.shape == (len(labels), 7) and counts.sum() == len(labels)
        ends = np.cumsum(counts.sum(axis=1)).tolist()
        for v, lo, hi, count in zip(values, [0, *ends], ends, counts.tolist()):
            point_spec = make_tdot(t, v, other) if name == "t1" else make_tdot(t, other, v)
            ref = solve_poles(point_spec)
            rows = [[v, p.z.real, p.z.imag, p.k.real, p.k.imag, p.E.real, p.E.imag] for p in ref]
            assert repr(table[lo:hi].tolist()) == repr(rows)
            assert labels[lo:hi] == [p.pole_class.value for p in ref]
            assert count == [sum(p.pole_class.value == c for p in ref) for c in _CODE_LABELS]


def test_pole_table_raises_the_first_error_of_classify():
    # a root off the bound-state lines in the upper half plane, and a root
    # whose modulus is beyond the float range (Python's abs raises)
    huge = complex(1.5e308, -1.5e308)
    off = 0.5 + 0.5j
    for stack, error in (([[Q, off], [huge, -Q]], ClassificationError),
                         ([[Q, huge], [off, -Q]], OverflowError),
                         ([[huge]], OverflowError)):
        with pytest.raises(error):
            [classify(z) for z in np.ravel(stack).tolist()]
        table_equals_scalar_functions(stack, 1.0)


def _grid(h, m, steps, sign):
    """(start, stop) of a grid whose point m is exactly 0: every point is an
    integer multiple of the power of two h."""
    return sign * -m * h, sign * (steps - 1 - m) * h


@st.composite
def sweep_cases(draw):
    t = draw(st.floats(0.5, 2.0))
    steps = draw(st.integers(2, 40))
    if draw(st.booleans()):
        eps_d = draw(st.floats(-3.0, 3.0))
        kind = draw(st.sampled_from(("exact_zero", "from_minus_zero", "any")))
        if kind == "exact_zero":
            start, stop = _grid(2.0 ** -draw(st.integers(0, 6)),
                                draw(st.integers(0, steps - 1)), steps,
                                draw(st.sampled_from((-1.0, 1.0))))
        elif kind == "from_minus_zero":
            # -0.0 + (stop - -0.0) * 0 is -0.0 when stop < 0
            start, stop = -0.0, -draw(st.floats(1e-3, 3.0))
        else:
            start, stop = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
        return "t1", start, stop, steps, {"t": t, "eps_d": eps_d}
    # eps_d across a band edge, |eps_d| = 2 or 2 t
    edge = draw(st.sampled_from((2.0, 2.0 * t))) * draw(st.sampled_from((-1.0, 1.0)))
    start = edge - draw(st.floats(0.01, 1.5))
    stop = edge + draw(st.floats(0.01, 1.5))
    if draw(st.booleans()):
        start, stop = stop, start
    t1 = draw(st.one_of(st.sampled_from((0.0, -0.0, 1e-7)), st.floats(-2.0, 2.0)))
    return "eps-d", start, stop, steps, {"t": t, "t1": t1}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(sweep_cases())
def test_sweep_csv_matches_per_point_solves_on_random_grids(case):
    param, start, stop, steps, model = case
    flags = [f"--{k.replace('_', '-')}={v!r}" for k, v in model.items()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", "--param", param, f"--from={start!r}", f"--to={stop!r}",
                     "--steps", str(steps), *flags])
    assert code == 0
    assert out.getvalue() == reference_sweep_csv(param, start, stop, steps, **model)
