import cmath
import math

import numpy as np
import pytest

from respole import (
    BandEdgeError,
    NumericalError,
    ParameterError,
    energy_from_z,
    group_velocity,
    k_from_z,
    z_pair_from_energy,
)

# closed-form scales of the symmetric dot (t = t1 = 1): p > 1, q = 1/p
P = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
Q = 1.0 / P


def test_energy_from_z_examples():
    assert energy_from_z(1j, 1.0) == 0
    assert energy_from_z(1.0, 1.0) == -2.0
    # E at z = q is -(q + p); the same point evaluated two ways
    assert energy_from_z(Q, 1.0) == pytest.approx(-(P + Q), abs=1e-12)
    assert abs(energy_from_z(0.7861514, 1.0) - (-2.0581710)) < 1e-6


def test_energy_from_z_rejects_zero():
    with pytest.raises(ParameterError):
        energy_from_z(0, 1.0)


def test_energy_shared_between_sheets():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 1e-3:
            continue
        assert abs(energy_from_z(z, 1.3) - energy_from_z(1 / z, 1.3)) < 1e-12 * (
            1 + abs(energy_from_z(z, 1.3))
        )


def test_k_from_z_examples():
    assert k_from_z(1j) == pytest.approx(math.pi / 2)
    assert k_from_z(-1.0) == pytest.approx(math.pi)  # +pi, not -pi
    assert k_from_z(complex(-1.0, -0.0)) == pytest.approx(math.pi)
    k = k_from_z(1j * P)
    assert k.real == pytest.approx(math.pi / 2, abs=1e-14)
    assert k.imag == pytest.approx(-math.log(P), abs=1e-14)
    with pytest.raises(ParameterError):
        k_from_z(0)


def test_k_z_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = complex(rng.uniform(-math.pi, math.pi), rng.uniform(-5, 5))
        k2 = k_from_z(cmath.exp(1j * k))
        dre = (k2.real - k.real) % (2 * math.pi)
        dre = min(dre, 2 * math.pi - dre)
        assert dre < 1e-14 * max(1.0, abs(k))
        assert abs(k2.imag - k.imag) < 1e-14 * max(1.0, abs(k))


def test_upper_half_k_means_inside_circle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 1e-6 or abs(abs(z) - 1) < 1e-12:
            continue
        k = k_from_z(z)
        assert (k.imag > 0) == (abs(z) < 1)


def test_z_pair_retarded_first():
    za, zb = z_pair_from_energy(0.0, 1.0)
    assert za == pytest.approx(1j) and zb == pytest.approx(-1j)
    za, zb = z_pair_from_energy(-(P + Q), 1.0)
    assert za == pytest.approx(Q, abs=1e-12)
    assert zb == pytest.approx(P, abs=1e-12)
    assert abs(za * zb - 1.0) < 1e-12


def test_z_pair_retarded_in_band_has_positive_k():
    rng = np.random.default_rng(17)
    for _ in range(200):
        t = rng.uniform(0.2, 3.0)
        e = rng.uniform(-2 * t + 1e-3, 2 * t - 1e-3)
        z_ret, _ = z_pair_from_energy(e, t)
        k = k_from_z(z_ret)
        assert 0 < k.real < math.pi
        assert abs(k.imag) < 1e-12


def test_z_pair_residual_property():
    rng = np.random.default_rng(23)
    for _ in range(500):
        t = rng.uniform(0.2, 3.0)
        E = complex(rng.normal(scale=3), rng.normal(scale=3))
        if abs(E * E - 4 * t * t) < 1e-6:
            continue
        for z in z_pair_from_energy(E, t):
            assert abs(t * z * z + E * z + t) < 1e-12 * t * max(1.0, abs(z)) ** 2 * (
                1 + abs(E) / t
            )


def test_band_edges_raise():
    with pytest.raises(BandEdgeError):
        z_pair_from_energy(2.0, 1.0)
    with pytest.raises(BandEdgeError):
        z_pair_from_energy(-2.0, 1.0)
    with pytest.raises(ParameterError):
        z_pair_from_energy(0.0, 0.0)


def test_z_pair_is_invariant_under_power_of_two_scaling():
    # the pair of (2**e E, 2**e t) is the pair of (E, t) to the last bit,
    # with E * E far past the float range at the large scales
    rng = np.random.default_rng(29)
    for _ in range(200):
        t = rng.uniform(0.2, 3.0)
        E = complex(rng.normal(scale=3), rng.choice((0.0, rng.normal(scale=3))))
        if abs(E * E - 4 * t * t) < 1e-6:
            continue
        pair = repr(z_pair_from_energy(E, t))
        for e in (-1000, -600, 600, 1000):
            scaled = complex(math.ldexp(E.real, e), math.ldexp(E.imag, e))
            assert repr(z_pair_from_energy(scaled, math.ldexp(t, e))) == pair, (E, t, e)


@pytest.mark.parametrize("E, t", [(1e150, 1e-300), (-1e300, 1e-20), (1e10, 5e-324)])
def test_z_pair_outside_the_float_range_is_a_numerical_error(E, t):
    # the roots, about E/t and t/E, are past the float range
    with pytest.raises(NumericalError, match="leave the float range"):
        z_pair_from_energy(E, t)


def test_group_velocity():
    assert group_velocity(math.pi / 2, 1.0) == pytest.approx(2.0)
    assert group_velocity(math.pi / 3, 1.0) == pytest.approx(math.sqrt(3.0))
    assert group_velocity(0.0, 1.0) == 0.0
    ks = np.linspace(0.01, math.pi - 0.01, 50)
    assert all(group_velocity(float(k), 0.7) > 0 for k in ks)
