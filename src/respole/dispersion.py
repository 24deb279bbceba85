"""Mappings among energy E, wave number k and Bloch factor z = exp(ik).

The lead dispersion is E = -2t cos k, i.e. E = -t(z + 1/z) in the Bloch
factor.  E -> z is one-to-two (the two Riemann sheets of k(E)); z is the
single-valued variable, with |z| < 1 on the first (physical) sheet and
|z| > 1 on the second.
"""

from __future__ import annotations

import cmath
import math

from .errors import BandEdgeError, NumericalError, ParameterError

# |discriminant| below this multiple of t^2 counts as a band edge, where the
# two Bloch roots merge and branch selection is ill-conditioned.
BAND_EDGE_TOL = 1e-12


def energy_from_z(z: complex, t: float) -> complex:
    """E = -t(z + 1/z); equals -2t cos k when z = exp(ik)."""
    if z == 0:
        raise ParameterError("Bloch factor z must be nonzero")
    return -t * (z + 1.0 / z)


def k_from_z(z: complex) -> complex:
    """Wave number -i Log z on the principal branch, with Re k in (-pi, pi].

    The point Re k = -pi is mapped to +pi so each state has one canonical
    representative in the Brillouin zone.
    """
    if z == 0:
        raise ParameterError("Bloch factor z must be nonzero")
    k = -1j * cmath.log(z)
    re = k.real
    if re <= -math.pi:
        re += 2.0 * math.pi
    return complex(re, k.imag)


def z_pair_from_energy(E: complex, t: float) -> tuple[complex, complex]:
    """The two roots of t z^2 + E z + t = 0, retarded branch first.

    The roots multiply to 1 (one per sheet).  For real E inside the band the
    retarded root is the one with Im z > 0 (i.e. 0 < k < pi); otherwise the
    first-sheet root |z| < 1 comes first.  They are formed in units of 2**e,
    where the largest of t, |Re E| and |Im E| lies in [1/2, 1): that leaves
    every root and the band-edge test unchanged, exactly, and E*E in range.
    Where t is so far below |E| that the roots, about |E|/t and t/|E|, lie
    outside the float range, NumericalError is raised.
    """
    if not t > 0:
        raise ParameterError(f"lead hopping t must be > 0, got {t}")
    E = complex(E)
    e = math.frexp(max(t, abs(E.real), abs(E.imag)))[1]
    energy, hop = complex(math.ldexp(E.real, -e), math.ldexp(E.imag, -e)), math.ldexp(t, -e)
    disc = energy * energy - 4.0 * hop * hop
    if abs(disc) < BAND_EDGE_TOL * hop * hop:
        raise BandEdgeError(f"energy {E} sits on a band edge (double Bloch root)")
    sq = cmath.sqrt(disc)
    # form the larger root first, then its exact-reciprocal partner; a
    # hopping that underflows to 0 here puts it past the float range too
    big = complex(math.inf)
    if hop:
        za = (-energy + sq) / (2.0 * hop)
        zb = (-energy - sq) / (2.0 * hop)
        big = za if abs(za) >= abs(zb) else zb
    if not cmath.isfinite(big):
        raise NumericalError(f"the Bloch roots of energy {E} at t = {t} leave the float range")
    small = 1.0 / big
    if abs(abs(big) - abs(small)) <= 1e-12:
        # both on the unit circle: retarded means Im z > 0
        return (big, small) if big.imag > small.imag else (small, big)
    return (small, big)


def group_velocity(k: float, t: float) -> float:
    """dE/dk = 2t sin k for the uniform lead."""
    return 2.0 * t * math.sin(k)
