"""Pole finding through the outgoing-wave boundary condition.

Demanding purely outgoing waves on the lead closes the infinite problem on
the device sites.  Multiplied by the Bloch factor z, the closed equations
form a quadratic matrix polynomial,

    z (E(z) I - H_eff(z)) = -t (I - 2 P_c) z^2 - H_P z - t I,

with H_P the device block and P_c the projector on the contact site.  Its 2n
eigenvalues are every S-matrix pole of the device and its eigenvectors are
the inner-space amplitudes.  The leading matrix is diagonal with entries +-t,
so one eigensolve of its block companion matrix gives both at once.  For the
T-type dot the determinant is the quartic

    t^2 z^4 + t eps_d z^3 + t1^2 z^2 - t eps_d z - t^2 = 0,

which the tests keep as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .model import DeviceSpec, p_space_hamiltonian
from .poles import PoleClass, SpectralPole, decoupled_poles, poles_from_roots


def secular_polynomial(spec: DeviceSpec) -> np.ndarray:
    """Real coefficient stack (A0, A1, A2), ascending powers of z, of
    z (E(z) I - H_eff(z)) = A0 + A1 z + A2 z^2.

    A0 = -t I, A1 = -H_P and A2 = -t (I - 2 P_c); the determinant of the
    polynomial is z**n_sites * det(E(z) - H_eff(z)).
    """
    t = spec.lead_t
    eye = np.eye(spec.n_sites)
    lead = -t * eye
    lead[spec.contact, spec.contact] = t
    return np.stack((-t * eye, -p_space_hamiltonian(spec), lead))


def poly_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and null vectors of A0 + A1 z + A2 z^2 with A2 diagonal.

    Scaling the rows by 1/diag(A2) gives the monic z^2 I + B1 z + B0, whose
    block companion matrix [[0, I], [-B0, -B1]] has the eigenvectors
    (v, z v).  One eigensolve returns all 2n roots, with multiplicity, and
    row i of the second array is the null vector (the last n rows, z v) of
    root i.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 3 or coeffs.shape[0] != 3 or coeffs.shape[1] != coeffs.shape[2]:
        raise ParameterError(f"need a (3, n, n) coefficient stack, got shape {coeffs.shape}")
    lead = np.diag(coeffs[2])
    if np.any(coeffs[2] != np.diag(lead)) or np.any(lead == 0):
        raise ParameterError("leading coefficient must be an invertible diagonal matrix")
    n = lead.size
    companion = np.zeros((2 * n, 2 * n), dtype=np.result_type(coeffs, 1.0))
    companion[:n, n:] = np.eye(n)
    companion[n:] = -np.concatenate((coeffs[0], coeffs[1]), axis=1) / lead[:, None]
    try:
        roots, vectors = np.linalg.eig(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("companion eigensolve did not converge") from exc
    return roots, vectors[n:].T


@dataclass(frozen=True)
class ClosedFormEps0:
    """Exact solution of the T-dot with a dot level at zero.

    p > 1 and q = 1/p set the four poles: two bound states at E = -+(p+q)t
    on the Re k = 0 and Re k = pi lines, and a resonant/anti-resonant pair
    at E = -+i(p-q)t.
    """

    p: float
    q: float
    poles: tuple[SpectralPole, SpectralPole, SpectralPole, SpectralPole]


def closed_form_eps0(t: float, t1: float) -> ClosedFormEps0:
    """The four poles of the T-dot with eps_d = 0, in closed form."""
    if not t > 0:
        raise ParameterError(f"lead hopping t must be > 0, got {t}")
    if t1 == 0:
        raise ParameterError("closed form needs a coupled dot (t1 != 0)")
    p = math.sqrt((t1 * t1 + math.sqrt(4.0 * t**4 + t1**4)) / (2.0 * t * t))
    q = 1.0 / p
    lp = math.log(p)
    half_pi = math.pi / 2.0

    def pole(z, k, E, cls):
        # second secular row fixes amp_d = -t1/E once amp0 = 1
        return SpectralPole(
            z=complex(z), k=complex(k), E=complex(E), pole_class=cls,
            amps=(1.0 + 0j, -t1 / complex(E)), contact=0,
        )

    poles = (
        pole(q, 1j * lp, -(p + q) * t, PoleClass.BOUND_LOWER),
        pole(-q, math.pi + 1j * lp, (p + q) * t, PoleClass.BOUND_UPPER),
        pole(1j * p, half_pi - 1j * lp, -1j * (p - q) * t, PoleClass.RESONANT),
        pole(-1j * p, -half_pi - 1j * lp, 1j * (p - q) * t, PoleClass.ANTI_RESONANT),
    )
    return ClosedFormEps0(p=p, q=q, poles=poles)


def solve_poles(spec: DeviceSpec) -> list[SpectralPole]:
    """Every S-matrix pole of the device via the outgoing-wave polynomial.

    Returns one ``SpectralPole`` per eigenvalue, classified and carrying the
    inner-space amplitudes of its eigenvector, sorted by (Re z, Im z).  A dot
    with zero coupling short-circuits to its embedded Decoupled level.
    """
    decoupled = decoupled_poles(spec)
    if decoupled is not None:
        return decoupled
    return poles_from_roots(spec, *poly_roots(secular_polynomial(spec)))
