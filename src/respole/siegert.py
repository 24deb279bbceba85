"""Pole finding through the outgoing-wave boundary condition.

Demanding purely outgoing waves on the lead closes the infinite problem on
the device sites.  Multiplied by the Bloch factor z, the closed equations
form a quadratic matrix polynomial,

    z (E(z) I - H_eff(z)) = -t (I - 2 P_c) z^2 - H_P z - t I,

with H_P the device block and P_c the projector on the contact site.  Its 2n
eigenvalues are every S-matrix pole of the device and its eigenvectors are
the inner-space amplitudes.  The leading matrix is -t D with D = I - 2 P_c,
its own inverse, so the monic block companion matrix is known in closed form,

    C = [[0, I], [-D, -D H_P / t]],

and ``secular_polynomial`` builds it straight from the device; one
eigensolve of C gives the poles and amplitudes at once.  Devices that share
the lead and the contact site, such as the points of a parameter sweep,
stack into one eigensolve.  A T-dot sweep (``solve_tdot_sweep``) needs
only the roots: it takes them from an eigenvalue-only solve of the stack,
computes no amplitudes, and hands the whole stack of sorted roots to the
array form ``poles._pole_table``, which gives k, E and a class code per
root, bit for bit those of the scalar functions ``k_from_z``,
``energy_from_z`` and ``classify`` that build the pole list of one device.
The sweep's table, class codes and class counts are built from those
arrays, with no Python bytecode run per root; ``cli`` writes the codes as
the CSV's class column through ``_format.csv_rows``.
For the T-type dot the determinant is the quartic

    t^2 z^4 + t eps_d z^3 + t1^2 z^2 - t eps_d z - t^2 = 0,

which the tests keep as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .model import DeviceSpec, make_tdot, p_space_hamiltonian, tdot_params
from .poles import (
    _CODE_LABELS,
    PoleClass,
    SpectralPole,
    _pole_table,
    decoupled_poles,
    poles_from_roots,
    sorted_roots,
)


def secular_polynomial(h: np.ndarray, t: float, contact: int) -> np.ndarray:
    """The monic block companion matrix C = [[0, I], [-D, -D h / t]] of
    z (E(z) I - H_eff(z)) = A0 + A1 z + A2 z^2 for the device block h.

    A0 = -t I, A1 = -h and A2 = -t D with D = I - 2 P_c, so C is the companion
    of z^2 I + A2^-1 A1 z + A2^-1 A0, and det(z I - C) det(A2) is
    z**n_sites * det(E(z) - H_eff(z)).  Each row is divided by its entry of
    A2, -t on every row but +t on the contact row.  An (n, n) block gives a
    (2n, 2n) matrix; an (m, n, n) stack of blocks that share the lead hopping
    t and the contact site gives (m, 2n, 2n).
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[-1]
    eye = np.eye(n)
    lead = np.full((n, 1), -t)
    lead[contact] = t
    companion = np.zeros((*h.shape[:-2], 2 * n, 2 * n))
    companion[..., :n, n:] = eye
    companion[..., n:, :n] = eye * t / lead
    # an overflow to inf here fails the eigensolve, which raises the typed
    # error; numpy's warning would only add noise to stderr
    with np.errstate(over="ignore"):
        np.divide(h, lead, out=companion[..., n:, n:])
    return companion


def poly_roots(companion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and null vectors of the secular polynomial, from one
    (2n, 2n) companion matrix of ``secular_polynomial`` or an (m, 2n, 2n)
    stack of them.

    The companion's eigenvectors are (v, z v).  One eigensolve over all the
    matrices returns every polynomial's 2n roots, with multiplicity, as the
    last axis of the first array; row i of the matching (2n, n) block of the
    second array is the null vector (the last n rows, z v) of root i.
    """
    n = companion.shape[-1] // 2
    try:
        roots, vectors = np.linalg.eig(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("companion eigensolve did not converge") from exc
    return roots, vectors[..., n:, :].swapaxes(-1, -2)


def _eigenvalues_only(companion: np.ndarray) -> np.ndarray:
    """The roots of :func:`poly_roots` without its null vectors.  LAPACK's
    eigenvalue-only path runs the same balancing, reduction and QR steps on
    the companion matrices, so the roots match ``poly_roots`` bit for bit;
    the tests check that on T-dot stacks."""
    try:
        return np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("companion eigensolve did not converge") from exc


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
    t, t1, _ = tdot_params(make_tdot(t, t1, 0.0))
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
    h, t, c = p_space_hamiltonian(spec), spec.lead_t, spec.contact
    return poles_from_roots(*poly_roots(secular_polynomial(h, t, c)), t, c)


def solve_tdot_sweep(spec: DeviceSpec, name: str,
                     values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The poles of the T-dot ``spec`` with its parameter ``name`` ("t1" or
    "eps_d") set to each of ``values`` in turn, as three arrays of rows:

    - the (rows, 7) float table of value, Re z, Im z, Re k, Im k, Re E and
      Im E, point after point: a coupled point's secular roots sorted by
      (Re z, Im z), or the ``decoupled_poles`` of a point with t1 = 0;
    - the class code of each row, an index into ``poles._CODE_LABELS``
      (the CSV names);
    - the (points, 7) count of each point's rows per class, in the order of
      ``poles._CODE_LABELS``: the point's classes as a multiset.

    No amplitudes are computed.  ``spec`` must have the T-dot shape of
    ``make_tdot``; any other device raises ParameterError.  The device blocks
    of all coupled points are built from the grid at once, their roots found
    by one stacked, eigenvalue-only eigensolve, and k, E and class by the
    array form ``poles._pole_table`` over the whole stack.  Each point's
    roots, and so its z, k, E and class, equal those of ``solve_poles`` on
    its own T-dot to the last bit.
    """
    params = tdot_params(spec)
    if params is None:
        raise ParameterError("pole sweeps support only T-dot models")
    if name not in ("t1", "eps_d"):
        raise ParameterError(f"a T-dot sweep varies t1 or eps_d, not {name!r}")
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"sweep values of {name} must be finite")
    t, t1, eps_d = params
    t1 = values if name == "t1" else np.full(values.shape, t1)
    eps_d = values if name == "eps_d" else np.full(values.shape, eps_d)
    coupled = t1 != 0.0
    # the device block of make_tdot(t, t1, eps_d) at every coupled point
    h = np.zeros((int(coupled.sum()), 2, 2))
    h[:, 0, 1] = h[:, 1, 0] = -t1[coupled]
    h[:, 1, 1] = eps_d[coupled]
    roots = sorted_roots(_eigenvalues_only(secular_polynomial(h, t, 0)))[0]
    fields, codes = _pole_table(roots, t)
    # a row per root of a coupled point, one for the level of a point with t1 = 0
    per_point = np.where(coupled, roots.shape[-1], 1)
    point = np.repeat(np.arange(values.size), per_point)
    on_root = coupled[point]
    table = np.empty((point.size, 7))
    table[:, 0] = values[point]
    table[on_root, 1:] = fields.reshape(-1, 6)
    row_codes = np.full(point.size, _CODE_LABELS.index(PoleClass.DECOUPLED.value))
    row_codes[on_root] = codes.ravel()
    first = np.cumsum(per_point) - per_point
    for i in np.flatnonzero(~coupled).tolist():
        p = decoupled_poles(make_tdot(t, t1[i], eps_d[i]))[0]
        table[first[i], 1:] = p.z.real, p.z.imag, p.k.real, p.k.imag, p.E.real, p.E.imag
    width = len(_CODE_LABELS)
    counts = np.bincount(point * width + row_codes, minlength=values.size * width)
    return table, row_codes, counts.reshape(values.size, width)
