"""Brute-force validators: the hard-wall lattice and residual audits.

A hard-wall copy of the lattice keeps the Hamiltonian real symmetric, so its
eigenvalues outside the band are its bound states (the only discrete poles
visible in a real spectrum).  Resonant poles are audited instead by their
secular residual and by the site-by-site Schroedinger rows, which
``pole_residual_report`` returns as the oracle report's JSON row of each pole.

The truncated lattice is mirror symmetric about the contact.  An odd state
(psi(-x) = -psi(x)) is zero on the contact; the device touches the lead only
there, so it is zero on every device site too.  The odd states are therefore
the levels -2 t cos(pi j / (N + 1)), j = 1..N, of a bare N-site hard-wall
chain, all strictly inside the band: none of them is a bound state.  The even
sector couples the contact, by a bond -sqrt(2) t, to the chain of lead pairs
(|x> + |-x>)/sqrt(2), x = 1..N.  That chain is eliminated exactly, as the
paper eliminates its lead, which leaves the n x n matrix

    M(E) = h_P + 2 t**2 g_N(E) P_c,    t g_N(E) = U_{N-1}(E/2t) / U_N(E/2t),

with g_N the end-site Green's function of the bare chain (Economou, Green's
Functions in Quantum Physics, sec. 5), U_N the Chebyshev polynomials of the
second kind and P_c the projector on the contact.  The bound states are the
roots of E = lambda_j(M(E)) outside the band.  Sylvester's law of inertia
counts the even-sector eigenvalues below a shift s outside the band as the
chain levels below s (all or none) plus the negative eigenvalues of the
Schur complement M(s) - s, and these counts certify every reported energy.
No step grows with N: no lattice matrix is built and no eigensolve is
larger than n x n.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ParameterError, _converged
from .feshbach import q_space_reconstruct, secular_residual
from .model import DeviceSpec, _as_index, p_space_hamiltonian
from .poles import BOUND_CLASSES, SpectralPole
from .siegert import solve_poles

# Newton steps before a bound-state root that is still moving counts as a failure
MAX_NEWTON = 100
# a Newton step in E below this many ulps of |E| (1 + kappa) + ||h_P||_inf + 2t
# ends it: the secular function's scale, and what one ulp of kappa moves E by
NEWTON_ULPS = 32
EPS = float(np.finfo(float).eps)
# the reporting edge, as a multiple of the band edge 2t: eigenvalues within
# 5e-13 of it, relative to t, count as inside the band (at t = 1 it is 2 + 1e-12)
EDGE = 1.0 + 5e-13


def finite_lattice_hamiltonian(spec: DeviceSpec, N: int) -> np.ndarray:
    """The hard-wall Hamiltonian on lead sites -N..N plus the non-contact
    device sites (no bonds beyond +-N).

    Lead site x maps to row x + N, so the contact is row N; non-contact
    device sites follow in site order, site i at row 2N + i + (i < contact).
    ``N`` is an integer, never a bool.  Meaningful bound-state comparisons
    need N large enough that |z|**(2N) is negligible.
    """
    N = _as_index(N, "N")
    if N < 1:
        raise ParameterError(f"need at least one lead site per side, got N={N}")
    c = spec.contact
    rows = [N if i == c else 2 * N + i + (i < c) for i in range(spec.n_sites)]
    h = np.zeros((2 * N + spec.n_sites,) * 2)
    x = np.arange(2 * N)
    h[x, x + 1] = h[x + 1, x] = -spec.lead_t
    h[np.ix_(rows, rows)] = p_space_hamiltonian(spec)
    return h


def _max_entry(hp: np.ndarray, t: float) -> float:
    """max|H| of the even sector: its device block, the chain bonds t and the
    contact bond sqrt(2) t."""
    return max(float(np.max(np.abs(hp))), t * math.sqrt(2.0))


def _decay(N: int, kappa: float) -> tuple[float, float]:
    """sinh(N k) / sinh((N + 1) k) at k = kappa > 0, and its derivative in k.

    This is |t g_N(E)| at |E| = 2 t cosh(k), strictly outside the band: the
    infinite lead's e^-k times the wall's (1 - e^(-2Nk)) / (1 - e^(-2(N+1)k)),
    taken with ``expm1`` so that it neither overflows nor cancels.  The
    derivative is the ratio times N coth(N k) - (N + 1) coth((N + 1) k).
    k = 0 never comes: ``_inertia`` refuses the band edge, and
    ``_bound_roots`` keeps k at or above acosh(EDGE).
    """
    a, b = math.expm1(-2.0 * N * kappa), math.expm1(-2.0 * (N + 1) * kappa)
    ratio = math.exp(-kappa) * a / b
    # coth(y) = -(2 + expm1(-2y)) / expm1(-2y)
    return ratio, ratio * ((N + 1) * (2.0 + b) / b - N * (2.0 + a) / a)


def _inertia(hp: np.ndarray, contact: int, t: float, N: int, shifts) -> np.ndarray:
    """The number of eigenvalues of the even sector below each shift, for
    shifts strictly outside the band, |s| > 2t.

    By Sylvester's law of inertia, h - s has as many negative eigenvalues as
    its chain block, which are the bare chain's levels below s (all N above
    the band, none below it), plus its Schur complement M(s) - s on the
    device.  At |s| = 2 t cosh(k), t g_N(s) = sign(s) sinh(N k) / sinh((N + 1) k)
    (``_decay``), at most 1 in size, so every Schur complement is as finite
    as h_P and s; they go to one stacked ``eigvalsh``.  A shift inside the
    band is a NumericalError, as g_N has a pole at every chain level there;
    so is one on its edge, since the oracle counts only from 2 t EDGE out.

    Everything is first scaled by the power of two that brings max|H| into
    [1/2, 1), which is exact.
    """
    shifts = np.asarray(shifts, dtype=float)
    if not np.isfinite(shifts).all():
        raise NumericalError("inertia count met a non-finite shift")
    x = shifts / (2.0 * t)
    if (np.abs(x) <= 1.0).any():
        raise NumericalError("inertia count met a shift inside the band")
    _, exp = math.frexp(_max_entry(hp, t))
    ratio = [math.copysign(_decay(N, math.acosh(abs(v)))[0], v) for v in x.tolist()]
    schur = np.ldexp(hp, -exp) - np.ldexp(shifts, -exp)[:, None, None] * np.eye(len(hp))
    schur[:, contact, contact] += np.ldexp(2.0 * t, -exp) * np.array(ratio)
    if not np.isfinite(schur).all():
        raise NumericalError("inertia count met a non-finite Schur complement")
    evals = _converged(np.linalg.eigvalsh, schur,
                       failure="Schur complement eigensolve failed to converge")
    return np.where(shifts > 0.0, N, 0) + np.count_nonzero(evals < 0.0, axis=1)


def _bound_roots(hp: np.ndarray, contact: int, t: float, N: int,
                 n_low: int, n_high: int) -> np.ndarray:
    """The n_low lowest and n_high highest eigenvalues of the even sector,
    which lie outside the band, ascending.

    On side s = -1 (below the band) or +1 (above), E = 2 s t cosh(k), and
    M(E) = h_P + 2 s t sinh(N k) / sinh((N + 1) k) P_c decreases with E.  So
    F_j(k) = 2 t cosh(k) - s lambda_j(M(E)) strictly increases with k for
    each sorted branch j, and a branch has at most one root on each side: the
    n_low lowest and n_high highest branches hold these eigenvalues.  Each is
    found by Newton in k, with F'(k) = 2 t sinh(k) - 2 t (d/dk ratio) v_c**2
    from the branch's eigenvector (Hellmann-Feynman), kept inside a bracket:
    F < 0 at the reporting edge 2 t EDGE, and F > 0 where 2 t cosh(k) is
    2 (||h_P||_inf + 2t), twice a bound on |lambda_j|.  It starts from
    lambda_j(M) at the edge, where F >= 0.  Each step is one stacked n x n
    ``eigh`` of all the roots still moving.
    """
    n = len(hp)
    sides = [-1.0] * n_low + [1.0] * n_high
    branches = [*range(n_low), *range(n - n_high, n)]
    two_t = 2.0 * t
    with np.errstate(over="ignore"):
        norm = float(np.max(np.sum(np.abs(hp), axis=1))) + two_t
    # 2 t cosh(k) must stay finite up to the bracket's top, and so must the norm
    if not norm / t < 1e300:
        raise NumericalError(f"device energies {norm:.3e} out of range for lead hopping {t:.3e}")
    edge, top = math.acosh(EDGE), math.acosh(norm / t)
    m = np.repeat(hp[None], 2, axis=0)
    m[:, contact, contact] += np.array([-two_t, two_t]) * _decay(N, edge)[0]
    at_edge = _converged(np.linalg.eigvalsh, m,
                         failure="band-edge eigensolve failed to converge").tolist()
    # row 0 of at_edge is the lower edge, row 1 the upper
    kappa = [min(max(math.acosh(max(s * at_edge[int(s > 0)][j] / two_t, 1.0)), edge), top)
             for s, j in zip(sides, branches)]
    lo, hi, energy = [edge] * len(kappa), [top] * len(kappa), [0.0] * len(kappa)
    moving = range(len(kappa))
    for _ in range(MAX_NEWTON):
        decay = [_decay(N, kappa[i]) for i in moving]
        m = np.repeat(hp[None], len(moving), axis=0)
        m[:, contact, contact] += [sides[i] * two_t * d[0] for i, d in zip(moving, decay)]
        w, v = _converged(np.linalg.eigh, m, failure="bound-state eigensolve failed to converge")
        still = []
        for r, (i, (_, slope)) in enumerate(zip(moving, decay)):
            k, j = kappa[i], branches[i]
            cosh, sinh = math.cosh(k), math.sinh(k)
            f = two_t * cosh - sides[i] * float(w[r, j])
            if f < 0.0:
                lo[i] = k
            elif f > 0.0:
                hi[i] = k
            slope_f = two_t * (sinh - slope * float(v[r, contact, j]) ** 2)
            delta = -f / slope_f if slope_f > 0.0 else -math.inf
            newton = lo[i] <= k + delta <= hi[i]
            kappa[i] = k + delta if newton else 0.5 * (lo[i] + hi[i])
            # the step is taken in E as well, where it is not rounded to an
            # ulp of k, which moves E by about eps k |E|
            energy[i] = sides[i] * two_t * (cosh + sinh * delta)
            tol = NEWTON_ULPS * EPS * (two_t * cosh * (1.0 + k) + norm)
            if not (newton and two_t * sinh * abs(delta) <= tol):
                still.append(i)
        if not still:
            return np.sort(energy)
        moving = still
    raise NumericalError(f"bound-state Newton iteration failed to converge in {MAX_NEWTON} steps")


def bound_energies_from_truncation(spec: DeviceSpec, N: int) -> list[float]:
    """Sorted truncated-lattice eigenvalues outside the lead band, for an
    integer ``N`` >= 10 (never a bool) of lead sites per side.

    The lattice is never built.  Its odd sector is a bare N-site chain whose
    levels lie strictly inside the band, and its even sector is the device
    block with the chain of lead pairs eliminated exactly (see the module
    docstring), so the cost does not depend on N.  The inertia counts
    (``_inertia``) at the reporting edges +-2 t EDGE, relative to t, give how
    many eigenvalues lie below and above the band, and ``_bound_roots`` finds
    them.

    Each one is then self-checked by inertia counts: with
    delta = 1e-10 * max|H| * dim and dim = N + n, the eigenvalue E_i of
    lattice index i (from 0, ascending) needs at most i eigenvalues below
    E_i - delta and at least i + 1 below E_i + delta.  So every E_i lies
    within delta of the true eigenvalue of the same index, and a missed or
    repeated eigenvalue fails the check.  A shift that crosses the edge
    toward the band is moved onto it: above the band, at most
    dim - n_high <= i eigenvalues lie below any shift under the edge, and
    below the band the mirror holds, so the edge counts settle that half.
    """
    N = _as_index(N, "N")
    if N < 10:
        raise ParameterError(f"truncation oracle needs N >= 10, got N={N}")
    hp = p_space_hamiltonian(spec)
    c, t = spec.contact, spec.lead_t
    dim = N + spec.n_sites
    edge = 2.0 * t * EDGE
    n_low, below_top = _inertia(hp, c, t, N, [-edge, edge]).tolist()
    n_high = dim - below_top
    if not n_low + n_high:
        return []
    evals = _bound_roots(hp, c, t, N, n_low, n_high)
    bound = 1e-10 * _max_entry(hp, t) * dim
    index = np.concatenate([np.arange(n_low), np.arange(dim - n_high, dim)])
    k = len(evals)
    minus, plus = evals - bound, evals + bound
    minus[n_low:] = np.maximum(minus[n_low:], edge)
    plus[:n_low] = np.minimum(plus[:n_low], -edge)
    below = _inertia(hp, c, t, N, np.concatenate([minus, plus]))
    bad = np.flatnonzero((below[:k] > index) | (below[k:] <= index))
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"eigenvalue {index[i]}, E = {evals[i]:.17g}, fails the inertia self-check: "
            f"{below[i]} eigenvalues lie below E - d and {below[k + i]} below E + d, "
            f"d = {bound:.3e}"
        )
    return evals.tolist()


def pole_residual_report(spec: DeviceSpec, poles: list[SpectralPole]) -> list[dict]:
    """The oracle report's row for each pole: ``{"z": [Re z, Im z],
    "residual": |det(E - H_eff(z))|, "lattice_row_dev": the largest
    Schroedinger-row deviation, "class": the pole class's value}``, keys in
    that order, every number a Python float.

    Rows checked: lead sites x in {1, 2}, the contact row, and every other
    device row, all using the reconstructed lead amplitudes.  psi(-x) is
    psi(x) bit for bit, so the mirror rows at x = -1, -2 are the same numbers.

    Each device row is sum_j h_ij a_j in Python complex arithmetic: h_ij as
    the complex (h_ij, 0.0) times a_j, added left to right from 0j.  These are
    the operations numpy performs on an ``np.float64`` entry times a complex,
    so the row is the one that numpy scalars give, without their per-operation
    cost.  ``sum`` is not used: newer CPythons sum with compensation.  A row whose
    parts are finite but whose modulus is not reads inf, as numpy's abs
    gives it.
    """
    residuals = secular_residual(spec, np.array([p.z for p in poles], dtype=complex))
    h = [[complex(x) for x in row] for row in p_space_hamiltonian(spec).tolist()]
    t, contact = spec.lead_t, spec.contact
    out = []
    for pole, residual in zip(poles, residuals.tolist()):
        E, amps = pole.E, pole.amps
        psi = [q_space_reconstruct(pole, x) for x in range(4)]
        # 2 before 1: max of a list with a NaN depends on the order, and the
        # mirrored rows come as -2, -1, 1, 2
        devs = [abs(-t * (psi[x - 1] + psi[x + 1]) - E * psi[x]) for x in (2, 1)]
        for i, h_row in enumerate(h):
            row = 0j
            for h_ij, a in zip(h_row, amps):
                row += h_ij * a
            if i == contact:
                row += -t * (psi[1] + psi[1])
            try:
                devs.append(abs(row - E * amps[i]))
            except OverflowError:
                # finite parts whose modulus is past the float range: numpy's
                # abs gives inf, where Python's raises
                devs.append(math.inf)
        out.append({"z": [pole.z.real, pole.z.imag], "residual": abs(residual),
                    "lattice_row_dev": max(devs), "class": pole.pole_class.value})
    return out


def pole_set_distance(a: list[SpectralPole], b: list[SpectralPole]) -> float:
    """Symmetric max nearest-neighbor |dz| between two pole sets.

    Infinite when the counts differ (a missing pole is a full failure, not a
    small distance), 0.0 for two empty sets.  Every |x - y| is ``np.hypot``
    of the parts of the difference, which runs the C library's ``hypot``, as
    Python's complex ``abs`` does, so the distance is the float that
    ``abs`` gives pair by pair.  As with ``abs``, a difference whose parts
    are finite but whose modulus is past the float range raises
    OverflowError; one with an infinite part reads inf.
    """
    if len(a) != len(b):
        return math.inf
    if not a:
        return 0.0
    # Python's complex arithmetic gives inf without a warning
    with np.errstate(over="ignore"):
        diff = np.array([p.z for p in a])[:, None] - np.array([p.z for p in b])
        dist = np.hypot(diff.real, diff.imag)
    if math.isinf(np.maximum.reduce(dist, None)) and (np.isinf(dist) & np.isfinite(diff)).any():
        raise OverflowError("absolute value too large")
    return float(max(np.maximum.reduce(np.minimum.reduce(dist, 1)),
                     np.maximum.reduce(np.minimum.reduce(dist, 0))))


def build_report(spec: DeviceSpec, N: int) -> dict:
    """JSON-ready audit: "poles", the ``pole_residual_report`` rows of
    ``solve_poles``' poles as returned, and "bound_compare", their ascending
    bound-state energies ("siegert") beside the truncated lattice's
    ("lattice") and the largest difference ("max_abs_diff", None when the
    counts differ)."""
    poles = solve_poles(spec)
    rows = pole_residual_report(spec, poles)
    siegert_bound = sorted(
        p.E.real for p in poles if p.pole_class in BOUND_CLASSES
    )
    lattice_bound = bound_energies_from_truncation(spec, N)
    if len(siegert_bound) == len(lattice_bound):
        max_diff = max(
            (abs(a - b) for a, b in zip(siegert_bound, lattice_bound)), default=0.0
        )
    else:
        max_diff = None
    return {
        "poles": rows,
        "bound_compare": {
            "siegert": siegert_bound,
            "lattice": lattice_bound,
            "max_abs_diff": max_diff,
        },
    }
