"""Brute-force validators: hard-wall diagonalization and residual audits.

A hard-wall copy of the lattice keeps the Hamiltonian real symmetric, so its
eigenvalues give the bound states (the only discrete poles visible in a real
spectrum).  They come from a dense eigenvalue-only solve, and each one is
certified by counting the eigenvalues on either side of it with Sylvester's
law of inertia; no eigenvector is computed.  Resonant poles are audited
instead by their secular residual and by the site-by-site Schroedinger rows.

The truncated lattice is mirror symmetric about the contact, and only its
even-parity sector is diagonalized.  An odd state (psi(-x) = -psi(x)) is
zero on the contact; the device touches the lead only there, so it is zero
on every device site too.  The odd states are therefore the levels
-2 t cos(pi j / (N + 1)), j = 1..N, of a bare N-site hard-wall chain, all
strictly inside the band: none of them is a bound state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .feshbach import q_space_reconstruct, secular_residual
from .model import DeviceSpec, p_space_hamiltonian
from .poles import BOUND_CLASSES, SpectralPole
from .siegert import solve_poles


def finite_lattice_hamiltonian(spec: DeviceSpec, N: int) -> np.ndarray:
    """The hard-wall Hamiltonian on lead sites -N..N plus the non-contact
    device sites (no bonds beyond +-N).

    Lead site x maps to row x + N, so the contact is row N; non-contact
    device sites follow in site order, site i at row 2N + i + (i < contact).
    Meaningful bound-state comparisons need N large enough that |z|**(2N) is
    negligible.
    """
    if N < 1:
        raise ParameterError(f"need at least one lead site per side, got N={N}")
    c = spec.contact
    rows = [N if i == c else 2 * N + i + (i < c) for i in range(spec.n_sites)]
    h = np.zeros((2 * N + spec.n_sites,) * 2)
    x = np.arange(2 * N)
    h[x, x + 1] = h[x + 1, x] = -spec.lead_t
    h[np.ix_(rows, rows)] = p_space_hamiltonian(spec)
    return h


def _even_sector(spec: DeviceSpec, N: int) -> np.ndarray:
    """The truncated Hamiltonian on the contact, the lead pairs
    (|x> + |-x>)/sqrt(2) for x = 1..N and the non-contact device sites.

    It equals the x >= 0 block of ``finite_lattice_hamiltonian`` with the
    contact-(x=1) bond scaled by sqrt(2), since the contact meets both x = +1
    and x = -1, and is built directly: the contact is row 0, lead pair x is
    row x, site i is row N + i + (i < contact).
    """
    c = spec.contact
    rows = [0 if i == c else N + i + (i < c) for i in range(spec.n_sites)]
    h = np.zeros((N + spec.n_sites,) * 2)
    x = np.arange(N)
    h[x, x + 1] = h[x + 1, x] = -spec.lead_t
    h[0, 1] = h[1, 0] = -spec.lead_t * math.sqrt(2.0)
    h[np.ix_(rows, rows)] = p_space_hamiltonian(spec)
    return h


def _inertia(h: np.ndarray, N: int, shifts: np.ndarray) -> np.ndarray:
    """The number of eigenvalues of the even sector ``h`` below each shift.

    By Sylvester's law of inertia, h - s has as many negative eigenvalues as
    a block LDL^T factor of it has negative pivots.  The chain rows N..1 are
    eliminated from the wall inward by the tridiagonal recurrence
    d <- h_xx - s - h_{x,x+1}**2 / d, one pivot per row, counted with
    ``signbit``.  A zero pivot makes the next one infinite and the one after
    it finite again, which counts right in IEEE arithmetic (Demmel, Dhillon &
    Ren, ETNA 3 (1995) 116).  What is left is the Schur complement on the
    contact and device rows: their block of h - s with h_01**2 / d_1 taken
    from the contact entry.  Its negative eigenvalues come from one stacked
    ``eigvalsh``, after a congruence that scales its contact row and column
    so that the contact entry is at most 1 in size: an infinite or huge entry
    (d_1 zero or tiny) then leaves the device rows intact.

    Everything is first scaled by the power of two that brings max|h| into
    [1/2, 1), which is exact and keeps h_{x,x+1}**2 from overflowing.
    """
    _, exp = math.frexp(np.max(np.abs(h)))
    shifts = np.ldexp(shifts, -exp)
    bond2 = (np.ldexp(np.diagonal(h, 1), -exp) ** 2).tolist()
    rows = [0, *range(N + 1, h.shape[0])]
    with np.errstate(all="ignore"):
        pivots = np.subtract.outer(np.ldexp(np.diagonal(h)[1 : N + 1], -exp), shifts)
        for x in range(N - 2, -1, -1):
            pivots[x] -= bond2[x + 1] / pivots[x + 1]
        schur = np.ldexp(h[np.ix_(rows, rows)], -exp) - shifts[:, None, None] * np.eye(len(rows))
        contact = schur[:, 0, 0] - bond2[0] / pivots[0]
        scale = 1.0 / np.sqrt(np.maximum(1.0, np.abs(contact)))
    schur[:, 0, 1:] *= scale[:, None]
    schur[:, 1:, 0] *= scale[:, None]
    schur[:, 0, 0] = np.clip(contact, -1.0, 1.0)
    # a NaN pivot carries through to d_1 and so to the contact entry
    if not np.isfinite(schur).all():
        raise NumericalError("inertia count met a non-finite pivot or Schur complement")
    try:
        evals = np.linalg.eigvalsh(schur)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Schur complement eigensolve failed to converge") from exc
    return np.count_nonzero(np.signbit(pivots), axis=0) + np.count_nonzero(evals < 0.0, axis=1)


def bound_energies_from_truncation(spec: DeviceSpec, N: int) -> list[float]:
    """Sorted truncated-lattice eigenvalues outside the lead band.

    Only the even-parity sector is solved, a matrix of dimension N + n
    (``_even_sector``) instead of 2 N + n.  An odd state (psi(-x) = -psi(x))
    vanishes on the contact and hence on the whole device, which meets the
    lead only there; the odd sector is a bare N-site chain whose levels
    -2 t cos(pi j / (N + 1)) lie strictly inside the band, so the fold loses
    no bound state.

    Only eigenvalues are computed, and each is self-checked by inertia
    counts (``_inertia``) of the solved matrix: with
    delta = 1e-10 * max|H| * dim, the i-th sorted eigenvalue E_i (from 0)
    needs at most i eigenvalues below E_i - delta and at least i + 1 below
    E_i + delta.  So every E_i lies within delta of the true eigenvalue of the
    same index, and a missed or repeated eigenvalue fails the check.
    """
    if N < 10:
        raise ParameterError(f"truncation oracle needs N >= 10, got N={N}")
    h = _even_sector(spec, N)
    try:
        evals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("dense symmetric eigensolve failed to converge") from exc
    dim = h.shape[0]
    bound = 1e-10 * np.max(np.abs(h)) * dim
    below = _inertia(h, N, np.concatenate([evals - bound, evals + bound]))
    index = np.arange(dim)
    bad = np.flatnonzero((below[:dim] > index) | (below[dim:] <= index))
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"eigenvalue {i}, E = {evals[i]:.17g}, fails the inertia self-check: "
            f"{below[i]} eigenvalues lie below E - d and {below[dim + i]} below E + d, "
            f"d = {bound:.3e}"
        )
    edge = 2.0 * spec.lead_t + 1e-12
    # eigvalsh returns its eigenvalues in ascending order
    return [float(e) for e in evals if abs(e) > edge]


@dataclass(frozen=True)
class PoleResidual:
    """Audit record for one pole."""

    z: complex
    secular: float
    lattice_row_dev: float


def pole_residual_report(
    spec: DeviceSpec, poles: list[SpectralPole]
) -> list[PoleResidual]:
    """Secular and Schroedinger-row residuals for each pole.

    Rows checked: lead sites x in {1, 2}, the contact row, and every other
    device row, all using the reconstructed lead amplitudes.  psi(-x) is
    psi(x) bit for bit, so the mirror rows at x = -1, -2 are the same numbers.
    """
    secular = secular_residual(spec, np.array([p.z for p in poles], dtype=complex))
    hp = p_space_hamiltonian(spec)
    t = spec.lead_t
    out = []
    for pole, sec in zip(poles, secular):
        E = pole.E
        psi = [q_space_reconstruct(pole, x) for x in range(4)]
        # 2 before 1: max of a list with a NaN depends on the order, and the
        # mirrored rows come as -2, -1, 1, 2
        devs = [abs(-t * (psi[x - 1] + psi[x + 1]) - E * psi[x]) for x in (2, 1)]
        for i in range(spec.n_sites):
            row = sum(hp[i, j] * pole.amps[j] for j in range(spec.n_sites))
            if i == spec.contact:
                row += -t * (psi[1] + psi[1])
            devs.append(abs(row - E * pole.amps[i]))
        out.append(
            PoleResidual(
                z=pole.z,
                secular=abs(complex(sec)),
                lattice_row_dev=max(devs),
            )
        )
    return out


def pole_set_distance(a: list[SpectralPole], b: list[SpectralPole]) -> float:
    """Symmetric max nearest-neighbor |dz| between two pole sets.

    Infinite when the counts differ (a missing pole is a full failure, not a
    small distance).
    """
    if len(a) != len(b):
        return math.inf
    if not a:
        return 0.0
    za = [p.z for p in a]
    zb = [p.z for p in b]
    d_ab = max(min(abs(x - y) for y in zb) for x in za)
    d_ba = max(min(abs(x - y) for y in za) for x in zb)
    return max(d_ab, d_ba)


def build_report(spec: DeviceSpec, N: int) -> dict:
    """JSON-ready audit: per-pole residuals plus the bound-state comparison."""
    poles = solve_poles(spec)
    residuals = pole_residual_report(spec, poles)
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
        "poles": [
            {
                "z": [r.z.real, r.z.imag],
                "residual": r.secular,
                "lattice_row_dev": r.lattice_row_dev,
                "class": p.pole_class.value,
            }
            for r, p in zip(residuals, poles)
        ],
        "bound_compare": {
            "siegert": siegert_bound,
            "lattice": lattice_bound,
            "max_abs_diff": max_diff,
        },
    }
