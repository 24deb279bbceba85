"""Brute-force validators: hard-wall diagonalization and residual audits.

A hard-wall copy of the lattice keeps the Hamiltonian real symmetric, so a
dense Hermitian eigensolver certifies the bound states (the only discrete
poles visible in a real spectrum).  Resonant poles are audited instead by
their secular residual and by the site-by-site Schroedinger rows.

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

    It is the x >= 0 slice of the full lattice; only the contact-(x=1) bond
    changes, to sqrt(2) times its value, since the contact meets both x = +1
    and x = -1.
    """
    h = finite_lattice_hamiltonian(spec, N)[N:, N:].copy()
    h[0, 1] = h[1, 0] = h[0, 1] * math.sqrt(2.0)
    return h


def bound_energies_from_truncation(spec: DeviceSpec, N: int) -> list[float]:
    """Sorted truncated-lattice eigenvalues outside the lead band.

    Only the even-parity sector is solved, a matrix of dimension N + n
    (``_even_sector``) instead of 2 N + n.  An odd state (psi(-x) = -psi(x))
    vanishes on the contact and hence on the whole device, which meets the
    lead only there; the odd sector is a bare N-site chain whose levels
    -2 t cos(pi j / (N + 1)) lie strictly inside the band, so the fold loses
    no bound state.

    The eigensolve is self-checked: every pair of the solved matrix must
    satisfy ||H v - E v|| < 1e-10 * max|H| * dim.
    """
    if N < 10:
        raise ParameterError(f"truncation oracle needs N >= 10, got N={N}")
    h = _even_sector(spec, N)
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("dense symmetric eigensolve failed to converge") from exc
    resid = np.linalg.norm(h @ evecs - evecs * evals, axis=0)
    bound = 1e-10 * np.max(np.abs(h)) * h.shape[0]
    if np.max(resid) > bound:
        raise NumericalError(
            f"eigenpair residual {np.max(resid):.3e} exceeds self-check bound {bound:.3e}"
        )
    edge = 2.0 * spec.lead_t + 1e-12
    return sorted(float(e) for e in evals if abs(e) > edge)


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

    Rows checked: lead sites x in {-2, -1, 1, 2}, the contact row, and every
    other device row, all using the reconstructed lead amplitudes.
    """
    secular = secular_residual(spec, np.array([p.z for p in poles], dtype=complex))
    hp = p_space_hamiltonian(spec)
    t = spec.lead_t
    out = []
    for pole, sec in zip(poles, secular):
        E = pole.E
        psi = {x: q_space_reconstruct(pole, x) for x in range(-3, 4)}
        devs = []
        for x in (-2, -1, 1, 2):
            devs.append(abs(-t * (psi[x - 1] + psi[x + 1]) - E * psi[x]))
        for i in range(spec.n_sites):
            row = sum(hp[i, j] * pole.amps[j] for j in range(spec.n_sites))
            if i == spec.contact:
                row += -t * (psi[-1] + psi[1])
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
