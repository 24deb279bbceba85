"""Energy-dependent effective Hamiltonian of the open device and its poles.

Projecting the infinite problem onto the device sites leaves a finite
non-Hermitian matrix: the device block plus a lead self-energy -2 t z on the
contact diagonal (the two half-infinite lead branches contribute -t z each).
Discrete states are the z where det(E(z) - H_eff(z)) vanishes; they are found
here by Newton iteration in z, run on a batch of seeds at once.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .dispersion import energy_from_z, k_from_z, z_pair_from_energy
from .errors import BandEdgeError, NumericalError, ParameterError
from .model import DeviceSpec, p_space_hamiltonian, tdot_params
from .poles import PoleClass, SpectralPole, make_pole

DEDUP_DISTANCE = 1e-8
SEED_CIRCLES = (0.5, 0.999, 1.5)
SEED_ANGLES = 64


def self_energy(z: complex, t: float) -> complex:
    """Lead self-energy at the contact site: -2 t z.

    Retarded z (0 < k < pi) gives a strictly negative imaginary part -- the
    non-Hermitian signature of escape into the lead.
    """
    return -2.0 * t * z


def surface_green(x: int, z: complex, t: float) -> complex:
    """Resolvent of the severed lead between its end site and site x.

    Equals -z**|x| / t for |x| >= 1.  Site 0 belongs to the device block, so
    x = 0 is outside this function's domain.
    """
    if x == 0:
        raise ParameterError("site 0 is part of the device block, not the severed lead")
    if z == 0:
        raise ParameterError("Bloch factor z must be nonzero")
    if not t > 0:
        raise ParameterError(f"lead hopping t must be > 0, got {t}")
    return -(z ** abs(x)) / t


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """The projected matrix at a fixed Bloch factor (rows in site order)."""

    matrix: np.ndarray
    z: complex


def build_h_eff(spec: DeviceSpec, z: complex) -> EffectiveHamiltonian:
    """Device block plus the lead self-energy on the contact diagonal."""
    h = p_space_hamiltonian(spec).astype(complex)
    h[spec.contact, spec.contact] += self_energy(z, spec.lead_t)
    return EffectiveHamiltonian(matrix=h, z=z)


def secular_residual(spec: DeviceSpec, z: complex) -> complex:
    """det(E(z) I - H_eff(z)); zero exactly at the discrete states."""
    if z == 0:
        raise ParameterError("Bloch factor z must be nonzero")
    return complex(_residual_batch(spec, np.asarray([z], dtype=complex))[0])


def _residual_batch(spec: DeviceSpec, zs: np.ndarray) -> np.ndarray:
    """Vectorized det(E(z) I - H_eff(z)) over a 1D array of z."""
    t = spec.lead_t
    e = -t * (zs + 1.0 / zs)
    c = spec.contact
    if spec.n_sites == 1:
        return e - spec.onsite[0] + 2.0 * t * zs
    if spec.n_sites == 2:
        hp = p_space_hamiltonian(spec)
        a = e - hp[0, 0] + (2.0 * t * zs if c == 0 else 0.0)
        d = e - hp[1, 1] + (2.0 * t * zs if c == 1 else 0.0)
        return a * d - hp[0, 1] * hp[1, 0]
    hp = p_space_hamiltonian(spec)
    m = np.broadcast_to(-hp, (zs.size, *hp.shape)).astype(complex)
    idx = np.arange(spec.n_sites)
    m[:, idx, idx] += e[:, None]
    m[:, c, c] += 2.0 * t * zs
    return np.linalg.det(m)


def q_space_reconstruct(pole: SpectralPole, x: int) -> complex:
    """Lead amplitude at site x: z**|x| times the contact amplitude."""
    if x == 0:
        return pole.amp0
    return pole.z ** abs(x) * pole.amp0


def _make_pole(spec: DeviceSpec, z: complex) -> SpectralPole:
    """The state at secular root z; its amplitudes are the smallest singular
    vector of E(z) - H_eff(z)."""
    E = energy_from_z(z, spec.lead_t)
    m = E * np.eye(spec.n_sites, dtype=complex) - build_h_eff(spec, z).matrix
    null_vector = np.linalg.svd(m)[2][-1].conj()
    return make_pole(z, E, null_vector, spec.contact)


def decoupled_poles(spec: DeviceSpec) -> list[SpectralPole]:
    """Embedded level of a dot with zero coupling, reported as Decoupled.

    The secular determinant factorizes; the lead factor carries no discrete
    state and the dot factor pins E = eps_d exactly.  The retarded Bloch root
    represents the level (z = -sign(eps_d) at a band edge).
    """
    params = tdot_params(spec)
    if params is None:
        raise ParameterError("decoupled handling applies to T-dot devices only")
    E = params.eps_d
    try:
        z = z_pair_from_energy(E, params.t)[0]
    except BandEdgeError:
        z = complex(-1.0 if E > 0 else 1.0)
    return [
        SpectralPole(
            z=z,
            k=k_from_z(z),
            E=complex(E),
            pole_class=PoleClass.DECOUPLED,
            amps=(0j, 1.0 + 0j),
            contact=spec.contact,
        )
    ]


def default_seeds(spec: DeviceSpec) -> np.ndarray:
    """Newton starting points: three circles straddling |z| = 1, plus the
    Bloch images of the isolated device eigenvalues (both sheets, radially
    nudged) so deeply bound or far anti-bound states are always reached."""
    angles = 2.0 * np.pi * np.arange(SEED_ANGLES) / SEED_ANGLES
    seeds = [r * np.exp(1j * angles) for r in SEED_CIRCLES]
    extra = []
    t = spec.lead_t
    for lam in np.linalg.eigvalsh(p_space_hamiltonian(spec)):
        sq = cmath.sqrt(complex(lam * lam - 4.0 * t * t))
        for z0 in ((-lam + sq) / (2.0 * t), (-lam - sq) / (2.0 * t)):
            if abs(z0) > 1e-6:
                extra.extend((z0, 0.97 * z0, 1.03 * z0))
    if extra:
        seeds.append(np.asarray(extra, dtype=complex))
    return np.concatenate(seeds)


def feshbach_pole_search(
    spec: DeviceSpec,
    seeds: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> list[SpectralPole]:
    """All discrete states found by Newton iteration on the secular residual.

    Parameters
    ----------
    spec : DeviceSpec
        Device attached to the uniform lead.
    seeds : array of complex, optional
        Starting z values; defaults to :func:`default_seeds`.
    tol : float
        Convergence bound on |det(E - H_eff)|.
    max_iter : int
        Iteration cap per seed; seeds whose derivative underflows or that
        wander out of range are dropped, not fatal.

    Returns
    -------
    list of SpectralPole, deduplicated and sorted by (Re z, Im z).
    """
    if tol <= 0:
        raise ParameterError(f"tolerance must be > 0, got {tol}")
    params = tdot_params(spec)
    if params is not None and params.t1 == 0.0:
        return decoupled_poles(spec)

    z = np.asarray(default_seeds(spec) if seeds is None else seeds, dtype=complex)
    if z.size == 0:
        raise ParameterError("seed list must be nonempty")
    alive = np.abs(z) > 1e-8

    def f(w: np.ndarray) -> np.ndarray:
        return _residual_batch(spec, w)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            zs = np.where(alive, z, 1.0)
            fz = f(zs)
            done = np.abs(fz) < tol
            if not np.any(alive & ~done):
                break
            # centered difference; the residual is holomorphic away from z = 0
            h = 1e-6 * np.maximum(np.abs(zs), 1.0)
            deriv = (f(zs + h) - f(zs - h)) / (2.0 * h)
            bad = ~np.isfinite(fz) | ~np.isfinite(deriv) | (np.abs(deriv) < 1e-300)
            alive &= ~bad
            step = np.where(alive & ~done, fz / np.where(bad | done, 1.0, deriv), 0.0)
            z = np.where(alive, z - step, z)
            alive &= np.isfinite(z) & (np.abs(z) > 1e-8) & (np.abs(z) < 1e8)

    zs = np.where(alive, z, 1.0)
    res = np.abs(f(zs))
    keep = alive & (res < tol)
    if not np.any(keep):
        raise NumericalError("no Newton seed converged to a secular root")
    roots, resids = zs[keep], res[keep]
    order = np.lexsort((roots.imag, roots.real))
    roots, resids = roots[order], resids[order]

    reps: list[complex] = []
    best: list[float] = []
    for zi, ri in zip(roots, resids):
        for idx, zr in enumerate(reps):
            if abs(zi - zr) <= DEDUP_DISTANCE:
                if ri < best[idx]:
                    reps[idx], best[idx] = complex(zi), float(ri)
                break
        else:
            reps.append(complex(zi))
            best.append(float(ri))

    out = [_make_pole(spec, zi) for zi in reps]
    out.sort(key=lambda p: (p.z.real, p.z.imag))
    return out
