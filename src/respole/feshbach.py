"""Energy-dependent effective Hamiltonian of the open device and its poles.

Projecting the infinite problem onto the device sites leaves a finite
non-Hermitian matrix: the device block plus a lead self-energy -2 t z on the
contact diagonal (the two half-infinite lead branches contribute -t z each).
Discrete states are the z where det(E(z) - H_eff(z)) vanishes; times z**n it
is a polynomial of degree exactly 2n, so there are 2n of them.  They are found
all at once by Ehrlich-Aberth iteration (Aberth, Math. Comp. 27 (1973) 339;
Bini & Noferini, Linear Algebra Appl. 439 (2013) 1130), with no eigensolver,
so this route stays independent of the outgoing-wave one.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ParameterError
from .model import DeviceSpec, p_space_hamiltonian
from .poles import SpectralPole, decoupled_poles, poles_from_roots

START_RADIUS = 1.3
# An Aberth correction that stops shrinking means the root has reached the
# rounding floor only once it is below this fraction of |z|; a larger one
# that grows is the pull of the other iterates, not noise.
STALL_BOUND = 1e-6
EPS = np.finfo(float).eps


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


def build_h_eff(spec: DeviceSpec, z: complex) -> np.ndarray:
    """The projected matrix at Bloch factor z (rows in site order): the
    device block plus the lead self-energy on the contact diagonal."""
    h = p_space_hamiltonian(spec).astype(complex)
    h[spec.contact, spec.contact] += self_energy(z, spec.lead_t)
    return h


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
    return np.linalg.det(_secular_stack(spec, zs))


def _secular_stack(spec: DeviceSpec, zs: np.ndarray) -> np.ndarray:
    """E(z) I - H_eff(z) at each z of a 1D array, stacked to (len(zs), n, n)."""
    t = spec.lead_t
    hp = p_space_hamiltonian(spec)
    m = np.broadcast_to(-hp, (zs.size, *hp.shape)).astype(complex)
    idx = np.arange(spec.n_sites)
    m[:, idx, idx] += (-t * (zs + 1.0 / zs))[:, None]
    m[:, spec.contact, spec.contact] += 2.0 * t * zs
    return m


def q_space_reconstruct(pole: SpectralPole, x: int) -> complex:
    """Lead amplitude at site x: z**|x| times the contact amplitude."""
    if x == 0:
        return pole.amp0
    return pole.z ** abs(x) * pole.amp0


def default_seeds(spec: DeviceSpec) -> np.ndarray:
    """The 2n starting points of the Aberth iteration: equally spaced on the
    circle |z| = START_RADIUS and turned a quarter step off the real axis, so
    the start set is not closed under conjugation and real roots can be
    reached by points that are not a conjugate pair."""
    m = 2 * spec.n_sites
    return START_RADIUS * np.exp(2j * np.pi * (np.arange(m) + 0.25) / m)


def _newton_ratios(spec: DeviceSpec, zs: np.ndarray) -> np.ndarray:
    """f/f' at each z for f(z) = z**n det(E(z) I - H_eff(z)); 0 where that
    matrix is exactly singular, since such a z is a root.

    Jacobi's formula gives f'/f = n/z + tr(M^-1 M') for M = E(z) I - H_eff(z),
    whose derivative is M' = t (1/z**2 - 1) I + 2 t P_c.
    """
    t, c = spec.lead_t, spec.contact
    try:
        inv = np.linalg.inv(_secular_stack(spec, zs))
    except np.linalg.LinAlgError:
        # LAPACK refuses the whole stack for one singular matrix
        if zs.size == 1:
            return np.zeros(1, dtype=complex)
        return np.concatenate([_newton_ratios(spec, zs[i:i + 1]) for i in range(zs.size)])
    trace = np.trace(inv, axis1=1, axis2=2)
    ratio = 1.0 / (spec.n_sites / zs + t * (1.0 / zs**2 - 1.0) * trace + 2.0 * t * inv[:, c, c])
    # a pivot that underflows instead of vanishing leaves nan in the inverse
    return np.where(np.isnan(ratio), 0.0, ratio)


def feshbach_pole_search(spec: DeviceSpec, max_iter: int = 100) -> list[SpectralPole]:
    """All 2n discrete states, sorted by (Re z, Im z), by Ehrlich-Aberth
    iteration on f(z) = z**n det(E(z) - H_eff(z)) from default_seeds.

    Each step moves every iterate z_i still moving by w_i = N_i / (1 - N_i
    sum_{j != i} 1/(z_i - z_j)), N_i = f/f'(z_i), with one stacked inverse.
    An iterate stops when |w_i| <= 4 eps |z_i|, when its matrix is exactly
    singular, or when its step stops shrinking below STALL_BOUND |z_i|.  As a
    degree-2n polynomial has a root within 2n |N_i| of z_i, 2n disjoint such
    discs certify the set.  Reaching max_iter, or discs that overlap (a
    multiple root, e.g. one level repeated on sites the contact does not
    see), raises NumericalError.  A dot with zero coupling gives its single
    Decoupled level; amplitudes are smallest singular vectors.
    """
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    decoupled = decoupled_poles(spec)
    if decoupled is not None:
        return decoupled

    z = np.array(default_seeds(spec), dtype=complex)
    last_step = np.full(z.size, np.inf)
    moving = np.arange(z.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            zm = z[moving]
            ratio = _newton_ratios(spec, zm)
            gaps = zm[:, None] - z[None, :]
            gaps[np.arange(moving.size), moving] = np.inf
            step = ratio / (1.0 - ratio * (1.0 / gaps).sum(axis=1))
            if not np.all(np.isfinite(step)):
                raise NumericalError("Aberth step is not finite (coinciding iterates)")
            size = np.abs(step)
            stalled = (size >= last_step[moving]) & (size <= STALL_BOUND * np.abs(zm))
            z[moving] = np.where(stalled, zm, zm - step)
            last_step[moving] = size
            moving = moving[~stalled & (size > 4.0 * EPS * np.abs(zm))]
            if moving.size == 0:
                break
        else:
            raise NumericalError(f"{moving.size} of {z.size} Aberth iterates still moving")
        radius = z.size * np.abs(_newton_ratios(spec, z))
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, np.inf)
    if not np.all(gaps > radius[:, None] + radius[None, :]):
        raise NumericalError("Aberth roots overlap: a multiple root cannot be certified")
    null_vectors = np.linalg.svd(_secular_stack(spec, z))[2][:, -1].conj()
    return poles_from_roots(z[None], null_vectors[None], spec.lead_t, spec.contact)[0]
