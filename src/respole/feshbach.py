"""Energy-dependent effective Hamiltonian of the open device and its poles.

Projecting the infinite problem onto the device sites leaves a finite
non-Hermitian matrix: the device block plus a lead self-energy -2 t z on the
contact diagonal (the two half-infinite lead branches contribute -t z each).
Discrete states are the z where det(E(z) - H_eff(z)) vanishes; times z**n it
is a polynomial of degree exactly 2n, so there are 2n of them.  They are found
all at once by Ehrlich-Aberth iteration (Aberth, Math. Comp. 27 (1973) 339;
Bini & Noferini, Linear Algebra Appl. 439 (2013) 1130), with no eigensolver,
so this route stays independent of the outgoing-wave one.  Like that route, it
reads the device as the triple (h, t, contact): the block is built once per
solve, and ``_secular_stack`` alone forms E(z) - H_eff(z) from it.  Each
Aberth step builds the stack of its moving iterates once and reads f/f' from
it; the stack at the final roots serves both the disc certificate and the
null vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ParameterError
from .model import DeviceSpec, p_space_hamiltonian
from .poles import SpectralPole, decoupled_poles, poles_from_roots

START_RADIUS = 1.3
# Aberth steps before an iterate that is still moving counts as a failure
MAX_ITER = 100
# An Aberth correction that stops shrinking means the root has reached the
# rounding floor only once it is below this fraction of |z|; a larger one
# that grows is the pull of the other iterates, not noise.
STALL_BOUND = 1e-6
EPS = np.finfo(float).eps


def self_energy(z: complex, t: float) -> complex:
    """Lead self-energy at the contact site: -2 t z.

    Retarded z (0 < k < pi) gives a strictly negative imaginary part -- the
    non-Hermitian signature of escape into the lead.  It is 2 t**2 g_1, where
    g_1 = -z / t is the end-site Green's function of each severed half-lead.
    """
    return -2.0 * t * z


def build_h_eff(spec: DeviceSpec, z: complex) -> np.ndarray:
    """The projected matrix at Bloch factor z (rows in site order): the
    device block plus the lead self-energy on the contact diagonal."""
    h = p_space_hamiltonian(spec).astype(complex)
    h[spec.contact, spec.contact] += self_energy(z, spec.lead_t)
    return h


def secular_residual(spec: DeviceSpec, z: complex | np.ndarray) -> complex | np.ndarray:
    """det(E(z) I - H_eff(z)), zero exactly at the discrete states: a complex
    for a scalar z, an array for a 1-D array of z.  One and two sites use the
    exact 1x1 and 2x2 products of the matrix entries."""
    zs = np.asarray(z, dtype=complex)
    if not np.all(zs):
        raise ParameterError("Bloch factor z must be nonzero")
    m = _secular_stack(p_space_hamiltonian(spec), spec.lead_t, spec.contact, zs.reshape(-1))
    if spec.n_sites == 1:
        det = m[:, 0, 0]
    elif spec.n_sites == 2:
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    else:
        det = np.linalg.det(m)
    return complex(det[0]) if zs.ndim == 0 else det


def _secular_stack(h: np.ndarray, t: float, contact: int, zs: np.ndarray) -> np.ndarray:
    """E(z) I - H_eff(z) of the device block h at each z of a 1D array,
    stacked to (len(zs), n, n)."""
    n = h.shape[0]
    m = np.empty((zs.size, n, n), dtype=complex)
    m[...] = -h
    # the diagonal of every matrix, as a strided view of the flat rows
    m.reshape(zs.size, n * n)[:, ::n + 1] += (-t * (zs + 1.0 / zs))[:, None]
    m[:, contact, contact] += 2.0 * t * zs
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


def _newton_ratios(m: np.ndarray, t: float, contact: int, zs: np.ndarray) -> np.ndarray:
    """f/f' at each z for f(z) = z**n det(E(z) I - H_eff(z)), read from the
    stack m = _secular_stack(h, t, contact, zs) the caller built; 0 where that
    matrix is exactly singular, since such a z is a root.

    Jacobi's formula gives f'/f = n/z + tr(M^-1 M') for M = E(z) I - H_eff(z),
    whose derivative is M' = t (1/z**2 - 1) I + 2 t P_c.
    """
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        # LAPACK refuses the whole stack for one singular matrix
        if zs.size == 1:
            return np.zeros(1, dtype=complex)
        return np.concatenate([_newton_ratios(m[i:i + 1], t, contact, zs[i:i + 1])
                               for i in range(zs.size)])
    trace = np.trace(inv, axis1=1, axis2=2)
    ratio = 1.0 / (m.shape[1] / zs + t * (1.0 / zs**2 - 1.0) * trace
                   + 2.0 * t * inv[:, contact, contact])
    # a pivot that underflows instead of vanishing leaves nan in the inverse
    return np.where(np.isnan(ratio), 0.0, ratio)


def feshbach_pole_search(spec: DeviceSpec) -> list[SpectralPole]:
    """All 2n discrete states, sorted by (Re z, Im z), by Ehrlich-Aberth
    iteration on f(z) = z**n det(E(z) - H_eff(z)) from default_seeds.

    Each step moves every iterate z_i still moving by w_i = N_i / (1 - N_i
    sum_{j != i} 1/(z_i - z_j)), N_i = f/f'(z_i), with one stacked inverse.
    An iterate stops when |w_i| <= 4 eps |z_i|, when its matrix is exactly
    singular, or when its step stops shrinking below STALL_BOUND |z_i|.  As a
    degree-2n polynomial has a root within 2n |N_i| of z_i, 2n disjoint such
    discs certify the set.  Iterates still moving after MAX_ITER steps, or
    discs that overlap (a multiple root, e.g. one level repeated on sites the
    contact does not see), raise NumericalError.  A dot with zero coupling
    gives its single Decoupled level; amplitudes are smallest singular vectors.
    The secular stack at the final roots is built once and gives both the
    disc radii and those singular vectors.
    """
    decoupled = decoupled_poles(spec)
    if decoupled is not None:
        return decoupled
    h, t, c = p_space_hamiltonian(spec), spec.lead_t, spec.contact

    z = np.array(default_seeds(spec), dtype=complex)
    last_step = np.full(z.size, np.inf)
    moving = np.arange(z.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITER):
            zm = z[moving]
            ratio = _newton_ratios(_secular_stack(h, t, c, zm), t, c, zm)
            gaps = zm[:, None] - z
            gaps[np.arange(moving.size), moving] = np.inf
            step = ratio / (1.0 - ratio * (1.0 / gaps).sum(axis=1))
            if not np.isfinite(step).all():
                raise NumericalError("Aberth step is not finite (coinciding iterates)")
            size = np.abs(step)
            size_z = np.abs(zm)
            stalled = (size >= last_step[moving]) & (size <= STALL_BOUND * size_z)
            z[moving] = np.where(stalled, zm, zm - step)
            last_step[moving] = size
            moving = moving[~stalled & (size > 4.0 * EPS * size_z)]
            if moving.size == 0:
                break
        else:
            raise NumericalError(f"{moving.size} of {z.size} Aberth iterates still moving")
        m = _secular_stack(h, t, c, z)
        radius = z.size * np.abs(_newton_ratios(m, t, c, z))
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, np.inf)
    if not np.all(gaps > radius[:, None] + radius[None, :]):
        raise NumericalError("Aberth roots overlap: a multiple root cannot be certified")
    null_vectors = np.linalg.svd(m)[2][:, -1].conj()
    return poles_from_roots(z[None], null_vectors[None], t, c)[0]
