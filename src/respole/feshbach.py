"""Energy-dependent effective Hamiltonian of the open device and its poles.

Projecting the infinite problem onto the device sites leaves a finite
non-Hermitian matrix: the device block plus a lead self-energy -2 t z on the
contact diagonal (the two half-infinite lead branches contribute -t z each).
Discrete states are the z where det(E(z) - H_eff(z)) vanishes; times z**n it
is a polynomial of degree exactly 2n, so there are 2n of them.

The self-energy is a rank-one update of the closed device h = U diag(lam) U^T,
so by the matrix determinant lemma the polynomial is the secular function

    f(z) = prod_j p_j(z) * (1 + 2 t z**2 sum_j w_j / p_j(z)),
    p_j(z) = -t (z**2 + 1) - lam_j z,

with w_j = U_cj**2 the weight of level j on the contact (Golub, SIAM Rev. 15
(1973) 318).  This is the Feshbach projection with every site but the contact
folded into the contact Green's function of the closed device.  A level
repeated d times gives d - 1 of its own root pairs in closed form (all d if the
contact does not see it); the rest are found all at once by Ehrlich-Aberth
iteration (Aberth, Math. Comp. 27 (1973) 339; Bini & Noferini, Linear Algebra
Appl. 439 (2013) 1130) on the secular function of the remaining levels, whose
Newton ratio is a sum of rational terms with no matrix inverse.  This route
solves the real symmetric eigenproblem of the closed device; the outgoing-wave
route solves the non-symmetric companion of the open one, so the two routes
share no eigensolve.  Scaling h and t by 2**e scales E and leaves z and
the states as they are, so the route solves in units of 2**e where
max(t, |h_ij|) lies in [1/2, 1): exactly, and no step overflows unless z does.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ParameterError
from .model import DeviceSpec, p_space_hamiltonian
from .poles import SpectralPole, decoupled_poles, poles_from_roots

START_RADIUS = 1.3
# Aberth steps before an iterate that is still moving counts as a failure
MAX_ITER = 100
# An Aberth correction that stops shrinking is at the rounding floor only
# below this fraction of |z|; above it, growth is the other iterates' pull.
STALL_BOUND = 1e-6
EPS = np.finfo(float).eps
# an Aberth step at most this fraction of |z| ends the iterate's motion
_MOVING = 4.0 * EPS
# Adjacent levels closer than this fraction of max(t, |lam|) form one
# cluster, which perturbs h by no more than that; one whose contact weight is
# below LEVEL_TOL**2 (a contact row below LEVEL_TOL) the contact does not see.
LEVEL_TOL = 1e-13


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
    exact 1x1 and 2x2 products, in units of 2**e where max(t, |h_ij|) lies
    in [1/2, 1), so they overflow only where the determinant does (numpy's
    det works from its logarithm)."""
    zs = np.asarray(z, dtype=complex)
    if not np.all(zs):
        raise ParameterError("Bloch factor z must be nonzero")
    flat, n, c, h = zs.reshape(-1), spec.n_sites, spec.contact, p_space_hamiltonian(spec)
    e = math.frexp(max(spec.lead_t, np.maximum.reduce(np.abs(h), None)))[1] if n < 3 else 0
    t = math.ldexp(spec.lead_t, -e)
    # E(z) I - H_eff(z) at each z, stacked to (len(flat), n, n)
    m = np.empty((flat.size, n, n), dtype=complex)
    m[...] = -np.ldexp(h, -e)
    # the diagonal of every matrix, as a strided view of the flat rows
    m.reshape(flat.size, n * n)[:, ::n + 1] += (-t * (flat + 1.0 / flat))[:, None]
    m[:, c, c] += 2.0 * t * flat
    # numpy's overflow warning would only add noise to stderr
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 1:
            det = m[:, 0, 0]
        elif n == 2:
            det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        else:
            det = np.linalg.det(m)
        np.ldexp(det.view(float), n * e, out=det.view(float))
    return complex(det[0]) if zs.ndim == 0 else det


def q_space_reconstruct(pole: SpectralPole, x: int) -> complex:
    """Lead amplitude at site x: z**|x| times the contact amplitude;
    NumericalError where z**|x| leaves the float range (an OverflowError)."""
    if x == 0:
        return pole.amp0
    try:
        return pole.z ** abs(x) * pole.amp0
    except OverflowError:
        raise NumericalError(
            f"lead amplitude z**|x| at x = {x} leaves the float range (|z| = {abs(pole.z):.17g})"
        ) from None


def default_seeds(levels: int) -> np.ndarray:
    """The 2 * levels starting points of the Aberth iteration: equally spaced
    on the circle |z| = START_RADIUS and turned a quarter step off the real
    axis, so the start set is not closed under conjugation and real roots can
    be reached by points that are not a conjugate pair."""
    m = 2 * levels
    return START_RADIUS * np.exp(2j * np.pi * (np.arange(m) + 0.25) / m)


def _newton_correction(z: np.ndarray, level: np.ndarray, weight: np.ndarray,
                       t: float) -> np.ndarray:
    """f/f' at each z of a 1-D array for the secular function
    f(z) = prod_J p_J(z) s(z), s = 1 + 2 t z**2 sum_J W_J / p_J(z), of the
    levels ``level`` with contact weights ``weight``; 0 where f vanishes.

    f'/f = sum_J p_J'/p_J + s'/s, so f/f' = s / (s sum_J p_J'/p_J + s'), with
    s' = 2 t z (2 sum_J W_J/p_J - z sum_J W_J p_J'/p_J**2).  The sums run over
    P_J = -p_J = (t z + lam_J) z + t.  A P_J that rounds to exactly 0 (at the
    root of a level the contact barely sees) is read as eps t, a value within
    its rounding error.  The arrays are updated in place, with the operands
    of every product in the order the formulas give.
    """
    zz = z[:, None]
    tz = t * zz
    q = tz + level
    inverse = q * zz
    inverse += t
    if np.count_nonzero(inverse) < inverse.size:
        inverse[inverse == 0.0] = EPS * t
    np.divide(1.0, inverse, out=inverse)
    # q becomes P_J'/P_J = (2 t z + lam_J)/P_J, then P_J'/P_J**2
    q += tz
    q *= inverse
    slope_sum = np.add.reduce(q, 1)
    total = inverse @ weight
    q *= inverse
    c = 2.0 * t * z
    s = c * z
    s *= total
    np.subtract(1.0, s, out=s)
    ds = z * (q @ weight)
    ds -= 2.0 * total
    np.multiply(c, ds, out=ds)
    np.multiply(s, slope_sum, out=slope_sum)
    slope_sum += ds
    return np.divide(s, slope_sum, out=s)


def _aberth_roots(level: np.ndarray, weight: np.ndarray, t: float) -> np.ndarray:
    """The 2m roots of the secular function of m levels, each with a nonzero
    contact weight, by Ehrlich-Aberth iteration from default_seeds.

    Each step moves every iterate z_i still moving by w_i = N_i / (1 - N_i
    sum_{j != i} 1/(z_i - z_j)), N_i = f/f'(z_i).  An iterate stops when
    |w_i| <= 4 eps |z_i|, when f vanishes there, or when its step stops
    shrinking below STALL_BOUND |z_i|.  As a degree-2m polynomial has a root
    within 2m |N_i| of z_i, and so within 2m |N_i| + |w_i| of z_i - w_i, 2m
    disjoint such discs from the last step certify the set.  The function is
    real, so its roots are closed under conjugation: each root is averaged
    with the conjugate of its partner, the root nearest its conjugate (itself,
    for a real root, which so loses its imaginary rounding), and each pair
    comes out exactly conjugate.

    A step's 45 numpy calls, not its arithmetic, set its time on small
    devices, so its arrays are updated in place and one reduction checks
    that every step is finite.
    """
    z = np.array(default_seeds(level.size), dtype=complex)
    # the matrix products of _newton_correction would cast real weights anew
    # at every step
    weight = weight.astype(complex)
    # the diagonal of the gap matrix, kept out of the sum over the other iterates
    own = np.diag(np.full(z.size, np.inf))
    gap = np.empty_like(own, dtype=complex)
    column = z[:, None]
    last_step = np.full(z.size, np.inf)
    moving = np.ones(z.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITER):
            ratio = _newton_correction(z, level, weight, t)
            np.subtract(column, z, out=gap)
            gap += own
            np.divide(1.0, gap, out=gap)
            step = ratio * np.add.reduce(gap, 1)
            np.subtract(1.0, step, out=step)
            np.divide(ratio, step, out=step)
            size = np.abs(step)
            # the largest |w_i|, nan if any is nan
            if not math.isfinite(np.maximum.reduce(size)):
                raise NumericalError("Aberth step is not finite (coinciding iterates)")
            size_z = np.abs(z)
            # not stalled: still shrinking, or still above STALL_BOUND |z|
            move = size < last_step
            move |= size > STALL_BOUND * size_z
            move &= moving
            np.subtract(z, step, out=z, where=move)
            moving = size > _MOVING * size_z
            moving &= move
            last_step = size
            if not np.count_nonzero(moving):
                break
        else:
            raise NumericalError(f"{moving.sum()} of {z.size} Aberth iterates still moving")
    radius = z.size * np.abs(ratio) + np.where(move, size, 0.0)
    disjoint = np.abs(column - z) + own > radius[:, None] + radius
    if np.count_nonzero(disjoint) < disjoint.size:
        raise NumericalError("Aberth roots overlap: an exceptional point cannot be certified")
    partner = np.abs(column - z.conj()).argmin(axis=1)
    if np.count_nonzero(partner[partner] != np.arange(z.size)):
        raise NumericalError("Aberth roots are not closed under conjugation")
    return 0.5 * (z + z[partner].conj())


def _level_roots(level: float, t: float) -> np.ndarray:
    """The two z with E(z) = level, the roots of -t (z**2 + 1) - level z: a
    conjugate pair on the unit circle inside the band, a real reciprocal pair
    outside it.  They are formed in units of 2**e, where max(|level|, t) lies
    in [1/2, 1), so the discriminant neither underflows nor overflows."""
    e = math.frexp(max(abs(level), t))[1]
    level, t = math.ldexp(level, -e), math.ldexp(t, -e)
    disc = (level - 2.0 * t) * (level + 2.0 * t)
    if disc < 0:
        root = complex(-level, math.sqrt(-disc)) / (2.0 * t)
        return np.array([root, root.conjugate()])
    big = -(level + math.copysign(math.sqrt(disc), level)) / (2.0 * t)
    return np.array([big, 1.0 / big], dtype=complex)


def _resolvent_weights(z: np.ndarray, level: np.ndarray, weight: np.ndarray,
                       t: float) -> np.ndarray:
    """1/(E - lam_J) at the secular roots z for each level lam_J of contact
    weight W_J, as a (len(z), len(level)) array.

    Near a level the contact barely sees, E - lam_J is below the rounding of
    E, so for the nearest level it is read from the secular equation instead,
    W_J/(E - lam_J) = -1/(2 t z) - sum_{K != J} W_K/(E - lam_K), wherever
    that has the smaller rounding error: where |E - lam_J|**2 Q is below
    W_J (|E| + |lam_J|), Q being the sum of the magnitudes of its terms.
    """
    energy = -t * (z + 1.0 / z)
    d = energy[:, None] - level
    rows = np.arange(z.size)
    near = np.abs(d).argmin(axis=1)
    d_near, w_near = d[rows, near], weight[near]
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = 1.0 / d
        terms = weight * inverse
        terms[rows, near] = 0.0
        bound = 1.0 / (2.0 * t * np.abs(z)) + np.add.reduce(np.abs(terms), 1)
        secular = (-1.0 / (2.0 * t * z) - np.add.reduce(terms, 1)) / w_near
    scale = np.abs(energy) + np.abs(level[near])
    inverse[rows, near] = np.where(np.abs(d_near) ** 2 * bound < w_near * scale,
                                   secular, inverse[rows, near])
    return inverse


def feshbach_pole_search(spec: DeviceSpec) -> list[SpectralPole]:
    """All 2n discrete states, sorted by (Re z, Im z), from the secular
    function of the closed device's levels.

    One ``eigh`` gives h = U diag(lam) U^T and the contact weights
    w_j = U_cj**2.  Adjacent levels within LEVEL_TOL form a cluster at their
    mean level with the summed weight.  A cluster of d levels gives d - 1
    closed-form pairs, the roots of its p_lam, whose states are the
    combinations of its eigenvectors that miss the contact; a cluster the
    contact does not see gives d such pairs, one per eigenvector.  The 2m
    roots of the m visible clusters come from the certified Ehrlich-Aberth
    iteration of ``_aberth_roots``, and the state at each is
    (E - h)^-1 e_c = U (U_c / (E - lam)), with the merged levels and the
    contact rows of the unseen clusters set to 0.  Iterates still moving
    after MAX_ITER steps, or discs that overlap (an exceptional point of the
    visible part), raise NumericalError.  All but E runs in units of 2**e.
    A dot with zero coupling gives its single Decoupled level.
    """
    decoupled = decoupled_poles(spec)
    if decoupled is not None:
        return decoupled
    c, h = spec.contact, p_space_hamiltonian(spec)
    e = math.frexp(max(spec.lead_t, np.maximum.reduce(np.abs(h), None)))[1]
    t = math.ldexp(spec.lead_t, -e)
    lam, u = np.linalg.eigh(np.ldexp(h, -e))
    split = lam[1:] - lam[:-1] > LEVEL_TOL * max(t, np.maximum.reduce(np.abs(lam)))
    label = np.zeros(lam.size, dtype=np.intp)
    np.cumsum(split, out=label[1:])
    size = np.bincount(label)
    level = np.bincount(label, lam) / size
    weight = np.bincount(label, u[c] ** 2)
    visible = weight > LEVEL_TOL**2
    seen_level, seen_weight = level[visible], weight[visible]
    z = _aberth_roots(seen_level, seen_weight, t)
    inverse = _resolvent_weights(z, seen_level, seen_weight, t)
    # each eigenvector's U_cj / (E - lam_J); 0 for those of unseen clusters
    coefficients = inverse[:, (np.cumsum(visible) - 1)[label]] * u[c]
    roots = [z]
    vectors = [np.where(visible[label], coefficients, 0.0) @ u.T]
    for j in (size - visible).nonzero()[0]:
        members = u[:, label == j]
        if visible[j]:
            # the combinations of the cluster's eigenvectors orthogonal to the contact
            members = members @ np.linalg.svd(members[c:c + 1])[2][1:].T
        roots.append(np.tile(_level_roots(level[j], t), members.shape[1]))
        vectors.append(np.repeat(members.T, 2, axis=0))
    return poles_from_roots(np.concatenate(roots), np.concatenate(vectors), spec.lead_t, c)
