"""Discrete-state records, their classification in the complex k plane, and
the sorted pole list both routes build from their roots.

One scalar definition turns a secular root into its k, E and class:
``k_from_z`` and ``energy_from_z`` of ``dispersion`` and :func:`classify`
here.  Both routes' pole lists are built from them, root by root, and hand
``classify``'s rule (``_class_of``) the k they already have, so each root
takes one complex log.  The array form ``_pole_table`` serves a stack of
many devices' roots, the T-dot sweep's.  It repeats the scalar functions'
float operations in numpy, in the same order, so every field and class is
the same to the last bit (its docstring gives the argument per operation);
below about 80 roots numpy's per-call cost makes it the slower one.  Its
class codes index ``PoleClass`` in declaration order, and their CSV names
are ``_CODE_LABELS``.  Both routes' pole lists read a root near z = +-1
whose state misses the contact as the exact band-edge double root
(``_band_edge_roots``).

Pole taxonomy for a single-band lead: bound states sit on the lines
Re k = 0 or Re k = pi with Im k > 0; anti-bound states sit on the same lines
with Im k < 0; resonant / anti-resonant pairs fill the lower half plane at
Re k > 0 / Re k < 0.  Nothing can sit in the upper half plane away from
those two lines, so that region raises an error instead of a label.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dispersion import energy_from_z, k_from_z, z_pair_from_energy
from .errors import BandEdgeError, ClassificationError, NumericalError
from .model import DeviceSpec, tdot_params

CLASSIFY_TOL = 1e-9
# a contact amplitude below this fraction of the largest one means the state
# misses the contact, and dividing by it would only scale up rounding noise
CONTACT_PIN_TOL = 1e-12
# a root of a state that misses the contact this close to z = +-1 is the
# band-edge double root of its level, which an eigensolve splits by about
# sqrt(eps) = 1.5e-8 (see _band_edge_roots)
_EDGE_ROOT_TOL = 1e-7


# declared in the order of _pole_table's class codes
class PoleClass(str, Enum):
    BOUND_LOWER = "BoundLower"
    BOUND_UPPER = "BoundUpper"
    ANTI_BOUND = "AntiBound"
    RESONANT = "Resonant"
    ANTI_RESONANT = "AntiResonant"
    THRESHOLD = "Threshold"
    DECOUPLED = "Decoupled"


BOUND_CLASSES = (PoleClass.BOUND_LOWER, PoleClass.BOUND_UPPER)


@dataclass(frozen=True)
class SpectralPole:
    """One discrete eigenstate: Bloch factor, wave number, energy, class,
    and the inner-space amplitudes (site order, contact normalized to 1
    unless the state misses the contact; see :func:`poles_from_roots`)."""

    z: complex
    k: complex
    E: complex
    pole_class: PoleClass
    amps: tuple[complex, ...]
    contact: int = 0

    @property
    def amp0(self) -> complex:
        """Amplitude on the contact site."""
        return self.amps[self.contact]

    @property
    def amp_d(self) -> complex:
        """Amplitude on the first site other than the contact (the
        side-coupled level of a 2-site device); 0 for a 1-site device."""
        if len(self.amps) == 1:
            return 0j
        return self.amps[1 if self.contact == 0 else 0]


def poles_from_roots(roots, null_vectors, t: float, contact: int) -> list[SpectralPole]:
    """The classified states of one device with lead hopping t and the given
    contact site, from its (2n,) secular roots and the (2n, n) null vectors,
    sorted by (Re z, Im z).

    Amplitudes are scaled so the contact reads exactly 1; a state that misses
    the contact (|v_c| <= CONTACT_PIN_TOL * max|v|) has its largest entry
    pinned to 1 instead, and its root, if within ``_EDGE_ROOT_TOL`` of
    z = +-1, is the band-edge double root +-1 (:func:`_band_edge_roots`).
    k, E and the class come from :func:`k_from_z`, :func:`energy_from_z` and
    the rule of :func:`classify`, which is given that k.  A root that is zero
    or not finite raises NumericalError.
    """
    # complex before dividing: numpy divides complex numbers by multiplying
    # with a reciprocal, which can differ from real division in the last bit
    v = np.asarray(null_vectors, dtype=complex)
    mag = np.abs(v)
    seen = mag[:, contact] > CONTACT_PIN_TOL * np.maximum.reduce(mag, -1)
    pin = np.where(seen, contact, mag.argmax(axis=-1))
    if np.count_nonzero(seen) < seen.size:
        roots = _band_edge_roots(np.asarray(roots, dtype=complex), ~seen)
    roots, order = sorted_roots(roots)
    v, pin = v[order], pin[order]
    rows = np.arange(roots.size)
    amps = v / v[rows, pin][:, None]
    amps[rows, pin] = 1.0
    poles = []
    for z, a in zip(roots.tolist(), amps.tolist()):
        k = k_from_z(z)
        poles.append(SpectralPole(z, k, energy_from_z(z, t), _class_of(z, k), tuple(a), contact))
    return poles


def _band_edge_roots(roots: np.ndarray, misses_contact: np.ndarray) -> np.ndarray:
    """The roots, with each one whose state misses the contact and that lies
    within ``_EDGE_ROOT_TOL`` of z = +-1 set to +-1 exactly.

    A level lam of the device block whose eigenvector misses the contact
    gives the two roots of its own factor -t z**2 - lam z - t.  At the band
    edge, lam = -+2t, they meet in the double root z = +-1 with a single
    state.  There a root moves by the square root of a perturbation: the
    outgoing-wave route's eigensolve, backward stable, returns the pair
    split by about sqrt(eps), and a level one double off the edge, which
    the Feshbach route solves in closed form, splits it by as much.  Read
    through this rule, a root within the tolerance (a level within about
    1e-14 t of the edge) is the exact double root in both routes.
    """
    edge = np.where(roots.real < 0, -1.0, 1.0)
    return np.where(misses_contact & (np.abs(roots - edge) <= _EDGE_ROOT_TOL), edge, roots)


def sorted_roots(roots) -> tuple[np.ndarray, np.ndarray]:
    """One device's (2n,) secular roots or an (m, 2n) stack of them, as
    complex, each row sorted by (Re z, Im z), with the order that sorts
    them.  A root that is zero or not finite raises NumericalError."""
    roots = np.asarray(roots, dtype=complex)
    # a nan counts as nonzero, a zero as finite
    if not np.count_nonzero(np.isfinite(roots)) == np.count_nonzero(roots) == roots.size:
        raise NumericalError("a secular root is zero or not finite")
    # numpy orders complex numbers by (Re z, Im z); a stable sort keeps the
    # order of equal roots (+0.0 and -0.0 are equal), as
    # np.lexsort((z.imag, z.real)) would give them.  One device's row is
    # indexed directly: take_along_axis's set-up costs more than its sort
    order = roots.argsort(kind="stable")
    if roots.ndim == 1:
        return roots[order], order
    return np.take_along_axis(roots, order, axis=-1), order


# the CSV names of the class codes: PoleClass is declared in code order.  A
# secular root takes codes 0-5; code 6 is the Decoupled level of a T-dot
# with t1 = 0
_CODE_LABELS = tuple(c.value for c in PoleClass)
_TWO_PI = 2.0 * math.pi


def _off_the_lines(kr: float, ki: float) -> str:
    """The message of the ClassificationError for a root at k = kr + i ki in
    the upper half plane off the bound-state lines."""
    return (f"pole at k = {complex(kr, ki)} lies in the upper half plane off the "
            "bound-state lines; no state of this model can sit there")


def _pole_table(roots: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The array form of :func:`k_from_z`, :func:`energy_from_z` and
    :func:`classify`: for an (..., r) array of finite nonzero roots, the
    (..., r, 6) fields Re z, Im z, Re k, Im k, Re E, Im E and the (..., r)
    class codes, indices into ``PoleClass``.  The values equal those of the
    three scalar functions on each root to the last bit, and the first root
    (in C order) that ``classify`` rejects raises the same error.

    Only ``cmath.log`` stays scalar, mapped over the roots with no Python
    code per root.  Every other step repeats CPython's own float64
    operations in the same order, so the bits are the same:

    - k = -1j * L is CPython's complex product with (-0.0, -1.0), and the
      fold adds 2 pi where Re k <= -pi;
    - 1.0 / z is CPython's complex quotient of (1.0, 0.0) by z, which
      divides through by the part of z larger in magnitude (the real part
      on a tie), z + 1/z its sum and -t * (z + 1/z) its product with
      (-t, 0.0);
    - |z| is ``np.hypot``, which has no SIMD loop and runs the C library's
      ``hypot``, as Python's complex ``abs`` does; a modulus beyond the
      float range raises Python's OverflowError;
    - ``abs(math.remainder(x, 2 pi))`` for x = Re k - pi is
      min(|x|, |x + 2 pi|).  After the fold x lies in [-2 pi, 0], where the
      exact remainder is x or x + 2 pi, whichever is smaller in magnitude.
      When that is x + 2 pi, -x lies in [pi, 2 pi], so the sum is exact
      (Sterbenz's lemma); when it is x, the rounded sum cannot fall below
      |x|.

    numpy's complex ``log`` and ``abs`` round differently in the last bit,
    so they are not used.  The fixed cost of a few dozen numpy calls (about
    60 us) makes this form slower than the scalar functions below about 80
    roots, so a single device's pole list keeps them.
    """
    z = np.ravel(roots)
    zr, zi = z.real, z.imag
    log = np.fromiter(map(cmath.log, z.tolist()), complex, z.size)
    lr, li = log.real, log.imag
    # Python's float arithmetic gives inf and nan without a warning
    with np.errstate(all="ignore"):
        kr = -0.0 * lr - -1.0 * li
        ki = -0.0 * li + -1.0 * lr
        kr = np.where(kr <= -math.pi, kr + _TWO_PI, kr)
        wide = abs(zr) >= abs(zi)
        big, small = np.where(wide, zr, zi), np.where(wide, zi, zr)
        ratio = small / big
        denom = big + small * ratio
        inv_r = np.where(wide, 1.0 + 0.0 * ratio, 1.0 * ratio + 0.0) / denom
        inv_i = np.where(wide, 0.0 - 1.0 * ratio, 0.0 * ratio - 1.0) / denom
        wr, wi = zr + inv_r, zi + inv_i
        er = -t * wr - 0.0 * wi
        ei = -t * wi + 0.0 * wr
        modulus = np.hypot(zr, zi)
    x = kr - math.pi
    on_zero = abs(kr) <= CLASSIFY_TOL
    on_pi = np.minimum(abs(x), abs(x + _TWO_PI)) <= CLASSIFY_TOL
    threshold = abs(modulus - 1.0) <= CLASSIFY_TOL
    upper = ki > 0
    codes = np.where(kr > 0, 3, 4)
    codes[on_zero | on_pi] = 2
    codes[upper & on_pi] = 1
    codes[upper & on_zero] = 0
    codes[threshold] = 5
    bad = np.isinf(modulus) | (upper & ~on_zero & ~on_pi & ~threshold)
    if bad.any():
        i = int(bad.argmax())
        if np.isinf(modulus[i]):
            raise OverflowError("absolute value too large")
        raise ClassificationError(_off_the_lines(kr[i], ki[i]))
    fields = np.stack((zr, zi, kr, ki, er, ei), axis=-1)
    return fields.reshape(*np.shape(roots), 6), codes.reshape(np.shape(roots))


def decoupled_poles(spec: DeviceSpec) -> list[SpectralPole] | None:
    """The embedded level of a T-dot with zero coupling, reported as
    Decoupled; None for every other device.

    The secular determinant factorizes; the lead factor carries no discrete
    state and the dot factor pins E = eps_d exactly.  The retarded Bloch root
    represents the level (z = -sign(eps_d) at a band edge).
    """
    params = tdot_params(spec)
    if params is None or params[1] != 0.0:
        return None
    t, _, E = params
    try:
        z = z_pair_from_energy(E, t)[0]
    except BandEdgeError:
        z = complex(-1.0 if E > 0 else 1.0)
    return [
        SpectralPole(
            z=z, k=k_from_z(z), E=complex(E), pole_class=PoleClass.DECOUPLED,
            amps=(0j, 1.0 + 0j), contact=spec.contact,
        )
    ]


def classify(z: complex) -> PoleClass:
    """Label a pole by its position in the complex k plane, k = k_from_z(z).

    CLASSIFY_TOL bounds the unit-circle (threshold) test and the distance of
    Re k from the lines {0, pi}, measured on the zone circle so values just
    below -pi count as near +pi.  A root in the upper half plane off those
    lines raises ClassificationError; a z that is not finite has no place,
    and ``k_from_z`` refuses z = 0 with a ParameterError.
    """
    if not cmath.isfinite(z):
        raise ClassificationError(f"Bloch factor z = {z} is not finite")
    return _class_of(z, k_from_z(z))


def _class_of(z: complex, k: complex) -> PoleClass:
    """The class rule of :func:`classify` for a finite nonzero z and its
    k = k_from_z(z), which a caller that has k already passes in."""
    kr, ki = k.real, k.imag
    if abs(abs(z) - 1.0) <= CLASSIFY_TOL:
        return PoleClass.THRESHOLD
    if ki > 0:
        if abs(kr) <= CLASSIFY_TOL:
            return PoleClass.BOUND_LOWER
        if abs(math.remainder(kr - math.pi, _TWO_PI)) <= CLASSIFY_TOL:
            return PoleClass.BOUND_UPPER
        raise ClassificationError(_off_the_lines(kr, ki))
    if abs(kr) <= CLASSIFY_TOL or abs(math.remainder(kr - math.pi, _TWO_PI)) <= CLASSIFY_TOL:
        return PoleClass.ANTI_BOUND
    return PoleClass.RESONANT if kr > 0 else PoleClass.ANTI_RESONANT
