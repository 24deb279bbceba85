"""Discrete-state records, their classification in the complex k plane, and
the sorted pole list both routes build from their roots.

One scalar pass, ``_pole_rows``, turns secular roots into their k, E and
class, for both routes' pole lists and for the T-dot sweep's CSV rows;
``classify`` applies its class rule to one z.  This module owns the layout of
those rows: ``_ROW_WIDTH`` fields per pole, the label last.

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

from .dispersion import k_from_z, z_pair_from_energy
from .errors import BandEdgeError, ClassificationError, NumericalError, ParameterError
from .model import DeviceSpec, tdot_params

CLASSIFY_TOL = 1e-9
# a contact amplitude below this fraction of the largest one means the state
# misses the contact, and dividing by it would only scale up rounding noise
CONTACT_PIN_TOL = 1e-12


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
    pinned to 1 instead.  k, E and the class come from :func:`_pole_rows`.  A
    root that is zero or not finite raises NumericalError.
    """
    roots, order = sorted_roots(roots)
    # complex before dividing: numpy divides complex numbers by multiplying
    # with a reciprocal, which can differ from real division in the last bit
    v = np.asarray(null_vectors, dtype=complex)[order]
    rows = np.arange(roots.size)
    mag = np.abs(v)
    pin = np.where(mag[:, contact] > CONTACT_PIN_TOL * mag.max(axis=-1),
                   contact, mag.argmax(axis=-1))
    amps = v / v[rows, pin][:, None]
    amps[rows, pin] = 1.0
    zs = roots.tolist()
    f = _pole_rows(None, zs, t)
    return [SpectralPole(z, complex(kr, ki), complex(er, ei), c, amps=tuple(a), contact=contact)
            for z, (_, _, _, kr, ki, er, ei, c), a in zip(zs, zip(*[iter(f)] * _ROW_WIDTH),
                                                           amps.tolist())]


def sorted_roots(roots) -> tuple[np.ndarray, np.ndarray]:
    """A stack of (m, 2n) secular roots as complex, each row sorted by
    (Re z, Im z), with the (m, 2n) order that sorts them.  A root that is
    zero or not finite raises NumericalError."""
    roots = np.asarray(roots, dtype=complex)
    if not np.all(np.isfinite(roots) & (roots != 0)):
        raise NumericalError("a secular root is zero or not finite")
    order = np.lexsort((roots.imag, roots.real))
    return np.take_along_axis(roots, order, axis=-1), order


# the classes a root can take, in the order of the labels of _pole_rows
_ROOT_CLASSES = (PoleClass.BOUND_LOWER, PoleClass.BOUND_UPPER, PoleClass.ANTI_BOUND,
                 PoleClass.RESONANT, PoleClass.ANTI_RESONANT, PoleClass.THRESHOLD)
# the same classes by their CSV names
_ROOT_LABELS = tuple(c.value for c in _ROOT_CLASSES)
# the fields of one pole row: head, Re z, Im z, Re k, Im k, Re E, Im E, label
_ROW_WIDTH = 8
_TWO_PI = 2.0 * math.pi


def _pole_rows(head, zs, t: float, labels=_ROOT_CLASSES) -> list:
    """The flat list of the ``_ROW_WIDTH`` values ``head, Re z, Im z, Re k,
    Im k, Re E, Im E, label`` of each finite nonzero root z of ``zs``, in
    order.  ``labels`` names the classes of ``_ROOT_CLASSES`` in order.

    This is the one scalar pass from roots to pole fields.  k = -i Log z with
    Re k folded into (-pi, pi] and E = -t(z + 1/z) take the very operations
    of ``k_from_z`` and ``energy_from_z``, so each value equals theirs to the
    last bit (numpy's complex log and abs differ in the last bit).  The class
    rule is :func:`classify`'s: CLASSIFY_TOL bounds the unit-circle
    (threshold) test and the distance of Re k from the lines {0, pi},
    measured on the zone circle so values just below -pi count as near +pi.
    A root in the upper half plane off those lines raises
    ClassificationError.
    """
    bound_lower, bound_upper, anti_bound, resonant, anti_resonant, threshold = labels
    rows = []
    for z in zs:
        k = -1j * cmath.log(z)
        kr, ki = k.real, k.imag
        if kr <= -math.pi:
            kr += _TWO_PI
        E = -t * (z + 1.0 / z)
        if abs(abs(z) - 1.0) <= CLASSIFY_TOL:
            label = threshold
        elif ki > 0:
            if abs(kr) <= CLASSIFY_TOL:
                label = bound_lower
            elif abs(math.remainder(kr - math.pi, _TWO_PI)) <= CLASSIFY_TOL:
                label = bound_upper
            else:
                raise ClassificationError(
                    f"pole at k = {complex(kr, ki)} lies in the upper half plane off the "
                    "bound-state lines; no state of this model can sit there"
                )
        elif abs(kr) <= CLASSIFY_TOL or abs(math.remainder(kr - math.pi, _TWO_PI)) <= CLASSIFY_TOL:
            label = anti_bound
        else:
            label = resonant if kr > 0 else anti_resonant
        rows += (head, z.real, z.imag, kr, ki, E.real, E.imag, label)
    return rows


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


def _decoupled_rows(head, spec: DeviceSpec) -> list:
    """The records of ``decoupled_poles(spec)`` as a flat list of rows in the
    layout of :func:`_pole_rows`, labelled by their CSV name."""
    rows = []
    for p in decoupled_poles(spec):
        z, k, E = p.z, p.k, p.E
        rows += (head, z.real, z.imag, k.real, k.imag, E.real, E.imag, p.pole_class.value)
    return rows


def classify(z: complex) -> PoleClass:
    """Label a pole by its position in the complex k plane, by the class
    rule of :func:`_pole_rows`.  A z that is not finite has no place."""
    if z == 0:
        raise ParameterError("Bloch factor z must be nonzero")
    if not cmath.isfinite(z):
        raise ClassificationError(f"Bloch factor z = {z} is not finite")
    return _pole_rows(None, (z,), 1.0)[-1]
