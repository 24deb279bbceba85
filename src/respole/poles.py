"""Discrete-state records, their classification in the complex k plane, and
the sorted pole list both routes build from their roots.

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

from .dispersion import energy_from_z, k_from_z, wrap_to_zone, z_pair_from_energy
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

    @property
    def normalizable(self) -> bool:
        return self.pole_class in BOUND_CLASSES


def poles_from_roots(roots, null_vectors, t: float, contact: int) -> list[list[SpectralPole]]:
    """The classified states of a stack of devices that share the lead
    hopping t and the contact site, from their (m, 2n) secular roots and the
    (m, 2n, n) null vectors; each device's list sorted by (Re z, Im z).

    Amplitudes are scaled so the contact reads exactly 1; a state that misses
    the contact (|v_c| <= CONTACT_PIN_TOL * max|v|) has its largest entry
    pinned to 1 instead.  k, E and the class are computed per pole in scalar
    arithmetic.  A root that is zero or not finite raises NumericalError.
    """
    roots = np.asarray(roots, dtype=complex)
    if not np.all(np.isfinite(roots) & (roots != 0)):
        raise NumericalError("a secular root is zero or not finite")
    # complex before dividing: numpy divides complex numbers by multiplying
    # with a reciprocal, which can differ from real division in the last bit
    v = np.asarray(null_vectors, dtype=complex)
    rows, cols = np.arange(roots.shape[0])[:, None], np.arange(roots.shape[1])
    order = np.lexsort((roots.imag, roots.real))
    roots, v = roots[rows, order], v[rows, order]
    mag = np.abs(v)
    pin = np.where(mag[..., contact] > CONTACT_PIN_TOL * mag.max(axis=-1),
                   contact, mag.argmax(axis=-1))
    amps = v / v[rows, cols, pin][..., None]
    amps[rows, cols, pin] = 1.0
    return [
        [
            SpectralPole(
                z=z, k=k_from_z(z), E=energy_from_z(z, t), pole_class=classify(z),
                amps=tuple(a), contact=contact,
            )
            for z, a in zip(zs, rows)
        ]
        for zs, rows in zip(roots.tolist(), amps.tolist())
    ]


def decoupled_poles(spec: DeviceSpec) -> list[SpectralPole] | None:
    """The embedded level of a T-dot with zero coupling, reported as
    Decoupled; None for every other device.

    The secular determinant factorizes; the lead factor carries no discrete
    state and the dot factor pins E = eps_d exactly.  The retarded Bloch root
    represents the level (z = -sign(eps_d) at a band edge).
    """
    params = tdot_params(spec)
    if params is None or params.t1 != 0.0:
        return None
    E = params.eps_d
    try:
        z = z_pair_from_energy(E, params.t)[0]
    except BandEdgeError:
        z = complex(-1.0 if E > 0 else 1.0)
    return [
        SpectralPole(
            z=z, k=k_from_z(z), E=complex(E), pole_class=PoleClass.DECOUPLED,
            amps=(0j, 1.0 + 0j), contact=spec.contact,
        )
    ]


def classify(z: complex) -> PoleClass:
    """Label a pole by its position in the complex k plane.

    CLASSIFY_TOL bounds both the unit-circle (threshold) test and the distance
    of Re k from the axis lines {0, pi}, measured on the zone circle so values
    just below -pi count as near +pi.  A z that is not finite has no place.
    """
    if z == 0:
        raise ParameterError("Bloch factor z must be nonzero")
    if not cmath.isfinite(z):
        raise ClassificationError(f"Bloch factor z = {z} is not finite")
    if abs(abs(z) - 1.0) <= CLASSIFY_TOL:
        return PoleClass.THRESHOLD
    k = k_from_z(z)
    d_zero = abs(k.real)
    d_pi = abs(wrap_to_zone(k.real - math.pi))
    if k.imag > 0:
        if d_zero <= CLASSIFY_TOL:
            return PoleClass.BOUND_LOWER
        if d_pi <= CLASSIFY_TOL:
            return PoleClass.BOUND_UPPER
        raise ClassificationError(
            f"pole at k = {k} lies in the upper half plane off the bound-state "
            "lines; no state of this model can sit there"
        )
    if d_zero <= CLASSIFY_TOL or d_pi <= CLASSIFY_TOL:
        return PoleClass.ANTI_BOUND
    return PoleClass.RESONANT if k.real > 0 else PoleClass.ANTI_RESONANT


def pole_to_record(pole: SpectralPole) -> dict:
    """Flat serialization record (JSON object / CSV row) of one pole."""
    return {
        "z_re": pole.z.real,
        "z_im": pole.z.imag,
        "k_re": pole.k.real,
        "k_im": pole.k.imag,
        "E_re": pole.E.real,
        "E_im": pole.E.imag,
        "class": pole.pole_class.value,
        "amp0_re": pole.amp0.real,
        "amp0_im": pole.amp0.imag,
        "ampd_re": pole.amp_d.real,
        "ampd_im": pole.amp_d.imag,
    }
