"""Lattice wavefunctions of discrete states: sampling and norms.

Away from the device the amplitude is z**|x| times the contact amplitude,
so bound states (|z| < 1) decay geometrically and resonant states (|z| > 1)
grow without bound -- the latter live outside the Hilbert space and are
reported un-normalized (``normalize_bound`` raises for them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .feshbach import q_space_reconstruct
from .model import _as_index
from .poles import BOUND_CLASSES, SpectralPole


@dataclass(frozen=True)
class WavefunctionSample:
    """Amplitude at one site; ``x`` is a lead integer or a device label."""

    x: int | str
    value: complex
    magnitude: float


def _sample(x, value) -> WavefunctionSample:
    return WavefunctionSample(x=x, value=complex(value), magnitude=abs(value))


def evaluate(pole: SpectralPole, x_max: int) -> list[WavefunctionSample]:
    """Samples on lead sites -x_max..x_max plus the device rows.

    The side-coupled level of a 2-site device is labeled "d"; larger devices
    label their non-contact sites "p<i>".  ``x_max`` is an integer, never a
    bool.  A lead amplitude beyond the float range raises NumericalError.
    """
    x_max = _as_index(x_max, "x_max")
    if x_max < 1:
        raise ParameterError(f"x_max must be >= 1, got {x_max}")
    # the lead sites as one array first, so a grid too large to hold fails
    # before any sample is computed; each sample is still z**|x| in scalars,
    # from x = 0 outward, so an overflow names the first site it reaches
    xs = np.arange(-x_max, x_max + 1).tolist()
    lead = [q_space_reconstruct(pole, x) for x in xs[x_max:]]
    samples = [_sample(x, lead[abs(x)]) for x in xs]
    for i, amp in enumerate(pole.amps):
        if i == pole.contact:
            continue
        label = "d" if len(pole.amps) == 2 else f"p{i}"
        samples.append(_sample(label, amp))
    return samples


def normalize_bound(pole: SpectralPole) -> SpectralPole:
    """Rescale a bound state's amplitudes to unit lattice norm.

    The lead contribution is the exact geometric sum of |z|^(2|x|), so no
    truncation enters even for very weak binding.  Non-bound classes are not
    normalizable and raise.
    """
    if pole.pole_class not in BOUND_CLASSES:
        raise ParameterError(
            f"{pole.pole_class.value} state is not normalizable; only bound states are"
        )
    r2 = abs(pole.z) ** 2
    norm_sq = sum(abs(a) ** 2 for a in pole.amps)
    norm_sq += abs(pole.amp0) ** 2 * 2.0 * r2 / (1.0 - r2)
    n = math.sqrt(norm_sq)
    return replace(pole, amps=tuple(a / n for a in pole.amps))


WAVEFUNCTION_HEADER = "x,re,im,abs"
# %.17g renders exactly as format_float does
WAVEFUNCTION_ROW = "%s,%.17g,%.17g,%.17g"


def wavefunction_csv(samples: list[WavefunctionSample]) -> str:
    rows = [WAVEFUNCTION_ROW % (s.x, s.value.real, s.value.imag, s.magnitude)
            for s in samples]
    return "\n".join([WAVEFUNCTION_HEADER, *rows]) + "\n"
