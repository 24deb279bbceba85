"""Device definitions: the side-coupled (T-type) dot and generalized finite devices.

A device is a finite cluster of sites (the "inner" space) whose contact site
sits on an infinite uniform 1D lead with hopping ``lead_t``.  The T-type dot
is the 2-site special case: the lead site 0 plus one dot level side-coupled
to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the T-type dot.

    t: lead hopping (sets the energy scale, band [-2t, 2t]); must be > 0.
    t1: dot-lead coupling; t1 == 0 leaves the dot level decoupled.
    eps_d: onsite potential of the dot level.
    """

    t: float
    t1: float
    eps_d: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t > 0):
            raise ParameterError(f"lead hopping t must be finite and > 0, got {self.t}")
        if not math.isfinite(self.t1):
            raise ParameterError(f"coupling t1 must be finite, got {self.t1}")
        if not math.isfinite(self.eps_d):
            raise ParameterError(f"dot potential eps_d must be finite, got {self.eps_d}")


@dataclass(frozen=True)
class DeviceSpec:
    """A finite device attached to one infinite uniform lead.

    onsite: real onsite energy per site, length n_sites.
    hoppings: undirected bonds (i, j, amplitude), each pair stored once.
    contact: index of the site that carries the lead.
    lead_t: hopping on the lead, > 0.
    """

    n_sites: int
    onsite: tuple[float, ...]
    hoppings: tuple[tuple[int, int, float], ...]
    contact: int
    lead_t: float

    def __post_init__(self):
        if self.n_sites < 1:
            raise ParameterError("device needs at least one site")
        if len(self.onsite) != self.n_sites:
            raise ParameterError("onsite length must equal n_sites")
        if not all(math.isfinite(e) for e in self.onsite):
            raise ParameterError("onsite energies must be finite reals")
        if not (0 <= self.contact < self.n_sites):
            raise ParameterError(f"contact index {self.contact} out of range")
        if not (math.isfinite(self.lead_t) and self.lead_t > 0):
            raise ParameterError(f"lead hopping must be finite and > 0, got {self.lead_t}")
        seen = set()
        for i, j, amp in self.hoppings:
            if not (0 <= i < self.n_sites and 0 <= j < self.n_sites) or i == j:
                raise ParameterError(f"bad hopping pair ({i}, {j})")
            if not math.isfinite(amp):
                raise ParameterError(f"hopping amplitude on ({i}, {j}) must be finite")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ParameterError(f"duplicate hopping pair {key}")
            seen.add(key)


def make_tdot(t: float, t1: float, eps_d: float) -> DeviceSpec:
    """Build the T-type dot: lead site 0 (contact) plus dot site 1."""
    params = ModelParams(t, t1, eps_d)
    return DeviceSpec(
        n_sites=2,
        onsite=(0.0, params.eps_d),
        hoppings=((0, 1, -params.t1),),
        contact=0,
        lead_t=params.t,
    )


def tdot_params(spec: DeviceSpec) -> ModelParams | None:
    """Read back (t, t1, eps_d) if the device has the T-dot shape, else None."""
    if (
        spec.n_sites == 2
        and spec.contact == 0
        and spec.onsite[0] == 0.0
        and len(spec.hoppings) == 1
        and spec.hoppings[0][:2] in ((0, 1), (1, 0))
    ):
        return ModelParams(spec.lead_t, -spec.hoppings[0][2], spec.onsite[1])
    return None


def p_space_hamiltonian(spec: DeviceSpec) -> np.ndarray:
    """Real symmetric matrix of the device block (onsite + internal bonds)."""
    h = np.zeros((spec.n_sites, spec.n_sites))
    for i in range(spec.n_sites):
        h[i, i] = spec.onsite[i]
    for i, j, amp in spec.hoppings:
        h[i, j] = amp
        h[j, i] = amp
    return h


def device_to_json(spec: DeviceSpec) -> dict:
    return {
        "n_sites": spec.n_sites,
        "onsite": list(spec.onsite),
        "hoppings": [list(h) for h in spec.hoppings],
        "contact": spec.contact,
        "lead_t": spec.lead_t,
    }


def device_from_json(obj: dict) -> DeviceSpec:
    """Parse a device from its JSON form; accepts the ``{"tdot": {...}}`` shorthand."""
    if not isinstance(obj, dict):
        raise ParameterError("device JSON must be an object")
    shape = "tdot shorthand" if "tdot" in obj else "device JSON"
    try:
        if "tdot" in obj:
            td = obj["tdot"]
            return make_tdot(float(td["t"]), float(td["t1"]), float(td["eps_d"]))
        return DeviceSpec(
            n_sites=int(obj["n_sites"]),
            onsite=tuple(float(e) for e in obj["onsite"]),
            hoppings=tuple((int(i), int(j), float(a)) for i, j, a in obj["hoppings"]),
            contact=int(obj["contact"]),
            lead_t=float(obj["lead_t"]),
        )
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"bad {shape}: {exc}") from exc
