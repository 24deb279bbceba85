"""Device definitions: one ``DeviceSpec`` type for every finite device.

A device is a finite cluster of sites (the "inner" space) whose contact site
sits on an infinite uniform 1D lead with hopping ``lead_t``.  The T-type dot
is the 2-site device built by ``make_tdot(t, t1, eps_d)``: the lead site 0
(the contact) plus one dot level eps_d side-coupled to it with hopping -t1.
``tdot_params`` reads (t, t1, eps_d) back from any device of that shape.
``DeviceSpec`` checks every field, so a T-dot is checked once, as a device.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


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
        _as_index(self.n_sites, "n_sites")
        if self.n_sites < 1:
            raise ParameterError("device needs at least one site")
        if len(self.onsite) != self.n_sites:
            raise ParameterError("onsite length must equal n_sites")
        for i, e in enumerate(self.onsite):
            if not math.isfinite(_as_real(e, f"onsite energy of site {i}")):
                raise ParameterError(f"onsite energy of site {i} must be finite, got {e}")
        _as_index(self.contact, "contact index")
        if not (0 <= self.contact < self.n_sites):
            raise ParameterError(f"contact index {self.contact} out of range")
        if not (math.isfinite(_as_real(self.lead_t, "lead hopping t")) and self.lead_t > 0):
            raise ParameterError(f"lead hopping t must be finite and > 0, got {self.lead_t}")
        seen = set()
        for i, j, amp in self.hoppings:
            _as_index(i, "hopping index")
            _as_index(j, "hopping index")
            if not (0 <= i < self.n_sites and 0 <= j < self.n_sites) or i == j:
                raise ParameterError(f"bad hopping pair ({i}, {j})")
            if not math.isfinite(_as_real(amp, f"hopping amplitude on ({i}, {j})")):
                raise ParameterError(f"hopping amplitude on ({i}, {j}) must be finite, got {amp}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ParameterError(f"duplicate hopping pair {key}")
            seen.add(key)


def _as_index(value, what: str) -> int:
    """``operator.index(value)``: an integer, numpy integers included, but
    never a bool; anything else is a ParameterError naming ``what``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{what} must be an integer, got {value!r}")


def _as_real(value, what: str) -> float:
    """``float(value)``, or a ParameterError naming ``what`` unless value is a
    real number, numpy scalars included, and not a bool, whose float exists:
    an integer too large for a float is refused too.  A float, the common
    case, is returned before the slow ABC check."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{what} is too large for a float") from None


def make_tdot(t: float, t1: float, eps_d: float) -> DeviceSpec:
    """Build the T-type dot: lead site 0 (contact) plus dot site 1.

    t is the lead hopping (> 0), t1 the dot-lead coupling (0 leaves the dot
    level decoupled) and eps_d the dot's onsite energy.
    """
    return DeviceSpec(n_sites=2, onsite=(0.0, eps_d), hoppings=((0, 1, -t1),),
                      contact=0, lead_t=t)


def tdot_params(spec: DeviceSpec) -> tuple[float, float, float] | None:
    """Read back (t, t1, eps_d) if the device has the T-dot shape, else None."""
    if (
        spec.n_sites == 2
        and spec.contact == 0
        and spec.onsite[0] == 0.0
        and len(spec.hoppings) == 1
        and spec.hoppings[0][:2] in ((0, 1), (1, 0))
    ):
        return spec.lead_t, -spec.hoppings[0][2], spec.onsite[1]
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


def json_number(raw, cast, what: str):
    """``cast(raw)`` for a value read from JSON.  Only a JSON number is one:
    a string, a boolean, any other value, a non-integral number where
    ``cast`` is int, or an integer too large for a float is a ParameterError
    naming ``what``."""
    if type(raw) is cast:
        # already a JSON number of the wanted type, which cast leaves as it is
        return raw
    if (isinstance(raw, bool) or not isinstance(raw, (int, float))
            or (cast is int and isinstance(raw, float) and not raw.is_integer())):
        raise ParameterError(f"bad {what}: {raw!r}")
    try:
        return cast(raw)
    except OverflowError as exc:
        raise ParameterError(f"bad {what}: {exc}") from exc


def device_from_json(obj: dict) -> DeviceSpec:
    """Parse a device from its JSON form; accepts the ``{"tdot": {...}}`` shorthand.

    Every number goes through ``json_number``: site counts and indices must
    be integral, and no field may be a boolean.
    """
    if not isinstance(obj, dict):
        raise ParameterError("device JSON must be an object")
    shape = "tdot shorthand" if "tdot" in obj else "device JSON"

    def num(raw, field, cast=float):
        return json_number(raw, cast, f"{shape} value for {field}")

    try:
        if "tdot" in obj:
            td = obj["tdot"]
            return make_tdot(*(num(td[k], k) for k in ("t", "t1", "eps_d")))
        return DeviceSpec(
            n_sites=num(obj["n_sites"], "n_sites", int),
            onsite=tuple(num(e, "onsite") for e in obj["onsite"]),
            hoppings=tuple(
                (num(i, "hoppings", int), num(j, "hoppings", int), num(a, "hoppings"))
                for i, j, a in obj["hoppings"]
            ),
            contact=num(obj["contact"], "contact", int),
            lead_t=num(obj["lead_t"], "lead_t"),
        )
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"bad {shape}: {exc}") from exc
