"""Device definitions: one ``DeviceSpec`` type for every finite device.

A device is a finite cluster of sites (the "inner" space) whose contact site
sits on an infinite uniform 1D lead with hopping ``lead_t``.  The T-type dot
is the 2-site device built by ``make_tdot(t, t1, eps_d)``: the lead site 0
(the contact) plus one dot level eps_d side-coupled to it with hopping -t1.
``tdot_params`` reads (t, t1, eps_d) back from any device of that shape.
``DeviceSpec`` is the one place a device's numbers are checked, the T-dot's
and the JSON form's included, and it stores them in one canonical form.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class DeviceSpec:
    """A finite device attached to one infinite uniform lead.

    onsite: real onsite energy per site, length n_sites.
    hoppings: undirected bonds (i, j, amplitude), each pair once, i < j.
    contact: index of the site that carries the lead.
    lead_t: hopping on the lead, > 0.

    Each field is stored as Python int, float or tuples, whatever numbers and
    sequences built it, and the bonds sorted by (i, j), so ``==``, ``hash``
    and ``dataclasses.asdict`` see one form.
    """

    n_sites: int
    onsite: tuple[float, ...]
    hoppings: tuple[tuple[int, int, float], ...]
    contact: int
    lead_t: float

    def __post_init__(self):
        n = _as_index(self.n_sites, "n_sites")
        if n < 1:
            raise ParameterError("device needs at least one site")
        onsite = _as_tuple(self.onsite, "onsite")
        if len(onsite) != n:
            raise ParameterError("onsite length must equal n_sites")
        onsite = tuple([_as_finite(e, f"onsite energy of site {i}") for i, e in enumerate(onsite)])
        contact = _as_index(self.contact, "contact index")
        if not 0 <= contact < n:
            raise ParameterError(f"contact index {contact} out of range")
        lead_t = _as_real(self.lead_t, "lead hopping t")
        if not (math.isfinite(lead_t) and lead_t > 0):
            raise ParameterError(f"lead hopping t must be finite and > 0, got {lead_t}")
        bonds = {}
        for bond in _as_tuple(self.hoppings, "hoppings"):
            try:
                i, j, amp = bond
            except (TypeError, ValueError):
                raise ParameterError(f"hopping {bond!r} is not (i, j, amplitude)") from None
            i, j = _as_index(i, "hopping index"), _as_index(j, "hopping index")
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ParameterError(f"bad hopping pair ({i}, {j})")
            amp = _as_finite(amp, f"hopping amplitude on ({i}, {j})")
            key = (min(i, j), max(i, j))
            if key in bonds:
                raise ParameterError(f"duplicate hopping pair {key}")
            bonds[key] = amp
        # the canonical fields, written past the frozen __setattr__ in one call
        self.__dict__.update(n_sites=n, onsite=onsite, contact=contact, lead_t=lead_t,
                             hoppings=tuple([(*key, amp) for key, amp in sorted(bonds.items())]))


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


def _as_finite(value, what: str) -> float:
    """``_as_real(value, what)``, which must also be finite."""
    x = _as_real(value, what)
    if not math.isfinite(x):
        raise ParameterError(f"{what} must be finite, got {x}")
    return x


def _as_tuple(value, what: str) -> tuple:
    """``tuple(value)``, or a ParameterError naming ``what`` if value is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ParameterError(f"{what} must be a sequence, got {value!r}") from None


def make_tdot(t: float, t1: float, eps_d: float) -> DeviceSpec:
    """Build the T-type dot: lead site 0 (contact) plus dot site 1.

    t is the lead hopping (> 0), t1 the dot-lead coupling (0 leaves the dot
    level decoupled) and eps_d the dot's onsite energy.
    """
    return DeviceSpec(n_sites=2, onsite=(0.0, eps_d), contact=0, lead_t=t,
                      hoppings=((0, 1, -_as_real(t1, "hopping amplitude on (0, 1)")),))


def tdot_params(spec: DeviceSpec) -> tuple[float, float, float] | None:
    """Read back (t, t1, eps_d) if the device has the T-dot shape, else None."""
    if (
        spec.n_sites == 2
        and spec.contact == 0
        and spec.onsite[0] == 0.0
        and len(spec.hoppings) == 1
    ):
        return spec.lead_t, -spec.hoppings[0][2], spec.onsite[1]
    return None


def p_space_hamiltonian(spec: DeviceSpec) -> np.ndarray:
    """Real symmetric matrix of the device block (onsite + internal bonds)."""
    h = np.diag(spec.onsite)
    for i, j, amp in spec.hoppings:
        h[i, j] = h[j, i] = amp
    return h


def _json_index(raw):
    """2.0 as 2, since JSON has one number type; any other value as it is."""
    return int(raw) if type(raw) is float and raw.is_integer() else raw


def device_from_json(obj: dict) -> DeviceSpec:
    """Parse a device from its JSON form; accepts the ``{"tdot": {...}}`` shorthand.

    ``DeviceSpec`` checks every value; an integral float such as 2.0 counts
    as an integer for ``n_sites``, ``contact`` and the hopping indices.
    """
    if not isinstance(obj, dict):
        raise ParameterError("device JSON must be an object")
    if "tdot" in obj and not isinstance(obj["tdot"], dict):
        raise ParameterError("tdot shorthand must be an object with t, t1 and eps_d")
    shape, keys = (("tdot shorthand", ("t", "t1", "eps_d")) if "tdot" in obj
                   else ("device JSON", [f.name for f in fields(DeviceSpec)]))
    try:
        values = [obj.get("tdot", obj)[k] for k in keys]
    except KeyError as exc:
        raise ParameterError(f"bad {shape}: {exc}") from exc
    if "tdot" in obj:
        return make_tdot(*values)
    n_sites, onsite, hoppings, contact, lead_t = values
    if isinstance(hoppings, list):
        hoppings = [[*map(_json_index, bond[:2]), *bond[2:]] if isinstance(bond, list) else bond
                    for bond in hoppings]
    return DeviceSpec(_json_index(n_sites), onsite, hoppings, _json_index(contact), lead_t)
