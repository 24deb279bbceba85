"""Scattering observables at real wave number: amplitudes, T/R, Green's function.

A unit wave incident from the left fixes the inner amplitudes through

    (E - H_eff(e^{ik})) (amp0, amp_d, ...)^T = (2 i t sin k, 0, ...)^T,

with continuity A + B = C = amp0 across the contact and A = 1.  The
lattice Green's function with the source on the contact solves the same
system with right-hand side (1, 0, ...), so the two are proportional
through i v_g; ``verify_green_identity`` solves both and compares them.

Every solve comes back as one ``ScatteringSweep`` of column arrays, one row
per k: ``transmission_sweep`` on a uniform grid, ``scattering_solve`` as
the sweep of one row.  A sweep does no Python work per k: cos k and sin k
come from ``np.cos`` and ``np.sin`` over the whole grid (float64 loops that
call the C library, as ``math.cos`` does), and the stacked solves of
``_solve_inner`` fill one matrix buffer chunk by chunk.  T and R are
Python's ``abs(c) ** 2`` of each amplitude to the last bit, computed over
the stacked C and B columns in one call (``_abs_squared``): the C library's
``hypot`` through ``np.hypot``, the square as h * h, and Python's own
``pow`` for the few squares that lie near a rounding midpoint.
``sweep_rows_csv`` writes a sweep through the array formatter
``_format.csv_rows``, whose fields are byte for byte those of ``%.17g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._format import _SPLIT, csv_rows
from .dispersion import group_velocity
from .errors import NumericalError, ParameterError
from .feshbach import self_energy
from .model import DeviceSpec, _as_index, _as_real, p_space_hamiltonian

# k values per stacked solve: enough to amortise the per-call overhead, few
# enough that the (chunk, n, n) stack stays a few hundred kB.  From n = 6 on
# that is above glibc's mmap threshold when it is pinned at 128 kB, so a
# fresh stack per chunk would be mapped and page-faulted in again each time;
# ``_solve_inner`` fills one buffer per call instead
SOLVE_CHUNK = 256


@dataclass(frozen=True, eq=False)
class ScatteringSweep:
    """Scattering solutions on a k grid as columns, row i at ``k[i]``; the
    solve at one k is the sweep of one row.

    ``k``, ``E``, ``T`` and ``R`` are float arrays of shape (m,), ``B`` and
    ``C`` complex arrays of shape (m,), and ``amps`` the (m, n) inner
    amplitudes in site order.  Sweeps compare by identity, as their fields
    are arrays.
    """

    k: np.ndarray
    E: np.ndarray
    B: np.ndarray
    C: np.ndarray
    amps: np.ndarray
    T: np.ndarray
    R: np.ndarray


def _check_k(k: float) -> float:
    """k as a float, if it is a real number (never a bool) inside (0, pi)."""
    k = _as_real(k, "wave number")
    if not 0.0 < k < math.pi:
        raise ParameterError(f"wave number must lie strictly inside (0, pi), got {k}")
    return k


def _solve_inner(
    spec: DeviceSpec, ks: np.ndarray, incident: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Energies and inner amplitudes (one row per k of the float array
    ``ks``), one stacked solve per chunk.

    The source on the contact is 2 i t sin k for a unit incident wave and 1
    for the Green's function column.  Each step rounds exactly as a solve of
    the single matrix E I - H_eff(z) at that k would: cos and sin come from
    ``np.cos`` and ``np.sin`` over the whole grid, whose float64 loops call
    the C library as ``math.cos`` and ``math.sin`` do, and E, the source and
    the contact diagonal are formed once per call.  Each chunk fills a
    prefix of one matrix buffer and one right-hand-side buffer, allocated
    once per call, so no chunk maps and faults in fresh pages.  A chunk's
    fill is two copies and a subtraction, with no cast: the entries of E I
    that the complex product (E + 0i) * I would give, formed once per call,
    E * 0 + (E * 0 + 0) i everywhere and E + (E * 0 + 0) i on a diagonal
    view, signed zeros and the nan of an infinite E included; then h,
    subtracted part by part as a complex subtraction does.  Each entry has
    the bits of E I - h.
    """
    n, c, t = spec.n_sites, spec.contact, spec.lead_t
    h = p_space_hamiltonian(spec).astype(complex)
    h_parts = h.view(float)  # real and imaginary parts, interleaved
    cos, sin = np.cos(ks), np.sin(ks)
    z = np.empty(len(ks), dtype=complex)
    z.real, z.imag = cos, sin
    # once 2t overflows, E is infinite and the fill holds inf and nan, which
    # the finite check below turns into the typed error; numpy's warnings
    # would only add noise to stderr
    with np.errstate(invalid="ignore", over="ignore"):
        energies = -2.0 * t * cos
        # the entries of E I, off the diagonal and on it
        off = np.empty(len(ks), dtype=complex)
        off.real = energies * 0.0
        off.imag = off.real + 0.0
        diag = off.copy()
        diag.real = energies
        # the contact diagonal of E I - H_eff(z), with H_eff = h + self_energy(z)
        contact = energies - (h[c, c] + self_energy(z, t))
        source = 2j * t * sin if incident else np.ones(len(ks), dtype=complex)
        amps = np.empty((len(ks), n), dtype=complex)
        m_buf = np.empty((min(len(ks), SOLVE_CHUNK), n, n), dtype=complex)
        rhs_buf = np.zeros((len(m_buf), n, 1), dtype=complex)
        m_diag = m_buf.reshape(len(m_buf), n * n)[:, ::n + 1]
        for lo in range(0, len(ks), SOLVE_CHUNK):
            hi = min(lo + SOLVE_CHUNK, len(ks))
            m, rhs = m_buf[:hi - lo], rhs_buf[:hi - lo]
            m[...] = off[lo:hi, None, None]
            m_diag[:hi - lo] = diag[lo:hi, None]
            # E I - h through numpy's float loop over the parts, which gives
            # the bits of its complex loop and ran in 31 against 82 us per
            # 8-site chunk here on a 2-core Xeon
            m_parts = m.view(float)
            np.subtract(m_parts, h_parts, out=m_parts)
            m[:, c, c] = contact[lo:hi]
            rhs[:, c, 0] = source[lo:hi]
            try:
                amps[lo:hi] = np.linalg.solve(m, rhs)[:, :, 0]
                ok = bool(np.isfinite(amps[lo:hi]).all())
            except np.linalg.LinAlgError:
                ok = False
            if not ok:
                # error path: solve k by k so the message names the first bad k
                for j in range(hi - lo):
                    k = float(ks[lo + j])
                    try:
                        amps[lo + j] = np.linalg.solve(m[j], rhs[j, :, 0])
                    except np.linalg.LinAlgError as exc:
                        raise NumericalError(f"inner system singular at k = {k}") from exc
                    if not np.all(np.isfinite(amps[lo + j])):
                        raise NumericalError(f"inner system ill-conditioned at k = {k}")
    return energies, amps


def _abs_squared(c: np.ndarray) -> np.ndarray:
    """Python's ``abs(c) ** 2`` of each complex value of an array of any
    shape, to the last bit (the values Python squares go in flat order).

    Python's complex ``abs`` is the C library's ``hypot``, and so is
    ``np.hypot``, which has no SIMD loop (numpy's complex ``abs`` has one and
    rounds differently).  Python's ``h ** 2`` is the C library's ``pow``,
    which is not correctly rounded: glibc states a worst case a little above
    0.5 ulp, taken here as below 0.55 ulp.  It can then differ from the
    correctly rounded h * h only if the exact square lies within 0.05 ulp of
    a midpoint between two doubles, where the residual r = h**2 - h * h is
    at least 0.45 ulp.  Dekker's product gives r exactly, and a value keeps
    h * h where |r| is below 0.45 of the gap from h * h down to the next
    double (at a power of two, the narrower of its two gaps); as h * h is
    not negative, that double is the one whose bits, read as an integer,
    are one less.  Every other
    finite value goes through Python itself: the residuals at or above that,
    and the squares outside [1e-290, 1e300], zero included, where the split
    could overflow or the residual's parts underflow.
    """
    with np.errstate(all="ignore"):
        h = np.hypot(c.real, c.imag)
        sq = h * h
        big = h * _SPLIT
        hi = big - (big - h)
        lo = h - hi
        residual = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
        gap = sq - (sq.view(np.int64) - 1).view(float)
    fast = (sq >= 1e-290) & (sq <= 1e300) & (abs(residual) < 0.45 * gap)
    # Python's abs is inf if a part is infinite, else a nan of its own,
    # whatever the payload of the nan part; either squares to itself
    other = ~np.isfinite(c)
    sq[other] = np.where(np.isnan(h[other]), math.nan, math.inf)
    slow = np.flatnonzero(~fast & ~other)
    if slow.size:
        sq.flat[slow] = [abs(v) ** 2 for v in c.flat[slow].tolist()]
    return sq


def _sweep(spec: DeviceSpec, ks: np.ndarray) -> ScatteringSweep:
    energies, amps = _solve_inner(spec, ks, incident=True)
    # C and B = C - 1 as the rows of one stack, squared in one call
    cb = np.empty((2, len(ks)), dtype=complex)
    cb[0] = amps[:, spec.contact]
    np.subtract(cb[0], 1.0, out=cb[1])
    t_col, r_col = _abs_squared(cb)
    return ScatteringSweep(
        k=ks, E=energies, B=cb[1], C=cb[0], amps=amps, T=t_col, R=r_col,
    )


def scattering_solve(spec: DeviceSpec, k: float) -> ScatteringSweep:
    """Solve the left-incidence scattering problem at real k with A = 1: a
    sweep of one row."""
    return _sweep(spec, np.array([_check_k(k)]))


def verify_green_identity(spec: DeviceSpec, k: float) -> float:
    """Max deviation of amps == i v_g G (contract: below 1e-12), from two
    solves at k, one per right-hand side."""
    k = _check_k(k)
    ks = np.array([k])
    amps = _solve_inner(spec, ks, incident=True)[1][0]
    g = _solve_inner(spec, ks, incident=False)[1][0]
    return float(np.abs(amps - 1j * group_velocity(k, spec.lead_t) * g).max())


def transmission_sweep(
    spec: DeviceSpec, k_min: float, k_max: float, steps: int
) -> ScatteringSweep:
    """Scattering solutions on a uniform k grid, endpoints included.  The
    endpoints are real numbers, never bools, and ``steps`` an integer."""
    _as_real(k_min, "wave number")
    _as_real(k_max, "wave number")
    if not 0.0 < k_min < k_max < math.pi:
        raise ParameterError(
            f"need 0 < k_min < k_max < pi, got k_min={k_min}, k_max={k_max}"
        )
    steps = _as_index(steps, "steps")
    if steps < 2:
        raise ParameterError(f"sweep needs at least 2 steps, got {steps}")
    return _sweep(spec, np.linspace(k_min, k_max, steps))


SWEEP_HEADER = "k,E,T,R,ReB,ImB,ReC,ImC"


def sweep_rows_csv(sweep: ScatteringSweep) -> str:
    """CSV dump of a sweep (17 significant digits, ``\\n`` endings), every
    field the text of ``_format.format_float``."""
    columns = (sweep.k, sweep.E, sweep.T, sweep.R,
               sweep.B.real, sweep.B.imag, sweep.C.real, sweep.C.imag)
    return csv_rows(np.column_stack(columns), header=SWEEP_HEADER + "\n")
