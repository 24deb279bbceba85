"""Machine-speed calibration for the end-to-end times.

On a shared host the same item, run back to back in one process, takes
anywhere from 1x to 2x its fastest time as the load of other guests changes,
within a minute; process CPU time drifts with wall time, so the slowdown is
the core itself, not scheduling.  The measuring process therefore runs a
fixed calibration kernel between items, outside the timed region, and
divides each item's time by the kernel's slowdown against its reference
time, measured next to the item.  The end-to-end times are thus seconds of
the reference machine state: a change in respole moves them in full, while
a change in the host's speed moves the item and the kernel alike and
cancels.

The kernel times the kinds of work the CLI does separately: an interpreter
loop, many small numpy calls, a small dense LAPACK solve that fits in cache,
a larger one that does not, and batched determinants shaped like a Newton
step.  Host load slows them by different amounts, so each workload weighs
the parts by its own mix (``CAL_WEIGHTS`` in ``workloads.py``) and runs only
the parts it weighs.  The kernel depends on numpy only, never on respole, so
no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's parts, each timed on its own.
PARTS = ("interpreter", "small_numpy", "lapack_small", "lapack_large", "batched_numpy")

# Part times on a 2-core Intel Xeon virtual machine at 2.1 GHz, one BLAS
# thread, in the fastest state its host showed (busy minutes take up to 2x
# as long): the speed that reported times refer to.
REFERENCE_S = (0.56e-3, 1.43e-3, 0.59e-3, 6.5e-3, 2.6e-3)

# Shares of the parts for the import-dominated set-up time.
SETUP_WEIGHTS = (0.5, 0.5, 0.0, 0.0, 0.0)
EVERY_PART = (1.0,) * len(PARTS)

_rng = np.random.default_rng(20140527)
_A = _rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
_B = _rng.standard_normal(6)
_C = _rng.standard_normal(5)
_H_SMALL = _rng.standard_normal((120, 120))
_H_SMALL = _H_SMALL + _H_SMALL.T
_H_LARGE = _rng.standard_normal((256, 256))
_H_LARGE = _H_LARGE + _H_LARGE.T
# a Newton step's shape: determinants of a batch of complex 8x8 matrices
_M = _rng.standard_normal((216, 8, 8)) + 1j * _rng.standard_normal((216, 8, 8))
_Z = _rng.standard_normal(216) + 1j * _rng.standard_normal(216)


def _interpreter() -> None:
    acc = 0.0
    for i in range(6000):
        acc += (i * 0.5) % 7.0


def _small_numpy() -> None:
    for _ in range(40):
        np.linalg.solve(_A, _B)
        np.roots(_C)


def _lapack_small() -> None:
    np.linalg.eigvalsh(_H_SMALL)


def _lapack_large() -> None:
    np.linalg.eigh(_H_LARGE)  # 0.5 MB: the L2-spilling solves of the oracle


def _batched_numpy() -> None:
    diag = np.arange(8)
    for _ in range(8):
        m = _M.copy()
        m[:, diag, diag] += _Z[:, None]
        d = np.linalg.det(m)
        np.where(np.abs(d) > 1.0, d, _Z)


_RUN = (_interpreter, _small_numpy, _lapack_small, _lapack_large, _batched_numpy)


def kernel(weights) -> tuple[float, ...]:
    """Run the parts of the calibration kernel that have a nonzero weight;
    the wall time of each part in seconds (0 for a part not run)."""
    times = []
    for w, part in zip(weights, _RUN):
        t0 = time.perf_counter()
        if w:
            part()
        times.append(time.perf_counter() - t0 if w else 0.0)
    return tuple(times)


def speed_factor(samples, weights) -> float:
    """The factor that turns a time measured next to these kernel samples
    into reference seconds: one over the median, over the samples, of the
    parts' slowdowns against the reference, weighted by the share of each
    kind of work in the timed code (the weights sum to 1)."""
    def slowdown(parts) -> float:
        return sum(w * t / ref for w, t, ref in zip(weights, parts, REFERENCE_S))

    return 1.0 / statistics.median(slowdown(s) for s in samples)
