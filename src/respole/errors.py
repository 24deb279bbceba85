"""Exception types shared across the solver modules, and the LAPACK-failure helper."""

import numpy as np


class ParameterError(ValueError):
    """A parameter or argument violates an operation's domain."""


class BandEdgeError(ParameterError):
    """Energy sits exactly on a band edge, where the two Bloch roots merge."""


class NumericalError(RuntimeError):
    """An iterative or linear-algebra step failed to meet its contract."""


class ClassificationError(NumericalError):
    """A pole landed where no pole of this model can be (solver bug tripwire)."""


def _converged(solve, *args, failure: str):
    """``solve(*args)`` of ``np.linalg``, its LinAlgError raised as NumericalError(failure)."""
    try:
        return solve(*args)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(failure) from exc
