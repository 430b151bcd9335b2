"""Exception types shared across the package, and the input guard."""

import math
from numbers import Integral

import numpy as np


class QoctError(Exception):
    """Base class for all qoct errors."""


class DomainError(QoctError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


def require(name: str, value: float, low: float = 0.0, closed: bool = False) -> None:
    """Raise DomainError unless value is finite and above low (or equal, if closed).

    Written as a positive test so NaN fails it, unlike ``value <= low``.
    """
    if not (math.isfinite(value) and (value >= low if closed else value > low)):
        bound = f"{'>=' if closed else '>'} {low:g}"
        raise DomainError(f"{name} must be finite and {bound}, got {value!r}")


def require_count(name: str, value) -> None:
    """Raise DomainError unless value is a whole number (an Integral) >= 1."""
    if not (isinstance(value, Integral) and value >= 1):
        raise DomainError(f"{name} must be a whole number >= 1, got {value!r}")


def require_reals(name: str, values) -> np.ndarray:
    """``values`` as a 1-d float array, else DomainError.

    Refuses a scalar, a 2-d or ragged nesting, a non-real dtype (str,
    complex, bool, object) and NaN or inf."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged nesting
        a = None
    if a is None or a.ndim != 1 or a.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a 1-d array of reals")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise DomainError(f"{name} must be finite")
    return a


class SingularLocusError(DomainError):
    """The state sits on the locus where the switching-ratio functions blow up."""


class RegimeError(DomainError):
    """The requested quantity is undefined for this extremal regime."""


class NoSolutionError(QoctError):
    """Root finding failed; the target is unreachable by the synthesis families."""


class BracketError(QoctError):
    """A bisection bracket does not straddle the solution."""


class HorizonError(QoctError):
    """No boundary crossing was found within the integration horizon."""


class StepError(QoctError):
    """A renormalization correction was too large: the RK4 step is too long
    for the dynamics it integrates."""


class ConsistencyError(QoctError):
    """Imaginary residues too large when undoing the resonant phase transformations."""


class QuadratureDepthError(QoctError):
    """Adaptive quadrature exceeded the recursion-depth cap."""
