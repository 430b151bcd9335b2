"""Exception types shared across the package, and the input guard."""

import math
from numbers import Integral


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
