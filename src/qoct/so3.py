"""Real 3-vectors, skew-symmetric generators and rotations.

The reduced dynamics lives on the unit sphere and every constant-control arc
is an exact rotation, so this module provides the exact matrix exponential
(Rodrigues formula) rather than a numerical propagator, and the circle that
such an arc traces (``arc_form``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .errors import DomainError, require, require_reals


def _vector3(name: str, values) -> np.ndarray:
    """``values`` as a float array of exactly three finite reals, else DomainError."""
    a = require_reals(name, values)
    if a.shape != (3,):
        raise DomainError(f"{name} must be three reals, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class StateS2:
    """A point of the unit sphere, stored as its three real components."""

    psi1: float
    psi2: float
    psi3: float

    def __post_init__(self):
        for v in (self.psi1, self.psi2, self.psi3):
            require("state component", v, -math.inf)
        sq = self.psi1 * self.psi1 + self.psi2 * self.psi2 + self.psi3 * self.psi3
        if not math.isfinite(sq) or abs(sq - 1.0) > tol.STRUCTURAL:
            raise DomainError(f"state is not on the unit sphere: |psi|^2 = {sq!r}")

    @classmethod
    def from_array(cls, arr) -> "StateS2":
        """The state of exactly three finite real components, else DomainError."""
        return cls(*_vector3("state components", arr).tolist())

    def as_array(self) -> np.ndarray:
        return np.array([self.psi1, self.psi2, self.psi3])

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.psi1, self.psi2, self.psi3)

    def in_octant(self) -> bool:
        """True when all components are nonnegative up to ``STRUCTURAL``."""
        return min(self.psi1, self.psi2, self.psi3) >= -tol.STRUCTURAL


#: source state (population in level one) and target state (level three)
SOURCE = StateS2(1.0, 0.0, 0.0)
TARGET = StateS2(0.0, 0.0, 1.0)


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


_EYE = _read_only(np.eye(3))


@dataclass(frozen=True)
class SkewGenerator:
    """Skew-symmetric 3x3 matrix stored by its three independent entries.

    The stored scalars (m1, m2, m3) sit at the (2,1), (3,2) and (3,1)
    positions respectively; antisymmetry is structural.
    """

    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        for v in (self.m1, self.m2, self.m3):
            require("generator entry", v, -math.inf)

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [0.0, -self.m1, -self.m3],
                [self.m1, 0.0, -self.m2],
                [self.m3, self.m2, 0.0],
            ]
        )

    # G and G @ G, built on first use and read-only: a synthesis family scans
    # one generator over hundreds of times, so rodrigues_exp reuses them
    @cached_property
    def _matrix(self) -> np.ndarray:
        return _read_only(self.matrix())

    @cached_property
    def _square(self) -> np.ndarray:
        return _read_only(self._matrix @ self._matrix)

    def axis(self) -> np.ndarray:
        """Rotation axis scaled by the angular rate."""
        return np.array([self.m2, -self.m3, self.m1])

    @cached_property
    def rate(self) -> float:
        """Angular speed of exp(t*G), i.e. the Euclidean norm of the axis."""
        return math.sqrt(self.m1 * self.m1 + self.m2 * self.m2 + self.m3 * self.m3)

    def apply(self, v) -> np.ndarray:
        x, y, z = float(v[0]), float(v[1]), float(v[2])
        return np.array(
            [
                -self.m1 * y - self.m3 * z,
                self.m1 * x - self.m2 * z,
                self.m3 * x + self.m2 * y,
            ]
        )


def generator(u1: float, u2: float, alpha: float) -> SkewGenerator:
    """Right-hand-side generator of the reduced dynamics for constant controls.

    Args:
        u1: coupling of levels one and two, in [-1, 1] for bang arcs.
        u2: coupling of levels two and three.
        alpha: nonisotropy factor scaling the second coupling.

    Returns:
        The skew matrix with (2,1)-entry ``u1`` and (3,2)-entry ``alpha*u2``.

    Raises:
        DomainError: unless alpha is finite and positive and both entries finite.
    """
    require("nonisotropy factor", alpha)
    require("control u1", u1, -math.inf)
    require("control u2", u2, -math.inf)
    return SkewGenerator(float(u1), float(alpha) * float(u2), 0.0)


def _exp_coeffs(rate: float, t: float) -> tuple[float, float]:
    """Coefficients (a, b) of exp(tG) = I + a*G + b*G^2 for |axis| = rate."""
    theta = rate * t
    th2 = theta * theta
    if abs(theta) < tol.ROTATION_SERIES_ANGLE:
        # series for sin(theta)/theta and (1-cos(theta))/theta^2 to avoid
        # cancellation at small angles
        a = t * (1.0 - th2 / 6.0 * (1.0 - th2 / 20.0))
        b = 0.5 * t * t * (1.0 - th2 / 12.0 * (1.0 - th2 / 30.0))
    else:
        a = math.sin(theta) / rate
        b = (1.0 - math.cos(theta)) / (rate * rate)
    return a, b


def rodrigues_exp(g: SkewGenerator, t: float) -> np.ndarray:
    """Exact matrix exponential exp(t*G) of a skew generator, as a 3x3 array.

    The matrix is a rotation by construction, so the guard is on the
    scalars, not on the product: with t^2, rate^2 and rate*t finite,
    |a| <= |t| and |b| <= t^2/2, every entry is finite, and orthogonality
    and det = 1 hold to rounding (2.2e-15 at most over 1e5 draws), far
    inside ``tol.STRUCTURAL``.

    Raises:
        DomainError: when t^2, rate^2 or rate*t is not finite.
    """
    rate = g.rate
    if not (math.isfinite(t * t) and math.isfinite(rate * rate) and math.isfinite(rate * t)):
        raise DomainError(f"rotation needs finite t^2, rate^2 and rate*t, got {rate!r}, {t!r}")
    a, b = _exp_coeffs(rate, t)
    return _EYE + a * g._matrix + b * g._square


def arc_form(g: SkewGenerator, p: np.ndarray) -> tuple:
    """The circle that exp(t*G) p traces, for a generator of rate w > 0.

    Returns (w, A, B, C, rows) with exp(t*G) p = A + B*cos(w t) + C*sin(w t)
    for vectors A (the centre, on the axis), B and C, and per component i
    its row (a0, r, phi) = (A[i], hypot(B[i], C[i]), atan2(C[i], B[i])), so
    that component is a0 + r*cos(w t - phi).

    Raises:
        DomainError: when the rate is not positive (the circle is a point),
            or when p is not a finite 3-vector.
    """
    w = g.rate
    if not w > 0.0:
        raise DomainError(f"the circle of an arc needs a positive rate, got {w!r}")
    p = _vector3("arc start point", p)
    gp = g.apply(p)
    ggp = g.apply(gp) / (w * w)
    A, B, C = p + ggp, -ggp, gp / w
    return w, A, B, C, [(a0, math.hypot(b, c), math.atan2(c, b)) for a0, b, c in zip(A, B, C)]


def bracket(g1: SkewGenerator, g2: SkewGenerator) -> SkewGenerator:
    """Matrix commutator G1*G2 - G2*G1, returned as a skew generator.

    Overflow and inf - inf in the products are left to ``SkewGenerator``'s
    finiteness check rather than surfacing as numpy warnings.

    Raises:
        DomainError: when an entry of the commutator is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = g1._matrix @ g2._matrix - g2._matrix @ g1._matrix
    return SkewGenerator(float(c[1, 0]), float(c[2, 1]), float(c[2, 0]))
