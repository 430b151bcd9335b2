"""Jacobi elliptic functions sn, cn, dn, the complete elliptic integral K and
Carlson's symmetric integrals R_F and R_J.

Modulus convention
------------------
Every function here takes the *modulus* ``k``, not the *parameter*
``m = k**2``.  Libraries disagree on this point (SciPy's ``ellipj`` takes
``m``), so it is worth stating prominently: here ``K(0.5)`` means the
quarter period at modulus one half.

The evaluation uses the descending Landen transformation driven by the
arithmetic-geometric mean, which is uniformly accurate across the modulus
range; the iteration stops once the AGM gap falls below 1e-15.  Moduli within
1e-10 of 0 are routed to the trigonometric closed forms; the hyperbolic route
at k = 1 only engages within a few float ulps, because the Landen chain stays
accurate essentially up to float resolution there and downstream solvers
genuinely operate that close to the degenerate modulus.

``sncndn`` is the one evaluation kernel and the one scalar entry point; it
returns a plain tuple, since integrators call it three times per RK4 step.
It keeps its last Landen result: on a uniform step grid the last RK4 stage
of one step and the first stage of the next ask for the same argument, and
an equal ``(u, k)`` returns the stored tuple.  The AGM chains of the two
Jacobi kernels are kept per modulus in a bounded table.

``sncndn_bulk`` is its array twin for every modulus, used where a whole grid
of arguments is known at once.  It takes the same branches and equals
``sncndn`` element by element, bit for bit, by construction: the sines,
cosines and hyperbolic functions come from the same ``math`` functions,
called per element, and numpy does only the correctly rounded ``+ - * /``
and ``sqrt`` of the scalar path, in its order (and the exact ``copysign``
for its sign test).  numpy's own transcendental ufuncs are not used: they
are not required to match ``math`` (``np.tanh`` and ``np.cosh`` differ from
it on 20 % and 24 % of uniform arguments in [-20, 20], numpy 2.4 on x86-64).

``carlson_rf`` and ``carlson_rj`` evaluate R_F and R_J by Carlson's
duplication (DLMF 19.36.1; Carlson, Numer. Algorithms 10, 1995) on plain
floats; the closed-form shooting root of ``min_energy`` is written in them.
"""

from __future__ import annotations

import math
from math import cos, cosh, exp, isfinite, sin, sqrt, tanh

import numpy as np

from . import tolerances as tol
from .errors import DomainError, require, require_reals

_MAX_AGM_ITER = 24
_DEGENERATE = tol.ELLIPTIC_DEGENERATE
_DEGENERATE_ONE = tol.ELLIPTIC_DEGENERATE_ONE
_SN_FLOOR = tol.LANDEN_SN_FLOOR

# AGM chains by modulus, insertion-ordered; a solve or sweep visits a few
# dozen moduli, and the bound keeps a long run's memory flat
_CHAIN_CACHE = 256
_CHAINS: dict[float, tuple[float, tuple[tuple[float, float], ...]]] = {}

# the last Landen evaluation as one (u, k, (sn, cn, dn)) tuple, replaced
# whole so that a reader never pairs one call's (u, k) with another's values
_last: tuple = (math.nan, math.nan, (math.nan, math.nan, math.nan))


def _agm(kp: float) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """The arithmetic-geometric mean chain of (1, kp), shared by K and sncndn.

    Returns (c, a, b): the means a_i and b_i up to the first pair within
    AGM_GAP of each other, and c = (a_N + b_N)/2 one step past it.
    K(k) = pi/(2 a_N) (DLMF 19.8.5); c scales the Landen recurrence.
    """
    a, b = 1.0, kp
    em, en = [], []
    for _ in range(_MAX_AGM_ITER):
        em.append(a)
        en.append(b)
        if abs(a - b) <= tol.AGM_GAP * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b), tuple(em), tuple(en)


def _landen_chain(k: float) -> tuple[float, tuple[tuple[float, float], ...]]:
    """The AGM chain at modulus k, kept per modulus: sncndn reuses it.

    Returns (c, chain): the scale c of ``_agm`` and the pairs (a_i, b_i) in
    reverse order, as the backward Landen recurrence walks them; chain[0][0]
    is a_N.  At most ``_CHAIN_CACHE`` moduli are kept; the oldest goes first.
    """
    entry = _CHAINS.get(k)
    if entry is None:
        scale, em, en = _agm(math.sqrt((1.0 - k) * (1.0 + k)))
        entry = scale, tuple(zip(reversed(em), reversed(en)))
        if len(_CHAINS) >= _CHAIN_CACHE:
            del _CHAINS[next(iter(_CHAINS))]
        _CHAINS[k] = entry
    return entry


def complete_k(k: float) -> float:
    """Complete elliptic integral K(k) by the arithmetic-geometric mean.

    K(k) is the quarter period of the Jacobi functions, sn(K; k) = 1: the
    integral of 1/sqrt(1 - k^2 sin^2 s) over [0, pi/2], for a modulus
    0 <= k < 1 (it diverges as k -> 1).  It is ``complete_k_comp`` at
    k' = sqrt((1 - k)(1 + k)), the same AGM.
    """
    if not (0.0 <= k < 1.0):
        raise DomainError(f"complete_k requires 0 <= k < 1, got {k!r}")
    return complete_k_comp(sqrt((1.0 - k) * (1.0 + k)))


def complete_k_comp(kp: float) -> float:
    """K expressed through the complementary modulus kp = sqrt(1 - k^2).

    Equivalent to complete_k(sqrt(1 - kp^2)) but keeps full precision when k
    is too close to one for the difference to survive a round trip through k.
    """
    if not (0.0 < kp <= 1.0):
        raise DomainError(f"complete_k_comp requires 0 < kp <= 1, got {kp!r}")
    return math.pi / (2.0 * _agm(kp)[1][-1])


# Carlson's stopping rule: duplicate until 4^-m Q < |A_m|, where Q is the
# spread of the arguments about their mean scaled by these factors; the
# truncated series then errs by less than CARLSON_DUPLICATION, relative
_RF_SCALE = (3.0 * tol.CARLSON_DUPLICATION) ** (-1.0 / 6.0)
_RJ_SCALE = (0.25 * tol.CARLSON_DUPLICATION) ** (-1.0 / 6.0)


def _carlson_args(name: str, x: float, y: float, z: float) -> None:
    for v in (x, y, z):
        require(f"{name} argument", v, closed=True)
    if (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise DomainError(f"{name} takes at most one zero among x, y, z, got {(x, y, z)!r}")


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F(x, y, z) by duplication (DLMF 19.36.1).

    R_F = 1/2 int_0^inf dt / sqrt((t + x)(t + y)(t + z)), for finite
    x, y, z >= 0 of which at most one is zero; K(k) = R_F(0, k'^2, 1).
    Pure Python floats, no numpy.
    """
    _carlson_args("R_F", x, y, z)
    x0, y0 = x, y
    a0 = a = (x + y + z) / 3.0
    q = _RF_SCALE * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    f = 1.0  # 4^-m
    while f * q >= a:
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        f *= 0.25
    X = (a0 - x0) * f / a
    Y = (a0 - y0) * f / a
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(a)


def _rc_one(e: float, sp: float, roots: tuple[float, float, float]) -> float:
    """R_C(1, 1 + e) for e > -1 (DLMF §19.2(iv)): atan(sqrt e)/sqrt e above
    zero, atanh(sqrt -e)/sqrt -e below.  The acos form of R_C loses digits
    to cancellation as e -> 0.

    Here e = prod (p - x)/(sqrt p + sqrt x)^2 over the three arguments x of
    a duplication step, ``roots`` holds their square roots and sp = sqrt p.
    Near e = -1 (p far below every other argument) 1 + e is taken from the
    ratios m = min/max of sp and each root, as
    2 (m1 + m2 + m3 + m1 m2 m3) / prod (1 + m), a sum of positive terms,
    not by cancellation.
    """
    if e > 0.0:
        s = sqrt(e)
        return math.atan(s) / s
    if e == 0.0:
        return 1.0
    s = sqrt(-e)
    if e > -0.5:
        return math.atanh(s) / s
    m1, m2, m3 = (min(sp, r) / max(sp, r) for r in roots)
    g = 2.0 * (m1 + m2 + m3 + m1 * m2 * m3) / ((1.0 + m1) * (1.0 + m2) * (1.0 + m3))
    return (math.log1p(s) - 0.5 * math.log(g)) / s  # atanh(s), with 1 - s^2 = g


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson's symmetric integral R_J(x, y, z, p) by duplication (DLMF 19.36.1).

    R_J = 3/2 int_0^inf dt / ((t + p) sqrt((t + x)(t + y)(t + z))), for
    finite x, y, z >= 0 of which at most one is zero, and finite p > 0.
    Pure Python floats, no numpy.  Each step's R_C argument
    e_m = 4^-3m (p - x)(p - y)(p - z) / d_m^2 is formed as the product of the
    three ratios (p_m - x_m) / (sqrt p_m + sqrt x_m)^2, each at most one in
    size, so it does not underflow where x, y and p are all tiny but their
    ratios are not (p = k'^2 b^2 of the shooting root).
    """
    _carlson_args("R_J", x, y, z)
    require("R_J argument p", p)
    x0, y0, z0 = x, y, z
    dx, dy, dz = p - x, p - y, p - z  # 4^m (p_m - x_m), fixed by duplication
    a0 = a = (x + y + z + 2.0 * p) / 5.0
    q = _RJ_SCALE * max(abs(a0 - x), abs(a0 - y), abs(a0 - z), abs(a0 - p))
    f, total = 1.0, 0.0
    while f * q >= a:
        sx, sy, sz, sp = sqrt(x), sqrt(y), sqrt(z), sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        px, py, pz = sp + sx, sp + sy, sp + sz
        e = (f * dx / (px * px)) * (f * dy / (py * py)) * (f * dz / (pz * pz))
        total += f / (px * py * pz) * _rc_one(e, sp, (sx, sy, sz))
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        p, a = 0.25 * (p + lam), 0.25 * (a + lam)
        f *= 0.25
    X = (a0 - x0) * f / a
    Y = (a0 - y0) * f / a
    Z = (a0 - z0) * f / a
    P = -0.5 * (X + Y + Z)
    xyz, pp = X * Y * Z, P * P
    e2 = X * Y + X * Z + Y * Z - 3.0 * pp
    e3 = xyz + 2.0 * e2 * P + 4.0 * pp * P
    e4 = (2.0 * xyz + e2 * P + 3.0 * pp * P) * P
    e5 = xyz * pp
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return f * series / (a * sqrt(a)) + 6.0 * total


def sncndn(u: float, k: float) -> tuple[float, float, float]:
    """Jacobi elliptic functions (sn, cn, dn) at argument u and modulus k.

    Args:
        u: real argument, finite.
        k: modulus, 0 <= k <= 1.

    Returns:
        The tuple (sn, cn, dn), with absolute accuracy around 1e-14 for k in
        [0, 0.999].
    """
    global _last
    last_u, last_k, last = _last
    if u == last_u and k == last_k:  # only validated Landen-path pairs are kept
        return last
    if not (0.0 <= k <= 1.0):
        raise DomainError(f"Jacobi functions require 0 <= k <= 1, got {k!r}")
    if not isfinite(u):
        raise DomainError("Jacobi function argument must be finite")
    if k < _DEGENERATE:
        return sin(u), cos(u), 1.0
    if 1.0 - k < _DEGENERATE_ONE:
        sech = _sech(u)
        return tanh(u), sech, sech

    entry = _CHAINS.get(k)
    scale, chain = _landen_chain(k) if entry is None else entry
    phase = u * scale
    sn = sin(phase)
    if -_SN_FLOOR < sn < _SN_FLOOR:
        # sn = u and cn = dn = 1 in double precision; the recurrence's
        # terms grow like 1/sn^2 and would overflow to nan.  Not memoized:
        # the value is u itself, and 0.0 == -0.0
        return u, 1.0, 1.0
    # backward Landen recurrence on the function values
    cn = cos(phase)
    dn = 1.0
    a = cn / sn
    c = scale * a
    for b, e in chain:
        a *= c
        c *= dn
        dn = (e + a) / (b + a)
        a = c / b
    a = 1.0 / sqrt(c * c + 1.0)
    sn = -a if sn < 0.0 else a
    last = sn, c * sn, dn
    _last = (u, k, last)
    return last


def sncndn_bulk(u, k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sncndn`` over a 1-d array of arguments, equal to it bit for bit.

    Args:
        u: 1-d array of finite real arguments.
        k: modulus, 0 <= k <= 1.

    Returns:
        Three float arrays (sn, cn, dn), each element equal to
        ``sncndn(u[i], k)`` and taken by the same branch.
    """
    if not (0.0 <= k <= 1.0):
        raise DomainError(f"Jacobi functions require 0 <= k <= 1, got {k!r}")
    u = require_reals("Jacobi function arguments", u)
    if k < _DEGENERATE:
        args = u.tolist()
        return _map(sin, args), _map(cos, args), np.ones(len(args))
    if 1.0 - k < _DEGENERATE_ONE:
        args = u.tolist()
        sech = _map(_sech, args)
        return _map(tanh, args), sech, sech
    scale, chain = _landen_chain(k)
    phase = (u * scale).tolist()
    sin_phase = _map(sin, phase)
    cn = _map(cos, phase)
    small = np.abs(sin_phase) < _SN_FLOOR
    if small.any():
        # sn = u and cn = dn = 1 there, as in the scalar kernel; the
        # recurrence would overflow to nan on these elements
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            sn, cn, dn = _landen_bulk(sin_phase, cn, scale, chain)
        return np.where(small, u, sn), np.where(small, 1.0, cn), np.where(small, 1.0, dn)
    return _landen_bulk(sin_phase, cn, scale, chain)


def _sech(u: float) -> float:
    """1 / cosh(u); past the overflow of cosh, near |u| = 710.48, it is
    2 exp(-|u|), which is sech to double precision there."""
    try:
        return 1.0 / cosh(u)
    except OverflowError:
        return 2.0 * exp(-abs(u))


def _map(f, xs: list) -> np.ndarray:
    """The ``math`` function f of each float of xs, as a float array."""
    return np.fromiter(map(f, xs), float, len(xs))


def _landen_bulk(sin_phase, cos_phase, scale, chain):
    """The backward Landen recurrence of ``sncndn``, one array operation per
    float operation, in the same order."""
    dn = 1.0
    a = cos_phase / sin_phase
    c = scale * a
    for b, e in chain:
        a *= c
        c *= dn
        dn = (e + a) / (b + a)
        a = c / b
    # sign(sn) = sign(sin(phase)), which is never zero here
    sn = np.copysign(1.0 / np.sqrt(c * c + 1.0), sin_phase)
    return sn, c * sn, dn
