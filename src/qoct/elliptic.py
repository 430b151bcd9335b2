"""Jacobi elliptic functions sn, cn, dn and the complete elliptic integral K.

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
"""

from __future__ import annotations

import math
from math import cos, cosh, exp, isfinite, sin, sqrt, tanh

import numpy as np

from . import tolerances as tol
from .errors import DomainError, require_reals

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
