"""Minimum-energy synthesis: elliptic extremal controls, the dichotomy and
the closed-form shooting root.

Energy-optimal extremals from the source are indexed by a single shooting
parameter, the initial value m3(0) of the third adjoint component.  Their
controls are Jacobi elliptic functions whose regime depends on where m3(0)
sits relative to the critical value sqrt((1-alpha^2)/alpha^2).  The extremal
reaching the target is found two ways.  ``solve_m3`` runs a dichotomy on RK4
trajectories: too large an m3(0) leaves the octant through the psi2 = 0
face, too small through psi1 = 0.  ``shooting_root`` solves the closed-form
condition that the adjoint angle turns by pi up to the transfer time, one
equation in Carlson's R_F and R_J; ``energy_sweep`` centres its spread on
that root.

Controls are expressed in the rescaled coordinates (v1, v2) = (u1, alpha*u2)
in which the energy cost reads v1^2 + v2^2/alpha^2; arclength normalization
makes that integrand identically one, so energy equals transfer time.
Each regime's control closure is written once and evaluated through
``sncndn`` for a float time or ``sncndn_bulk`` for an array of times, and
the quarter period K(k')/rate once, on ``EnergyExtremal``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .elliptic import carlson_rf, carlson_rj, complete_k_comp, sncndn, sncndn_bulk
from .errors import BracketError, DomainError, RegimeError, require, require_count
from .integrator import ExitFace, Trajectory, first_exit, integrate
from .oracle import bisect_root, quadrature
from .so3 import SOURCE, TARGET


class Regime(enum.Enum):
    ZERO = "zero"
    SUB_CRITICAL = "sub-critical"
    CRITICAL = "critical"
    SUPER_CRITICAL = "super-critical"
    ALPHA_ABOVE_ONE = "alpha-above-one"


def classify(alpha: float, m3_0: float) -> Regime:
    """Regime of the extremal with shooting parameter m3_0.

    The critical window is a few float spacings wide on m3_0^2: only
    parameters indistinguishable from the critical value in double precision
    are routed to the hyperbolic forms.  For strongly nonisotropic factors
    the target-reaching parameter sits an exponentially small distance above
    the critical value, so any wider window would swallow it.
    """
    require("nonisotropy factor", alpha)
    require("shooting parameter", m3_0, closed=True)
    if m3_0 == 0.0:
        return Regime.ZERO
    if alpha > 1.0:
        return Regime.ALPHA_ABOVE_ONE
    crit = (1.0 - alpha * alpha) / (alpha * alpha)
    window = tol.CRITICAL_WINDOW_ULPS * np.finfo(float).eps * max(
        m3_0 * m3_0, crit, 1.0
    )
    if abs(m3_0 * m3_0 - crit) < window:
        return Regime.CRITICAL
    if m3_0 * m3_0 < crit:
        return Regime.SUB_CRITICAL
    return Regime.SUPER_CRITICAL


@dataclass(frozen=True)
class EnergyExtremal:
    """An energy extremal indexed by (alpha, m3(0)), with the regime, the elliptic
    modulus k, its complement k' = sqrt(1 - k^2) and the argument rate (controls
    are evaluated at rate * t) that follow from them."""

    alpha: float
    m3_0: float
    regime: Regime = field(init=False)
    modulus: float = field(init=False)
    comodulus: float = field(init=False)
    rate: float = field(init=False)

    def __post_init__(self):
        regime = classify(self.alpha, self.m3_0)
        a, m = self.alpha, self.m3_0
        # k_prime (the complementary modulus) is kept separately: computing
        # sqrt(1 - k^2) from a k rounded to 1.0 would destroy the control
        # amplitudes that the formulas below scale by it
        if regime is Regime.SUB_CRITICAL:
            mc = math.sqrt(1.0 - a * a) / a  # critical shooting parameter
            k = a * m / math.sqrt(1.0 - a * a)
            kp = math.sqrt((mc - m) * (mc + m)) / mc
            rate = math.sqrt(1.0 - a * a)
        elif regime is Regime.CRITICAL:  # only for alpha <= 1
            k, kp = 1.0, 0.0
            rate = math.sqrt(1.0 - a * a)
        elif regime is Regime.SUPER_CRITICAL:
            mc = math.sqrt(1.0 - a * a) / a
            k = math.sqrt(1.0 - a * a) / (a * m)
            kp = math.sqrt((m - mc) * (m + mc)) / m
            rate = a * m
        elif regime is Regime.ALPHA_ABOVE_ONE:
            den = math.sqrt(a * a * m * m + a * a - 1.0)
            k = math.sqrt(a * a - 1.0) / den
            kp = a * m / den
            rate = den  # sqrt(alpha^2-1)/k without the roundtrip through k
        else:
            k, kp = 0.0, 1.0
            rate = 0.0
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "modulus", k)
        object.__setattr__(self, "comodulus", kp)
        object.__setattr__(self, "rate", rate)

    @property
    def half_period(self) -> float:
        """Half period of v1, past which v1 stops decreasing (inf if aperiodic)."""
        if self.regime is Regime.SUB_CRITICAL:
            return self._quarter_period  # dn has period 2K
        return 2.0 * self._quarter_period  # cn and cd have period 4K

    @cached_property
    def _quarter_period(self) -> float:
        """K(k')/rate: the quarter period of sn in time (inf if aperiodic).

        K is evaluated through the complementary modulus, which survives
        where k itself rounds to one; inf also where k' underflows to 0.
        """
        if self.regime in (Regime.ZERO, Regime.CRITICAL) or self.comodulus <= 0.0:
            return math.inf
        return complete_k_comp(self.comodulus) / self.rate


def controls_at(e: EnergyExtremal, t: float) -> tuple[float, float, float]:
    """The closed-form extremal (v1, v2, m3) at a finite time t.

    The zero and critical regimes take the sub-critical ``dn`` form at
    modulus 0 and 1, where ``sncndn`` and ``sncndn_bulk`` are exactly
    (sin, cos, 1) and (tanh, sech, sech).
    """
    require("time t", t, -math.inf)
    a, m = e.alpha, e.m3_0
    reg, k, rate = e.regime, e.modulus, e.rate
    sn, cn, dn = sncndn(rate * t, k)
    if reg is Regime.SUPER_CRITICAL:
        return cn, a * sn, m * dn
    if reg is Regime.ALPHA_ABOVE_ONE:
        return cn / dn, a * e.comodulus * (sn / dn), m * (1.0 / dn)
    return dn, a * k * sn, m * cn


def _regime_control(e: EnergyExtremal, kernel):
    """The regime's closure t -> (u1, u2), evaluated through ``kernel``.

    ``kernel`` is ``sncndn`` for a float t or ``sncndn_bulk`` for an array
    of times; both take the same products and quotients of (sn, cn, dn), so
    the array closure equals the float one element by element, bit for bit.
    The zero and critical regimes share the sub-critical closure (see
    ``controls_at``).
    """
    reg, k, rate = e.regime, e.modulus, e.rate
    if reg is Regime.SUPER_CRITICAL:

        def ctrl_p(t, _f=kernel, _r=rate, _k=k):
            sn, cn, _ = _f(_r * t, _k)
            return cn, sn

        return ctrl_p
    if reg is Regime.ALPHA_ABOVE_ONE:

        def ctrl_a(t, _f=kernel, _r=rate, _k=k, _w=e.comodulus):
            sn, cn, dn = _f(_r * t, _k)
            return cn / dn, _w * (sn / dn)

        return ctrl_a

    def ctrl_s(t, _f=kernel, _r=rate, _k=k):
        sn, _, dn = _f(_r * t, _k)
        return dn, _k * sn

    return ctrl_s


def extremal_control(e: EnergyExtremal):
    """Fast closure t -> (u1, u2) for integrators, in the unscaled controls.

    The closure binds this module's ``sncndn`` when it is made, so a wrapper
    installed on the module namespace beforehand sees every evaluation.
    """
    return _regime_control(e, sncndn)


def extremal_control_bulk(e: EnergyExtremal):
    """Array twin of ``extremal_control`` over ``sncndn_bulk``, equal to it bit for bit."""
    return _regime_control(e, sncndn_bulk)


def transfer_time(alpha: float, m3_0: float) -> float:
    """Time at which the extremal reaches the target: the first zero of v1.

    Only extremals whose v1 actually vanishes have one: the super-critical
    regime (including alpha = 1) and every extremal above alpha = 1.  Below
    one the value is K(k)/(alpha*m3(0)); above one it is
    K(k)/sqrt(alpha^2 m3(0)^2 + alpha^2 - 1), placing the first zero of the
    quotient function at the complete integral K.  K is evaluated through
    the complementary modulus, which survives where k itself rounds to one.
    """
    e = EnergyExtremal(alpha, m3_0)
    if e.regime in (Regime.SUPER_CRITICAL, Regime.ALPHA_ABOVE_ONE):
        return e._quarter_period
    raise RegimeError(f"v1 has no zero in regime {e.regime.value}; no transfer time")


def m3_bounds(alpha: float) -> tuple[float, float]:
    """A priori bracket (lower exclusive, upper inclusive) for the solved m3(0)."""
    require("nonisotropy factor", alpha)
    if alpha <= 1.0:
        lower = math.sqrt(1.0 - alpha * alpha) / alpha
        upper = math.sqrt(4.0 / (3.0 * alpha * alpha) - 1.0)
        return lower, upper
    return 0.0, 1.0 / math.sqrt(3.0)


def energy_cost(e: EnergyExtremal, T: float) -> float:
    """Laser energy spent up to time T, by adaptive quadrature.

    Arclength normalization makes the integrand identically one, so the
    result equals T; computing it by quadrature keeps the check honest.
    """
    if T < 0.0:
        raise DomainError("time must be >= 0")
    if T == 0.0:
        return 0.0
    a2 = e.alpha * e.alpha

    def integrand(t):
        v1, v2, _ = controls_at(e, t)
        return v1 * v1 + v2 * v2 / a2

    return quadrature(integrand, 0.0, T, tol.ENERGY_QUADRATURE)


def _moduli(s: float) -> tuple[float, float]:
    """(k', k) with k'/k = e^s and k'^2 + k^2 = 1, each to full relative
    accuracy: the smaller one is e^-|s| times the larger, 1/hypot(1, e^-|s|)."""
    t = math.exp(-abs(s))
    big = 1.0 / math.hypot(1.0, t)
    return (big, t * big) if s > 0.0 else (t * big, big)


def shooting_root(alpha: float) -> tuple[float, float, float]:
    """(k', m3(0), T) of the target-reaching extremal, from the closed form.

    The adjoint angle turns by pi up to the transfer time T.  With
    b = min(alpha, 1/alpha) and w^2 = 1 - b^2,

        theta(T) = b hypot(k/w, k') [R_F(0, k'^2, 1) + k'^2 w^2/3 R_J(0, k'^2, 1, k'^2 b^2)]

    and T = R_F(0, k'^2, 1)/rate, rate = sqrt|1 - alpha^2|/k.  Above one this
    is the formula derived in ``tests/data/make_references.py``.  Below one
    that formula's third-kind integral has the characteristic
    n = 1 - alpha^-2 < 0, and its R_F and R_J terms cancel (by a factor ~14
    at alpha 0.2); the change of characteristic n -> (k^2 - n)/(1 - n)
    (DLMF §19.7(iii), complete case) turns it into the sum of positive terms
    above, which also shows k'(alpha) = k'(1/alpha).

    theta(T) = pi is bisected by ``oracle.bisect_root`` in s = ln(k'/k),
    which keeps both k (small as alpha -> 1) and k' (small at strong
    nonisotropy) to full relative accuracy.  The upper end is the a
    priori bound of ``m3_bounds`` plus ``SHOOT_ROOT_MARGIN``; the lower end
    lies ``SHOOT_ROOT_SLOPE / b`` below it (ln k' of the root falls like
    -pi/(2b)).  At alpha = 1 it returns (1, 1/sqrt(3), sqrt(3) pi/2), each
    the double nearest its value.

    For now two routines compute the same m3(0): this one and ``solve_m3``,
    whose RK4 dichotomy differs from it by the dichotomy's error (A05 bounds
    the distance).  The overlap ends when ``solve_m3`` returns this root's
    m3(0) and keeps the RK4 only as the independent check.

    Raises:
        DomainError: alpha is not a finite positive real.
        BracketError: theta(T) - pi does not change sign on the bracket, as
            when the root's k'^2 would leave the normal float range (alpha
            below about 0.0067 or above about 150).
    """
    require("nonisotropy factor", alpha)
    if alpha == 1.0:  # sqrt(3)/3 is the double nearest 1/sqrt(3); 1/sqrt(3.0) is not
        return 1.0, math.sqrt(3.0) / 3.0, math.sqrt(3.0) * math.pi / 2.0
    b = min(alpha, 1.0 / alpha)
    w = math.sqrt((1.0 - b) * (1.0 + b))

    def excess(s: float) -> float:  # theta(T) - pi
        kp, k = _moduli(s)
        kp2 = kp * kp
        third = kp2 * w * w / 3.0 * carlson_rj(0.0, kp2, 1.0, kp2 * b * b)
        return b * math.hypot(k / w, kp) * (carlson_rf(0.0, kp2, 1.0) + third) - math.pi

    s_hi = tol.SHOOT_ROOT_MARGIN - math.log(math.sqrt(3.0) * w)
    s_lo = s_hi - tol.SHOOT_ROOT_SLOPE / b
    if s_lo < tol.SHOOT_ROOT_FLOOR:
        raise BracketError(f"the shooting root for alpha={alpha} lies below the float range of k'")
    if not excess(s_lo) > 0.0 > excess(s_hi):
        raise BracketError(f"theta(T) - pi does not change sign on the bracket for alpha={alpha}")
    kp, k = _moduli(bisect_root(excess, s_lo, s_hi, tol.SHOOT_ROOT_WIDTH))
    rate = w * max(alpha, 1.0) / k
    m3 = rate / alpha if alpha < 1.0 else kp * rate / alpha
    return kp, m3, carlson_rf(0.0, kp * kp, 1.0) / rate


def _horizon(e: EnergyExtremal) -> float:
    base = math.sqrt(3.0) * math.pi / 2.0 * max(1.0, 1.0 / e.alpha)
    q = e._quarter_period  # inf in the zero and critical regimes
    if q < math.inf or e.regime in (Regime.SUPER_CRITICAL, Regime.ALPHA_ABOVE_ONE):
        scale = q
    elif e.regime is Regime.CRITICAL and e.rate > 0.0:
        scale = 25.0 / e.rate
    else:
        scale = math.pi
    return 10.0 * max(base, min(scale, 100.0 * base))


def _exit_event(alpha: float, m3_0: float, h: float):
    e = EnergyExtremal(alpha, m3_0)
    face, t_exit, state = first_exit(
        SOURCE, extremal_control(e), alpha, _horizon(e), h
    )
    if float(np.linalg.norm(state - TARGET.as_array())) < tol.TARGET_BALL:
        face = ExitFace.TARGET
    return face, t_exit, state


def transfer_endpoint(alpha: float, m3_0: float) -> np.ndarray:
    """State of the extremal at its transfer time (the first zero of v1).

    Near the solved shooting parameter the exit point slides along the
    boundary with cube-root sensitivity, so accuracy statements are made
    here, at the fixed transfer time, where the dependence on m3(0) is
    smooth.  The RK4 step is ``SHOOT_STEP``.
    """
    e = EnergyExtremal(alpha, m3_0)
    T = transfer_time(alpha, m3_0)
    if not math.isfinite(T):
        raise DomainError("transfer time is not finite for this shooting parameter")
    traj = integrate(SOURCE, extremal_control(e), alpha, T, tol.SHOOT_STEP, record_every=10**9)
    return traj.endpoint


def exit_face(alpha: float, m3_0: float) -> ExitFace:
    """Which octant face the extremal crosses first (or TARGET at the corner).

    The state is integrated under the closed-form controls and the crossing
    is located by sign-change bracketing plus time bisection, never by
    interpolating components, so the classification stays robust near the
    target corner.  The RK4 step is ``SHOOT_STEP``.
    """
    face, _, _ = _exit_event(alpha, m3_0, tol.SHOOT_STEP)
    return face


def solve_m3(alpha: float, tol_m3: float = 1e-8) -> float:
    """Dichotomy for the shooting parameter of the target-reaching extremal.

    Shrinks the a priori bracket toward larger values when the trajectory
    leaves through psi1 = 0 and smaller when through psi2 = 0, until the
    bracket is narrower than tol_m3, then polishes on the transfer-time
    endpoint until it misses the target by less than 10*tol_m3 (or float
    resolution is reached; for extreme factors the solution sits an
    exponentially thin layer above the lower bound, which is why the
    bisection runs on the logarithm of the distance to it).

    Near convergence the trajectories are integrated with the RK4 step
    ``SHOOT_STEP``; brackets wider than ``SHOOT_COARSE_WIDTH`` use the step
    ``SHOOT_COARSE_STEP``.

    Args:
        alpha: nonisotropy factor.
        tol_m3: bracket-width tolerance on m3(0).

    Raises:
        BracketError: when the a priori bounds do not straddle the solution,
            or when the best transfer endpoint found misses the target by
            more than ``SHOOT_MISS_LIMIT``.
    """
    require("tolerance", tol_m3)
    h, coarse_h = tol.SHOOT_STEP, tol.SHOOT_COARSE_STEP
    lo_bound, hi_bound = m3_bounds(alpha)
    floor = lo_bound
    eps = float(np.finfo(float).eps)
    # gap coordinates g = m3 - floor, bisected on ln(g)
    g_hi = hi_bound - floor
    g_lo = 8.0 * eps * floor if floor > 0.0 else 1e-250

    face_hi, _, _ = _exit_event(alpha, floor + g_hi, h)
    if face_hi is ExitFace.TARGET:
        return hi_bound
    face_lo, _, _ = _exit_event(alpha, floor + g_lo, coarse_h)
    if face_lo is face_hi:
        raise BracketError(
            f"exit faces agree at both bracket ends for alpha={alpha}: {face_lo.value}"
        )
    if face_lo is ExitFace.PSI2 or face_hi is ExitFace.PSI1:
        raise BracketError(
            f"bracket ends are inverted for alpha={alpha}; bounds do not straddle"
        )

    x_lo, x_hi = math.log(g_lo), math.log(g_hi)

    def width(a: float, b: float) -> float:
        return math.exp(b) - math.exp(a)

    while width(x_lo, x_hi) >= tol_m3:
        if width(x_lo, x_hi) < 8.0 * eps * max(floor, math.exp(x_hi)):
            break  # float resolution of the bracket
        x_mid = 0.5 * (x_lo + x_hi)
        hh = coarse_h if width(x_lo, x_hi) > tol.SHOOT_COARSE_WIDTH else h
        face, _, _ = _exit_event(alpha, floor + math.exp(x_mid), hh)
        if face is ExitFace.TARGET:
            return floor + math.exp(x_mid)
        if face is ExitFace.PSI1:
            x_lo = x_mid
        else:
            x_hi = x_mid

    # polish on the transfer-time endpoint: the second component of
    # psi(T(m3)) crosses zero at the solution and varies smoothly and
    # steeply with m3, unlike the exit point, whose corner sensitivity is
    # cube-root and noise-limited
    target = TARGET.as_array()
    best: tuple[float, float] | None = None  # (miss, m3)

    def endpoint_gap(x: float) -> tuple[float, float] | None:
        nonlocal best
        m = floor + math.exp(x)
        try:
            ep = transfer_endpoint(alpha, m)
        except (DomainError, RegimeError):
            return None
        miss = float(np.linalg.norm(ep - target))
        if best is None or miss < best[0]:
            best = (miss, m)
        return float(ep[1]), miss

    def finish() -> float:
        if best is None or best[0] > tol.SHOOT_MISS_LIMIT:
            raise BracketError(
                f"the shooting parameter for alpha={alpha} is not resolvable "
                "in double precision (best transfer-endpoint miss "
                f"{best[0] if best else math.nan:.3g})"
            )
        return best[1]

    g_end_lo = endpoint_gap(x_lo)
    g_end_hi = endpoint_gap(x_hi)
    if g_end_lo is None or g_end_hi is None:
        return finish()
    if min(g_end_lo[1], g_end_hi[1]) < 10.0 * tol_m3:
        return finish()

    # the face dichotomy carries a small dead-band bias; widen until the
    # endpoint gap changes sign across the bracket
    x_min = math.log(g_lo)
    x_max = math.log(g_hi)
    step = max(x_hi - x_lo, 0.05)
    for _ in range(8):
        if (g_end_lo[0] < 0.0) != (g_end_hi[0] < 0.0):
            break
        step *= 4.0
        x_lo2 = max(x_min, x_lo - step)
        x_hi2 = min(x_max, x_hi + step)
        g_end_lo2 = endpoint_gap(x_lo2)
        g_end_hi2 = endpoint_gap(x_hi2)
        if g_end_lo2 is None or g_end_hi2 is None:
            return finish()
        x_lo, g_end_lo, x_hi, g_end_hi = x_lo2, g_end_lo2, x_hi2, g_end_hi2
    if (g_end_lo[0] < 0.0) == (g_end_hi[0] < 0.0):
        return finish()

    s_lo = g_end_lo[0]
    for _ in range(80):
        xm = 0.5 * (x_lo + x_hi)
        got = endpoint_gap(xm)
        if got is None:
            break
        s_mid, miss = got
        if miss < 10.0 * tol_m3:
            break
        if (s_mid < 0.0) == (s_lo < 0.0):
            x_lo, s_lo = xm, s_mid
        else:
            x_hi = xm
        if width(x_lo, x_hi) < 4.0 * eps * max(floor, 1.0):
            break
    return finish()


def energy_sweep(alpha: float, n: int, samples: int) -> list[tuple[float, Trajectory]]:
    """Extremals from the source over a spread of m3(0), run to octant exit.

    The n shooting parameters are spread log-uniformly over a factor e^3 on
    either side of the target-reaching one, the closed-form root of
    ``shooting_root``; each trajectory is integrated to its first boundary
    crossing and holds about ``samples`` samples.

    Returns:
        (m3(0), trajectory) pairs in increasing m3(0).
    """
    require_count("energy_sweep count n", n)
    require_count("energy_sweep samples", samples)
    h = tol.SWEEP_STEP
    m3_star = shooting_root(alpha)[1]
    out = []
    for i in range(n):
        m3 = m3_star * math.exp(3.0 * (2.0 * ((i + 0.5) / n) - 1.0))
        e = EnergyExtremal(alpha, m3)
        ctrl, bulk = extremal_control(e), extremal_control_bulk(e)
        _, t_exit, _ = first_exit(SOURCE, ctrl, alpha, _horizon(e), h, bulk_control=bulk)
        every = max(1, math.ceil(t_exit / h / samples))
        traj = integrate(
            SOURCE, ctrl, alpha, t_exit, h, record_every=every, bulk_control=bulk
        )
        out.append((m3, traj))
    return out
