"""Independent brute-force and quadrature oracles, and the one bisection.

The pulse search and the quadrature share no code with the closed-form
paths they check: the random pulse search propagates candidate laws exactly
and reports the fastest one that touches a small ball around the target, and
the adaptive Simpson rule provides an integral oracle for the elliptic
module and the energy cost.  ``bisect_root`` is the package's one scalar
root bisection, used by the time-optimal synthesis and the acceptance
criteria; the energy dichotomy and the integrator's exit location bisect on
exit faces and boundary crossings instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, QuadratureDepthError, require

_M64 = (1 << 64) - 1


class Splitmix64:
    """Deterministic counter-based pseudo-random stream (no platform entropy)."""

    def __init__(self, seed: int):
        self._state = seed & _M64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def below(self, n: int) -> int:
        return self.next_u64() % n


def quadrature(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson integration of f over [a, b] to absolute tolerance tol.

    Raises:
        QuadratureDepthError: past 60 recursion levels.
    """
    if tol <= 0.0:
        raise DomainError("quadrature tolerance must be positive")
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson(f, a, b, fa, fm, fb, whole, tol, 0)


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    if depth > 60:
        raise QuadratureDepthError("adaptive Simpson exceeded depth 60")
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1) + _simpson(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1
    )


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise DomainError("bisect_root requires a sign change on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# random pulse search
# ---------------------------------------------------------------------------

_CORNERS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


@dataclass(frozen=True)
class _Hit:
    time: float
    segments: tuple


def _arc_psi3(state, u1, u2, alpha):
    """Coefficients of psi3(t) = A + B*cos(w t) + C*sin(w t) along one arc."""
    x, y, z = state
    a2u2 = alpha * u2
    w2 = u1 * u1 + a2u2 * a2u2
    w = math.sqrt(w2)
    # G*state and G^2*state, third components
    g3 = a2u2 * y
    gg3 = a2u2 * (u1 * x - a2u2 * z)
    p, q, r = z, g3 / w, gg3 / w2
    return w, p + r, -r, q


def _arc_end(state, u1, u2, alpha, dur):
    x, y, z = state
    a2u2 = alpha * u2
    w2 = u1 * u1 + a2u2 * a2u2
    w = math.sqrt(w2)
    th = w * dur
    if th < 1e-9:
        s_c, c_c = dur, 0.5 * dur * dur
    else:
        s_c = math.sin(th) / w
        c_c = (1.0 - math.cos(th)) / w2
    gx, gy, gz = -u1 * y, u1 * x - a2u2 * z, a2u2 * y
    ggx, ggy, ggz = -u1 * gy, u1 * gx - a2u2 * gz, a2u2 * gy
    return (x + s_c * gx + c_c * ggx, y + s_c * gy + c_c * ggy, z + s_c * gz + c_c * ggz)


def _first_ball_peak(state, u1, u2, alpha, dur, z_min):
    """Earliest local maximum of psi3 on [0, dur] with psi3 >= z_min.

    Returns the refined peak time or None.  The peak is polished by bisecting
    the derivative sign change around the analytic candidate.
    """
    a2u2 = alpha * u2
    if u1 * u1 + a2u2 * a2u2 < 1e-24:
        return None  # no motion
    w, A, B, C = _arc_psi3(state, u1, u2, alpha)
    R = math.hypot(B, C)
    if A + R < z_min:
        return None

    def psi3(t):
        return A + B * math.cos(w * t) + C * math.sin(w * t)

    def dpsi3(t):
        return w * (-B * math.sin(w * t) + C * math.cos(w * t))

    # interior peaks at w*t = atan2(C, B) (mod 2*pi)
    phase = math.atan2(C, B)
    period = 2.0 * math.pi / w
    t_peak = phase / w
    while t_peak < 0.0:
        t_peak += period
    candidates = []
    t = t_peak
    while t <= dur:
        candidates.append(t)
        t += period
    if psi3(dur) >= z_min:
        candidates.append(dur)
    for t0 in sorted(candidates):
        if psi3(t0) < z_min:
            continue
        if t0 >= dur - 1e-15:
            return dur
        eps = min(1e-4 * period, 0.25 * (dur - t0), t0 if t0 > 0 else period)
        lo, hi = max(t0 - eps, 0.0), min(t0 + eps, dur)
        if dpsi3(lo) > 0.0 > dpsi3(hi):
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if dpsi3(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            t0 = 0.5 * (lo + hi)
        if psi3(t0) >= z_min:
            return t0
    return None


def sample_search_min_time(
    alpha: float,
    n_candidates: int,
    max_segments: int,
    seed: int,
    target_radius: float = 1e-3,
    fixed_controls: tuple[float, float] | None = None,
    max_duration: float | None = None,
):
    """Random search over admissible piecewise-constant pulses.

    Candidate laws draw each segment's controls from the corners of the
    control square 70% of the time and uniformly otherwise (or use
    ``fixed_controls`` for every segment), with durations uniform on
    [0, max_duration].  Each candidate is propagated exactly; it scores the
    earliest time its trajectory passes a local minimum of the distance to
    the target inside a ball of radius ``target_radius``, refined by
    bisection.  Deterministic for a fixed seed, and candidates are generated
    as a single stream so results for n candidates are a prefix of those for
    more.

    Returns:
        (best_time, best_segments) where best_segments is a tuple of
        (u1, u2, duration) triples truncated at the scoring time, or
        (inf, None) when no candidate touches the ball.
    """
    if n_candidates < 1 or max_segments < 1:
        raise DomainError("need at least one candidate and one segment")
    require("nonisotropy factor", alpha)
    rng = Splitmix64(seed)
    d_max = max_duration if max_duration is not None else math.pi * max(1.0, 1.0 / alpha)
    z_min = 1.0 - 0.5 * target_radius * target_radius

    best: _Hit | None = None
    for _ in range(n_candidates):
        n_seg = 1 + rng.below(max_segments)
        state = (1.0, 0.0, 0.0)
        elapsed = 0.0
        segs = []
        hit_time = None
        for _s in range(n_seg):
            if fixed_controls is not None:
                u1, u2 = fixed_controls
            elif rng.uniform() < 0.7:
                u1, u2 = _CORNERS[rng.below(4)]
            else:
                u1 = rng.uniform(-1.0, 1.0)
                u2 = rng.uniform(-1.0, 1.0)
            dur = rng.uniform(0.0, d_max)
            if hit_time is None:
                t_hit = _first_ball_peak(state, u1, u2, alpha, dur, z_min)
                if t_hit is not None:
                    hit_time = elapsed + t_hit
                    segs.append((u1, u2, t_hit))
                else:
                    segs.append((u1, u2, dur))
                    state = _arc_end(state, u1, u2, alpha, dur)
                    elapsed += dur
        if hit_time is not None:
            cand = _Hit(hit_time, tuple(segs))
            if best is None or (cand.time, cand.segments) < (best.time, best.segments):
                best = cand
    if best is None:
        return math.inf, None
    return best.time, best.segments
