"""Complete minimum-time synthesis for the reduced sphere dynamics.

Optimal trajectories from the source (1,0,0) are finite concatenations of at
most three circle arcs: bang arcs with controls in {-1,0,+1}^2 and singular
arcs that run with one control equal to zero along the octant boundary.  The
closed-form law reaching the target (0,0,1) depends on whether the
nonisotropy factor is below, at, or above one, and the full family of optimal
trajectories covers the positive octant.

Everything here is propagated exactly through rotation composition; the RK4
integrator is only used elsewhere as an independent cross-check.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from . import tolerances as tol
from .errors import (
    DomainError,
    NoSolutionError,
    SingularLocusError,
    require,
    require_count,
    require_reals,
)
from .integrator import Trajectory
from .oracle import bisect_root
from .so3 import SOURCE, TARGET, SkewGenerator, StateS2, arc_form, generator, rodrigues_exp


@dataclass(frozen=True)
class Segment:
    """A constant-control arc: controls in [-1,1]^2 held for a duration."""

    u1: float
    u2: float
    duration: float

    def __post_init__(self):
        bound = 1.0 + tol.CONTROL_BOUND_SLACK
        require("segment control u1", self.u1, -bound, closed=True, high=bound)
        require("segment control u2", self.u2, -bound, closed=True, high=bound)
        require("segment duration", self.duration, closed=True)


@dataclass(frozen=True)
class ControlLaw:
    """An ordered, finite concatenation of constant-control segments."""

    segments: tuple[Segment, ...]
    alpha: float
    _switches: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        require("nonisotropy factor", self.alpha)
        out = []
        acc = 0.0
        for seg in self.segments[:-1]:
            acc += seg.duration
            out.append(acc)
        object.__setattr__(self, "_switches", tuple(out))

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def switch_times(self) -> tuple[float, ...]:
        """Cumulative times at which a new segment begins (interior only)."""
        return self._switches

    def control(self, t: float) -> tuple[float, float]:
        """Control values at a finite time t; each segment owns [start, end)."""
        if not math.isfinite(t):
            raise DomainError(f"time t must be finite, got {t!r}")
        if not self.segments:
            return 0.0, 0.0
        seg = self.segments[bisect_right(self._switches, t)]
        return seg.u1, seg.u2

    def control_bulk(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Array twin of ``control``: (u1s, u2s) at the times of a 1-d array.

        ``np.searchsorted(..., side="right")`` is ``bisect_right``'s rule,
        so each element equals ``control`` at that time.  Anything but a
        1-d array of finite reals raises DomainError.
        """
        ts = require_reals("times", ts)
        if not self.segments:
            return np.zeros(len(ts)), np.zeros(len(ts))
        idx = np.searchsorted(self._switches, ts, side="right")
        u1 = np.array([s.u1 for s in self.segments], dtype=float)
        u2 = np.array([s.u2 for s in self.segments], dtype=float)
        return u1[idx], u2[idx]


def delta_a(psi: StateS2, alpha: float) -> float:
    """Determinant pairing of the two control fields: alpha * psi2."""
    require("nonisotropy factor", alpha)
    return alpha * psi.psi2


def delta_b1(psi: StateS2, alpha: float) -> float:
    """Pairing of the first field with the commutator field: alpha * psi1."""
    require("nonisotropy factor", alpha)
    return alpha * psi.psi1


def delta_b2(psi: StateS2, alpha: float) -> float:
    """Pairing of the second field with the commutator field: -alpha^2 * psi3."""
    require("nonisotropy factor", alpha)
    return -alpha * alpha * psi.psi3


def f1(psi: StateS2) -> float:
    """Switching-direction ratio for the first control: -psi1/psi2.

    Negative throughout the open octant, which is why the first control can
    only switch from +1 to -1 there.
    """
    if abs(psi.psi2) < tol.SINGULAR_LOCUS:
        raise SingularLocusError("psi2 = 0: switching ratios are undefined here")
    return -psi.psi1 / psi.psi2


def f2(psi: StateS2, alpha: float) -> float:
    """Switching-direction ratio for the second control: alpha * psi3/psi2."""
    require("nonisotropy factor", alpha)
    if abs(psi.psi2) < tol.SINGULAR_LOCUS:
        raise SingularLocusError("psi2 = 0: switching ratios are undefined here")
    return alpha * psi.psi3 / psi.psi2


def switching_propagator(u1: float, u2: float, alpha: float, t: float) -> np.ndarray:
    """Closed-form propagator of the switching functions along a bang arc.

    Maps (phi1, phi2, phi3)(0) to their values at time t under the linear
    system phi1' = -u2*phi3, phi2' = u1*phi3, phi3' = alpha^2*u2*phi1 - u1*phi2
    with constant controls: a switching state is a plain 3-array, advanced
    by ``switching_propagator(u1, u2, alpha, t) @ phi``.  Along a double-bang
    arc (|u1| = |u2| = 1) alpha^2*phi1^2 + phi2^2 + phi3^2 is conserved.

    Raises:
        DomainError: when alpha is not finite and positive, for the
            degenerate input u1 = u2 = 0, or when alpha^2, the squared rate
            w^2 or the angle w*t is not finite.
    """
    require("nonisotropy factor", alpha)
    a2 = alpha * alpha
    w2 = u1 * u1 + a2 * u2 * u2
    if not (math.isfinite(a2) and math.isfinite(w2) and math.isfinite(math.sqrt(w2) * t)):
        raise DomainError("switching propagator needs finite controls, factor and time")
    if w2 <= 0.0:
        raise DomainError("switching propagator undefined for zero controls")
    w = math.sqrt(w2)
    c = math.cos(w * t)
    s = math.sin(w * t)
    return np.array(
        [
            [
                (u1 * u1 + a2 * u2 * u2 * c) / w2,
                u1 * u2 * (1.0 - c) / w2,
                -u2 * s / w,
            ],
            [
                a2 * u1 * u2 * (1.0 - c) / w2,
                (a2 * u2 * u2 + u1 * u1 * c) / w2,
                u1 * s / w,
            ],
            [a2 * u2 * s / w, -u1 * s / w, c],
        ]
    )


def t_alpha(alpha: float) -> float:
    """Duration for which the double-bang arc (+1,+1) from the source stays
    extremal."""
    require("nonisotropy factor", alpha)
    if alpha <= 1.0:
        return math.acos(-alpha * alpha) / math.sqrt(1.0 + alpha * alpha)
    return math.acos(-1.0 / (alpha * alpha)) / math.sqrt(1.0 + alpha * alpha)


def _trim(segments) -> tuple[Segment, ...]:
    return tuple(s for s in segments if s.duration > tol.SEGMENT_MIN_DURATION)


def min_time_law(alpha: float) -> ControlLaw:
    """The minimum-time control law from the source to the target.

    Up to one: a double bang (+1,+1) up to the octant boundary, then a
    singular arc (0,+1) along the psi1 = 0 circle into the target; at one
    that arc has zero length and is dropped, leaving the single double bang
    of duration pi/sqrt(2).  Above one: a singular arc (+1,0) along the
    equator, then the double bang.
    """
    require("nonisotropy factor", alpha)
    if alpha <= 1.0:
        segs = (Segment(1.0, 1.0, t_alpha(alpha)), Segment(0.0, 1.0, math.acos(alpha) / alpha))
        return ControlLaw(_trim(segs), alpha)
    segs = (Segment(1.0, 0.0, math.acos(1.0 / alpha)), Segment(1.0, 1.0, t_alpha(alpha)))
    return ControlLaw(segs, alpha)


def _compose(segments, alpha: float, start: np.ndarray) -> tuple[np.ndarray, float]:
    """(state, lowest component) after composing whole segments exactly from ``start``.

    The lowest component is the least that any component reaches on the
    arcs, or 0.  Along an arc, component a0 + r*cos(w t - phi) is lowest at
    the arc's ends or at its trough a0 - r, reached at w t = phi + pi when
    that lies within the arc, so no dip between samples can be missed.
    """
    state, low = start, 0.0
    for seg in segments:
        if seg.duration > 0.0:
            g = generator(seg.u1, seg.u2, alpha)
            rot = rodrigues_exp(g, seg.duration)
            if g.rate > 0.0:  # a standing arc (u1 = u2 = 0) has no circle
                w, *_, rows = arc_form(g, state)
                for a0, r, phi in rows:
                    if phi + math.pi <= w * seg.duration:
                        low = min(low, a0 - r)
            state = rot @ state
            low = min(low, float(min(state)))
    return state, low


def law_state(psi0: StateS2, law: ControlLaw, t: float) -> np.ndarray:
    """Exact state at time t >= 0 under a law (full arcs composed, last one partial)."""
    require("time t", t, closed=True)
    cut, remaining = [], t
    for seg in law.segments:
        if remaining <= 0.0:
            break
        step = min(seg.duration, remaining)
        cut.append(Segment(seg.u1, seg.u2, step))
        remaining -= step
    return _compose(cut, law.alpha, psi0.as_array())[0]


def propagate_law(psi0: StateS2, law: ControlLaw, max_step: float | None = None) -> Trajectory:
    """Exact propagation of a control law by rotation composition.

    Args:
        psi0: initial unit state.
        law: segments to apply in order.
        max_step: when given (finite, > 0), each segment is sampled on a
            uniform grid with spacing at most this; otherwise only segment
            endpoints appear.

    Returns:
        Trajectory whose endpoint is exact up to rotation arithmetic.
    """
    if max_step is not None:
        require("max_step", max_step)
    state = psi0.as_array()
    t = 0.0
    ts, states, controls = [t], [state], [law.control(0.0)]
    for seg in law.segments:
        if seg.duration <= 0.0:
            continue
        n = 1 if max_step is None else max(1, math.ceil(seg.duration / max_step))
        dt = seg.duration / n
        r = rodrigues_exp(generator(seg.u1, seg.u2, law.alpha), dt)
        for _ in range(n):
            state = r @ state
            t += dt
            ts.append(t)
            states.append(state)
        controls += [(seg.u1, seg.u2)] * n
    return Trajectory(ts, states, *zip(*controls))


# ---------------------------------------------------------------------------
# synthesis: reaching an arbitrary octant target
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """One parameterized family of the synthesis.

    A law of the family is prefix + (first control held for the parameter a)
    + mid + (final control held until the target is met).
    """

    prefix: tuple[Segment, ...]
    first: tuple[float, float]
    a_lo: float
    a_hi: float
    mid: tuple[Segment, ...]
    final: tuple[float, float]


def _families(alpha: float) -> list[_Family]:
    ta = t_alpha(alpha)
    if alpha <= 1.0:
        fams = [
            _Family((), (1.0, 0.0), 0.0, math.pi / 2.0, (), (1.0, 1.0)),
            _Family((), (1.0, 1.0), 0.0, ta, (), (-1.0, 1.0)),
        ]
        if alpha < 1.0:
            fams.append(
                _Family(
                    (Segment(1.0, 1.0, ta),),
                    (0.0, 1.0),
                    0.0,
                    math.acos(alpha) / alpha,
                    (),
                    (-1.0, 1.0),
                )
            )
        return fams
    ac = math.acos(1.0 / alpha)
    # the first family's range includes a < arccos(1/alpha): truncations of
    # the three-arc extremals end on such (1,0)+(1,1) prefixes
    return [
        _Family((), (1.0, 0.0), 0.0, math.pi / 2.0, (), (1.0, 1.0)),
        _Family((), (1.0, 0.0), 0.0, ac, (Segment(1.0, 1.0, ta),), (-1.0, 1.0)),
        _Family((), (1.0, 1.0), 0.0, ta, (), (-1.0, 1.0)),
    ]


def _arc_angle_to(p: np.ndarray, target: np.ndarray, g: SkewGenerator) -> float:
    """Forward rotation angle in [0, 2*pi) taking p toward the target about g's axis.

    The target's offset from the circle's centre A, read in the (B, C) frame;
    whether it lies on the circle is left to the caller's endpoint check.
    """
    _, A, B, C, _ = arc_form(g, p)
    if float(np.linalg.norm(B)) < tol.ARC_ON_AXIS:
        return 0.0
    d = target - A
    ang = math.atan2(float(C @ d), float(B @ d))
    if ang < 0.0:
        ang += 2.0 * math.pi
    if ang > 2.0 * math.pi - tol.ARC_ANGLE_WRAP:
        ang = 0.0
    return ang


def _family_candidates(fam: _Family, alpha: float, target: np.ndarray):
    """All laws of one family whose final arc passes through the target.

    The final arc keeps its cone level about its axis n, so the family can
    only reach the target when the start of that arc sits at the target's
    level.  That miss is a sinusoid in the first switching time a:
    c0 + (B.q) cos(w a) + (C.q) sin(w a), with (w, A, B, C) the first arc's
    ``so3.arc_form``, q = R_mid^T n and c0 = A.q - level.  When |c0| exceeds
    its amplitude R = hypot(B.q, C.q) by more than SYNTHESIS_SCREEN_MARGIN,
    the miss stays beyond SYNTHESIS_SNAP on the whole range, so the scan
    below could find neither a sign change nor a snap, and the family is
    skipped before it.

    Otherwise the first switching time is scanned on a 257-point grid over
    [a_lo, a_hi], and each sign change of the miss is refined by bisection.
    The family's fixed arcs (prefix and mid rotations) are built once and
    applied in the same order at every scan point, so each point is the full
    composition's, bit for bit.  A candidate must end within SYNTHESIS_ACCEPT
    of the target and stay in the octant within SYNTHESIS_ACCEPT, checked
    exactly per arc (``_compose``), which is stricter than sampling the law.
    """
    g_first = generator(*fam.first, alpha)
    g_final = generator(*fam.final, alpha)
    n_final = g_final.axis() / g_final.rate
    base = _compose(fam.prefix, alpha, SOURCE.as_array())[0]
    level = float(target @ n_final)
    mid = [
        rodrigues_exp(generator(s.u1, s.u2, alpha), s.duration)
        for s in fam.mid
        if s.duration > 0.0
    ]

    q = n_final
    for r in reversed(mid):
        q = r.T @ q
    _, A, B, C, _ = arc_form(g_first, base)
    reach = math.hypot(float(B @ q), float(C @ q))
    if abs(float(A @ q) - level) > reach + tol.SYNTHESIS_SCREEN_MARGIN:
        return

    def point(a: float) -> np.ndarray:
        """Start of the final arc after the first control is held for a."""
        state = rodrigues_exp(g_first, a) @ base
        for r in mid:
            state = r @ state
        return state

    def miss(a: float) -> float:
        return float(point(a) @ n_final) - level

    grid = np.linspace(fam.a_lo, fam.a_hi, 257).tolist()
    vals = [miss(a) for a in grid]
    roots = []
    for i in range(len(grid) - 1):
        if abs(vals[i]) <= tol.SYNTHESIS_SNAP:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(bisect_root(miss, grid[i], grid[i + 1], tol.BRACKET_MIN))
    if abs(vals[-1]) <= tol.SYNTHESIS_SNAP:
        roots.append(grid[-1])

    for a in roots:
        dur = _arc_angle_to(point(a), target, g_final) / g_final.rate
        segs = fam.prefix + (Segment(*fam.first, a),) + fam.mid + (Segment(*fam.final, dur),)
        law = ControlLaw(_trim(segs), alpha)
        endpoint, low = _compose(law.segments, alpha, SOURCE.as_array())
        miss = float(np.linalg.norm(endpoint - target))
        if miss <= tol.SYNTHESIS_ACCEPT and low >= -tol.SYNTHESIS_ACCEPT:
            yield law


def synthesis_law(
    alpha: float,
    target: StateS2,
    reject_psi1_boundary: bool = False,
) -> ControlLaw:
    """The unique time-optimal law from the source to an octant target.

    The law is selected from the parameterized synthesis families by
    root-finding on the first switching time; the conserved cone angle of the
    final arc supplies the scalar equation.  Targets on the psi2 = 0 boundary
    are not part of the synthesis except for the source and target corners.

    Args:
        alpha: nonisotropy factor.
        target: desired endpoint in the closed positive octant.
        reject_psi1_boundary: when True, targets on the psi1 = 0 boundary
            below the double-bang exit height are refused instead of being
            reached through the singular family.

    Raises:
        NoSolutionError: when no family produces the target.
    """
    require("nonisotropy factor", alpha)
    if not target.in_octant():
        raise DomainError("target must lie in the closed positive octant")
    tgt = target.as_array()

    if float(np.linalg.norm(tgt - TARGET.as_array())) < tol.CORNER_BALL:
        return min_time_law(alpha)
    if float(np.linalg.norm(tgt - SOURCE.as_array())) < tol.CORNER_BALL:
        return ControlLaw((), alpha)
    if abs(target.psi2) < tol.SINGULAR_LOCUS:
        raise NoSolutionError(
            "targets on the psi2 = 0 boundary are outside the synthesis "
            "(only the corners (1,0,0) and (0,0,1) are reachable there)"
        )
    if (
        reject_psi1_boundary
        and abs(target.psi1) < tol.PSI1_BOUNDARY
        and target.psi3 < min(alpha, 1.0)
    ):
        raise NoSolutionError("target sits on the psi1 = 0 boundary (rejected by flag)")

    best = None
    for fam in _families(alpha):
        for law in _family_candidates(fam, alpha, tgt):
            if best is None or law.total_duration < best.total_duration - tol.DURATION_TIE:
                best = law
    if best is None:
        raise NoSolutionError(
            f"no synthesis family reaches target {target.as_tuple()} at alpha={alpha}"
        )
    return best


def _arc_exit_time(start: np.ndarray, g: SkewGenerator) -> float:
    """Earliest time the arc of g from ``start`` crosses a coordinate plane downward.

    Only components that dip below -ARC_EXIT_DIP count; without one the arc
    stays in the octant and its full period is returned.
    """
    w, *_, rows = arc_form(g, start)
    exit_time = 2.0 * math.pi / w
    for a0, r, phi in rows:
        if a0 - r >= -tol.ARC_EXIT_DIP:
            continue
        # a0 + r*cos(w t - phi) falls through zero at w t - phi = acos(-a0/r)
        angle = phi + math.acos(min(1.0, -a0 / r))
        exit_time = min(exit_time, angle % (2.0 * math.pi) / w)
    return exit_time


def synthesis_sweep(alpha: float, n: int) -> list[tuple[float, ControlLaw]]:
    """(parameter, law) pairs for n laws spread evenly over the synthesis families.

    The families' first-switch ranges are laid end to end; law i starts at
    the midpoint of the i-th of n equal slices, the parameter is its position
    in the combined range, and its final arc is held until the octant exit.
    """
    require("nonisotropy factor", alpha)
    require_count("synthesis_sweep count n", n)
    fams = _families(alpha)
    if alpha > 1.0:
        # the first family is only extremal-to-exit past the switching curve;
        # shorter equator prefixes belong to the three-arc family
        fams[0] = replace(fams[0], a_lo=math.acos(1.0 / alpha))
    spans = [(f, f.a_hi - f.a_lo) for f in fams if f.a_hi > f.a_lo]
    total = sum(s for _, s in spans)
    out = []
    for i in range(n):
        p, offset = (i + 0.5) / n * total, 0.0
        for k, (fam, span) in enumerate(spans):
            if p <= span or k == len(spans) - 1:
                break
            p -= span
            offset += span
        a = fam.a_lo + min(p, span)
        segs = fam.prefix + (Segment(*fam.first, a),) + fam.mid
        start = _compose(segs, alpha, SOURCE.as_array())[0]
        final = Segment(*fam.final, _arc_exit_time(start, generator(*fam.final, alpha)))
        out.append((offset + (a - fam.a_lo), ControlLaw(_trim(segs + (final,)), alpha)))
    return out
