"""Fixed-step RK4 propagation on the sphere with event location.

This is the independent cross-check path: everything it produces can be
compared against the exact rotation composition of constant-control arcs.
States are renormalized to the sphere after every step; a large correction
means a step straddled a control discontinuity, which is reported instead of
silently degrading the order.  The same RK4 (``propagate``) also drives the
complex three-level amplitudes of ``qoct.lift``.  Every sampled path, RK4
or exact, is a ``Trajectory``: read-only columns of times, states and the
two controls.

Open-loop controls can be evaluated in bulk.  Given ``bulk_control``, a
function ts -> (c1s, c2s) of a float array, the integrator builds the stage
times of up to ``BULK_STEPS`` steps at once, exactly as ``_rk4`` forms them,
evaluates them in one call and hands ``_rk4`` a table keyed by stage time in
place of the control callable.  The scalar ``control`` still serves the
recorded samples and the exit bisection.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import DomainError, HorizonError, StepError, require, require_count, require_reals
from .so3 import StateS2
from .tolerances import RENORM_LIMIT, STEP_COUNT_SLACK

# steps per bulk control evaluation: the stage-time table holds one chunk,
# so its memory does not grow with the integration time
BULK_STEPS = 256


class ExitFace(enum.Enum):
    """Which part of the octant boundary a trajectory crossed first."""

    PSI1 = "psi1"
    PSI2 = "psi2"
    TARGET = "target"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled trajectory as four read-only columns of equal length n.

    ``times`` (n,) strictly increasing; ``states`` (n, 3), float or complex,
    each row of unit norm; ``u1`` and ``u2`` (n,), the control values that
    produced the samples (for the complex lift, the pulse moduli).  The
    columns are copied and checked once, on construction.
    """

    times: np.ndarray
    states: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        for name in ("times", "states", "u1", "u2"):
            col = np.array(getattr(self, name), dtype=None if name == "states" else float)
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        ts = self.times
        if ts.ndim != 1 or len(ts) == 0:
            raise DomainError("trajectory times must be a non-empty 1-d column")
        if not (self.states.shape == (len(ts), 3) and self.u1.shape == ts.shape == self.u2.shape):
            raise DomainError("trajectory columns must have equal lengths, states 3 entries each")
        if not (np.all(np.isfinite(ts)) and np.all(np.diff(ts) > 0.0)):
            raise DomainError("sample times must be finite and strictly increasing")
        norms = np.sum(np.abs(self.states) ** 2, axis=-1)
        if not np.max(np.abs(norms - 1.0)) <= tol.STATE_NORM:  # NaN fails too
            raise DomainError(
                f"a state sample is off the unit sphere beyond {tol.STATE_NORM:g}"
            )

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


def _sphere_rhs(alpha: float):
    """psi' = u1*F1(psi) + u2*F2(psi), with the alpha weight on F2."""

    def rhs(x, y, z, u1, u2):
        au2 = alpha * u2
        return (-u1 * y, u1 * x - au2 * z, au2 * y)

    return rhs


def _steps(span, h):
    """The fewest uniform steps not longer than h over span: (n, span / n)."""
    n = max(1, math.ceil(span / h - STEP_COUNT_SLACK))
    return n, span / n


class _StageTable(dict):
    """Control values by stage time, one chunk of steps at a time.

    ``_rk4`` reads it through ``__getitem__`` in place of the control
    callable.  Stages are read in step order, so a time missing from the
    current chunk belongs to the next one: the miss drops the chunk and
    evaluates the next stage-time array of ``chunks`` with ``bulk``.
    """

    def __init__(self, bulk, chunks):
        super().__init__()
        self._bulk = bulk
        self._chunks = chunks

    def __missing__(self, t):
        self.clear()
        ts = next(self._chunks, None)
        if ts is not None:
            c1, c2 = self._bulk(ts)
            self.update(zip(ts.tolist(), zip(c1.tolist(), c2.tolist())))
        if t not in self:
            raise KeyError(f"stage time {t!r} is not on the bulk control grid")
        return self[t]


def _grid_stage_times(t0, n, h, cut):
    """The stage times of ``_rk4`` on its clock t0 + i*h, clamped to cut,
    as arrays of at most ``BULK_STEPS`` steps.

    A step's last stage time is usually the next step's first; the array
    holds it once.
    """
    h2 = 0.5 * h
    for j in range(0, n, BULK_STEPS):
        t = t0 + np.arange(j, min(j + BULK_STEPS, n), dtype=float) * h
        te = t + h
        unshared = np.append(te[:-1] != t[1:], True)
        yield np.minimum(np.concatenate((t, t + h2, te[unshared])), cut)


def _running_stage_times(t, n, h):
    """The stage times of ``_rk4``'s watch clock t += h, as arrays of at
    most ``BULK_STEPS`` steps."""
    h2 = 0.5 * h
    clock = np.full(BULK_STEPS + 1, h)
    for j in range(0, n, BULK_STEPS):
        clock[0] = t
        ends = np.add.accumulate(clock[: min(BULK_STEPS, n - j) + 1])
        yield np.concatenate((ends, ends[:-1] + h2))
        t = ends[-1]


def _rk4(state, t0, n, h, control, rhs, cut=math.inf, out=None, every=1, watch=False):
    """n renormalized RK4 steps of h from (t0, state).

    The state is a 3-tuple of floats or complex amplitudes; control is
    t -> (c1, c2), read at stage times clamped to ``cut``; rhs is
    (x, y, z, c1, c2) -> derivative.  ``abs(v) * abs(v)`` is v*v exactly for
    a float and |v|^2 for a complex amplitude.  With ``out``, every
    ``every``-th step and the last append (t, state) on the clock t0 + i*h.

    With ``watch``, the clock runs t += h, so a step's last stage time is
    the next step's first, and the steps stop after the first one whose
    state leaves the open quadrant x > 0, y > 0.  Returns (steps taken,
    t and state before the last step, t and state after it); if no step
    leaves, both pairs are the final ones.  Otherwise returns the state.
    """
    h2, h6 = 0.5 * h, h / 6.0
    x, y, z = state
    t = t0
    for i in range(n):
        tm, te = t + h2, t + h
        c1a, c2a = control(t if t < cut else cut)
        c1b, c2b = control(tm if tm < cut else cut)
        c1c, c2c = control(te if te < cut else cut)
        k1x, k1y, k1z = rhs(x, y, z, c1a, c2a)
        k2x, k2y, k2z = rhs(x + h2 * k1x, y + h2 * k1y, z + h2 * k1z, c1b, c2b)
        k3x, k3y, k3z = rhs(x + h2 * k2x, y + h2 * k2y, z + h2 * k2z, c1b, c2b)
        k4x, k4y, k4z = rhs(x + h * k3x, y + h * k3y, z + h * k3z, c1c, c2c)
        nx = x + h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
        ny = y + h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        nz = z + h6 * (k1z + 2.0 * (k2z + k3z) + k4z)

        ax, ay, az = abs(nx), abs(ny), abs(nz)
        norm = math.sqrt(ax * ax + ay * ay + az * az)
        if not abs(norm - 1.0) <= RENORM_LIMIT:  # NaN fails too
            raise StepError(
                f"renormalization correction {abs(norm - 1.0):.3e} exceeds "
                f"{RENORM_LIMIT:g} in the step h={h:.6g} ending at t={te:.6g}; "
                "the step is too long, use a smaller h"
            )
        nx, ny, nz = nx / norm, ny / norm, nz / norm
        if watch:
            if not (nx > 0.0 and ny > 0.0):
                return i + 1, t, (x, y, z), te, (nx, ny, nz)
            t = te
        else:
            t = t0 + (i + 1) * h
        x, y, z = nx, ny, nz
        if out is not None and ((i + 1) % every == 0 or i == n - 1):
            out.append((t, (x, y, z)))
    if watch:
        return n, t, (x, y, z), t, (x, y, z)
    return (x, y, z)


def propagate(
    state, control, rhs, T: float, h: float, switch_times=(), record_every=1,
    bulk_control=None,
):
    """Renormalized RK4 from (0, state) to T; steps never straddle a switch.

    Args:
        state: initial 3-tuple of floats or complex amplitudes, unit norm.
        control: callable t -> (c1, c2); piecewise smooth.  Read only
            without ``bulk_control`` (``qoct.lift`` passes None).
        rhs: callable (x, y, z, c1, c2) -> the state derivative.
        T: final time (>= 0).
        h: nominal step; each subinterval between switch times uses the
            largest uniform step not exceeding h.
        switch_times: finite discontinuity times; those outside (0, T)
            are ignored.
        record_every: thin the records to every n-th step, a whole
            number >= 1 (subinterval ends always kept).
        bulk_control: optional array twin of control, ts -> (c1s, c2s),
            equal to it element by element; the steps then read their
            stage controls from it, one chunk of steps per call.

    Returns:
        List of (t, state) records, starting with (0, state).
    """
    require("step h", h)
    require("final time T", T, closed=True)
    require_count("record_every", record_every)
    switch_times = require_reals("switch times", tuple(switch_times)).tolist()
    out = [(0.0, state)]
    cuts = sorted({0.0, T, *(s for s in switch_times if 0.0 < s < T)})
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        # stage times at the right endpoint are nudged strictly inside the
        # subinterval so piecewise-constant controls are read on the left
        # side of the switch; the nudge is far below the step error
        cut = t1 - max((t1 - t0) * tol.STAGE_TIME_NUDGE, 8.0 * sys.float_info.epsilon * abs(t1))
        n, hh = _steps(t1 - t0, h)
        stage = control
        if bulk_control is not None:
            stage = _StageTable(bulk_control, _grid_stage_times(t0, n, hh, cut)).__getitem__
        state = _rk4(state, t0, n, hh, stage, rhs, cut, out, record_every)
        out[-1] = (min(out[-1][0], t1), state)  # t0 + n*h may round past t1
    return out


def integrate(
    psi0: StateS2,
    control,
    alpha: float,
    T: float,
    h: float,
    switch_times=(),
    record_every: int = 1,
    bulk_control=None,
) -> Trajectory:
    """Propagate psi' = u1*F1 + u2*F2 with RK4 and per-step renormalization.

    Args:
        psi0: initial unit state.
        control: callable t -> (u1, u2); piecewise smooth.
        alpha: nonisotropy factor (> 0).
        T, h, switch_times, record_every, bulk_control: as for ``propagate``;
            control alone gives the sampled (u1, u2).

    Returns:
        Trajectory sampled on the step grid.
    """
    require("nonisotropy factor", alpha)
    records = propagate(
        psi0.as_tuple(), control, _sphere_rhs(alpha), T, h, switch_times, record_every,
        bulk_control,
    )
    ts, states = zip(*records)
    u1, u2 = zip(*map(control, ts))
    return Trajectory(ts, states, u1, u2)


def first_exit(
    psi0: StateS2,
    control,
    alpha: float,
    horizon: float,
    h: float,
    bulk_control=None,
) -> tuple[ExitFace, float, np.ndarray]:
    """Locate the first crossing of the faces psi1 = 0 or psi2 = 0.

    The crossing is detected by a strict sign change between consecutive
    steps and then bisected in time to a width of 1e-11, or to adjacent
    floats where t is too large for that.  Starting exactly on
    a face (psi2 = 0 at the source) does not count as a crossing.  With
    ``bulk_control`` (as for ``propagate``) the scan's steps read their
    stage controls from it; the bisection calls control.

    Returns:
        (face, exit time, state at the exit time).
    """
    require("nonisotropy factor", alpha)
    require("step h", h)
    require("horizon", horizon)
    rhs = _sphere_rhs(alpha)
    state = psi0.as_tuple()
    t = 0.0
    left = math.ceil(horizon / h)
    hh = horizon / left
    scan = control
    if bulk_control is not None:
        scan = _StageTable(bulk_control, _running_stage_times(t, left, hh)).__getitem__
    # last sample at which each watched component was strictly positive
    last_pos: list[tuple[float, tuple] | None] = [None, None]
    if state[0] > 0.0:
        last_pos[0] = (0.0, state)
    if state[1] > 0.0:
        last_pos[1] = (0.0, state)
    while left:
        # every step before the returned one stayed inside the quadrant
        steps, t_prev, prev, t, state = _rk4(state, t, left, hh, scan, rhs, watch=True)
        left -= steps
        for idx in (0, 1):
            if prev[idx] > 0.0:
                last_pos[idx] = (t_prev, prev)
        crossings = []
        for idx, face in ((0, ExitFace.PSI1), (1, ExitFace.PSI2)):
            if state[idx] > 0.0:
                last_pos[idx] = (t, state)
            elif state[idx] < -tol.EXIT_DEAD_BAND and last_pos[idx] is not None:
                lo_t, lo_state = last_pos[idx]
                hi_t = t
                # past t = 2^16 the float spacing of t exceeds the width, and
                # the midpoint of adjacent floats is one of them: stop where
                # the bracket would not shrink
                while hi_t - lo_t > tol.EXIT_TIME_BISECT:
                    mid_t = 0.5 * (lo_t + hi_t)
                    if mid_t == lo_t:
                        break
                    mid_state = _rk4(lo_state, lo_t, *_steps(mid_t - lo_t, h), control, rhs)
                    if mid_state[idx] > 0.0:
                        lo_t, lo_state = mid_t, mid_state
                    elif mid_t == hi_t:
                        break
                    else:
                        hi_t = mid_t
                crossings.append((0.5 * (lo_t + hi_t), face, lo_state))
        if crossings:
            t_exit, face, exit_state = min(crossings, key=lambda c: c[0])
            return face, t_exit, np.array(exit_state)
    raise HorizonError(f"no boundary crossing within horizon {horizon:.6g}")
