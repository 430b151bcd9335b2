"""Independent brute-force and quadrature oracles, and the one bisection.

The pulse search and the quadrature share no code with the closed-form
paths they check: the random pulse search propagates candidate laws exactly
and reports the fastest one that touches a small ball around the target, and
the adaptive Simpson rule provides an integral oracle for the elliptic
module and the energy cost.  The search's own circle arithmetic (its arcs'
sinusoids and the one hit rule in ``_block_hits``) is kept apart from
``so3.arc_form`` on purpose, so that a fault there cannot hide in both the
synthesis and its check.  ``bisect_root`` is the package's one scalar root
bisection, used by the time-optimal synthesis and the acceptance criteria;
the energy dichotomy and the integrator's exit location bisect on exit faces
and boundary crossings instead.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from . import tolerances as tol
from .errors import DomainError, QuadratureDepthError, require, require_count

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 1.0 / (1 << 53)


def _mix(z):
    """SplitMix64 output function of a counter: an int, or a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _uniform(bits, lo, hi):
    """Uniform on [lo, hi) from the top 53 bits of a draw (int or float array)."""
    return lo + (hi - lo) * bits * _UNIT


class Splitmix64:
    """Deterministic counter-based pseudo-random stream (no platform entropy).

    Draw j of a stream is the mix of seed + j * gamma, so ``peek`` can make a
    whole block of draws at once with the values ``next_u64`` would return.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, Integral):
            raise DomainError(f"seed must be an integer, got {seed!r}")
        self._state = seed & _M64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _M64
        return _mix(self._state)

    def peek(self, n: int) -> np.ndarray:
        """The next n >= 1 draws of ``next_u64`` as a uint64 array; the stream stays put."""
        require_count("draw count", n)
        steps = np.arange(1, n + 1, dtype=np.uint64)
        return _mix(np.uint64(self._state) + steps * np.uint64(_GAMMA))

    def skip(self, n: int) -> None:
        """Advance the stream past n >= 1 draws."""
        require_count("draw count", n)
        self._state = (self._state + n * _GAMMA) & _M64

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform on [lo, hi); both ends must be finite."""
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"uniform ends must be finite, got [{lo!r}, {hi!r}]")
        return _uniform(self.next_u64() >> 11, lo, hi)

    def below(self, n: int) -> int:
        """Uniform on 0, 1, ..., n - 1 for a whole count n >= 1."""
        require_count("draw range", n)
        return self.next_u64() % n


def quadrature(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson integration of f over [a, b] to absolute tolerance tol.

    Raises:
        DomainError: a bound that is not finite, or a tolerance that is not
            finite and positive.
        QuadratureDepthError: past 60 recursion levels.
    """
    require("quadrature tolerance", tol)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"quadrature bounds must be finite, got [{a!r}, {b!r}]")
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
    """Plain bisection for a sign change of f on [lo, hi], to a width tol > 0.

    The bracket stops shrinking at two adjacent floats, whatever tol is.

    Raises:
        DomainError: ends that are not finite with lo < hi, a tolerance that
            is not finite and positive, or no sign change on the bracket.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"bisect_root needs finite ends with lo < hi, got [{lo!r}, {hi!r}]")
    require("bisection tolerance", tol)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise DomainError("bisect_root requires a sign change on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # tol is below the float spacing of the bracket
            break
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

# share of segments whose controls are a corner of the control square; the
# others draw both controls uniformly on [-1, 1]
CORNER_SHARE = 0.7

# candidates per block: the search holds one block's draws and states at a
# time, so its memory does not grow with the candidate count; blocks of long
# pulses hold fewer candidates, about _BLOCK_DRAWS draws' worth
_BLOCK = 512
_BLOCK_DRAWS = 1 << 16

# the corner drawn as below(4) = 0, 1, 2, 3
_CORNER_U1 = np.array([1.0, 1.0, -1.0, -1.0])
_CORNER_U2 = np.array([1.0, -1.0, 1.0, -1.0])


def _draw_block(rng, count, max_segments, d_max):
    """Draw up to ``count`` next candidates of the stream.

    A candidate draws its segment count, then per segment a corner-or-uniform
    choice, a corner or two controls, and a duration.  The length of a
    segment is known from its first draw, so every draw position is given the
    length of a segment starting there; pointer doubling over those lengths
    gives the end of a candidate starting anywhere, and walking from one
    candidate to the next is a single lookup.  When the candidates run longer than the block's draws allow,
    the block holds fewer than ``count``.

    Returns (live, u1, u2, dur), each indexed [k, j] for candidate j's k-th
    segment: live is false past a candidate's last segment, where the other
    entries are meaningless.  Advances the stream past the block's last
    candidate.
    """
    mean_len = 1.0 + (4.0 - CORNER_SHARE) * (max_segments + 1) / 2
    count = max(1, min(count, int(_BLOCK_DRAWS / mean_len)))
    # room for ``count`` candidates of average length and a tenth more, plus
    # the longest candidate, so that every block holds at least one
    n = int(1.1 * count * mean_len) + 1 + 4 * max_segments
    raw = rng.peek(n + 3)
    bits = (raw >> np.uint64(11)).astype(np.float64)
    pos = np.arange(n)
    corner = _uniform(bits[:n], 0.0, 1.0) < CORNER_SHARE
    seg_len = 4 - corner
    # jump[p]: start of the segment after one starting at p, n + 1 once that
    # segment or a later one would run past the block's draws
    jump = np.minimum(np.append(pos + seg_len, (n + 1, n + 1)), n + 1)
    n_seg = 1 + (raw[:n] % np.uint64(max_segments)).astype(np.intp)
    end, hop, todo = pos + 1, jump, n_seg
    while True:
        end = np.where(todo & 1, hop[end], end)
        todo = todo >> 1
        if not todo.any():
            break
        hop = hop[hop]
    starts = []
    at = 0
    while len(starts) < count and at < n and end[at] <= n:
        starts.append(at)
        at = int(end[at])
    rng.skip(at)
    starts = np.array(starts)
    n_seg = n_seg[starts]
    heads = np.empty((int(n_seg.max()), len(starts)), dtype=np.intp)
    heads[0] = starts + 1
    for k in range(1, len(heads)):
        heads[k] = jump[heads[k - 1]]
    live = np.arange(len(heads))[:, None] < n_seg
    heads[~live] = 0  # any position inside the block
    corner = corner[heads]
    which = (raw[heads + 1] % np.uint64(4)).astype(np.intp)
    u1 = np.where(corner, _CORNER_U1[which], _uniform(bits[heads + 1], -1.0, 1.0))
    u2 = np.where(corner, _CORNER_U2[which], _uniform(bits[heads + 2], -1.0, 1.0))
    dur = _uniform(np.where(corner, bits[heads + 2], bits[heads + 3]), 0.0, d_max)
    return live, u1, u2, dur


def _block_hits(segments, alpha, z_min):
    """Every candidate of a block that touches the target ball.

    All live candidates advance one exact arc at a time.  Along an arc,
    psi3(t) = A + B cos(w t) + C sin(w t).  An arc that moves and whose
    circle top A + hypot(B, C) reaches z_min hits at its first psi3 peak,
    t = atan2(C, B) / w wrapped into [0, 2 pi / w), when that lies within the
    arc and psi3 there reaches z_min; otherwise at its end, when psi3 there
    reaches z_min.

    Returns a list of (hit time, candidate, segment, arc time of the hit).
    """
    live_seg, u1, u2, dur = segments
    count = live_seg.shape[1]
    x, y, z = np.ones(count), np.zeros(count), np.zeros(count)
    elapsed = np.zeros(count)
    live = np.ones(count, dtype=bool)
    hits = []
    for k in range(len(live_seg)):
        live &= live_seg[k]
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        a, d = u1[k, idx], dur[k, idx]
        a2u2 = alpha * u2[k, idx]
        xs, ys, zs = x[idx], y[idx], z[idx]
        w2 = a * a + a2u2 * a2u2
        w = np.sqrt(w2)
        # G*state and G^2*state
        gx, gy, gz = -a * ys, a * xs - a2u2 * zs, a2u2 * ys
        ggx, ggy, ggz = -a * gy, a * gx - a2u2 * gz, a2u2 * gy
        th = w * d
        small = th < tol.PULSE_SMALL_ANGLE
        with np.errstate(divide="ignore", invalid="ignore"):  # standing arcs, w = 0
            r = ggz / w2
            A, B, C = zs + r, -r, gz / w
            s_c = np.where(small, d, np.sin(th) / w)
            c_c = np.where(small, 0.5 * d * d, (1.0 - np.cos(th)) / w2)
        near = np.flatnonzero((w2 >= tol.PULSE_NO_MOTION) & (A + np.hypot(B, C) >= z_min))
        if near.size:
            A, B, C, wn, dn = A[near], B[near], C[near], w[near], d[near]
            phase = np.arctan2(C, B)
            t_peak = np.where(phase < 0.0, phase + 2.0 * np.pi, phase) / wn
            wt = wn * t_peak
            at_peak = (t_peak <= dn) & (A + B * np.cos(wt) + C * np.sin(wt) >= z_min)
            at_end = A + B * np.cos(th[near]) + C * np.sin(th[near]) >= z_min
            hit = at_peak | at_end
            j = idx[near[hit]]
            t_hit = np.where(at_peak, t_peak, dn)[hit]
            hits.extend(zip((elapsed[j] + t_hit).tolist(), j.tolist(), [k] * j.size,
                            t_hit.tolist()))
            live[j] = False
        x[idx] = xs + s_c * gx + c_c * ggx
        y[idx] = ys + s_c * gy + c_c * ggy
        z[idx] = zs + s_c * gz + c_c * ggz
        elapsed[idx] += d
    return hits


def _check_search_args(alpha, n_candidates, max_segments, target_radius):
    require_count("candidate count", n_candidates)
    require_count("segment count", max_segments)
    require("nonisotropy factor", alpha)
    # written as positive tests, so NaN fails them; at sqrt(2) the ball would
    # hold the source (1, 0, 0)
    if not 0.0 < target_radius < math.sqrt(2.0):
        raise DomainError(f"target radius must be in (0, sqrt 2), got {target_radius!r}")


def sample_search_min_time(
    alpha: float,
    n_candidates: int,
    max_segments: int,
    seed: int,
    target_radius: float = 1e-3,
):
    """Random search over admissible piecewise-constant pulses.

    Candidate laws draw each segment's controls from the corners of the
    control square with probability ``CORNER_SHARE`` and uniformly otherwise,
    with durations uniform on [0, pi * max(1, 1/alpha)].  Each candidate is
    propagated exactly; it scores the earliest time its trajectory, inside a
    ball of radius ``target_radius`` around the target, either passes the
    analytic psi3 peak of an arc or ends an arc.  Deterministic for a fixed
    seed, and candidates are generated as a single stream so results for n
    candidates are a prefix of those for more.  Candidates are processed in
    blocks of arrays, with answers equal to the last bit to those of one
    candidate at a time.

    Raises:
        DomainError: a count below one or not whole, a seed that is not an
            integer, a non-finite or non-positive factor, or a radius outside
            (0, sqrt 2).

    Returns:
        (best_time, best_segments) where best_segments is a tuple of
        (u1, u2, duration) triples truncated at the scoring time, or
        (inf, None) when no candidate touches the ball.
    """
    _check_search_args(alpha, n_candidates, max_segments, target_radius)
    rng = Splitmix64(seed)  # checks the seed
    d_max = math.pi * max(1.0, 1.0 / alpha)
    z_min = 1.0 - 0.5 * target_radius * target_radius

    best = None  # the least (time, segments) pair, so hit order does not matter
    left = n_candidates
    while left:
        segments = _draw_block(rng, min(_BLOCK, left), max_segments, d_max)
        left -= segments[0].shape[1]
        for time, j, k, t_hit in _block_hits(segments, alpha, z_min):
            if best is not None and time > best[0]:
                continue
            u1, u2, dur = (v[: k + 1, j].tolist() for v in segments[1:])
            dur[-1] = t_hit
            cand = (time, tuple(zip(u1, u2, dur)))
            if best is None or cand < best:
                best = cand
    if best is None:
        return math.inf, None
    return best

