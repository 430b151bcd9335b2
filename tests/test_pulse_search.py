"""The random pulse search: golden answers, a one-candidate-at-a-time
reference, the block draw, memory and input guards.

``data/pulse_search.json`` holds answers recorded by
``data/make_pulse_search.py`` once each hit was decided by one rule, at the
analytic psi3 peak or the arc end.  The answers must match to the last bit.
For each answer that ends at a peak it also holds the exact peak time of the
float sinusoid of the last arc, and the answer must lie within the peak
rule's rounding bound of it.
"""

import json
import math
import pathlib
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from qoct.errors import DomainError
from qoct.oracle import (
    CORNER_SHARE,
    Splitmix64,
    _BLOCK,
    _draw_block,
    sample_search_min_time,
)

DATA = pathlib.Path(__file__).parent / "data"
_CORNERS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


def _golden_cases():
    return json.loads((DATA / "pulse_search.json").read_text())


@pytest.mark.parametrize("case", _golden_cases(), ids=lambda c: json.dumps(c["kwargs"]))
def test_search_matches_golden(case):
    assert repr(sample_search_min_time(**case["kwargs"])) == case["answer"]


# the one recorded peak hit more than one ulp from its exact peak (1.33 ulps)
_PAST_ONE_ULP = {"alpha": 0.6, "n_candidates": 700, "max_segments": 4, "seed": 5,
                 "target_radius": 0.01}


def test_golden_peak_hits_lie_within_the_rounding_bound_of_the_exact_peak():
    # the search takes t = fl(phase / w).  If the wrapped arctan2 phase is
    # within one ulp of exact, t lies within ulp(phase)/w + ulp(t)/2 of the
    # exact peak; that exceeds one ulp of t when the phase sits in a higher
    # binade than t.  All recorded hits but one lie within one ulp.
    peaks = [c for c in _golden_cases() if "peak" in c]
    assert len(peaks) >= 20
    for case in peaks:
        kwargs = case["kwargs"]
        _, segments = sample_search_min_time(**kwargs)
        u1, u2, t_hit = segments[-1]
        w = math.sqrt(u1 * u1 + (kwargs["alpha"] * u2) ** 2)
        miss = abs(Decimal(t_hit) - Decimal(case["peak"]))
        bound = Decimal(math.ulp(w * t_hit)) / Decimal(w) + Decimal(math.ulp(t_hit)) / 2
        assert miss <= bound, case
        assert kwargs == _PAST_ONE_ULP or miss <= Decimal(math.ulp(t_hit)), case


def test_golden_cases_straddle_a_block():
    counts = {c["kwargs"]["n_candidates"] for c in _golden_cases()}
    assert {_BLOCK - 1, _BLOCK, _BLOCK + 1} <= counts


# -- the search one candidate at a time -------------------------------------


def _reference_candidates(rng, n, max_segments, d_max):
    """Candidates drawn one value at a time: lists of (u1, u2, duration)."""
    out = []
    for _ in range(n):
        segs = []
        for _ in range(1 + rng.below(max_segments)):
            if rng.uniform() < CORNER_SHARE:
                u1, u2 = _CORNERS[rng.below(4)]
            else:
                u1 = rng.uniform(-1.0, 1.0)
                u2 = rng.uniform(-1.0, 1.0)
            segs.append((u1, u2, rng.uniform(0.0, d_max)))
        out.append(segs)
    return out


def _reference_arc(state, u1, u2, alpha, dur):
    """psi3 coefficients (w, A, B, C) of one arc and the state at its end."""
    x, y, z = state
    a2u2 = alpha * u2
    w2 = u1 * u1 + a2u2 * a2u2
    w = math.sqrt(w2)
    gx, gy, gz = -u1 * y, u1 * x - a2u2 * z, a2u2 * y
    ggx, ggy, ggz = -u1 * gy, u1 * gx - a2u2 * gz, a2u2 * gy
    coeffs = None
    if w2 >= 1e-24:
        coeffs = (w, z + ggz / w2, -ggz / w2, gz / w)
    th = w * dur
    if th < 1e-9:
        s_c, c_c = dur, 0.5 * dur * dur
    else:
        s_c = math.sin(th) / w
        c_c = (1.0 - math.cos(th)) / w2
    end = (x + s_c * gx + c_c * ggx, y + s_c * gy + c_c * ggy, z + s_c * gz + c_c * ggz)
    return coeffs, end


def _np1(f, *args):
    """f of one-element numpy arrays, as a float: numpy's hypot, atan2, cos
    and sin can differ from ``math``'s in the last bit, which flips near-ties
    between candidates."""
    return float(f(*(np.array([v]) for v in args))[0])


def _reference_hit(w, A, B, C, dur, z_min):
    """The arc time at which psi3 = A + B cos(w t) + C sin(w t) hits on
    [0, dur], or None: the first peak when it lies within the arc and reaches
    z_min, else the end when it reaches z_min."""
    if A + _np1(np.hypot, B, C) < z_min:
        return None

    def psi3(t):
        return A + B * _np1(np.cos, w * t) + C * _np1(np.sin, w * t)

    phase = _np1(np.arctan2, C, B)
    t_peak = (phase + 2.0 * math.pi if phase < 0.0 else phase) / w
    if t_peak <= dur and psi3(t_peak) >= z_min:
        return t_peak
    if psi3(dur) >= z_min:
        return dur
    return None


def _reference_search(alpha, n_candidates, max_segments, seed, target_radius=1e-3):
    d_max = math.pi * max(1.0, 1.0 / alpha)
    z_min = 1.0 - 0.5 * target_radius * target_radius
    best = None
    for cand in _reference_candidates(Splitmix64(seed), n_candidates, max_segments, d_max):
        state, elapsed, segs = (1.0, 0.0, 0.0), 0.0, []
        for u1, u2, dur in cand:
            coeffs, end = _reference_arc(state, u1, u2, alpha, dur)
            t_hit = None if coeffs is None else _reference_hit(*coeffs, dur, z_min)
            if t_hit is not None:
                segs.append((u1, u2, t_hit))
                hit = (elapsed + t_hit, tuple(segs))
                if best is None or hit < best:
                    best = hit
                break
            segs.append((u1, u2, dur))
            state, elapsed = end, elapsed + dur
    return (math.inf, None) if best is None else best


def test_search_equals_the_one_at_a_time_reference():
    rng = np.random.default_rng(20261018)
    for _ in range(60):
        alpha = float(np.exp(rng.uniform(np.log(0.08), np.log(13.0))))
        kwargs = {
            "n_candidates": int(rng.choice([1, 3, 40, 300, _BLOCK + 7])),
            "max_segments": int(rng.integers(1, 7)),
            "seed": int(rng.integers(-(2**63), 2**63)),
            "target_radius": float(rng.choice([1e-3, 0.05, 0.3, 1.2])),
        }
        got = sample_search_min_time(alpha, **kwargs)
        assert repr(got) == repr(_reference_search(alpha, **kwargs)), (alpha, kwargs)


def test_long_pulses_equal_the_reference():
    # 300 segments: blocks of long pulses hold fewer candidates
    kwargs = {"n_candidates": 150, "max_segments": 300, "seed": 5, "target_radius": 0.3}
    got = sample_search_min_time(1.3, **kwargs)
    assert got[1] is not None and repr(got) == repr(_reference_search(1.3, **kwargs))


@pytest.mark.parametrize("alpha", [1.0, 1.0005, 0.9995])
def test_search_near_one_equals_the_reference(alpha):
    # near alpha = 1 most arcs reach z_min on their circle, and many peak
    # past their end, so the peak-or-end rule decides most hits
    kwargs = {"n_candidates": 700, "max_segments": 5, "seed": 31, "target_radius": 1e-3}
    got = sample_search_min_time(alpha, **kwargs)
    assert got[1] is not None and repr(got) == repr(_reference_search(alpha, **kwargs))


# -- the block draw -----------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, -3, 2**63 + 5, 2**64 - 1, 2**70 + 11])
def test_block_draw_equals_next_u64(seed):
    block, single = Splitmix64(seed), Splitmix64(seed)
    for n in (1, 7, 1000):
        draws = block.peek(n)
        assert draws.dtype == np.uint64
        assert draws.tolist() == block.peek(n).tolist()  # peeking leaves the stream
        assert draws.tolist() == [single.next_u64() for _ in range(n)]
        block.skip(n)
    assert block.next_u64() == single.next_u64()


def test_blocks_parse_the_stream_one_candidate_after_another():
    """Consecutive blocks give the candidates of a one-value-at-a-time parse,
    including blocks whose candidates run long and hold fewer than asked."""
    short = 0
    for seed in range(60):
        ref = Splitmix64(seed)
        want = _reference_candidates(ref, 40, 5, 2.5)
        rng, got = Splitmix64(seed), []
        while len(got) < len(want):
            count = min(4, len(want) - len(got))
            live, u1, u2, dur = _draw_block(rng, count, 5, 2.5)
            short += live.shape[1] < count
            for j in range(live.shape[1]):
                k = int(live[:, j].sum())
                got.append(list(zip(u1[:k, j].tolist(), u2[:k, j].tolist(),
                                    dur[:k, j].tolist())))
        assert got == [[(float(a), float(b), c) for a, b, c in segs] for segs in want]
        assert rng.next_u64() == ref.next_u64()
    assert short > 0


def _peak_bytes(n, max_segments):
    tracemalloc.start()
    try:
        sample_search_min_time(0.8, n, max_segments, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_holds_one_block_of_arrays():
    # from the second block on, the previous block's segments are still held
    # while the next is drawn; after that the peak stays put: one more
    # block's draws would add ~50 KB, and 10**4 candidates' ~0.9 MB
    two_blocks, many = _peak_bytes(2 * _BLOCK, 5), _peak_bytes(10_000, 5)
    assert many < two_blocks + 8 * 1024


def test_blocks_of_long_pulses_hold_fewer_candidates():
    # a full block of 300-segment pulses would hold ~27 MB of arrays
    assert _peak_bytes(_BLOCK, 300) < 12 * 2**20


# -- input guards -------------------------------------------------------------


@pytest.mark.parametrize(
    "override",
    [
        {"target_radius": -1.0},  # would score a time below the optimum
        {"target_radius": 5.0},  # the ball would hold the source: time 0
        {"target_radius": 0.0},
        {"target_radius": math.sqrt(2.0)},  # the ball would hold the source
        {"target_radius": math.nan},
        {"target_radius": math.inf},
        {"n_candidates": 2.5},
        {"n_candidates": math.nan},
        {"max_segments": 2.5},
        {"max_segments": 0},
        {"seed": 2.5},
    ],
    ids=repr,
)
def test_search_rejects_bad_input(override):
    kwargs = {"alpha": 1.0, "n_candidates": 10, "max_segments": 3, "seed": 1, **override}
    with pytest.raises(DomainError):
        sample_search_min_time(**kwargs)
