"""Write ``pulse_search.json``: golden answers of the random pulse search.

Each case is one ``sample_search_min_time`` call, stored as its keyword
arguments and the ``repr`` of its ``(best_time, segments)`` answer, so the
test can demand the same answer to the last bit.  The cases cover factors
from 0.08 to 13 (including exactly 1, where many arcs reach the target
ball), negative and above-2**63 seeds, candidate counts on both sides of the
search's block boundaries (255, 256, 257, 511, 512, 513) and at 700 and
4000, one, two, three, four, five and eight segments, and target radii from
1e-6 to 1.4.

A case whose answer ends at a psi3 peak also records ``peak``: the exact
first peak time, at 30 digits, of the float sinusoid
psi3(t) = A + B cos(w t) + C sin(w t) of the answer's last arc, that is
atan2(C, B) / w wrapped into [0, 2 pi / w) with the doubles w, B and C taken
exactly (mpmath, as in ``make_references.py``, so the tests need no mpmath).
The arc's coefficients come from propagating the answer's segments from
(1, 0, 0) with the search's own arc arithmetic, evaluated by numpy.  An
answer ends at a peak when its last duration lies within 1e-9 relative of
that exact peak; an arc that ends at an arbitrary time does not.

Run from the repository root, at any commit:

    PYTHONPATH=src python tests/data/make_pulse_search.py
"""

import json
import math
import pathlib

import mpmath as mp
import numpy as np

from qoct.oracle import sample_search_min_time

OUT = pathlib.Path(__file__).parent / "pulse_search.json"
DIGITS = 30
PEAK_MATCH = 1e-9


def _cases():
    cases = []

    def add(alpha, n, segments, seed, **extra):
        cases.append({"alpha": alpha, "n_candidates": n, "max_segments": segments,
                      "seed": seed, **extra})

    for alpha in (0.08, 0.5, 1.0, 1.06, 2.0, 13.0):
        add(alpha, 4000, 5, 20240817)
        add(alpha, 4000, 5, 7, target_radius=0.05)
    for n in (1, 2, 255, 256, 257, 511, 512, 513):
        add(1.0, n, 5, 7)
        add(0.5, n, 5, 7, target_radius=0.3)
    for seed in (-3, 0, 99, 2**63 + 5, 2**64 - 1):
        add(0.7, 1000, 5, seed, target_radius=0.05)
    for segments in (1, 2, 3):
        add(1.0, 1000, segments, 11)
        add(1.7, 1000, segments, 11, target_radius=0.1)
    add(1.2, 1000, 5, 17, target_radius=1.4)
    add(0.8, 1000, 5, 17, target_radius=1e-6)
    add(3.0, 1500, 8, 21, target_radius=0.02)
    # its last arc ends 1.33 ulps from its exact peak: past one ulp, within
    # the bound the peak rule's rounding gives
    add(0.6, 700, 4, 5, target_radius=0.01)
    return cases


def _last_arc(alpha, segments):
    """(w, B, C) of the psi3 sinusoid of the last segment, as the search
    forms them: the earlier segments are propagated in doubles from (1, 0, 0)."""
    x, y, z = (np.array([v]) for v in (1.0, 0.0, 0.0))
    for i, (u1, u2, dur) in enumerate(segments):
        a2u2 = alpha * u2
        w2 = u1 * u1 + a2u2 * a2u2
        w = np.sqrt(np.array([w2]))
        gx, gy, gz = -u1 * y, u1 * x - a2u2 * z, a2u2 * y
        ggx, ggy, ggz = -u1 * gy, u1 * gx - a2u2 * gz, a2u2 * gy
        if i == len(segments) - 1:
            return float(w[0]), float(-ggz[0] / w2), float(gz[0] / w[0])
        th = w * dur
        if th[0] < 1e-9:  # the search's series coefficients
            s_c, c_c = dur, 0.5 * dur * dur
        else:
            s_c, c_c = np.sin(th) / w, (1.0 - np.cos(th)) / w2
        x, y, z = x + s_c * gx + c_c * ggx, y + s_c * gy + c_c * ggy, z + s_c * gz + c_c * ggz


def _exact_peak(w, B, C):
    """atan2(C, B) / w wrapped into [0, 2 pi / w), for the doubles taken exactly."""
    with mp.workdps(DIGITS + 15):
        phase = mp.atan2(mp.mpf(C), mp.mpf(B))
        if phase < 0:
            phase += 2 * mp.pi
        return phase / mp.mpf(w)


def main():
    out = []
    for case in _cases():
        answer = sample_search_min_time(**case)
        entry = {"kwargs": case, "answer": repr(answer)}
        if answer[1] is not None:
            peak = _exact_peak(*_last_arc(case["alpha"], answer[1]))
            t_hit = answer[1][-1][2]
            if abs(t_hit - float(peak)) <= PEAK_MATCH * t_hit:
                entry["peak"] = mp.nstr(peak, DIGITS, min_fixed=-math.inf, max_fixed=math.inf)
        out.append(entry)
    OUT.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
