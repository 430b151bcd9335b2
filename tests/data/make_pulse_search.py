"""Write ``pulse_search.json``: golden answers of the random pulse search.

Each case is one ``sample_search_min_time`` call, stored as its keyword
arguments and the ``repr`` of its ``(best_time, segments)`` answer, so the
test can demand the same answer to the last bit.  The cases cover factors
from 0.08 to 13 (including exactly 1, where many arcs reach the target
ball), negative and above-2**63 seeds, candidate counts on both sides of the
search's block boundaries (255, 256, 257, 511, 512, 513) and at 4000, one,
two and five segments, fixed controls, a duration cap and target radii.

Run from the repository root, at any commit:

    PYTHONPATH=src python tests/data/make_pulse_search.py
"""

import json
import pathlib

from qoct.oracle import sample_search_min_time

OUT = pathlib.Path(__file__).parent / "pulse_search.json"


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
    add(1.0, 2000, 1, 7, fixed_controls=(1.0, 1.0))
    add(1.0, 2000, 2, 7, fixed_controls=(1, 1))
    add(1.0, 600, 3, 5, fixed_controls=(1.0, 1.0))
    add(0.6, 700, 4, 5, fixed_controls=(1, -1))
    add(1.3, 700, 5, 5, fixed_controls=(0.3, -0.7), target_radius=0.5)
    add(0.9, 800, 5, 3, fixed_controls=(0.0, 0.0))
    add(1.0, 1000, 5, 13, max_duration=0.5, target_radius=1.0)
    add(0.5, 1000, 5, 13, max_duration=3.0)
    add(2.0, 1000, 5, 13, max_duration=10)
    add(1.2, 1000, 5, 17, target_radius=1.4)
    add(0.8, 1000, 5, 17, target_radius=1e-6)
    add(3.0, 1500, 8, 21, target_radius=0.02)
    return cases


def main():
    out = []
    for case in _cases():
        kwargs = dict(case)
        if "fixed_controls" in kwargs:
            kwargs["fixed_controls"] = tuple(kwargs["fixed_controls"])
        out.append({"kwargs": case, "answer": repr(sample_search_min_time(**kwargs))})
    OUT.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
