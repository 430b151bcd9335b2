"""Write ``synthesis_laws.json``: golden answers of ``synthesis_law``.

Each case is one ``synthesis_law(alpha, target)`` call.  The file stores its
inputs and its answer as float hex, so the test compares every bit: the
segment controls and durations of the returned law, or the name of the
exception it raised.  The targets cover

- random octant points (normalised |Gaussian| triples) with the factor
  log-uniform on [0.08, 13];
- the factors 1 - 1e-9, 1 and 1 + 1e-9, on either side of the isotropic
  branch;
- six factors above one, with points on the arcs of ``synthesis_sweep``,
  which include the three-arc family, and random points;
- psi1 = 0 targets (with and without ``reject_psi1_boundary``), targets with
  psi2 in [1e-11, 1e-3], and psi2 = 0 targets, which are refused.

The draws are seeded, so rerunning at an unchanged commit gives an identical
file.

Run from the repository root, at any commit:

    PYTHONPATH=src python tests/data/make_synthesis_laws.py
"""

import json
import math
import pathlib
import random

from qoct import SOURCE, QoctError, StateS2, synthesis_law, synthesis_sweep
from qoct.time_optimal import law_state

OUT = pathlib.Path(__file__).parent / "synthesis_laws.json"
SEED = 20261018
ALPHA_LO, ALPHA_HI = 0.08, 13.0
NEAR_ONE = (1.0 - 1e-9, 1.0, 1.0 + 1e-9)
ABOVE_ONE = (1.05, 1.25, 1.9, 2.0, 3.5, 8.0)


def _unit(x: float, y: float, z: float) -> tuple[float, float, float]:
    n = math.sqrt(x * x + y * y + z * z)
    return (x / n, y / n, z / n)


def _octant_point(rng: random.Random) -> tuple[float, float, float]:
    return _unit(*(abs(rng.gauss(0.0, 1.0)) for _ in range(3)))


def _log_uniform(rng: random.Random) -> float:
    return math.exp(rng.uniform(math.log(ALPHA_LO), math.log(ALPHA_HI)))


def cases() -> list[tuple[str, float, tuple[float, float, float], bool]]:
    """(group, alpha, target, reject_psi1_boundary) for every recorded call."""
    rng = random.Random(SEED)
    out = []
    for _ in range(700):
        out.append(("octant", _log_uniform(rng), _octant_point(rng), False))
    for alpha in NEAR_ONE:
        for _ in range(60):
            out.append(("near_one", alpha, _octant_point(rng), False))
    for alpha in ABOVE_ONE:
        # points along laws that run to the octant exit, three-arc ones included
        for _, law in synthesis_sweep(alpha, 12):
            for frac in (0.35, 0.7, 0.95):
                psi = law_state(SOURCE, law, frac * law.total_duration)
                target = _unit(*(max(float(c), 0.0) for c in psi))
                out.append(("above_one", alpha, target, False))
        for _ in range(14):
            out.append(("above_one", alpha, _octant_point(rng), False))
    for _ in range(60):
        alpha, psi3 = _log_uniform(rng), rng.uniform(0.0, 1.0)
        target = (0.0, math.sqrt(1.0 - psi3 * psi3), psi3)
        out.append(("psi1_zero", alpha, target, False))
        out.append(("psi1_zero", alpha, target, True))
    for _ in range(120):
        alpha = _log_uniform(rng)
        psi2 = math.exp(rng.uniform(math.log(1e-11), math.log(1e-3)))
        phi = rng.uniform(0.0, 0.5 * math.pi)
        r = math.sqrt(1.0 - psi2 * psi2)
        out.append(("psi2_small", alpha, (r * math.cos(phi), psi2, r * math.sin(phi)), False))
    for _ in range(30):
        alpha, phi = _log_uniform(rng), rng.uniform(0.0, 0.5 * math.pi)
        out.append(("psi2_zero", alpha, (math.cos(phi), 0.0, math.sin(phi)), False))
    return out


def answer(alpha: float, target, reject: bool) -> list | str:
    """The law as [u1, u2, duration hex] rows, or the exception's type name."""
    try:
        law = synthesis_law(alpha, StateS2(*target), reject_psi1_boundary=reject)
    except QoctError as exc:
        return type(exc).__name__
    return [[s.u1, s.u2, s.duration.hex()] for s in law.segments]


def main():
    records = []
    for group, alpha, target, reject in cases():
        records.append(
            {
                "group": group,
                "alpha": alpha.hex(),
                "target": [c.hex() for c in target],
                "reject_psi1_boundary": reject,
                "answer": answer(alpha, target, reject),
            }
        )
    # one case per line
    OUT.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    refused = sum(isinstance(r["answer"], str) for r in records)
    print(f"{OUT.name}: {len(records)} cases, {refused} refused")


if __name__ == "__main__":
    main()
