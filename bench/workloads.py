"""The benchmark's workloads: seeded inputs, one operation, and its check.

Each input is drawn from the seed, stratified so that runs are steady.  The
unit interval behind a factor ``alpha`` is cut into ``CELLS`` equal cells,
and every block of ``CELLS`` consecutive ops visits each cell once, in a
fixed order that spreads consecutive visits across the range.  Inside a
cell, the ``r``-th visit sits at the ``r``-th point of the van der Corput
sequence, shifted by a per-cell offset drawn from the seed (a
Cranley-Patterson rotation).  So every draw follows its stated law
(log-uniform in ``alpha``), each block holds the same share of cheap and
expensive factors for every seed, and the visits to a cell spread evenly
across it.  Targets come from a randomly shifted Kronecker sequence
(Roberts 2018), so they too cover the octant evenly.  No input repeats.

Checks run outside the timed region and use references computed here from
the paper's formulas where possible, not the code under test.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

# the README's documented solve range for the nonisotropy factor
ALPHA_LO, ALPHA_HI = 0.08, 13.0
# export runs whole figure sets, whose energy sweep solves the shooting
# problem, at moderate factors where that solve succeeds at the seed commit
EXPORT_ALPHA_LO, EXPORT_ALPHA_HI = 0.5, 2.0

TARGET = np.array([0.0, 0.0, 1.0])
# acceptance thresholds (A05, A10, A11, A12 and the synthesis acceptance),
# fixed here so the benchmark does not follow a change to the program's own
ENDPOINT_MISS = 1e-6
SYNTHESIS_ACCEPT = 1e-9
COMPONENT_FLOOR = -1e-9
POPULATION_FLOOR = 1.0 - 1e-5
ORACLE_MARGIN = 5e-3


CELLS = 24


def _van_der_corput(n: int) -> float:
    x, f = 0.0, 0.5
    while n:
        x += f * (n & 1)
        n >>= 1
        f *= 0.5
    return x


def stratified(seed: int):
    """Function i -> u in [0, 1): the seeded, stratified draw of op i."""
    rng = random.Random(seed)
    shifts = [rng.random() for _ in range(CELLS)]
    # visit cells with a stride near the golden section, coprime to CELLS
    stride = round(CELLS * (3.0 - math.sqrt(5.0)) / 2.0)
    while math.gcd(stride, CELLS) != 1:
        stride += 1

    def point(i: int) -> float:
        visit, slot = divmod(i, CELLS)
        cell = slot * stride % CELLS
        return (cell + (_van_der_corput(visit) + shifts[cell]) % 1.0) / CELLS

    return point


def kronecker(seed: int, dims: int):
    """Function i -> point of a randomly shifted d-dimensional Kronecker sequence."""
    phi = 2.0
    for _ in range(64):  # root of x**(d+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    steps = [phi ** -(j + 1) for j in range(dims)]
    rng = random.Random(seed)
    offsets = [rng.random() for _ in range(dims)]

    def point(i: int) -> tuple[float, ...]:
        return tuple((o + (i + 1) * a) % 1.0 for o, a in zip(offsets, steps))

    return point


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def m3_bracket(alpha: float) -> tuple[float, float]:
    """A priori bracket for the solved m3(0), from the paper."""
    if alpha <= 1.0:
        return math.sqrt(1.0 - alpha * alpha) / alpha, math.sqrt(4.0 / (3.0 * alpha * alpha) - 1.0)
    return 0.0, 1.0 / math.sqrt(3.0)


def min_time(alpha: float) -> float:
    """Closed-form minimum transfer time with bounded controls, from the paper."""
    if alpha == 1.0:
        return math.pi / math.sqrt(2.0)
    if alpha < 1.0:
        return math.acos(-alpha * alpha) / math.sqrt(1.0 + alpha * alpha) + math.acos(alpha) / alpha
    return math.acos(1.0 / alpha) + math.acos(-1.0 / (alpha * alpha)) / math.sqrt(1.0 + alpha * alpha)


def rotate(state: np.ndarray, u1: float, u2: float, alpha: float, t: float) -> np.ndarray:
    """Exact flow of psi' = u1*F1 + u2*F2 for constant controls (Rodrigues)."""
    g = np.array([[0.0, -u1, 0.0], [u1, 0.0, -alpha * u2], [0.0, alpha * u2, 0.0]])
    w = math.hypot(u1, alpha * u2)
    if w == 0.0:
        return state
    gs = g @ state
    return state + math.sin(w * t) / w * gs + (1.0 - math.cos(w * t)) / (w * w) * (g @ gs)


class Shoot:
    """Minimum-energy shooting: ``solve_m3(alpha, 1e-8)`` then ``transfer_time``."""

    name = "shoot"
    # a run is whole rounds of one visit to every cell, so every run holds
    # the same mix of cheap, slow and failing factors; ops cost 0.03 to 7 s,
    # so a partial round would swing the run's figures by several ops' worth
    round_size = CELLS

    def __init__(self, seed: int, workdir: str):
        self._alpha = stratified(seed)

    def input(self, i: int) -> dict:
        return {"alpha": log_uniform(self._alpha(i), ALPHA_LO, ALPHA_HI)}

    def run(self, q, inp: dict, variant: str):
        m3 = q.solve_m3(inp["alpha"], 1e-8)
        return {"m3_0": m3, "transfer_time": q.transfer_time(inp["alpha"], m3)}

    def check(self, q, inp: dict, out: dict) -> tuple[bool, str]:
        alpha, m3, T = inp["alpha"], out["m3_0"], out["transfer_time"]
        lo, hi = m3_bracket(alpha)
        if not lo < m3 < hi:
            return False, f"m3_0={m3!r} outside ({lo!r}, {hi!r})"
        if not (math.isfinite(T) and T > 0.0):
            return False, f"transfer_time={T!r}"
        miss = float(np.linalg.norm(q.transfer_endpoint(alpha, m3) - TARGET))
        if not miss <= ENDPOINT_MISS:
            return False, f"RK4 endpoint misses the target by {miss:.3g}"
        return True, f"endpoint miss {miss:.3g}"


class Synth:
    """Minimum-time synthesis to a seeded octant target: ``synthesis_law``."""

    name = "synth"
    round_size = 1

    def __init__(self, seed: int, workdir: str):
        self._alpha = stratified(seed)
        self._target = kronecker(seed + 1, 2)

    def input(self, i: int) -> dict:
        ua = self._alpha(i)
        uz, uphi = self._target(i)
        # uniform on the open positive octant: psi3 uniform, azimuth uniform
        # (Archimedes), the same law as a normalised |Gaussian| triple
        r = math.sqrt(1.0 - uz * uz)
        phi = 0.5 * math.pi * uphi
        return {
            "alpha": log_uniform(ua, ALPHA_LO, ALPHA_HI),
            "target": [r * math.cos(phi), r * math.sin(phi), uz],
        }

    def run(self, q, inp: dict, variant: str):
        law = q.synthesis_law(inp["alpha"], q.StateS2(*inp["target"]))
        return [[s.u1, s.u2, s.duration] for s in law.segments]

    def check(self, q, inp: dict, out: list) -> tuple[bool, str]:
        alpha = inp["alpha"]
        state = np.array([1.0, 0.0, 0.0])
        lowest = 0.0
        for u1, u2, dur in out:
            if max(abs(u1), abs(u2)) > 1.0 or not (math.isfinite(dur) and dur >= 0.0):
                return False, f"inadmissible segment {(u1, u2, dur)!r}"
            for k in range(1, 65):
                lowest = min(lowest, float(np.min(rotate(state, u1, u2, alpha, dur * k / 64))))
            state = rotate(state, u1, u2, alpha, dur)
        miss = float(np.linalg.norm(state - np.array(inp["target"])))
        if not miss <= SYNTHESIS_ACCEPT:
            return False, f"law endpoint misses the target by {miss:.3g}"
        if lowest < COMPONENT_FLOOR:
            return False, f"trajectory leaves the octant: component {lowest:.3g}"
        return True, f"endpoint miss {miss:.3g}"


EXPORT_COMMANDS = (
    ("sweep-synthesis", "--mode", "time", "--n", "10"),
    ("sweep-synthesis", "--mode", "energy", "--n", "10"),
    ("lift", "--mode", "time", "--energies=-1,0.3,0.7", "--phases", "0,0"),
)
# the random pulse search behind ``qoct oracle --n 4000``, called directly:
# when no candidate touches the target ball it returns an infinite time,
# which the CLI writes as a bare ``inf`` that is not valid JSON
ORACLE_CANDIDATES, ORACLE_SEGMENTS = 4000, 5
ORACLE_RADIUS = 1e-3


class Export:
    """Figure export: three in-process ``qoct.cli.main`` calls writing
    ``--out``, then the oracle's pulse search.

    A round runs the four ops in a fixed order at one seeded factor.
    """

    name = "export"
    round_size = len(EXPORT_COMMANDS) + 1

    def __init__(self, seed: int, workdir: str):
        self._alpha = stratified(seed)
        self._seed = seed
        self._workdir = workdir

    def input(self, i: int) -> dict:
        rnd, which = divmod(i, self.round_size)
        alpha = log_uniform(self._alpha(rnd), EXPORT_ALPHA_LO, EXPORT_ALPHA_HI)
        if which == len(EXPORT_COMMANDS):
            return {"search": {"alpha": alpha, "n_candidates": ORACLE_CANDIDATES,
                               "max_segments": ORACLE_SEGMENTS,
                               "seed": (self._seed * 1_000_003 + rnd) % 2**31}}
        return {"argv": [*EXPORT_COMMANDS[which], "--alpha", repr(alpha)]}

    def run(self, q, inp: dict, variant: str):
        if "search" in inp:
            return q.sample_search_min_time(**inp["search"])
        path = os.path.join(self._workdir, f"export-{variant}.out")
        rc = q.cli.main([*inp["argv"], "--out", path])
        if rc != 0:
            raise q.QoctError(f"qoct exited with code {rc}")
        with open(path, "rb") as fh:
            return fh.read()

    def check(self, q, inp: dict, out) -> tuple[bool, str]:
        if "search" in inp:
            return _check_search(inp["search"]["alpha"], *out)
        argv = inp["argv"]
        text = out.decode("utf-8")
        if argv[0] == "sweep-synthesis":
            return _check_sweep(text)
        pop = json.loads(text)["final_population"]
        if not pop >= POPULATION_FLOOR:
            return False, f"final population {pop!r} below {POPULATION_FLOOR!r}"
        return True, f"final population {pop!r}"


def _check_search(alpha: float, best: float, segments) -> tuple[bool, str]:
    closed = min_time(alpha)
    if best == math.inf:
        if segments is not None:
            return False, "no hit reported, but with a pulse"
        return True, "no candidate touched the target ball"
    # the search scores arrival in a ball around the target, which can
    # precede the exact optimum; A10 allows 5e-3
    if not best >= closed - ORACLE_MARGIN:
        return False, f"pulse search beat the optimum: {best!r} < {closed!r}"
    state = np.array([1.0, 0.0, 0.0])
    total = 0.0
    for u1, u2, dur in segments:
        if max(abs(u1), abs(u2)) > 1.0 or not (math.isfinite(dur) and dur >= 0.0):
            return False, f"inadmissible segment {(u1, u2, dur)!r}"
        state = rotate(state, u1, u2, alpha, dur)
        total += dur
    if abs(total - best) > 1e-12 * best:
        return False, f"segments last {total!r}, not the reported {best!r}"
    miss = float(np.linalg.norm(state - TARGET))
    if not miss <= ORACLE_RADIUS * (1.0 + 1e-6):
        return False, f"best pulse ends {miss:.3g} from the target"
    return True, f"best {best!r} >= optimum {closed!r}, ends {miss:.3g} from the target"


def _check_sweep(text: str) -> tuple[bool, str]:
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != "# schema=qoct-v1":
        return False, "missing '# schema=qoct-v1' header"
    if lines[1] != "t,psi1,psi2,psi3,u1,u2,param":
        return False, f"unexpected columns {lines[1]!r}"
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    except ValueError as exc:
        return False, f"unparsable row: {exc}"
    if table.ndim != 2 or table.shape[1] != 7 or not np.all(np.isfinite(table)):
        return False, "rows are ragged or hold non-finite values"
    psi = table[:, 1:4]
    lowest = float(np.min(psi))
    if lowest < COMPONENT_FLOOR:
        return False, f"min psi {lowest:.3g} below {COMPONENT_FLOOR}"
    norm_err = float(np.max(np.abs(np.sum(psi * psi, axis=1) - 1.0)))
    if norm_err > 1e-9:
        return False, f"a state is off the unit sphere by {norm_err:.3g}"
    return True, f"{len(table)} rows, min psi {lowest:.3g}"


WORKLOADS = {w.name: w for w in (Shoot, Synth, Export)}
