"""Acceptance criteria for the two syntheses, runnable as one suite.

Each criterion measures and returns its checks, ``(label, samples, bound)``
with a pinned bound from ``qoct.tolerances``; a check with bound None is a
plain yes/no.  ``evaluate`` alone takes the worst sample, decides pass or
fail and renders the line that the CLI ``verify`` subcommand prints and the
pytest gate asserts.
``fast`` mode shrinks sample counts (never tolerances) for a quick smoke run.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import tolerances as tols
from .elliptic import complete_k, sncndn
from .errors import HorizonError
from .integrator import integrate
from .lift import ComplexState, LevelSpec, simulate_complex
from .min_energy import (
    EnergyExtremal,
    classify,
    controls_at,
    extremal_control,
    extremal_control_bulk,
    m3_bounds,
    solve_m3,
    transfer_endpoint,
    transfer_time,
)
from .oracle import Splitmix64, bisect_root, quadrature, sample_search_min_time
from .so3 import SOURCE, TARGET, StateS2
from .time_optimal import (
    ControlLaw,
    law_state,
    min_time_law,
    propagate_law,
    switching_propagator,
    synthesis_law,
)

def _tol(x: float) -> str:
    """A tolerance as the table writes it: 1e-6, not 1e-06."""
    mantissa, exponent = f"{x:e}".split("e")
    return f"{float(mantissa):g}e{int(exponent)}"


# (label, samples, bound): passes when the worst sample is <= bound, so a NaN
# sample or no sample fails, or, with bound None, when the value is true; a
# plain number is its own worst sample
Check = tuple


@dataclass(frozen=True)
class CriterionResult:
    name: str
    ok: bool
    detail: str
    checks: tuple[Check, ...] = ()


@functools.lru_cache(maxsize=None)
def solved_m3(alpha: float, tol: float = tols.VERIFY_SOLVE) -> float:
    return solve_m3(alpha, tol)


def _first_v1_zero(alpha: float, m3: float) -> float:
    """Independent location of the first zero of v1 by scan plus bisection."""
    e = EnergyExtremal(alpha, m3)

    def v1(t):
        return controls_at(e, t)[0]

    hi = 0.05
    while v1(hi) > 0.0:
        hi *= 1.25
        if hi > 1e4:
            raise HorizonError(f"no v1 zero before t = 1e4 for alpha={alpha!r}, m3={m3!r}")
    lo = hi / 1.25 if hi > 0.05 else 0.0
    return bisect_root(v1, lo, hi, tols.VERIFY_ZERO_BISECT)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_01(fast: bool) -> list[Check]:
    """Isotropic minimum time: duration pi/sqrt(2), exact transfer."""
    law = min_time_law(1.0)
    d_err = abs(law.total_duration - math.pi / math.sqrt(2.0))
    miss = float(np.linalg.norm(propagate_law(SOURCE, law).endpoint - TARGET.as_array()))
    return [
        ("duration err", d_err, tols.VERIFY_ISOTROPIC_DURATION),
        ("endpoint miss", miss, tols.VERIFY_EXACT_ENDPOINT),
    ]


def criterion_02(fast: bool) -> list[Check]:
    """Nonisotropic minimum time: endpoints and stated intermediate points."""
    ends, mids = [], []
    for alpha in (0.1, 0.25, 0.5, 2.0, 4.0, 10.0):
        law = min_time_law(alpha)
        ends.append(np.linalg.norm(propagate_law(SOURCE, law).endpoint - TARGET.as_array()))
        mid = law_state(SOURCE, law, law.segments[0].duration)
        if alpha < 1.0:
            ref = np.array([0.0, math.sqrt(1.0 - alpha * alpha), alpha])
        else:
            ref = np.array(
                [1.0 / alpha, math.sqrt(1.0 - 1.0 / (alpha * alpha)), 0.0]
            )
        mids.append(np.linalg.norm(mid - ref))
    return [
        ("worst endpoint", ends, tols.VERIFY_EXACT_ENDPOINT),
        ("worst intermediate", mids, tols.VERIFY_EXACT_ENDPOINT),
    ]


def criterion_03(fast: bool) -> list[Check]:
    """Inversion symmetry of the transfer times in the nonisotropy factor."""
    rng = Splitmix64(31415)
    n = 10 if fast else 50
    devs_t = []
    for _ in range(n):
        alpha = rng.uniform(0.02, 0.999)
        t_a = min_time_law(alpha).total_duration
        t_inv = min_time_law(1.0 / alpha).total_duration
        devs_t.append(abs(t_inv - alpha * t_a))
    devs_e = []
    for alpha in (0.5,) if fast else (0.2, 0.5, 0.8):
        t_a = transfer_time(alpha, solved_m3(alpha))
        t_inv = transfer_time(1.0 / alpha, solved_m3(1.0 / alpha))
        devs_e.append(abs(t_inv - alpha * t_a))
    return [
        (f"bounded-control worst over {n} draws", devs_t, tols.VERIFY_TIME_INVERSION),
        ("energy worst", devs_e, tols.VERIFY_ENERGY_INVERSION),
    ]


def criterion_04(fast: bool) -> list[Check]:
    """Isotropic minimum energy: shooting parameter and transfer time."""
    m3 = solve_m3(1.0, tols.VERIFY_ISOTROPIC_SOLVE)
    m_err = abs(m3 - 1.0 / math.sqrt(3.0))
    t_err = abs(
        transfer_time(1.0, 1.0 / math.sqrt(3.0)) - math.sqrt(3.0) * math.pi / 2.0
    )
    return [
        ("m3(0) err", m_err, tols.VERIFY_ISOTROPIC_M3),
        ("transfer err", t_err, tols.VERIFY_ISOTROPIC_TRANSFER),
    ]


def criterion_05(fast: bool) -> list[Check]:
    """Nonisotropic minimum energy: dichotomy, bounds, endpoint, first zero."""
    alphas = (0.5, 2.0) if fast else (0.2, 0.5, 2.0, 5.0)
    inside, misses, zeros = [], [], []
    for alpha in alphas:
        m3 = solved_m3(alpha)
        lo, hi = m3_bounds(alpha)
        inside.append(lo < m3 < hi)
        misses.append(np.linalg.norm(transfer_endpoint(alpha, m3) - TARGET.as_array()))
        zeros.append(abs(transfer_time(alpha, m3) - _first_v1_zero(alpha, m3)))
    return [
        ("strictly inside bounds", all(inside), None),
        ("worst endpoint miss", misses, tols.VERIFY_ENERGY_ENDPOINT),
        ("transfer vs v1-zero", zeros, tols.VERIFY_FIRST_ZERO),
    ]


def criterion_06(fast: bool) -> list[Check]:
    """Conservation of the arclength and second integrals along extremals."""
    rng = Splitmix64(2718)
    n_ext = 6 if fast else 20
    n_grid = 300 if fast else 1000
    devs_k1, devs_k2 = [], []
    count = 0
    while count < n_ext:
        alpha = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        if abs(alpha - 1.0) < 0.05:
            continue
        m3_0 = rng.uniform(0.05, 2.5)
        count += 1
        e = EnergyExtremal(alpha, m3_0)
        ts = np.linspace(0.0, 5.0, n_grid)
        k2_ref = None
        for t in ts:
            v1, v2, m3 = controls_at(e, float(t))
            k1 = 0.5 * (v1 * v1 + v2 * v2 / (alpha * alpha))
            devs_k1.append(abs(k1 - 0.5))
            k2 = 0.5 * (v1 * v1 - alpha * alpha * m3 * m3 / (1.0 - alpha * alpha))
            if k2_ref is None:
                k2_ref = k2
            devs_k2.append(abs(k2 - k2_ref))
    samples = f"{n_ext} extremals x {n_grid} samples"
    return [
        (f"K1 dev over {samples}", devs_k1, tols.VERIFY_FIRST_INTEGRAL),
        ("K2 dev", devs_k2, tols.VERIFY_SECOND_INTEGRAL),
    ]


def _adjoint_ode_residual(e: EnergyExtremal, t: float, h: float = tols.VERIFY_FD_STEP):
    """The three equations' residuals at t, as absolute values."""
    a = e.alpha
    v1, v2, m3 = controls_at(e, t)
    diff = np.subtract(controls_at(e, t + h), controls_at(e, t - h)) / (2.0 * h)
    dv1, dv2, dm3 = diff.tolist()
    r1 = dv1 + m3 * v2
    r2 = dv2 - a * a * m3 * v1
    r3 = dm3 + (1.0 - a * a) / (a * a) * v1 * v2
    return abs(r1), abs(r2), abs(r3)


def criterion_07(fast: bool) -> list[Check]:
    """Closed forms satisfy their ODEs under central finite differences."""
    cases = [
        (0.7, 0.0),  # zero
        (0.6, 0.7),  # sub-critical
        (0.6, math.sqrt(1.0 - 0.36) / 0.6),  # critical
        (0.6, 2.0),  # super-critical
        (2.0, 0.4),  # above one
    ]
    regimes = {classify(a, m).value for a, m in cases}
    residuals = [
        _adjoint_ode_residual(EnergyExtremal(a, m), float(t))
        for a, m in cases
        for t in np.linspace(0.05, 3.0, 40)
    ]

    rng = Splitmix64(5150)
    residuals_sw = []
    h = tols.VERIFY_FD_STEP
    for _ in range(40):
        u1 = (-1.0, 0.0, 1.0)[rng.below(3)]
        u2 = (-1.0, 0.0, 1.0)[rng.below(3)]
        if u1 == 0.0 and u2 == 0.0:
            u1 = 1.0
        alpha = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        t = rng.uniform(0.0, 3.0)
        phi0 = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)])
        dphi = (
            switching_propagator(u1, u2, alpha, t + h)
            - switching_propagator(u1, u2, alpha, t - h)
        ) @ phi0 / (2.0 * h)
        phi = switching_propagator(u1, u2, alpha, t) @ phi0
        rhs = np.array(
            [
                -u2 * phi[2],
                u1 * phi[2],
                alpha * alpha * u2 * phi[0] - u1 * phi[1],
            ]
        )
        residuals_sw.append(np.abs(dphi - rhs))
    return [
        ("all five regimes covered", len(regimes) == 5, None),
        ("control ODE residual", residuals, tols.VERIFY_ODE_RESIDUAL),
        ("switching ODE residual", residuals_sw, tols.VERIFY_ODE_RESIDUAL),
    ]


def criterion_08(fast: bool) -> list[Check]:
    """Elliptic function identities, quadrature cross-check, degenerate forms."""
    rng = Splitmix64(1618)
    n = 2000 if fast else 10**4
    devs_id = []
    for _ in range(n):
        u = rng.uniform(-10.0, 10.0)
        k = rng.uniform(0.0, 0.999)
        sn, cn, dn = sncndn(u, k)
        devs_id.append((abs(sn * sn + cn * cn - 1.0), abs(dn * dn + k * k * sn * sn - 1.0)))
    devs_q = []
    for k in np.arange(0.1, 0.95, 0.1):
        ref = quadrature(
            lambda s, _k=float(k): 1.0 / math.sqrt(1.0 - _k * _k * math.sin(s) ** 2),
            0.0,
            math.pi / 2.0,
            tols.VERIFY_QUADRATURE_REFERENCE,
        )
        devs_q.append(abs(complete_k(float(k)) - ref))
    sech = 1.0 / math.cosh(0.8)
    exact = zip(
        sncndn(0.8, 0.0) + sncndn(0.8, 1.0),
        (math.sin(0.8), math.cos(0.8), 1.0, math.tanh(0.8), sech, sech),
    )
    return [
        (f"identity worst over {n} samples", devs_id, tols.VERIFY_ELLIPTIC_IDENTITY),
        ("K vs quadrature", devs_q, tols.VERIFY_QUADRATURE),
        ("degenerate forms exact", all(got == want for got, want in exact), None),
    ]


def _law_respects_switching_rules(law: ControlLaw) -> bool:
    seen_minus_u1 = False
    seen_plus_u2 = False
    for seg in law.segments:
        if seg.u1 == 1.0 and seen_minus_u1:
            return False
        if seg.u1 == -1.0:
            seen_minus_u1 = True
        if seg.u2 == -1.0 and seen_plus_u2:
            return False
        if seg.u2 == 1.0:
            seen_plus_u2 = True
    return True


def _singular_locus_drift(law: ControlLaw) -> list[float]:
    """Distances of the singular arcs' samples from their faces."""
    drift = []
    t0 = 0.0
    for seg in law.segments:
        if seg.duration > 0.0 and (seg.u1 == 0.0 or seg.u2 == 0.0):
            idx = 0 if seg.u1 == 0.0 else 2
            for f in np.linspace(0.0, 1.0, 25):
                drift.append(abs(law_state(SOURCE, law, t0 + f * seg.duration)[idx]))
        t0 += seg.duration
    return drift


def criterion_09(fast: bool) -> list[Check]:
    """Switching direction rules and singular arcs pinned to their loci."""
    laws = []
    for alpha in np.geomspace(0.1, 10.0, 7 if fast else 11):
        laws.append(min_time_law(float(alpha)))
    rng = Splitmix64(11235)
    per_alpha = 4 if fast else 10
    for alpha in (0.5, 1.0, 2.0):
        made = 0
        while made < per_alpha:
            v = np.array([rng.uniform(0, 1), rng.uniform(0.05, 1), rng.uniform(0, 1)])
            v /= np.linalg.norm(v)
            if v[1] < 0.05:
                continue
            laws.append(synthesis_law(alpha, StateS2.from_array(v)))
            made += 1
    rules = all(_law_respects_switching_rules(law) for law in laws)
    drift = [d for law in laws for d in _singular_locus_drift(law)]
    return [
        (f"direction rules of {len(laws)} emitted laws", rules, None),
        ("singular locus drift", drift, tols.VERIFY_SINGULAR_LOCUS),
    ]


def criterion_10(fast: bool) -> list[Check]:
    """Random pulse search never beats the closed-form minimum time."""
    n = 1500 if fast else 10**4
    t_start = time.perf_counter()
    # the search's lead over the optimum: by how much its best beat it
    leads = [
        min_time_law(alpha).total_duration - sample_search_min_time(alpha, n, 5, seed=20240817)[0]
        for alpha in (0.5, 1.0, 2.0)
    ]
    elapsed = time.perf_counter() - t_start
    return [
        (f"{n}-candidate search lead", leads, tols.VERIFY_SEARCH_MARGIN),
        ("elapsed s", elapsed, tols.VERIFY_SEARCH_SECONDS),
    ]


def _lift_case(alpha: float, mode: str, h: float = 1e-3):
    """Final level-3 population and population mismatches, on ``qoct lift``'s pulse path."""
    spec = LevelSpec(-1.0, 0.3, 0.7, 0.0, 0.0)
    if mode == "time":
        law = min_time_law(alpha)
        ctrl, bulk, switches = law.control, law.control_bulk, law.switch_times()
        T = law.total_duration
        real_state = lambda t: law_state(SOURCE, law, t)
    else:
        m3 = solved_m3(alpha)
        e = EnergyExtremal(alpha, m3)
        ctrl, bulk = extremal_control(e), extremal_control_bulk(e)
        T = transfer_time(alpha, m3)
        switches = ()
        ref = integrate(SOURCE, ctrl, alpha, T, h, record_every=1, bulk_control=bulk)

        def real_state(t):
            return ref.states[int(np.argmin(np.abs(ref.times - t)))]

    traj = simulate_complex(
        ComplexState(np.array([1.0 + 0.0j, 0.0j, 0.0j])),
        ctrl,
        bulk,
        spec,
        alpha,
        T,
        h,
        switch_times=switches,
        record_every=25,
    )
    pops = np.abs(traj.states) ** 2
    mismatch = [np.abs(p - real_state(t) ** 2) for t, p in zip(traj.times.tolist(), pops)]
    return float(pops[-1, 2]), mismatch


def criterion_11(fast: bool) -> list[Check]:
    """Resonant lift reproduces the transfer and the reduced populations."""
    alphas = (1.0,) if fast else (0.5, 1.0, 2.0)
    deficits, mismatch = [], []
    for alpha in alphas:
        for mode in ("time", "energy"):
            pop, case_mismatch = _lift_case(alpha, mode)
            deficits.append(1.0 - pop)
            mismatch += case_mismatch
    return [
        ("final population deficit", deficits, tols.VERIFY_POPULATION),
        ("worst population mismatch", mismatch, tols.VERIFY_POPULATION),
    ]


def _continuity_ok(values: np.ndarray) -> bool:
    if not np.all(np.isfinite(values)):
        return False
    d = np.diff(values)
    for i in range(1, len(d) - 1):
        local = 0.5 * (abs(d[i - 1]) + abs(d[i + 1]))
        if abs(d[i]) > tols.VERIFY_JUMP_FACTOR * local + tols.VERIFY_JUMP_SLACK * (
            1.0 + abs(values[i])
        ):
            return False
    return True


def criterion_12(fast: bool) -> list[Check]:
    """Emitted figure data: continuous parameter sweep, octant-clean synthesis."""
    from . import cli

    n_alpha = 7 if fast else 21
    n_traj = 4 if fast else 10
    with tempfile.TemporaryDirectory() as tmp:
        sweep_path = os.path.join(tmp, "sweep.csv")
        rc = cli.main(
            [
                "sweep-alpha",
                "--from", "0.1",
                "--to", "10",
                "--n", str(n_alpha),
                "--out", sweep_path,
            ]
        )
        data = np.genfromtxt(sweep_path, delimiter=",", skip_header=2)
        cont = (
            rc == 0
            and _continuity_ok(data[:, 1])
            and _continuity_ok(data[:, 2])
            and bool(np.all(data[:, 1] > 0))
            and bool(np.all(data[:, 2] > 0))
        )
        undershoot = []
        for mode in ("time", "energy"):
            for alpha in ("0.5", "2"):
                path = os.path.join(tmp, f"synt-{mode}-{alpha}.csv")
                rc2 = cli.main(
                    [
                        "sweep-synthesis",
                        "--alpha", alpha,
                        "--mode", mode,
                        "--n", str(n_traj),
                        "--samples", "60",
                        "--out", path,
                    ]
                )
                tab = np.genfromtxt(path, delimiter=",", skip_header=2)
                clean = rc2 == 0 and np.all(np.isfinite(tab))
                undershoot += (-tab[:, 1:4]).ravel().tolist() if clean else [math.nan]
    return [
        ("sweep continuity", cont, None),
        ("synthesis trajectories undershoot", undershoot, tols.VERIFY_COMPONENT_FLOOR),
    ]


_CRITERIA = [
    ("A01-min-time-isotropic", criterion_01),
    ("A02-min-time-nonisotropic", criterion_02),
    ("A03-inversion-symmetry", criterion_03),
    ("A04-min-energy-isotropic", criterion_04),
    ("A05-min-energy-nonisotropic", criterion_05),
    ("A06-conserved-integrals", criterion_06),
    ("A07-closed-form-ode-residuals", criterion_07),
    ("A08-elliptic-suite", criterion_08),
    ("A09-switching-rules", criterion_09),
    ("A10-brute-force-certificate", criterion_10),
    ("A11-resonant-lift", criterion_11),
    ("A12-figure-data", criterion_12),
]


def _worst(samples):
    """The largest sample, NaN if one is NaN or there is none; a number passes as is."""
    values = np.asarray(samples, dtype=float)
    if values.ndim == 0:
        return samples
    return float(np.max(values)) if values.size else math.nan


def evaluate(name: str, fn, fast: bool) -> CriterionResult:
    """Run one criterion; it passes when it returns checks and all of them hold.

    Each check's samples are reduced to their worst, and the line renders
    each check as ``label value (tol bound)``, or ``label value`` for a
    yes/no.  A criterion that raises fails with the exception as its line.
    """
    try:
        checks = tuple(
            (label, value if bound is None else _worst(value), bound)
            for label, value, bound in fn(fast)
        )
    except Exception as exc:  # a crash is a failure, not an abort
        return CriterionResult(name, False, f"raised {type(exc).__name__}: {exc}")
    ok = bool(checks) and all(bool(v) if b is None else v <= b for _, v, b in checks)
    detail = ", ".join(
        f"{label} {value}" if bound is None else f"{label} {value:.2e} (tol {_tol(bound)})"
        for label, value, bound in checks
    )
    return CriterionResult(name, ok, detail, checks)


def run_all(fast: bool = False) -> list[CriterionResult]:
    return [evaluate(name, fn, fast) for name, fn in _CRITERIA]
