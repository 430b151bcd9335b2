"""Regimes, elliptic extremal controls, transfer times and the dichotomy."""

import json
import math
import pathlib
from decimal import Decimal

import numpy as np
import pytest

from qoct import (
    BracketError,
    DomainError,
    EnergyExtremal,
    ExitFace,
    Regime,
    SOURCE,
    classify,
    controls_at,
    energy_cost,
    energy_sweep,
    exit_face,
    extremal_control,
    integrate,
    m3_bounds,
    solve_m3,
    transfer_endpoint,
    transfer_time,
)
from qoct.acceptance import _first_v1_zero, solved_m3
from qoct.elliptic import complete_k_comp
from qoct.errors import HorizonError, RegimeError
from qoct.integrator import first_exit
from qoct import min_energy
from qoct.min_energy import _horizon, extremal_control_bulk

E3 = np.array([0.0, 0.0, 1.0])

# frozen outputs of the dichotomy at tol 1e-8, cross-validated below by
# integrating each extremal to its transfer time and by the v1-zero oracle
GOLDEN_M3 = {
    0.2: 4.898980613607849,
    0.5: 1.7417117410446115,
    2.0: 0.09159664113352266,
    5.0: 0.0006649060789662859,
}

# 30-digit roots of theta(T) = pi, written by tests/data/make_references.py
REFERENCES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "energy_references.json").read_text()
)["cases"]

# the solved m3(0), its transfer time and its comodulus k' may lie at most
# this far from the references, relative: the distance measured when the
# references were recorded (k': when this bound was added), plus 10 %; a
# change that moves toward the references tightens these, one that moves
# away fails
REFERENCE_DISTANCE = {
    0.2: (4.90e-14, 1.23e-8, 1.07e-7),
    0.5: (1.68e-9, 4.22e-8, 1.50e-7),
    2.0: (1.65e-8, 4.61e-9, 1.64e-8),
    5.0: (5.25e-8, 6.05e-9, 5.25e-8),
}


def test_classify_examples():
    assert classify(1.0, 1.0 / math.sqrt(3.0)) is Regime.SUPER_CRITICAL
    assert classify(0.5, math.sqrt(3.0)) is Regime.CRITICAL
    assert classify(2.0, 0.3) is Regime.ALPHA_ABOVE_ONE
    assert classify(0.7, 0.0) is Regime.ZERO
    assert classify(0.6, 0.5) is Regime.SUB_CRITICAL


def test_controls_start_values():
    for alpha, m3 in ((0.6, 0.0), (0.6, 0.7), (0.6, 4.0 / 3.0), (0.6, 2.0), (2.0, 0.4)):
        v1, v2, m3_t = controls_at(EnergyExtremal(alpha, m3), 0.0)
        assert abs(v1 - 1.0) < 1e-14
        assert abs(v2) < 1e-14
        assert abs(m3_t - m3) < 1e-14


def test_isotropic_controls_are_trigonometric():
    m3 = 0.813
    e = EnergyExtremal(1.0, m3)
    for t in np.linspace(0.0, 4.0, 17):
        v1, v2, m3_t = controls_at(e, float(t))
        assert abs(v1 - math.cos(m3 * t)) < 1e-14
        assert abs(v2 - math.sin(m3 * t)) < 1e-14
        assert abs(m3_t - m3) < 1e-14


def test_adjoint_ode_residual_supercritical():
    e = EnergyExtremal(0.8, 1.0)
    h = 1e-6
    for t in np.linspace(0.1, 3.0, 25):
        sp, sm, (v1, v2, m3) = (controls_at(e, tt) for tt in (t + h, t - h, t))
        assert abs((sp[0] - sm[0]) / (2 * h) + m3 * v2) < 1e-6
        assert abs((sp[1] - sm[1]) / (2 * h) - 0.64 * m3 * v1) < 1e-6
        assert abs((sp[2] - sm[2]) / (2 * h) + (1 - 0.64) / 0.64 * v1 * v2) < 1e-6


def test_transfer_time_isotropic_value():
    assert abs(
        transfer_time(1.0, 1.0 / math.sqrt(3.0)) - math.sqrt(3.0) * math.pi / 2.0
    ) < 1e-12


def test_transfer_time_matches_v1_zero():
    assert abs(transfer_time(0.9, 0.7) - _first_v1_zero(0.9, 0.7)) < 1e-8
    assert abs(transfer_time(2.0, 0.4) - _first_v1_zero(2.0, 0.4)) < 1e-7


def test_first_v1_zero_raises_horizon_error_when_v1_never_vanishes():
    # a sub-critical extremal below one: v1 keeps its sign for all time
    with pytest.raises(HorizonError, match="no v1 zero"):
        _first_v1_zero(0.5, 0.5)


def test_transfer_time_regime_errors():
    for alpha, m3 in ((0.7, 0.0), (0.6, 0.5), (0.5, math.sqrt(3.0))):
        with pytest.raises(RegimeError):
            transfer_time(alpha, m3)


def test_bounds_examples():
    lo, hi = m3_bounds(1.0)
    assert lo == 0.0 and abs(hi - 1.0 / math.sqrt(3.0)) < 1e-15
    lo, hi = m3_bounds(0.5)
    assert abs(lo - math.sqrt(3.0)) < 1e-15
    assert abs(hi - math.sqrt(13.0 / 3.0)) < 1e-15
    lo, hi = m3_bounds(5.0)
    assert lo == 0.0 and abs(hi - 1.0 / math.sqrt(3.0)) < 1e-15


def test_exit_faces_isotropic():
    assert exit_face(1.0, 0.9) is ExitFace.PSI2
    assert exit_face(1.0, 0.2) is ExitFace.PSI1
    assert exit_face(1.0, 1.0 / math.sqrt(3.0)) is ExitFace.TARGET


def test_solve_isotropic():
    assert abs(solve_m3(1.0, 1e-8) - 1.0 / math.sqrt(3.0)) < 1e-8


def test_solve_golden_fixtures():
    for alpha, golden in GOLDEN_M3.items():
        m3 = solved_m3(alpha)
        assert abs(m3 - golden) < 1e-6 * max(1.0, golden)
        lo, hi = m3_bounds(alpha)
        assert lo < m3 < hi
        # independent verification: drive the state to the transfer time
        assert np.linalg.norm(transfer_endpoint(alpha, m3) - E3) < 1e-6
        assert abs(transfer_time(alpha, m3) - _first_v1_zero(alpha, m3)) < 1e-7


@pytest.mark.parametrize("case", REFERENCES, ids=lambda c: c["alpha"])
def test_solved_m3_and_transfer_time_stay_near_the_references(case):
    alpha = float(case["alpha"])
    m3_bound, time_bound, kp_bound = REFERENCE_DISTANCE[alpha]
    m3 = solved_m3(alpha)
    ref_m3, ref_time = Decimal(case["m3_0"]), Decimal(case["transfer_time"])
    assert abs(Decimal(m3) - ref_m3) <= Decimal(m3_bound) * ref_m3
    time = transfer_time(alpha, m3)
    assert abs(Decimal(time) - ref_time) <= Decimal(time_bound) * ref_time
    ref_kp = Decimal(case["comodulus"])
    kp = EnergyExtremal(alpha, m3).comodulus
    assert abs(Decimal(kp) - ref_kp) <= Decimal(kp_bound) * ref_kp


def test_comodulus_is_the_same_at_reciprocal_factors():
    # k'(alpha) = k'(1/alpha) for the target-reaching extremal; 0.5 and 2 are
    # exact reciprocals as doubles (0.2 and 5 are not), so the references
    # agree to their digits and the solved k' within both distances
    ref = {c["alpha"]: Decimal(c["comodulus"]) for c in REFERENCES}
    assert abs(ref["0.5"] - ref["2"]) <= Decimal("1e-28")
    half, two = (EnergyExtremal(a, solved_m3(a)).comodulus for a in (0.5, 2.0))
    bound = REFERENCE_DISTANCE[0.5][2] + REFERENCE_DISTANCE[2.0][2]
    assert abs(Decimal(half) - Decimal(two)) <= Decimal(bound) * ref["2"]


def test_solve_symmetry_pair():
    t_half = transfer_time(0.5, solved_m3(0.5))
    t_two = transfer_time(2.0, solved_m3(2.0))
    assert abs(t_two - 0.5 * t_half) < 1e-6


def test_energy_cost_equals_time():
    e = EnergyExtremal(0.8, 1.1)
    assert energy_cost(e, 0.0) == 0.0
    assert abs(energy_cost(e, 2.0) - 2.0) < 1e-8
    zero = EnergyExtremal(1.3, 0.0)
    assert abs(energy_cost(zero, 2.0) - 2.0) < 1e-12


def test_v1_decreasing_until_half_period():
    for alpha, m3 in ((0.7, 1.6), (1.0, 0.9), (2.5, 0.3), (0.6, 0.7)):
        e = EnergyExtremal(alpha, m3)
        stop = min(0.999 * e.half_period, 8.0)
        ts = np.linspace(0.0, stop, 1000)
        vals = [controls_at(e, float(t))[0] for t in ts]
        assert all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_monotone_separation_in_m3():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 100:
        alpha = float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        if abs(alpha - 1.0) < 0.02:
            continue
        a, b = sorted(rng.uniform(0.05, 2.0, size=2))
        if b - a < 1e-3:
            continue
        ea, eb = EnergyExtremal(alpha, float(a)), EnergyExtremal(alpha, float(b))
        t = float(rng.uniform(0.0, 0.5 * min(ea.half_period, eb.half_period, 12.0)))
        if t <= 1e-6:
            continue
        checked += 1
        assert controls_at(ea, t)[0] > controls_at(eb, t)[0] - 1e-12


def test_state_monotonicities_along_extremal():
    for alpha, m3 in ((0.8, 1.0), (1.0, 0.45), (2.0, 0.3)):
        e = EnergyExtremal(alpha, m3)
        ctrl = extremal_control(e)
        _, t_exit, _ = first_exit(SOURCE, ctrl, alpha, _horizon(e), 1e-3)
        traj = integrate(SOURCE, ctrl, alpha, t_exit, 1e-3, record_every=5)
        psi3 = traj.states[:, 2]
        assert np.all(np.diff(psi3) > -1e-10)
        for t in traj.times.tolist():
            _, v2, m3_t = controls_at(e, t)
            assert v2 >= -1e-10
            assert m3_t >= -1e-10


def test_solve_at_the_sweep_edges():
    # the solution hugs the lower bound exponentially tightly here; the
    # log-scale dichotomy must still resolve it to float-limited accuracy
    m3 = solve_m3(0.1, 1e-8)
    lo, _ = m3_bounds(0.1)
    assert 0.0 < m3 - lo < 1e-11
    t_small = transfer_time(0.1, m3)
    t_big = transfer_time(10.0, solve_m3(10.0, 1e-8))
    assert abs(t_big - 0.1 * t_small) < 1e-3  # float-resolution limited


def test_solve_raises_beyond_float_resolution():
    with pytest.raises(BracketError):
        solve_m3(20.0, 1e-8)


def test_solve_rejects_bad_bracket(monkeypatch):
    import qoct.min_energy as me

    # force both bracket ends to report the same face
    monkeypatch.setattr(
        me, "_exit_event", lambda alpha, m3, h: (ExitFace.PSI1, 1.0, np.array([0.0, 1.0, 0.0]))
    )
    with pytest.raises(BracketError):
        me.solve_m3(0.5, 1e-6)


@pytest.mark.parametrize("alpha,m3", [(math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0), (0.5, -1.0)])
def test_classify_rejects_bad_input(alpha, m3):
    with pytest.raises(DomainError):
        classify(alpha, m3)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0])
def test_bounds_reject_bad_factor(alpha):
    with pytest.raises(DomainError):
        m3_bounds(alpha)


@pytest.mark.parametrize("kwargs", [{"tol_m3": math.nan}, {"tol_m3": 0.0}])
def test_solve_rejects_bad_tolerance_before_integrating(kwargs):
    # tol_m3 = nan used to run the whole dichotomy and return the lower bound
    with pytest.raises(DomainError):
        solve_m3(0.5, **kwargs)


def test_energy_sweep_runs_each_extremal_to_the_boundary():
    sweep = energy_sweep(2.0, 3, 5)
    assert [m for m, _ in sweep] == sorted(m for m, _ in sweep)
    for _, traj in sweep:
        end = traj.endpoint
        assert min(end[0], end[1]) < 1e-9
        assert len(traj.times) <= 12
    with pytest.raises(DomainError):
        energy_sweep(2.0, 0, 5)


@pytest.mark.parametrize("n, samples", [(2.5, 10), (3, 0.5), (3, 2.5), (None, 10)])
def test_energy_sweep_rejects_fractional_counts_before_solving(n, samples, monkeypatch):
    # n = 2.5 used to escape as range()'s TypeError, after a full solve
    def no_solve(*args):
        raise AssertionError("solved before checking the counts")

    monkeypatch.setattr(min_energy, "solve_m3", no_solve)
    with pytest.raises(DomainError):
        energy_sweep(0.5, n, samples)


def test_solve_raises_when_the_best_endpoint_misses():
    # the best RK4 transfer endpoint misses the target by 2.1e-3 here; the
    # solve used to return it without error
    with pytest.raises(BracketError, match="best transfer-endpoint miss"):
        solve_m3(0.094, 1e-8)


# one extremal per regime: exact agreement is required at the dyadic factors,
# where the closures' u2 and controls_at's v2 / alpha differ by a power of two
CLOSURE_CASES = [
    (0.5, 0.0, Regime.ZERO, 0.0),
    (0.5, 0.9, Regime.SUB_CRITICAL, 0.0),
    (0.5, math.sqrt(3.0), Regime.CRITICAL, 0.0),
    (0.5, 2.5, Regime.SUPER_CRITICAL, 0.0),
    (2.0, 0.3, Regime.ALPHA_ABOVE_ONE, 0.0),
    (2.0, 0.0, Regime.ZERO, 0.0),
    (0.7, 0.6, Regime.SUB_CRITICAL, 1e-15),
    (0.7, math.sqrt(1.0 - 0.49) / 0.7, Regime.CRITICAL, 1e-15),
    (0.7, 1.6, Regime.SUPER_CRITICAL, 1e-15),
    (1.3, 0.2, Regime.ALPHA_ABOVE_ONE, 1e-15),
]


@pytest.mark.parametrize("alpha,m3,regime,tol", CLOSURE_CASES)
def test_control_closure_matches_controls_at(alpha, m3, regime, tol):
    e = EnergyExtremal(alpha, m3)
    assert e.regime is regime
    ctrl = extremal_control(e)
    for t in np.linspace(0.0, 40.0, 2001):
        v1, v2, _ = controls_at(e, float(t))
        u1, u2 = ctrl(float(t))
        if tol == 0.0:
            assert (u1, u2) == (v1, v2 / alpha)
        else:
            assert abs(u1 - v1) <= tol and abs(u2 - v2 / alpha) <= tol


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize(
    "alpha, m3, regime",
    [
        (0.6, 0.0, Regime.ZERO),
        (2.0, 0.0, Regime.ZERO),
        (0.6, 0.8 / 0.6, Regime.CRITICAL),
        (1.0, 1e-9, Regime.CRITICAL),  # rate 0 at alpha = 1
    ],
)
def test_zero_and_critical_controls_keep_their_closed_forms(alpha, m3, regime):
    # both regimes run through the sub-critical dn form, at modulus 0 and 1;
    # the reference is the pair of closed forms they used to have
    e = EnergyExtremal(alpha, m3)
    assert e.regime is regime
    ctrl = extremal_control(e)
    for t in np.linspace(0.0, 50.0, 2001).tolist():
        if regime is Regime.ZERO:
            want_sample, want_ctrl = (1.0, 0.0, 0.0), (1.0, 0.0)
        else:
            arg = e.rate * t
            sech = 1.0 / math.cosh(arg)
            want_sample = (sech, alpha * math.tanh(arg), m3 * sech)
            want_ctrl = (1.0 / math.cosh(arg), math.tanh(arg))
        assert _bits(controls_at(e, t)) == _bits(want_sample)
        assert _bits(ctrl(t)) == _bits(want_ctrl)


@pytest.mark.parametrize(
    "alpha, m3, regime",
    [
        (0.5, 0.3, Regime.SUB_CRITICAL),
        (0.5, 1.7, Regime.SUB_CRITICAL),
        (0.5, 1.8, Regime.SUPER_CRITICAL),
        (0.5, 9.0, Regime.SUPER_CRITICAL),
        (0.999, 0.9, Regime.SUPER_CRITICAL),
        (2.0, 0.3, Regime.ALPHA_ABOVE_ONE),
        (2.0, 0.02, Regime.ALPHA_ABOVE_ONE),
        # the zero and critical regimes, moduli within the kernel's closed-form
        # windows of 0 and 1, and the solved alpha = 1 extremal (modulus 0)
        (0.5, 0.0, Regime.ZERO),
        (0.5, math.sqrt(0.75) / 0.5, Regime.CRITICAL),
        (0.5, 1e-12, Regime.SUB_CRITICAL),  # k below ELLIPTIC_DEGENERATE
        (0.5, 1e12, Regime.SUPER_CRITICAL),  # k below ELLIPTIC_DEGENERATE
        (1.0, 0.9, Regime.SUPER_CRITICAL),  # k = 0: trigonometric controls
        (2.0, 1e-9, Regime.ALPHA_ABOVE_ONE),  # 1 - k below ELLIPTIC_DEGENERATE_ONE
        (1.0, None, Regime.SUPER_CRITICAL),  # solved
    ],
)
def test_bulk_extremal_control_matches_the_closure_bit_for_bit(alpha, m3, regime):
    if m3 is None:
        m3 = solved_m3(alpha)
    e = EnergyExtremal(alpha, m3)
    assert e.regime is regime
    ctrl, bulk = extremal_control(e), extremal_control_bulk(e)
    ts = np.concatenate(([0.0, 1e-300], np.random.default_rng(5).uniform(0.0, 40.0, 1500),
                         np.linspace(0.0, 40.0, 4001)))
    u1s, u2s = bulk(ts)
    for t, u1, u2 in zip(ts.tolist(), u1s, u2s):
        assert _bits((u1, u2)) == _bits(ctrl(t))
    want = integrate(SOURCE, ctrl, alpha, 1.5, 1e-3, record_every=7)
    got = integrate(SOURCE, ctrl, alpha, 1.5, 1e-3, record_every=7, bulk_control=bulk)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert got.u1.tobytes() == want.u1.tobytes() and got.u2.tobytes() == want.u2.tobytes()


@pytest.mark.parametrize(
    "alpha, m3, regime",
    [
        (0.5, 0.6, Regime.SUB_CRITICAL),  # 0.34x the solved value
        (0.5, 1.9, Regime.SUPER_CRITICAL),  # 1.09x
        (0.7, 0.5, Regime.SUB_CRITICAL),
        (0.7, 5.0, Regime.SUPER_CRITICAL),  # about 4x
        (1.3, 0.4, Regime.ALPHA_ABOVE_ONE),
        (2.0, 1.5, Regime.ALPHA_ABOVE_ONE),
    ],
)
def test_first_integrals_along_rk4_extremals(alpha, m3, regime):
    # L = (v2/alpha^2, -m3, v1) has constant length and stays orthogonal to
    # psi (worst here: 2.5e-13 and 8.2e-16 relative)
    e = EnergyExtremal(alpha, m3)
    assert e.regime is regime
    traj = integrate(SOURCE, extremal_control(e), alpha, 3.0, 1e-3)
    lengths = []
    for t, state in zip(traj.times.tolist(), traj.states):
        v1, v2, m3_t = controls_at(e, t)
        L = np.array([v2 / (alpha * alpha), -m3_t, v1])
        lengths.append(np.linalg.norm(L))
        assert abs(state @ L) <= 1e-11 * lengths[-1]
    assert (max(lengths) - min(lengths)) <= 1e-12 * lengths[0]


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "alpha,m3",
    [(0.5, 0.0), (0.5, 0.9), (0.5, math.sqrt(3.0)), (0.5, 2.5), (2.0, 0.3)],
    ids=["zero", "sub", "critical", "super", "above-one"],
)
def test_controls_at_rejects_non_finite_times(alpha, m3, t):
    # the zero regime used to return (1, 0, 0) and the critical one NaNs
    e = EnergyExtremal(alpha, m3)
    assert all(map(math.isfinite, controls_at(e, 0.7)))
    with pytest.raises(DomainError):
        controls_at(e, t)


@pytest.mark.parametrize(
    "alpha, m3",
    [(0.5, 0.0), (0.5, math.sqrt(0.75) / 0.5), (0.5, 1.7), (0.5, 9.0), (2.0, 0.3)],
)
def test_control_closure_calls_a_wrapped_kernel_once_per_evaluation(alpha, m3, monkeypatch):
    # the benchmark's per-layer counters wrap min_energy.sncndn before an op
    # builds its closures, and count every evaluation through the wrapper
    calls = []
    kernel = min_energy.sncndn

    def counted(u, k):
        calls.append(u)
        return kernel(u, k)

    monkeypatch.setattr(min_energy, "sncndn", counted)
    ctrl = extremal_control(EnergyExtremal(alpha, m3))
    times = [0.0, 0.25, 0.25, 1.5, 7.0]
    for t in times:
        ctrl(t)
    assert len(calls) == len(times)


def _parent_quarter(e):
    return complete_k_comp(e.comodulus) / e.rate


def _parent_transfer_time(e):
    if e.comodulus <= 0.0:
        return math.inf
    return _parent_quarter(e)


def _parent_half_period(e):
    if e.regime in (Regime.ZERO, Regime.CRITICAL) or e.comodulus <= 0.0:
        return math.inf
    kk = complete_k_comp(e.comodulus)
    if e.regime is Regime.SUB_CRITICAL:
        return kk / e.rate
    return 2.0 * kk / e.rate


def _parent_horizon(e):
    base = math.sqrt(3.0) * math.pi / 2.0 * max(1.0, 1.0 / e.alpha)
    if e.regime in (Regime.SUPER_CRITICAL, Regime.ALPHA_ABOVE_ONE):
        scale = _parent_transfer_time(e)
    elif e.regime is Regime.SUB_CRITICAL and e.comodulus > 0.0:
        scale = _parent_quarter(e)
    elif e.regime is Regime.CRITICAL and e.rate > 0.0:
        scale = 25.0 / e.rate
    else:
        scale = math.pi
    return 10.0 * max(base, min(scale, 100.0 * base))


QUARTER_PERIOD_CASES = [
    (0.5, 0.0, Regime.ZERO),
    (2.0, 0.0, Regime.ZERO),
    (0.5, math.sqrt(0.75) / 0.5, Regime.CRITICAL),
    (1.0, 0.0, Regime.ZERO),
    (1.0, 1e-9, Regime.CRITICAL),  # rate 0
    (0.5, 0.3, Regime.SUB_CRITICAL),
    (0.5, 1.7, Regime.SUB_CRITICAL),
    (0.08, 12.0, Regime.SUB_CRITICAL),
    (0.5, 1.8, Regime.SUPER_CRITICAL),
    (0.5, 9.0, Regime.SUPER_CRITICAL),
    (1.0, 0.9, Regime.SUPER_CRITICAL),
    (0.5, 1e12, Regime.SUPER_CRITICAL),
    (2.0, 0.3, Regime.ALPHA_ABOVE_ONE),
    (2.0, 1e-9, Regime.ALPHA_ABOVE_ONE),
    (13.0, 0.01, Regime.ALPHA_ABOVE_ONE),
]


@pytest.mark.parametrize("alpha, m3, regime", QUARTER_PERIOD_CASES)
def test_quarter_period_readers_keep_their_formulas_bit_for_bit(alpha, m3, regime):
    e = EnergyExtremal(alpha, m3)
    assert e.regime is regime
    assert e.half_period.hex() == _parent_half_period(e).hex()
    assert _horizon(e).hex() == _parent_horizon(e).hex()
    if regime in (Regime.SUPER_CRITICAL, Regime.ALPHA_ABOVE_ONE):
        assert transfer_time(alpha, m3).hex() == _parent_transfer_time(e).hex()
    else:
        with pytest.raises(RegimeError):
            transfer_time(alpha, m3)


@pytest.mark.parametrize("alpha, m3", [(0.5, 1.7), (0.5, 9.0), (2.0, 0.3)])
def test_a_zero_comodulus_gives_infinite_periods(alpha, m3):
    # k' = 0 is out of reach of the constructor outside the critical window;
    # set it by hand before the quarter period is first read
    e = EnergyExtremal(alpha, m3)
    object.__setattr__(e, "comodulus", 0.0)
    assert e._quarter_period == math.inf
    assert e.half_period == math.inf
    assert _horizon(e).hex() == _parent_horizon(e).hex()
