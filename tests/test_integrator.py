"""RK4 propagation against exact rotations, order checks and event location."""

import math
import tracemalloc

import numpy as np
import pytest

from qoct import (
    DomainError,
    ExitFace,
    HorizonError,
    SOURCE,
    StepError,
    Trajectory,
    first_exit,
    integrate,
    min_time_law,
    propagate_law,
)
from qoct import tolerances as tol
from qoct import integrator
from qoct.integrator import _rk4, _sphere_rhs, _steps, propagate
from qoct.min_energy import EnergyExtremal, extremal_control, extremal_control_bulk
from qoct.so3 import StateS2, generator, rodrigues_exp


def test_plane_rotation_endpoint():
    traj = integrate(SOURCE, lambda t: (1.0, 0.0), 1.0, math.pi / 2.0, 1e-3)
    assert np.linalg.norm(traj.endpoint - [0.0, 1.0, 0.0]) < 1e-10


def test_bang_law_agrees_with_exact_rotations():
    law = min_time_law(2.0)
    traj = integrate(
        SOURCE, law.control, 2.0, law.total_duration, 1e-4, switch_times=law.switch_times(),
        record_every=10**9,
    )
    exact = propagate_law(SOURCE, law).endpoint
    assert np.linalg.norm(traj.endpoint - exact) < 1e-8


def test_energy_extremal_reaches_target():
    m3 = 1.0 / math.sqrt(3.0)
    ctrl = extremal_control(EnergyExtremal(1.0, m3))
    T = math.sqrt(3.0) * math.pi / 2.0
    traj = integrate(SOURCE, ctrl, 1.0, T, 1e-3, record_every=10**9)
    assert np.linalg.norm(traj.endpoint - [0.0, 0.0, 1.0]) < 1e-6


@pytest.mark.parametrize(
    "w1,w2,alpha,T",
    [
        (0.7, 0.5, 1.3, 2.0),
        (1.1, 0.3, 0.6, 1.5),
        (0.2, 0.9, 2.2, 2.5),
        (0.9, 1.0, 1.0, 1.0),
        (0.4, 0.1, 0.4, 3.0),
    ],
)
def test_fourth_order_convergence(w1, w2, alpha, T):
    ctrl = lambda t: (math.cos(w1 * t), math.sin(w2 * t))
    ref = integrate(SOURCE, ctrl, alpha, T, T / 2048, record_every=10**9).endpoint
    err = []
    for n in (32, 64):
        ep = integrate(SOURCE, ctrl, alpha, T, T / n, record_every=10**9).endpoint
        err.append(np.linalg.norm(ep - ref))
    ratio = err[0] / err[1]
    assert 12.0 < ratio < 20.0, f"order ratio {ratio}"


def test_first_exit_plane_rotation():
    face, t_exit, state = first_exit(SOURCE, lambda t: (1.0, 0.0), 1.0, 10.0, 1e-3)
    assert face is ExitFace.PSI1
    assert abs(t_exit - math.pi / 2.0) < 1e-9
    assert np.linalg.norm(state - [0.0, 1.0, 0.0]) < 1e-8


def test_first_exit_bisection_stops_where_t_has_no_finer_float():
    # controls of 1e-6 cross psi2 = 0 near t = 2.2e6, where the float spacing
    # of t exceeds the 1e-11 bisection width: the loop used to run forever
    face, t_exit, state = first_exit(SOURCE, lambda t: (1e-6, 1e-6), 1.0, 1e7, 100.0)
    assert face is ExitFace.PSI2
    assert abs(state[1]) < 1e-12
    # the scan's steps end on multiples of 100; the exact rotation changes
    # the sign of psi2 across the step that holds the exit time
    g = generator(1e-6, 1e-6, 1.0)
    start = 100.0 * math.floor(t_exit / 100.0)
    assert (rodrigues_exp(g, start) @ SOURCE.as_array())[1] > 0.0
    assert (rodrigues_exp(g, start + 100.0) @ SOURCE.as_array())[1] < 0.0


def test_first_exit_energy_extremals():
    ctrl = extremal_control(EnergyExtremal(1.0, 0.9))
    face, _, _ = first_exit(SOURCE, ctrl, 1.0, 30.0, 1e-3)
    assert face is ExitFace.PSI2
    ctrl = extremal_control(EnergyExtremal(1.0, 1.0 / math.sqrt(3.0)))
    _, _, state = first_exit(SOURCE, ctrl, 1.0, 30.0, 1e-3)
    assert np.linalg.norm(state - [0.0, 0.0, 1.0]) < 1e-8


def _reference_first_exit(psi0, control, alpha, horizon, h):
    """first_exit as one ``_rk4`` call per step on the clock t += hh.

    Returns (face, exit time, exit state, whether a watched component ever
    sat in the dead band [-EXIT_DEAD_BAND, 0]).
    """
    rhs = _sphere_rhs(alpha)
    state = psi0.as_tuple()
    t = 0.0
    n = math.ceil(horizon / h)
    hh = horizon / n
    last_pos = [(0.0, state) if state[i] > 0.0 else None for i in (0, 1)]
    dipped = False
    for _ in range(n):
        state = _rk4(state, t, 1, hh, control, rhs)
        t += hh
        crossings = []
        for idx, face in ((0, ExitFace.PSI1), (1, ExitFace.PSI2)):
            if state[idx] > 0.0:
                last_pos[idx] = (t, state)
            elif state[idx] < -tol.EXIT_DEAD_BAND and last_pos[idx] is not None:
                lo_t, lo_state = last_pos[idx]
                hi_t = t
                while hi_t - lo_t > tol.EXIT_TIME_BISECT:
                    mid_t = 0.5 * (lo_t + hi_t)
                    mid_state = _rk4(lo_state, lo_t, *_steps(mid_t - lo_t, h), control, rhs)
                    if mid_state[idx] > 0.0:
                        lo_t, lo_state = mid_t, mid_state
                    else:
                        hi_t = mid_t
                crossings.append((0.5 * (lo_t + hi_t), face, lo_state))
            else:
                dipped = dipped or state[idx] >= -tol.EXIT_DEAD_BAND
        if crossings:
            t_exit, face, exit_state = min(crossings, key=lambda c: c[0])
            return face, t_exit, np.array(exit_state), dipped
    raise HorizonError("no crossing")


def _dip(y0, steps):
    """From psi2 = y0 > 0, psi2 falls by ~1e-12 per step of 1e-3 for ``steps``
    steps into the dead band, rises back, then crosses for good."""
    psi0 = StateS2(math.sqrt(1.0 - y0 * y0), y0, 0.0)

    def control(t):
        if t < steps * 1e-3 + 2e-4:
            return -1e-9, 0.0
        return (3e-8, 0.0) if t < 0.05 else (-1.0, 0.2)

    return psi0, control


def _first_exit_cases():
    crit = math.sqrt(1.0 - 0.25) / 0.5
    cases = {
        "sub-critical": (SOURCE, extremal_control(EnergyExtremal(0.5, 0.6 * crit)), 0.5),
        "super-critical": (SOURCE, extremal_control(EnergyExtremal(0.5, 1.3 * crit)), 0.5),
        "super-critical-near": (SOURCE, extremal_control(EnergyExtremal(0.5, 1.0001 * crit)), 0.5),
        "alpha-above-one": (SOURCE, extremal_control(EnergyExtremal(2.0, 0.3)), 2.0),
        "alpha-above-one-small": (SOURCE, extremal_control(EnergyExtremal(2.0, 0.02)), 2.0),
        "critical": (SOURCE, extremal_control(EnergyExtremal(0.5, crit)), 0.5),
        "alpha-one": (SOURCE, extremal_control(EnergyExtremal(1.0, 0.9)), 1.0),
        "alpha-one-target": (SOURCE, extremal_control(EnergyExtremal(1.0, 3.0**-0.5)), 1.0),
        "plane-rotation": (SOURCE, lambda t: (1.0, 0.0), 1.0),
        "dead-band-recover": (*_dip(2e-12, 5), 1.3),
        "dead-band-cross": (*_dip(2e-12, 40), 0.7),
        "no-exit": (StateS2(0.6, 0.8, 0.0), lambda t: (0.0, 0.0), 1.0),
    }
    return cases


@pytest.mark.parametrize("h", [1e-3, 2e-3])
@pytest.mark.parametrize("name", list(_first_exit_cases()))
def test_first_exit_matches_the_one_step_scan_bit_for_bit(name, h):
    psi0, control, alpha = _first_exit_cases()[name]
    horizon = 40.0
    try:
        want = _reference_first_exit(psi0, control, alpha, horizon, h)
    except HorizonError:
        with pytest.raises(HorizonError):
            first_exit(psi0, control, alpha, horizon, h)
        return
    face, t_exit, state = first_exit(psi0, control, alpha, horizon, h)
    assert face is want[0]
    assert t_exit.hex() == want[1].hex()
    assert [v.hex() for v in state.tolist()] == [v.hex() for v in want[2].tolist()]
    if name.startswith("dead-band"):
        assert want[3]


def _looped(control):
    """A bulk twin of any control: the control itself, element by element."""

    def bulk(ts):
        c1, c2 = zip(*map(control, ts.tolist()))
        return np.array(c1, dtype=float), np.array(c2, dtype=float)

    return bulk


def _first_exit_twins():
    """The extremal cases' own bulk twins, where the extremal has one."""
    crit = math.sqrt(1.0 - 0.25) / 0.5
    extremals = {
        "sub-critical": EnergyExtremal(0.5, 0.6 * crit),
        "super-critical": EnergyExtremal(0.5, 1.3 * crit),
        "super-critical-near": EnergyExtremal(0.5, 1.0001 * crit),
        "alpha-above-one": EnergyExtremal(2.0, 0.3),
        "alpha-above-one-small": EnergyExtremal(2.0, 0.02),
    }
    return {name: extremal_control_bulk(e) for name, e in extremals.items()}


@pytest.mark.parametrize("h", [1e-3, 2e-3])
@pytest.mark.parametrize("name", list(_first_exit_cases()))
def test_first_exit_with_a_bulk_twin_is_bit_identical(name, h, monkeypatch):
    # small chunks put chunk boundaries inside the dead-band dips, where the
    # scan restarts on the same table
    monkeypatch.setattr(integrator, "BULK_STEPS", 37)
    psi0, control, alpha = _first_exit_cases()[name]
    twins = _first_exit_twins()
    assert None not in twins.values()
    bulk = twins.get(name) or _looped(control)
    try:
        want = first_exit(psi0, control, alpha, 40.0, h)
    except HorizonError:
        with pytest.raises(HorizonError):
            first_exit(psi0, control, alpha, 40.0, h, bulk_control=bulk)
        return
    face, t_exit, state = first_exit(psi0, control, alpha, 40.0, h, bulk_control=bulk)
    assert face is want[0]
    assert t_exit.hex() == want[1].hex()
    assert [v.hex() for v in state.tolist()] == [v.hex() for v in want[2].tolist()]


@pytest.mark.parametrize("chunk", [1, 5, integrator.BULK_STEPS])
@pytest.mark.parametrize("h", [1e-3, 7.77e-4])
def test_integrate_with_a_bulk_twin_is_bit_identical(chunk, h, monkeypatch):
    # a law with switch times (stage times clamped to each cut) and an
    # extremal over 3000+ steps; chunks of 1 and 5 steps put boundaries
    # everywhere, the last is the module's own size
    monkeypatch.setattr(integrator, "BULK_STEPS", chunk)
    law = min_time_law(0.7)
    e = EnergyExtremal(0.5, 2.3)
    cases = [
        (law.control, law.control_bulk, 0.7, law.total_duration, law.switch_times()),
        (extremal_control(e), extremal_control_bulk(e), 0.5, 3.3, ()),
    ]
    for control, bulk, alpha, T, cuts in cases:
        want = integrate(SOURCE, control, alpha, T, h, cuts, record_every=13)
        got = integrate(SOURCE, control, alpha, T, h, cuts, record_every=13, bulk_control=bulk)
        assert got.times.tolist() == want.times.tolist()
        assert got.states.tobytes() == want.states.tobytes()
        assert got.u1.tolist() == want.u1.tolist() and got.u2.tolist() == want.u2.tolist()


def test_bulk_twin_memory_stays_flat_in_the_integration_time():
    # 10k steps: one table for all of them peaks near 6 MB under
    # tracemalloc; chunks of BULK_STEPS steps peak near 0.5 MB
    def bulk(ts):
        return np.ones(len(ts)), np.full(len(ts), 0.5)

    tracemalloc.start()
    try:
        records = propagate(
            (1.0, 0.0, 0.0), lambda t: (1.0, 0.5), _sphere_rhs(1.0), 10.0, 1e-3,
            record_every=10**9, bulk_control=bulk,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 2
    assert peak < 1_500_000


def test_first_exit_horizon_error():
    # zero control holds the state at the source; nothing ever crosses
    with pytest.raises(HorizonError):
        first_exit(SOURCE, lambda t: (0.0, 0.0), 1.0, 2.0, 1e-2)


def test_step_error_on_wild_dynamics():
    with pytest.raises(StepError):
        integrate(SOURCE, lambda t: (1e4, 0.0), 1.0, 1.0, 0.1)


def test_trajectory_validation():
    good, later = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    Trajectory([0.0, 1.0], [good, later], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        Trajectory([1.0, 0.0], [later, good], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        Trajectory([0.0, 2.0], [good, [1.0, 1.0, 0.0]], [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        Trajectory([], np.empty((0, 3)), [], [])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_trajectory_rejects_non_finite_times(bad):
    # NaN passes a plain np.diff(times) <= 0 test
    with pytest.raises(DomainError, match="finite"):
        Trajectory([0.0, bad], [[1.0, 0.0, 0.0]] * 2, [1.0, 1.0], [0.0, 0.0])


@pytest.mark.parametrize(
    "times,states,u1,u2",
    [
        ([0.0, 1.0], [[1.0, 0.0, 0.0]], [1.0, 1.0], [0.0, 0.0]),
        ([0.0, 1.0], [[1.0, 0.0, 0.0]] * 2, [1.0], [0.0, 0.0]),
        ([0.0, 1.0], [[1.0, 0.0, 0.0]] * 2, [1.0, 1.0], [0.0, 0.0, 0.0]),
        ([0.0, 1.0], [[1.0, 0.0]] * 2, [1.0, 1.0], [0.0, 0.0]),
    ],
    ids=["states", "u1", "u2", "width"],
)
def test_trajectory_rejects_unequal_columns(times, states, u1, u2):
    with pytest.raises(DomainError, match="equal lengths"):
        Trajectory(times, states, u1, u2)


def test_trajectory_columns_are_read_only_copies():
    times = np.array([0.0, 1.0])
    traj = Trajectory(times, [[1.0, 0.0, 0.0]] * 2, [1.0, 1.0], [0.0, 0.0])
    times[1] = -1.0
    assert traj.times.tolist() == [0.0, 1.0]
    for col in (traj.times, traj.states, traj.u1, traj.u2):
        with pytest.raises(ValueError):
            col[0] = 5.0
    assert traj.duration == 1.0
    assert traj.endpoint.tolist() == [1.0, 0.0, 0.0]


def test_trajectory_norm_check_covers_complex_and_nan_samples():
    unit = np.array([0.6j, 0.8 + 0.0j, 0.0j])
    Trajectory([0.0], [unit], [1.0], [0.0])
    off = np.array([0.6j, 0.8 + 0.0j, 1e-4j])  # |psi|^2 = 1 + 1e-8
    for state in (off, np.array([0.6, 0.8, math.nan])):
        with pytest.raises(DomainError, match="unit sphere"):
            Trajectory([0.0, 1.0], [unit, state], [1.0, 1.0], [0.0, 0.0])
    # one bad sample among many is found
    many = [unit] * 50
    many[31] = off
    with pytest.raises(DomainError, match="unit sphere"):
        Trajectory(np.arange(50.0), many, np.ones(50), np.zeros(50))


def test_integrate_columns_keep_k1_and_the_norm():
    ctrl = extremal_control(EnergyExtremal(0.8, 1.0))
    traj = integrate(SOURCE, ctrl, 0.8, 2.0, 1e-3, record_every=100)
    assert len(traj.times) == 21
    u1, u2, s = traj.u1, traj.u2, traj.states
    k1 = 0.5 * (u1 * u1 + u2 * u2)
    norm_drift = np.abs(s[:, 0] ** 2 + s[:, 1] ** 2 + s[:, 2] ** 2 - 1.0)
    assert np.all(np.abs(k1 - 0.5) < 1e-10)
    assert np.all(norm_drift < 1e-12)


def test_integrate_argument_checks():
    with pytest.raises(DomainError):
        integrate(SOURCE, lambda t: (1.0, 0.0), 1.0, 1.0, -1e-3)
    with pytest.raises(DomainError):
        integrate(SOURCE, lambda t: (1.0, 0.0), -1.0, 1.0, 1e-3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"h": math.nan}, {"T": math.inf}, {"T": math.nan}, {"alpha": math.nan}, {"alpha": math.inf},
        # a record count that is not a whole number >= 1, a non-finite switch
        {"record_every": 0}, {"record_every": -1}, {"record_every": 2.0},
        {"switch_times": (math.nan,)}, {"switch_times": (0.5, math.inf)},
    ],
)
def test_integrate_rejects_non_finite_input(kwargs):
    args = {"alpha": 1.0, "T": 1.0, "h": 1e-3, **kwargs}
    alpha, T, h = args.pop("alpha"), args.pop("T"), args.pop("h")
    with pytest.raises(DomainError):
        integrate(SOURCE, lambda t: (1.0, 0.0), alpha, T, h, **args)


@pytest.mark.parametrize(
    "alpha,horizon,h",
    [(1.0, math.inf, 1e-3), (1.0, math.nan, 1e-3), (1.0, 2.0, math.nan), (math.nan, 2.0, 1e-3)],
)
def test_first_exit_rejects_non_finite_input(alpha, horizon, h):
    with pytest.raises(DomainError):
        first_exit(SOURCE, lambda t: (1.0, 0.0), alpha, horizon, h)


def test_step_error_on_nan_control():
    # a NaN state fails the renormalization check instead of propagating
    with pytest.raises(StepError):
        integrate(SOURCE, lambda t: (math.nan, 0.0), 1.0, 1.0, 0.1)
