"""RK4 propagation against exact rotations, order checks and event location."""

import math

import numpy as np
import pytest

from qoct import (
    DomainError,
    ExitFace,
    HorizonError,
    SOURCE,
    StepError,
    Trajectory,
    TrajectorySample,
    first_exit,
    integrate,
    min_time_law,
    propagate_law,
)
from qoct.min_energy import EnergyExtremal, extremal_control


def test_plane_rotation_endpoint():
    traj = integrate(SOURCE, lambda t: (1.0, 0.0), 1.0, math.pi / 2.0, 1e-3)
    assert np.linalg.norm(traj.endpoint - [0.0, 1.0, 0.0]) < 1e-10


def test_bang_law_agrees_with_exact_rotations():
    law = min_time_law(2.0)
    fn, switches = law.as_control()
    traj = integrate(
        SOURCE, fn, 2.0, law.total_duration, 1e-4, switch_times=switches,
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


def test_first_exit_energy_extremals():
    ctrl = extremal_control(EnergyExtremal(1.0, 0.9))
    face, _, _ = first_exit(SOURCE, ctrl, 1.0, 30.0, 1e-3)
    assert face is ExitFace.PSI2
    ctrl = extremal_control(EnergyExtremal(1.0, 1.0 / math.sqrt(3.0)))
    _, _, state = first_exit(SOURCE, ctrl, 1.0, 30.0, 1e-3)
    assert np.linalg.norm(state - [0.0, 0.0, 1.0]) < 1e-8


def test_first_exit_horizon_error():
    # zero control holds the state at the source; nothing ever crosses
    with pytest.raises(HorizonError):
        first_exit(SOURCE, lambda t: (0.0, 0.0), 1.0, 2.0, 1e-2)


def test_step_error_on_wild_dynamics():
    with pytest.raises(StepError):
        integrate(SOURCE, lambda t: (1e4, 0.0), 1.0, 1.0, 0.1)


def test_trajectory_validation():
    good = TrajectorySample(0.0, np.array([1.0, 0.0, 0.0]), 1.0, 0.0)
    later = TrajectorySample(1.0, np.array([0.0, 1.0, 0.0]), 1.0, 0.0)
    Trajectory((good, later))
    with pytest.raises(DomainError):
        Trajectory((later, good))
    with pytest.raises(DomainError):
        Trajectory((good, TrajectorySample(2.0, np.array([1.0, 1.0, 0.0]), 0, 0)))


def test_integrate_monitors():
    ctrl = extremal_control(EnergyExtremal(0.8, 1.0))
    mon = {
        "k1": lambda t, s, u1, u2: 0.5 * (u1 * u1 + u2 * u2),
        "norm_drift": lambda t, s, u1, u2: abs(
            s[0] ** 2 + s[1] ** 2 + s[2] ** 2 - 1.0
        ),
    }
    traj = integrate(SOURCE, ctrl, 0.8, 2.0, 1e-3, record_every=100, monitors=mon)
    for smp in traj.samples:
        assert abs(smp.monitors["k1"] - 0.5) < 1e-10
        assert smp.monitors["norm_drift"] < 1e-12


def test_integrate_argument_checks():
    with pytest.raises(DomainError):
        integrate(SOURCE, lambda t: (1.0, 0.0), 1.0, 1.0, -1e-3)
    with pytest.raises(DomainError):
        integrate(SOURCE, lambda t: (1.0, 0.0), -1.0, 1.0, 1e-3)


@pytest.mark.parametrize(
    "kwargs",
    [{"h": math.nan}, {"T": math.inf}, {"T": math.nan}, {"alpha": math.nan}, {"alpha": math.inf}],
)
def test_integrate_rejects_non_finite_input(kwargs):
    args = {"alpha": 1.0, "T": 1.0, "h": 1e-3, **kwargs}
    with pytest.raises(DomainError):
        integrate(SOURCE, lambda t: (1.0, 0.0), args["alpha"], args["T"], args["h"])


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
