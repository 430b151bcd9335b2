"""Switching machinery, minimum-time laws and the synthesis to targets."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoct import (
    ControlLaw,
    DomainError,
    LevelSpec,
    NoSolutionError,
    SOURCE,
    Segment,
    SingularLocusError,
    StateS2,
    TARGET,
    delta_a,
    delta_b1,
    delta_b2,
    f1,
    f2,
    lift_controls,
    min_time_law,
    propagate_law,
    switching_propagator,
    synthesis_law,
    synthesis_sweep,
    t_alpha,
)
from qoct import time_optimal as to
from qoct import tolerances as tol
from qoct.so3 import arc_form, generator, rodrigues_exp
from qoct.time_optimal import law_state

E3 = np.array([0.0, 0.0, 1.0])
DATA = pathlib.Path(__file__).parent / "data"


def test_boundary_determinants():
    assert delta_a(StateS2(1, 0, 0), 2.0) == 0.0
    assert delta_b1(StateS2(1, 0, 0), 2.0) == 2.0
    assert delta_b2(StateS2(1, 0, 0), 2.0) == 0.0
    assert delta_a(StateS2(0, 1, 0), 1.0) == 1.0
    assert delta_b1(StateS2(0, 1, 0), 1.0) == 0.0
    assert delta_b2(StateS2(0, 0, 1), 0.5) == -0.25


def test_switching_ratios():
    s = StateS2(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
    assert abs(f1(s) + 1.0) < 1e-15
    assert f1(StateS2(0, 1, 0)) == 0.0
    assert f2(StateS2(0, 1, 0), 3.0) == 0.0
    s = StateS2(0.0, 1 / math.sqrt(2), 1 / math.sqrt(2))
    assert abs(f2(s, 2.0) - 2.0) < 1e-15


def test_switching_ratios_singular_locus():
    with pytest.raises(SingularLocusError):
        f1(StateS2(1.0, 0.0, 0.0))
    with pytest.raises(SingularLocusError):
        f2(StateS2(0.0, 0.0, 1.0), 1.0)


def test_propagator_single_control_block():
    t = 0.83
    r = switching_propagator(1.0, 0.0, 1.7, t)
    expected = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(t), math.sin(t)],
            [0.0, -math.sin(t), math.cos(t)],
        ]
    )
    assert np.max(np.abs(r - expected)) < 1e-15
    assert np.array_equal(switching_propagator(1.0, 1.0, 2.0, 0.0), np.eye(3))


def test_propagator_degenerate_input():
    with pytest.raises(DomainError):
        switching_propagator(0.0, 0.0, 1.0, 1.0)


def test_propagator_satisfies_switching_ode():
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(60):
        u1 = float(rng.choice([-1.0, 0.0, 1.0]))
        u2 = float(rng.choice([-1.0, 1.0]))
        alpha = float(rng.uniform(0.3, 3.0))
        t = float(rng.uniform(0.0, 4.0))
        phi0 = rng.uniform(-1, 1, size=3)
        d = (
            switching_propagator(u1, u2, alpha, t + h)
            - switching_propagator(u1, u2, alpha, t - h)
        ) @ phi0 / (2 * h)
        phi = switching_propagator(u1, u2, alpha, t) @ phi0
        rhs = np.array(
            [-u2 * phi[2], u1 * phi[2], alpha**2 * u2 * phi[0] - u1 * phi[1]]
        )
        assert np.max(np.abs(d - rhs)) < 1e-6


def test_propagator_quadratic_form_conserved_on_double_bangs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u1 = float(rng.choice([-1.0, 1.0]))
        u2 = float(rng.choice([-1.0, 1.0]))
        alpha = float(rng.uniform(0.2, 4.0))
        t = float(rng.uniform(0.0, 5.0))
        weights = np.array([alpha * alpha, 1.0, 1.0])
        phi0 = rng.uniform(-1, 1, size=3)
        phi = switching_propagator(u1, u2, alpha, t) @ phi0
        q0 = weights @ phi0**2
        assert abs(weights @ phi**2 - q0) < 1e-12 * max(1.0, q0)


def test_double_bang_extremal_duration():
    assert abs(t_alpha(1.0) - math.pi / math.sqrt(2.0)) < 1e-15
    assert abs(t_alpha(0.5) - math.acos(-0.25) / math.sqrt(1.25)) < 1e-15
    assert abs(t_alpha(2.0) - math.acos(-0.25) / math.sqrt(5.0)) < 1e-15


def test_min_time_law_below_one():
    law = min_time_law(0.5)
    assert abs(law.total_duration - 3.7253621394292127) < 1e-12
    mid = law_state(SOURCE, law, law.segments[0].duration)
    assert np.max(np.abs(mid - [0.0, math.sqrt(0.75), 0.5])) < 1e-14
    assert [(s.u1, s.u2) for s in law.segments] == [(1.0, 1.0), (0.0, 1.0)]


def test_min_time_law_isotropic():
    law = min_time_law(1.0)
    assert len(law.segments) == 1
    assert law.total_duration == math.pi / math.sqrt(2.0)


def test_min_time_law_above_one():
    law = min_time_law(2.0)
    expected = math.acos(0.5) + math.acos(-0.25) / math.sqrt(5.0)  # ~1.8626810697
    assert abs(law.total_duration - expected) < 1e-12
    mid = law_state(SOURCE, law, law.segments[0].duration)
    assert np.max(np.abs(mid - [0.5, math.sqrt(0.75), 0.0])) < 1e-14
    assert [(s.u1, s.u2) for s in law.segments] == [(1.0, 0.0), (1.0, 1.0)]


def test_min_time_reaches_target_across_alpha():
    for alpha in np.geomspace(0.1, 10.0, 13):
        end = propagate_law(SOURCE, min_time_law(float(alpha))).endpoint
        assert np.linalg.norm(end - E3) < 1e-10


def test_min_time_inversion_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 0.999))
        t_small = min_time_law(alpha).total_duration
        t_big = min_time_law(1.0 / alpha).total_duration
        assert abs(t_big - alpha * t_small) < 1e-12


@settings(max_examples=500, deadline=None)
@given(alpha=st.one_of(st.floats(0.05, 0.999), st.floats(1.0 - 1e-11, 1.0 + 1e-11)))
@example(alpha=1.0 - 5e-13)
@example(alpha=1.0 - 2e-12)
@example(alpha=math.nextafter(1.0, 0.0))
@example(alpha=math.nextafter(1.0, 2.0))
@example(alpha=1.0)
def test_min_time_inversion_symmetry_property(alpha):
    # the two-arc formulas hold right up to alpha = 1, so the symmetry holds
    # to rounding there too
    residual = abs(min_time_law(1.0 / alpha).total_duration
                   - alpha * min_time_law(alpha).total_duration)
    assert residual <= 1e-12


def test_isotropic_law_is_the_single_double_bang():
    # the alpha <= 1 law at alpha = 1: its singular arc has zero length and
    # is dropped, and acos(-1)/sqrt(2) is pi/sqrt(2) to the bit
    assert min_time_law(1.0).segments == (Segment(1.0, 1.0, math.pi / math.sqrt(2.0)),)


@pytest.mark.parametrize(
    "alpha", [1.0 - 1e-13, 1.0 + 1e-13, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]
)
def test_factors_next_to_one_keep_both_arcs(alpha):
    law = min_time_law(alpha)
    assert len(law.segments) == 2
    end = propagate_law(SOURCE, law).endpoint
    assert np.linalg.norm(end - E3) <= tol.VERIFY_EXACT_ENDPOINT
    # the synthesis families there (three of them below one) reach octant targets
    for v in np.abs(np.random.default_rng(11).normal(size=(8, 3))):
        target = StateS2.from_array(v / np.linalg.norm(v))
        end = propagate_law(SOURCE, synthesis_law(alpha, target)).endpoint
        assert np.linalg.norm(end - target.as_array()) <= tol.VERIFY_EXACT_ENDPOINT


def test_propagate_empty_law():
    traj = propagate_law(SOURCE, ControlLaw((), 1.0))
    assert len(traj.times) == 1
    assert np.array_equal(traj.endpoint, SOURCE.as_array())


def test_synthesis_to_target_corner_matches_min_time():
    for alpha in (0.5, 1.0, 2.0):
        law = synthesis_law(alpha, TARGET)
        ref = min_time_law(alpha)
        assert len(law.segments) == len(ref.segments)
        for a, b in zip(law.segments, ref.segments):
            assert (a.u1, a.u2) == (b.u1, b.u2)
            assert abs(a.duration - b.duration) < 1e-12


def test_synthesis_to_equator_end():
    for alpha in (0.5, 1.0, 2.0):
        law = synthesis_law(alpha, StateS2(0.0, 1.0, 0.0))
        assert [(s.u1, s.u2) for s in law.segments] == [(1.0, 0.0)]
        assert abs(law.total_duration - math.pi / 2.0) < 1e-12


def test_synthesis_point_on_the_double_bang():
    for alpha in (0.5, 1.0, 2.0):
        dur = 0.6 * t_alpha(alpha)
        pt = law_state(SOURCE, ControlLaw((Segment(1, 1, dur),), alpha), dur)
        law = synthesis_law(alpha, StateS2.from_array(pt))
        assert [(s.u1, s.u2) for s in law.segments] == [(1.0, 1.0)]
        assert abs(law.total_duration - dur) < 1e-10


def test_synthesis_random_targets():
    rng = np.random.default_rng(40)
    for alpha in (0.35, 1.0, 3.0):
        done = 0
        while done < 12:
            v = np.abs(rng.normal(size=3))
            v /= np.linalg.norm(v)
            if v[1] < 0.03:
                continue
            done += 1
            law = synthesis_law(alpha, StateS2.from_array(v))
            end = propagate_law(SOURCE, law).endpoint
            assert np.linalg.norm(end - v) < 1e-9
            # the scan's grid is walked as floats, so no root is a numpy scalar
            assert all(type(s.duration) is float for s in law.segments)


def test_synthesis_time_is_additive_along_trajectories():
    # restricted to an optimal trajectory, the minimum time to a point must
    # equal the time the trajectory takes to get there
    rng = np.random.default_rng(99)
    for alpha in (0.4, 1.0, 2.5):
        done = 0
        while done < 8:
            v = np.abs(rng.normal(size=3))
            v /= np.linalg.norm(v)
            if v[1] < 0.05:
                continue
            law = synthesis_law(alpha, StateS2.from_array(v))
            t = float(rng.uniform(0.15, 0.9)) * law.total_duration
            p = law_state(SOURCE, law, t)
            if min(p) < 1e-4 or p[1] < 1e-3:
                continue
            done += 1
            sub = synthesis_law(alpha, StateS2.from_array(p / np.linalg.norm(p)))
            assert abs(sub.total_duration - t) < 1e-10


def _workload_draws(seed: int, n: int):
    """(alpha, target) as the benchmark's synth workload draws them: alpha
    log-uniform on the documented range, target uniform on the octant."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        alpha = 0.08 * (13.0 / 0.08) ** rng.uniform()
        z, phi = rng.uniform(), 0.5 * math.pi * rng.uniform()
        r = math.sqrt(1.0 - z * z)
        yield alpha, StateS2(r * math.cos(phi), r * math.sin(phi), z)


def test_synthesis_time_is_additive_at_quarter_points():
    # every prefix of an optimal law is optimal: the minimum time to the state
    # reached at t is t itself (worst relative gap 1.6e-14 over these draws)
    for alpha, target in _workload_draws(5, 40):
        law = synthesis_law(alpha, target)
        for share in (0.25, 0.5, 0.75):
            t = share * law.total_duration
            sub = synthesis_law(alpha, StateS2.from_array(law_state(SOURCE, law, t)))
            assert abs(sub.total_duration - t) <= 1e-12 * t


def test_synthesis_rejects_psi2_boundary():
    with pytest.raises(NoSolutionError):
        synthesis_law(1.0, StateS2(math.sqrt(0.5), 0.0, math.sqrt(0.5)))


def test_synthesis_psi1_boundary_flag():
    target = StateS2(0.0, math.sqrt(1.0 - 0.09), 0.3)
    law = synthesis_law(0.5, target)
    end = propagate_law(SOURCE, law).endpoint
    assert np.linalg.norm(end - target.as_array()) < 1e-9
    with pytest.raises(NoSolutionError):
        synthesis_law(0.5, target, reject_psi1_boundary=True)


def test_synthesis_rejects_outside_octant():
    with pytest.raises(DomainError):
        synthesis_law(1.0, StateS2(-0.6, 0.8, 0.0))


def test_synthesis_sweep_runs_each_law_to_octant_exit():
    for alpha in (0.3, 1.0, 3.0):
        sweep = synthesis_sweep(alpha, 12)
        params = [p for p, _ in sweep]
        assert len(sweep) == 12 and params == sorted(params)
        for _, law in sweep:
            states = propagate_law(SOURCE, law, max_step=law.total_duration / 50).states
            assert np.min(np.abs(states[-1])) <= 1e-12
            assert np.min(states[:-1]) >= -1e-12


@pytest.mark.parametrize("alpha, n", [(1.0, 0), (float("nan"), 3), (0.5, 2.5), (0.5, "3")])
def test_synthesis_sweep_rejects_bad_input(alpha, n):
    # a fractional count used to escape as range()'s TypeError
    with pytest.raises(DomainError):
        synthesis_sweep(alpha, n)


def test_source_returns_empty_law():
    law = synthesis_law(1.3, SOURCE)
    assert law.segments == ()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
def test_factor_guard(alpha):
    for fn in (t_alpha, min_time_law):
        with pytest.raises(DomainError):
            fn(alpha)
    with pytest.raises(DomainError):
        synthesis_law(alpha, StateS2(0.0, 0.6, 0.8))


# three segments with distinct controls; switches at 0.3 and 0.3 + 0.5
_LAW = ControlLaw((Segment(1.0, 0.0, 0.3), Segment(1.0, 1.0, 0.5), Segment(-1.0, 1.0, 0.4)), 2.0)


def _composed(durations) -> np.ndarray:
    """The source carried along the first len(durations) segments of _LAW."""
    state = SOURCE.as_array()
    for seg, dur in zip(_LAW.segments, durations):
        state = rodrigues_exp(generator(seg.u1, seg.u2, _LAW.alpha), dur) @ state
    return state


def test_control_clock():
    s1, s2 = _LAW.switch_times()
    assert _LAW.control(-1.0) == (1.0, 0.0)
    assert _LAW.control(0.0) == (1.0, 0.0)
    # each segment owns [start, end): a switch time belongs to the next one
    assert _LAW.control(s1) == (1.0, 1.0)
    assert _LAW.control(s2) == (-1.0, 1.0)
    assert _LAW.control(s2 - 1e-12) == (1.0, 1.0)
    assert _LAW.control(_LAW.total_duration + 5.0) == (-1.0, 1.0)
    assert ControlLaw((), 1.0).control(0.5) == (0.0, 0.0)


def test_control_clock_is_built_once():
    # the lift reads control(t) at every RK4 stage; the switch times are
    # kept with the law rather than rebuilt per call
    assert _LAW.switch_times() is _LAW.switch_times()
    assert _LAW.switch_times() == (0.3, 0.3 + 0.5)
    assert _LAW == ControlLaw(_LAW.segments, _LAW.alpha) and "_switches" not in repr(_LAW)


def test_law_state_composes_cut_segments():
    s1, s2 = _LAW.switch_times()
    assert np.array_equal(law_state(SOURCE, _LAW, 0.0), SOURCE.as_array())
    assert np.array_equal(law_state(SOURCE, _LAW, s1), _composed([0.3]))
    assert np.array_equal(law_state(SOURCE, _LAW, s2), _composed([0.3, 0.5]))
    mid = 0.55
    assert np.array_equal(law_state(SOURCE, _LAW, mid), _composed([0.3, mid - 0.3]))
    end = _composed([0.3, 0.5, 0.4])
    assert np.array_equal(law_state(SOURCE, _LAW, _LAW.total_duration + 1.0), end)
    assert np.array_equal(propagate_law(SOURCE, _LAW).endpoint, end)


@pytest.mark.parametrize(
    "law",
    [_LAW, min_time_law(0.5), min_time_law(1.9), ControlLaw((Segment(0.0, -0.0, 1.0),), 1.0)],
)
def test_bulk_control_matches_control_at_and_beside_switch_times(law):
    # bisect_right and searchsorted(side="right") give a switch time to the
    # segment it starts; one ulp either side must agree too
    edges = [0.0, *law.switch_times(), law.total_duration]
    ts = [t for s in edges for t in (math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf))]
    ts += np.linspace(0.0, law.total_duration, 101).tolist()
    u1s, u2s = law.control_bulk(np.array(ts))
    for t, u1, u2 in zip(ts, u1s.tolist(), u2s.tolist()):
        want = law.control(t)
        assert (u1.hex(), u2.hex()) == (float(want[0]).hex(), float(want[1]).hex())


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_control_rejects_a_non_finite_time(t):
    # NaN used to read as a time before the first switch
    law = min_time_law(0.5)
    for call in (law.control, ControlLaw((), 0.5).control):
        with pytest.raises(DomainError):
            call(t)
    for bulk in (law.control_bulk, ControlLaw((), 0.5).control_bulk):
        with pytest.raises(DomainError):
            bulk(np.array([0.1, t]))
    # finite times outside [0, T] keep the first and last segments' controls
    assert law.control(-1.0) == (1.0, 1.0) and law.control(1e9) == (0.0, 1.0)
    u1s, u2s = law.control_bulk(np.array([-1.0, 1e9]))
    assert (u1s.tolist(), u2s.tolist()) == ([1.0, 0.0], [1.0, 1.0])


def test_bulk_control_of_an_empty_law_is_zero():
    u1s, u2s = ControlLaw((), 1.0).control_bulk(np.array([0.0, 0.5]))
    assert u1s.tolist() == [0.0, 0.0] and u2s.tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "ts",
    [0.5, np.array(0.5), np.array([[0.1, 0.2]]), [[0.1], [0.2, 0.3]], np.array(["a"]),
     np.array([0.1j]), np.array([True]), [0.1, None]],
    ids=["float", "0-d", "2-d", "ragged", "str", "complex", "bool", "none"],
)
def test_bulk_control_refuses_anything_but_a_1d_array_of_real_times(ts):
    # a float gave scalars, a 2-d array 2-d columns, strings a bare TypeError;
    # the lift's pulse builder raised TypeError or AttributeError behind them
    for law in (min_time_law(0.5), ControlLaw((), 0.5)):
        with pytest.raises(DomainError):
            law.control_bulk(ts)
        with pytest.raises(DomainError):
            lift_controls(law.control_bulk, LevelSpec(-1.0, 0.3, 0.7))(ts)
    # integer times are real times
    law = min_time_law(0.5)
    u1s, u2s = law.control_bulk([0, 1, 3])
    assert list(zip(u1s.tolist(), u2s.tolist())) == [law.control(t) for t in (0.0, 1.0, 3.0)]


# exact octant check of synthesis candidates: the lowest component of a law,
# arc by arc, against dense sampling


def _walk(law: ControlLaw) -> tuple[np.ndarray, float]:
    """(endpoint, lowest component) of a law composed exactly from the source."""
    return to._compose(law.segments, law.alpha, SOURCE.as_array())


def _rotated(law: ControlLaw, start: np.ndarray) -> np.ndarray:
    """The law's segments applied as whole Rodrigues rotations, one by one."""
    for seg in law.segments:
        if seg.duration > 0.0:
            g = generator(seg.u1, seg.u2, law.alpha)
            start = rodrigues_exp(g, seg.duration) @ start
    return start


def _sampled_low(law: ControlLaw, samples: int) -> tuple[float, float]:
    """(lowest component, sampling error bound) of a law sampled about
    ``samples`` times, each arc's points evaluated from its start by the
    Rodrigues sum p + sin(wt)/w Gp + (1 - cos(wt))/w^2 G^2 p."""
    step = law.total_duration / samples
    state, low, err = SOURCE.as_array(), 0.0, 0.0
    for seg in law.segments:
        if seg.duration <= 0.0:
            continue
        g = generator(seg.u1, seg.u2, law.alpha)
        G, w = g.matrix(), g.rate
        n = max(1, math.ceil(seg.duration / step))
        wt = w * np.linspace(0.0, seg.duration, n + 1)
        gp, ggp = G @ state, G @ G @ state
        pts = state + np.outer(np.sin(wt) / w, gp) + np.outer((1.0 - np.cos(wt)) / (w * w), ggp)
        low = min(low, float(pts.min()))
        axis = g.axis() / w
        radius = float(np.linalg.norm(state - (state @ axis) * axis))
        err = max(err, radius * (w * seg.duration / n) ** 2 / 8.0)
        state = rodrigues_exp(g, seg.duration) @ state
    return low, err


_CONTROLS = [(u1, u2) for u1 in (-1.0, 0.0, 1.0) for u2 in (-1.0, 0.0, 1.0) if u1 or u2]


def test_compose_lowest_component_brackets_dense_sampling():
    # never above a 20 000-sample minimum (beyond rounding), never below it
    # by more than what the samples can miss, R (w dt)^2 / 8
    rng = np.random.default_rng(1212)
    for _ in range(300):
        alpha = 0.08 * (13.0 / 0.08) ** rng.uniform()
        segs = []
        for _ in range(int(rng.integers(1, 4))):
            u1, u2 = _CONTROLS[int(rng.integers(len(_CONTROLS)))]
            segs.append(Segment(u1, u2, float(rng.uniform(0.0, 3.0))))
        law = ControlLaw(tuple(segs), alpha)
        end, low = _walk(law)
        assert end.tobytes() == _rotated(law, SOURCE.as_array()).tobytes()
        sampled, err = _sampled_low(law, 20_000)
        assert low <= sampled + 1e-15
        assert low >= sampled - err - 1e-15


def _dip_law(depth: float) -> ControlLaw:
    # a standing arc at the source makes the law long, so the old 200-sample
    # check sampled the last arc, a full turn about the psi3 axis at distance
    # depth from it, only at its ends; psi1 and psi2 dip to -depth between them
    return ControlLaw(
        (
            Segment(0.0, 1.0, 1300.0),
            Segment(1.0, 0.0, math.acos(depth)),
            Segment(0.0, 1.0, 0.5 * math.pi),
            Segment(1.0, 0.0, 2.0 * math.pi),
        ),
        1.0,
    )


def test_compose_rejects_a_dip_between_the_old_samples():
    law = _dip_law(2e-9)
    old = propagate_law(SOURCE, law, max_step=law.total_duration / 200)
    assert float(np.min(old.states)) >= -tol.SYNTHESIS_ACCEPT
    _, low = _walk(law)
    assert low < -tol.SYNTHESIS_ACCEPT
    assert abs(low + 2e-9) < 1e-15
    # a dip inside the acceptance passes
    _, low = _walk(_dip_law(5e-10))
    assert -tol.SYNTHESIS_ACCEPT < low < 0.0


def test_compose_passes_arcs_on_a_face_and_zero_durations():
    # the (0,1) singular arc runs on psi1 = 0, the (1,0) arc on the equator
    for law in (min_time_law(0.5), min_time_law(2.0)):
        _, low = _walk(law)
        assert low >= -1e-15
    psi1_zero = synthesis_law(0.5, StateS2(0.0, math.sqrt(0.5), math.sqrt(0.5)))
    assert (psi1_zero.segments[-1].u1, psi1_zero.segments[-1].u2) == (0.0, 1.0)
    assert _walk(psi1_zero)[1] >= -1e-15
    law = ControlLaw((Segment(1.0, 0.0, 0.7), Segment(1.0, 1.0, 0.6)), 2.0)
    padded = ControlLaw(
        (Segment(1.0, 1.0, 0.0), law.segments[0], Segment(-1.0, 1.0, 0.0), law.segments[1]), 2.0
    )
    (end, low), (end0, low0) = _walk(padded), _walk(law)
    assert end.tobytes() == end0.tobytes() and low == low0 >= -1e-15
    assert _walk(ControlLaw((Segment(1.0, 1.0, 0.0),), 2.0))[1] == 0.0


def test_a_standing_arc_composes_silently_and_keeps_its_bits():
    # u1 = u2 = 0 holds the state (rate w = 0): it has no circle form and no
    # trough, and no division by w^2 may warn (pytest turns warnings into errors)
    law = ControlLaw(
        (Segment(1.0, 1.0, 0.4), Segment(0.0, 0.0, 2.5), Segment(0.0, 1.0, 0.3)), 0.7
    )
    end, low = _walk(law)
    assert end.tobytes() == _rotated(law, SOURCE.as_array()).tobytes()
    assert low == 0.0
    for t in (0.2, 0.4, 1.7, 2.9, 3.05, law.total_duration):
        cut, remaining = [], t
        for seg in law.segments:
            step = min(seg.duration, max(remaining, 0.0))
            cut.append(Segment(seg.u1, seg.u2, step))
            remaining -= step
        want = _rotated(ControlLaw(tuple(cut), law.alpha), SOURCE.as_array())
        assert law_state(SOURCE, law, t).tobytes() == want.tobytes()
    traj = propagate_law(SOURCE, law, max_step=0.1)
    held = traj.states[(traj.times > 0.45) & (traj.times < 2.85)]
    assert len(held) > 20 and (held == held[0]).all()
    assert np.max(np.abs(held[0] - law_state(SOURCE, law, 0.4))) < 1e-15


# -- the final arc's angle -----------------------------------------------------

UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: 0.1 < math.hypot(*v)).map(lambda v: np.array(v) / math.hypot(*v))
ARCS = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.05, 20.0)).filter(
    lambda c: math.hypot(c[0], c[2] * c[1]) > 0.01).map(lambda c: generator(*c))


@settings(max_examples=500, deadline=None)
@given(g=ARCS, p=UNIT, t=st.floats(0.0, 30.0))
@example(g=generator(1.0, 1.0, 2.0), p=np.array([1.0, 0.0, 0.0]), t=0.0)
@example(g=generator(1.0, 1.0, 2.0), p=np.array([1.0, 0.0, 0.0]),
         t=2.0 * math.pi / math.sqrt(5.0))  # one full turn
def test_final_arc_angle_gives_back_the_time_mod_the_period(g, p, t):
    w, _, B, _, _ = arc_form(g, p)
    period = 2.0 * math.pi / w
    target = rodrigues_exp(g, t) @ p
    ang = to._arc_angle_to(p, target, g)
    assert 0.0 <= ang <= 2.0 * math.pi - tol.ARC_ANGLE_WRAP
    if float(np.linalg.norm(B)) < tol.ARC_ON_AXIS:
        assert ang == 0.0
        return
    want = (t % period) * w
    gap = abs(ang - want)
    gap = min(gap, 2.0 * math.pi - gap)  # compared on the circle
    if want > 2.0 * math.pi - 2.0 * tol.ARC_ANGLE_WRAP:
        gap = min(gap, ang)  # an angle just short of 2*pi wraps to zero
    assert gap * float(np.linalg.norm(B)) <= 1e-14 * (1.0 + w * t)


def test_final_arc_angle_on_the_axis_and_near_a_full_turn():
    g = generator(1.0, 1.0, 2.0)
    w = g.rate
    axis = g.axis() / w
    assert to._arc_angle_to(axis, axis, g) == 0.0
    p = np.array([1.0, 0.0, 0.0])
    turn = 2.0 * math.pi / w
    for t in (turn, turn - 0.5 * tol.ARC_ANGLE_WRAP / w):
        assert to._arc_angle_to(p, rodrigues_exp(g, t) @ p, g) == 0.0
    t = turn - 10.0 * tol.ARC_ANGLE_WRAP / w
    ang = to._arc_angle_to(p, rodrigues_exp(g, t) @ p, g)
    assert ang > 2.0 * math.pi - 20.0 * tol.ARC_ANGLE_WRAP and abs(ang / w - t) < 1e-12
    quarter = 0.25 * turn
    assert abs(to._arc_angle_to(p, rodrigues_exp(g, quarter) @ p, g) / w - quarter) < 1e-15


@pytest.mark.parametrize("t", [math.nan, math.inf, -1e-3])
def test_law_state_rejects_non_finite_and_negative_times(t):
    # NaN and inf used to give the law's endpoint, a negative time the source
    with pytest.raises(DomainError):
        law_state(SOURCE, min_time_law(0.5), t)


def test_law_state_reports_an_overflowing_rate_as_a_domain_error():
    # the rotation is built before the arc's circle, whose inf/inf would warn
    with pytest.raises(DomainError):
        law_state(TARGET, ControlLaw((Segment(1.0, 1.0, 1.0),), 1e200), 0.5)


@pytest.mark.parametrize("max_step", [math.nan, 0.0, -0.1, math.inf])
def test_propagate_law_rejects_a_bad_max_step(max_step):
    # NaN used to raise ValueError, 0 ZeroDivisionError; a negative step was ignored
    with pytest.raises(DomainError):
        propagate_law(SOURCE, min_time_law(0.5), max_step=max_step)


@pytest.mark.parametrize("fn", [delta_a, delta_b1, delta_b2, f2])
@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0])
def test_switching_pairings_reject_a_bad_factor(fn, alpha):
    psi = StateS2(0.6, 0.64, 0.48)
    assert math.isfinite(fn(psi, 0.5))
    with pytest.raises(DomainError):
        fn(psi, alpha)


# reach screen of the synthesis families: every family that
# ``_family_candidates`` skips is one in which the unscreened scan finds no root


class _Scanned(Exception):
    """A family reached its scan."""


@pytest.fixture
def screened(monkeypatch):
    """screened(fam, alpha, target): whether ``_family_candidates`` skips the
    family before its scan.  The scan's first step is a rotation about the
    first arc's generator, which no prefix or mid arc shares, so a spy on
    ``rodrigues_exp`` stops the call there instead of running the scan."""
    first = [None]

    def spy(g, t):
        if g == first[0]:
            raise _Scanned
        return rodrigues_exp(g, t)

    monkeypatch.setattr(to, "rodrigues_exp", spy)

    def verdict(fam, alpha: float, target: np.ndarray) -> bool:
        first[0] = generator(*fam.first, alpha)
        try:
            laws = list(to._family_candidates(fam, alpha, target))
        except _Scanned:
            return False
        finally:
            first[0] = None
        assert laws == []
        return True

    return verdict


def _reference_scan(fam, alpha: float, target: np.ndarray) -> tuple[list, float, float]:
    """(roots, smallest |miss|, reach gap) of the unscreened scan of a family.

    The 257-point sign-change and snap loop of ``_family_candidates``; each
    point's first arc is the Rodrigues sum A + B cos(wa) + C sin(wa), with
    A = p + G^2 p/w^2, B = -G^2 p/w^2 and C = Gp/w, and the prefix and mid
    arcs are ``rodrigues_exp`` rotations.  A sign change is reported as its
    bracket.  The miss is the sinusoid c0 + b cos(wa) + c sin(wa) whose
    coefficients are A, B and C carried forward through the mid arcs and
    read on the final axis; the reach gap is |c0| - hypot(b, c).
    """
    p = SOURCE.as_array()
    for s in fam.prefix:
        p = rodrigues_exp(generator(s.u1, s.u2, alpha), s.duration) @ p
    g = generator(*fam.first, alpha)
    G, w = g.matrix(), g.rate
    coeffs = np.array([p + G @ G @ p / (w * w), -G @ G @ p / (w * w), G @ p / w])
    grid = np.linspace(fam.a_lo, fam.a_hi, 257)
    pts = coeffs[0] + np.outer(np.cos(w * grid), coeffs[1]) + np.outer(np.sin(w * grid), coeffs[2])
    for s in fam.mid:
        r = rodrigues_exp(generator(s.u1, s.u2, alpha), s.duration)
        pts, coeffs = pts @ r.T, coeffs @ r.T
    g_final = generator(*fam.final, alpha)
    n = g_final.axis() / g_final.rate
    vals = pts @ n - target @ n
    roots = []
    for i in range(len(grid) - 1):
        if abs(vals[i]) <= tol.SYNTHESIS_SNAP:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append((grid[i], grid[i + 1]))
    if abs(vals[-1]) <= tol.SYNTHESIS_SNAP:
        roots.append(grid[-1])
    a, b, c = (float(x) for x in coeffs @ n)
    return roots, float(np.min(np.abs(vals))), abs(a - float(target @ n)) - math.hypot(b, c)


def _net_families():
    for case in json.loads((DATA / "synthesis_laws.json").read_text()):
        alpha = float.fromhex(case["alpha"])
        target = np.array([float.fromhex(c) for c in case["target"]])
        yield alpha, target, to._families(alpha)


def _drawn_families():
    for alpha, target in _workload_draws(14, 6000):
        yield alpha, target.as_array(), to._families(alpha)


def _constructed_families():
    # families beyond the synthesis's own, each with a prefix and one or two
    # mid arcs of random controls and durations; the first control differs
    # from the prefix's and the mid arcs' (the spy needs that)
    rng = np.random.default_rng(1414)
    for alpha, target in _workload_draws(15, 1500):
        pick = [_CONTROLS[int(k)] for k in rng.permutation(len(_CONTROLS))[:4]]
        mid = [Segment(*pick[2], float(rng.uniform(0.1, 2.0)))]
        if rng.uniform() < 0.5:
            mid.append(Segment(*pick[0], float(rng.uniform(0.1, 2.0))))
        fam = to._Family(
            (Segment(*pick[0], float(rng.uniform(0.1, 2.0))),),
            pick[1],
            0.0,
            float(rng.uniform(0.5, 3.0)),
            tuple(mid),
            pick[3],
        )
        yield alpha, target.as_array(), [fam]


@pytest.mark.parametrize(
    "cases",
    [_net_families, _drawn_families, _constructed_families],
    ids=["synthesis_net", "draws", "constructed"],
)
def test_reach_screen_skips_only_families_the_scan_finds_empty(cases, screened):
    # the screen skips exactly the families whose reach gap exceeds the
    # margin; on those the miss stays beyond the margin at every grid point,
    # so the scan could neither snap nor bracket a root; when recorded, 1220
    # of the net's 4290 families and 5688 of the draws' 18000 were skipped,
    # and the smallest gap of a skipped family was 1.1e-5 (net) and 9.0e-5
    # (draws), where the scan's smallest |miss| was the same
    families, skipped = 0, 0
    for alpha, target, fams in cases():
        for fam in fams:
            roots, low, gap = _reference_scan(fam, alpha, target)
            families += 1
            skip = screened(fam, alpha, target)
            assert skip == (gap > tol.SYNTHESIS_SCREEN_MARGIN), (alpha.hex(), fam, gap)
            if skip:
                skipped += 1
                assert roots == [] and low > tol.SYNTHESIS_SCREEN_MARGIN, (alpha.hex(), fam)
    assert 0 < skipped < families


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_reach_screen_scans_a_target_just_beyond_the_tangent(alpha, screened):
    # the first family's final arc is the double bang, and at a = 0 the cone
    # level of its start is highest: a target lifted off the double bang by
    # less than the margin is beyond the sinusoid's reach by that much, yet
    # the scan still snaps at the grid's first point and yields its law
    fam = to._families(alpha)[0]
    assert (fam.first, fam.final, fam.a_lo) == ((1.0, 0.0), (1.0, 1.0), 0.0)
    g_final = generator(*fam.final, alpha)
    n = g_final.axis() / g_final.rate
    dur = 0.6 * t_alpha(alpha)
    on_arc = rodrigues_exp(g_final, dur) @ SOURCE.as_array()

    def lifted(gap: float) -> tuple[np.ndarray, float]:
        level = float(on_arc @ n)
        target = on_arc + gap / (1.0 - level * level) * n
        target /= np.linalg.norm(target)
        return target, _reference_scan(fam, alpha, target)[2]

    target, gap = lifted(2e-14)
    assert 0.0 < gap < tol.SYNTHESIS_SNAP
    assert not screened(fam, alpha, target)
    (law,) = to._family_candidates(fam, alpha, target)
    assert [(s.u1, s.u2) for s in law.segments] == [(1.0, 1.0)]
    assert abs(law.segments[0].duration - dur) < 1e-12
    assert float(np.linalg.norm(_walk(law)[0] - target)) < 1e-13

    target, gap = lifted(2.0 * tol.SYNTHESIS_SCREEN_MARGIN)
    assert gap > tol.SYNTHESIS_SCREEN_MARGIN
    assert screened(fam, alpha, target)
    assert _reference_scan(fam, alpha, target)[0] == []
