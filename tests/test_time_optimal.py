"""Switching machinery, minimum-time laws and the synthesis to targets."""

import math

import numpy as np
import pytest

from qoct import (
    ControlLaw,
    DomainError,
    NoSolutionError,
    SOURCE,
    Segment,
    SingularLocusError,
    StateS2,
    SwitchingState,
    TARGET,
    delta_a,
    delta_b1,
    delta_b2,
    f1,
    f2,
    min_time_law,
    propagate_law,
    switching_propagator,
    synthesis_law,
    synthesis_sweep,
    t_alpha,
)
from qoct import time_optimal as to
from qoct import tolerances as tol
from qoct.so3 import generator, rodrigues_exp
from qoct.time_optimal import law_state

E3 = np.array([0.0, 0.0, 1.0])


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
        phi0 = SwitchingState(*rng.uniform(-1, 1, size=3))
        phi = phi0.evolve(u1, u2, alpha, t)
        q0 = phi0.quadratic_invariant(alpha)
        assert abs(phi.quadratic_invariant(alpha) - q0) < 1e-12 * max(1.0, q0)


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


def test_synthesis_sweep_rejects_bad_input():
    with pytest.raises(DomainError):
        synthesis_sweep(1.0, 0)
    with pytest.raises(DomainError):
        synthesis_sweep(float("nan"), 3)


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
        state = rodrigues_exp(generator(seg.u1, seg.u2, _LAW.alpha), dur).apply_array(state)
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
    fn, switches = _LAW.as_control()
    assert switches == (s1, s2) and fn(s1) == _LAW.control(s1)


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


def test_bulk_control_of_an_empty_law_is_zero():
    u1s, u2s = ControlLaw((), 1.0).control_bulk(np.array([0.0, 0.5]))
    assert u1s.tolist() == [0.0, 0.0] and u2s.tolist() == [0.0, 0.0]


# exact octant check of synthesis candidates: the lowest component of a law,
# arc by arc, against dense sampling


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
        state = rodrigues_exp(g, seg.duration).apply_array(state)
    return low, err


_CONTROLS = [(u1, u2) for u1 in (-1.0, 0.0, 1.0) for u2 in (-1.0, 0.0, 1.0) if u1 or u2]


def test_arc_walk_lowest_component_brackets_dense_sampling():
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
        end, low = to._arc_walk(law)
        assert end.tobytes() == to._state_after(law.segments, alpha, SOURCE.as_array()).tobytes()
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


def test_arc_walk_rejects_a_dip_between_the_old_samples():
    law = _dip_law(2e-9)
    old = propagate_law(SOURCE, law, max_step=law.total_duration / 200)
    assert float(np.min(old.states)) >= -tol.SYNTHESIS_ACCEPT
    _, low = to._arc_walk(law)
    assert low < -tol.SYNTHESIS_ACCEPT
    assert abs(low + 2e-9) < 1e-15
    # a dip inside the acceptance passes
    _, low = to._arc_walk(_dip_law(5e-10))
    assert -tol.SYNTHESIS_ACCEPT < low < 0.0


def test_arc_walk_passes_arcs_on_a_face_and_zero_durations():
    # the (0,1) singular arc runs on psi1 = 0, the (1,0) arc on the equator
    for law in (min_time_law(0.5), min_time_law(2.0)):
        _, low = to._arc_walk(law)
        assert low >= -1e-15
    psi1_zero = synthesis_law(0.5, StateS2(0.0, math.sqrt(0.5), math.sqrt(0.5)))
    assert (psi1_zero.segments[-1].u1, psi1_zero.segments[-1].u2) == (0.0, 1.0)
    assert to._arc_walk(psi1_zero)[1] >= -1e-15
    law = ControlLaw((Segment(1.0, 0.0, 0.7), Segment(1.0, 1.0, 0.6)), 2.0)
    padded = ControlLaw(
        (Segment(1.0, 1.0, 0.0), law.segments[0], Segment(-1.0, 1.0, 0.0), law.segments[1]), 2.0
    )
    (end, low), (end0, low0) = to._arc_walk(padded), to._arc_walk(law)
    assert end.tobytes() == end0.tobytes() and low == low0 >= -1e-15
    assert to._arc_walk(ControlLaw((Segment(1.0, 1.0, 0.0),), 2.0))[1] == 0.0


@pytest.mark.parametrize("t", [math.nan, math.inf, -1e-3])
def test_law_state_rejects_non_finite_and_negative_times(t):
    # NaN and inf used to give the law's endpoint, a negative time the source
    with pytest.raises(DomainError):
        law_state(SOURCE, min_time_law(0.5), t)


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
