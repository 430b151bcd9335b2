"""Resonant lifting of real controls and recovery of the reduced dynamics."""

import cmath
import math

import numpy as np
import pytest

from qoct import (
    ComplexState,
    ControlLaw,
    ConsistencyError,
    DomainError,
    LevelSpec,
    SOURCE,
    Segment,
    StepError,
    interaction_picture,
    lift_controls,
    lift_controls_bulk,
    min_time_law,
    simulate_complex,
)
from qoct.min_energy import (
    EnergyExtremal,
    extremal_control,
    extremal_control_bulk,
    transfer_time,
)
from qoct.integrator import integrate
from qoct.time_optimal import law_state

SPEC = LevelSpec(-1.0, 0.3, 0.7, 0.0, 0.0)
PSI0 = ComplexState(np.array([1.0 + 0.0j, 0.0j, 0.0j]))


def law_pulses(law, spec):
    f1, f2 = lift_controls(law.control, spec)
    return f1, f2, law.switch_times()


def test_lifted_pulse_phases():
    spec = LevelSpec(0.0, 0.0, 0.5, 0.0, 0.0)
    f1, _ = lift_controls(lambda t: (1.0, 0.0), spec)
    for t in (0.0, 0.7, 2.0):
        assert abs(f1(t) - 1.0) < 1e-15
    spec = LevelSpec(0.0, 1.0, 1.0, math.pi / 2.0, 0.0)
    f1, _ = lift_controls(lambda t: (1.0, 0.0), spec)
    assert abs(f1(math.pi) - cmath.exp(1j * 1.5 * math.pi)) < 1e-14


def test_lifted_pulse_modulus_matches_amplitude():
    spec = LevelSpec(-0.4, 0.9, 1.3, 0.8, -0.2)
    u1 = lambda t: math.cos(3 * t) * 0.7
    u2 = lambda t: math.sin(2 * t)
    f1, f2 = lift_controls(lambda t: (u1(t), u2(t)), spec)
    for t in np.linspace(0, 3, 20):
        assert abs(abs(f1(t)) - abs(u1(t))) < 1e-14
        assert abs(abs(f2(t)) - abs(u2(t))) < 1e-14


def test_free_evolution_keeps_populations():
    zero = lambda t: 0.0 + 0.0j
    start = ComplexState(np.array([0.6 + 0.0j, 0.48j, 0.64 + 0.0j]))
    traj = simulate_complex(start, zero, zero, SPEC, 1.0, 3.0, 1e-3, record_every=100)
    pops0 = start.populations()
    for state in traj.states:
        assert np.max(np.abs(np.abs(state) ** 2 - pops0)) < 1e-10


def test_min_time_transfer_survives_the_lift():
    law = min_time_law(1.0)
    f1, f2, switches = law_pulses(law, SPEC)
    traj = simulate_complex(
        PSI0, f1, f2, SPEC, 1.0, law.total_duration, 1e-3, switch_times=switches
    )
    assert abs(traj.endpoint[2]) ** 2 >= 1.0 - 1e-6


def test_energy_transfer_survives_the_lift():
    alpha, m3 = 2.0, 0.09159664366351113
    f1, f2 = lift_controls(extremal_control(EnergyExtremal(alpha, m3)), SPEC)
    T = transfer_time(alpha, m3)
    traj = simulate_complex(PSI0, f1, f2, SPEC, alpha, T, 1e-3)
    assert abs(traj.endpoint[2]) ** 2 >= 1.0 - 1e-5


def test_interaction_picture_recovers_bang_trajectory():
    law = min_time_law(0.5)
    f1, f2, switches = law_pulses(law, SPEC)
    traj = simulate_complex(
        PSI0, f1, f2, SPEC, 0.5, law.total_duration, 1e-3,
        switch_times=switches, record_every=20,
    )
    real = interaction_picture(traj, SPEC)
    for t, state in zip(real.times.tolist(), real.states):
        assert np.max(np.abs(state - law_state(SOURCE, law, t))) < 1e-6


def test_interaction_picture_recovers_energy_trajectory():
    m3 = 1.0 / math.sqrt(3.0)
    ctrl = extremal_control(EnergyExtremal(1.0, m3))
    T = transfer_time(1.0, m3)
    f1, f2 = lift_controls(ctrl, SPEC)
    traj = simulate_complex(PSI0, f1, f2, SPEC, 1.0, T, 1e-3, record_every=20)
    real = interaction_picture(traj, SPEC)
    ref = integrate(SOURCE, ctrl, 1.0, T, 1e-3, record_every=20)
    assert np.allclose(real.times, ref.times)
    assert np.max(np.abs(real.states - ref.states)) < 1e-6


def test_populations_independent_of_phases():
    rng = np.random.default_rng(8)
    law = min_time_law(1.0)
    ref = None
    for _ in range(10):
        spec = LevelSpec(
            -1.0, 0.3, 0.7,
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        f1, f2, switches = law_pulses(law, spec)
        traj = simulate_complex(
            PSI0, f1, f2, spec, 1.0, law.total_duration, 2e-3,
            switch_times=switches, record_every=50,
        )
        pops = np.abs(traj.states) ** 2
        if ref is None:
            ref = pops
        else:
            assert np.max(np.abs(pops - ref)) < 1e-6


def test_random_energy_triples():
    rng = np.random.default_rng(15)
    law = min_time_law(2.0)
    for _ in range(5):
        energies = rng.uniform(-2.0, 2.0, size=3)
        spec = LevelSpec(*(float(e) for e in energies), 0.1, -0.4)
        f1, f2, switches = law_pulses(law, spec)
        traj = simulate_complex(
            PSI0, f1, f2, spec, 2.0, law.total_duration, 1e-3, switch_times=switches
        )
        assert abs(traj.endpoint[2]) ** 2 >= 1.0 - 1e-6


def test_norm_conserved():
    law = min_time_law(0.5)
    f1, f2, switches = law_pulses(law, SPEC)
    traj = simulate_complex(
        PSI0, f1, f2, SPEC, 0.5, law.total_duration, 1e-4,
        switch_times=switches, record_every=200,
    )
    for state in traj.states:
        assert abs(float(np.sum(np.abs(state) ** 2)) - 1.0) < 1e-9


def test_wrong_phases_raise_consistency_error():
    spec = LevelSpec(-1.0, 0.3, 0.7, 0.9, -0.7)
    law = min_time_law(1.0)
    f1, f2, switches = law_pulses(law, spec)
    traj = simulate_complex(
        PSI0, f1, f2, spec, 1.0, law.total_duration, 1e-3,
        switch_times=switches, record_every=50,
    )
    with pytest.raises(ConsistencyError):
        interaction_picture(traj, SPEC)  # phases do not match the drive


def test_step_error_on_wild_dynamics():
    # the complex path applies the same renormalization limit as the sphere
    with pytest.raises(StepError):
        simulate_complex(PSI0, lambda t: 1e4, lambda t: 0.0, SPEC, 1.0, 1.0, 0.1)


@pytest.mark.parametrize(
    "alpha,T,h",
    [(1.0, 1.0, math.nan), (1.0, math.inf, 1e-3), (math.nan, 1.0, 1e-3), (-1.0, 1.0, 1e-3)],
)
def test_simulate_complex_rejects_bad_input(alpha, T, h):
    zero = lambda t: 0.0j
    with pytest.raises(DomainError):
        simulate_complex(PSI0, zero, zero, SPEC, alpha, T, h)


@pytest.mark.parametrize(
    "kwargs",
    [{"record_every": 0}, {"record_every": -1}, {"switch_times": (0.5, math.nan)}],
)
def test_simulate_complex_rejects_a_bad_record_count_or_switch_time(kwargs):
    zero = lambda t: 0.0j
    with pytest.raises(DomainError):
        simulate_complex(PSI0, zero, zero, SPEC, 1.0, 1.0, 1e-3, **kwargs)


def test_samples_record_pulse_modulus_at_sample_time():
    ramp = lambda t: 0.1 * t * cmath.exp(2j * t)
    traj = simulate_complex(PSI0, ramp, ramp, SPEC, 1.0, 1.0, 1e-2, record_every=7)
    for t, u1, u2 in zip(traj.times.tolist(), traj.u1.tolist(), traj.u2.tolist()):
        assert u1 == abs(ramp(t)) and u2 == abs(ramp(t))


def _complex_bits(values) -> list[tuple[str, str]]:
    return [(z.real.hex(), z.imag.hex()) for z in map(complex, values)]


def _law_and_extremal_controls():
    # a zero-control segment: the pulses' signed zeros must agree too
    segments = (Segment(1.0, 0.0, 0.4), Segment(0.0, -0.0, 0.3), *min_time_law(0.8).segments)
    law = ControlLaw(segments, 0.8)
    e = EnergyExtremal(2.0, 0.3)
    return {
        "law": (law.control, law.control_bulk, law.total_duration, law.switch_times()),
        "extremal": (extremal_control(e), extremal_control_bulk(e), transfer_time(2.0, 0.3), ()),
    }


@pytest.mark.parametrize("source", ["law", "extremal"])
@pytest.mark.parametrize(
    "spec", [SPEC, LevelSpec(-1.0, 0.3, 0.7, 0.3, -1.0), LevelSpec(0.0, 0.0, 2.5, -3.0, 0.0)]
)
def test_bulk_pulses_match_the_scalar_pulses_bit_for_bit(source, spec):
    control, bulk, T, _ = _law_and_extremal_controls()[source]
    f1, f2 = lift_controls(control, spec)
    ts = np.concatenate(([0.0], np.random.default_rng(2).uniform(0.0, T, 1000)))
    f1s, f2s = lift_controls_bulk(bulk, spec)(ts)
    assert f1s.dtype == complex and f2s.dtype == complex
    assert _complex_bits(f1s) == _complex_bits(f1(t) for t in ts.tolist())
    assert _complex_bits(f2s) == _complex_bits(f2(t) for t in ts.tolist())


@pytest.mark.parametrize("source", ["law", "extremal"])
def test_simulate_complex_with_bulk_pulses_is_bit_identical(source):
    control, bulk, T, switches = _law_and_extremal_controls()[source]
    spec = LevelSpec(-1.0, 0.3, 0.7, 0.3, -1.0)
    f1, f2 = lift_controls(control, spec)
    runs = [
        simulate_complex(PSI0, f1, f2, spec, 0.8, T, 1e-3, switches, 7, bulk_control=b)
        for b in (None, lift_controls_bulk(bulk, spec))
    ]
    assert runs[0].times.tolist() == runs[1].times.tolist()
    for a, b in zip(runs[0].states, runs[1].states):
        assert _complex_bits(a) == _complex_bits(b)


@pytest.mark.parametrize("field", ["e1", "e2", "e3", "xi1", "xi2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_level_spec_rejects_non_finite_fields(field, value):
    kwargs = dict(e1=-1.0, e2=0.3, e3=0.7, xi1=0.3, xi2=-1.0)
    kwargs[field] = value
    with pytest.raises(DomainError, match=f"level spec {field} must be finite"):
        LevelSpec(**kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_complex_state_rejects_non_finite_amplitudes(bad):
    # the norm check is a positive test, so a NaN norm fails it
    with pytest.raises(DomainError):
        ComplexState(np.array([bad, 0.0j, 0.0j]))
    with pytest.raises(DomainError):
        ComplexState(np.array([0.6, 0.8j, complex(0.0, bad)]))
