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
    min_time_law,
    simulate_complex,
)
from qoct.min_energy import (
    EnergyExtremal,
    extremal_control,
    extremal_control_bulk,
    transfer_time,
)
from qoct.integrator import integrate, propagate
from qoct.lift import _schrodinger_rhs
from qoct.time_optimal import law_state

SPEC = LevelSpec(-1.0, 0.3, 0.7, 0.0, 0.0)
PSI0 = ComplexState(np.array([1.0 + 0.0j, 0.0j, 0.0j]))

# real controls written once for a float t and a float array ts alike, so
# each serves as the control and as its array twin
zero = lambda t: (0.0 * t, 0.0 * t)
unit = lambda t: (1.0 + 0.0 * t, 0.0 * t)
wild = lambda t: (1e4 + 0.0 * t, 0.0 * t)
ramp = lambda t: (0.1 * t - 0.05, 0.3 - 0.4 * t)  # both change sign


def law_pulses(law):
    return law.control, law.control_bulk, law.switch_times()


def test_lifted_pulse_phases():
    spec = LevelSpec(0.0, 0.0, 0.5, 0.0, 0.0)
    f1s, _ = lift_controls(unit, spec)(np.array([0.0, 0.7, 2.0]))
    assert np.max(np.abs(f1s - 1.0)) < 1e-15
    spec = LevelSpec(0.0, 1.0, 1.0, math.pi / 2.0, 0.0)
    f1s, _ = lift_controls(unit, spec)(np.array([math.pi]))
    assert abs(f1s[0] - cmath.exp(1j * 1.5 * math.pi)) < 1e-14


def test_lifted_pulse_modulus_matches_amplitude():
    spec = LevelSpec(-0.4, 0.9, 1.3, 0.8, -0.2)
    wave = lambda t: (np.cos(3 * t) * 0.7, np.sin(2 * t))
    ts = np.linspace(0, 3, 20)
    f1s, f2s = lift_controls(wave, spec)(ts)
    u1s, u2s = wave(ts)
    assert np.max(np.abs(np.abs(f1s) - np.abs(u1s))) < 1e-14
    assert np.max(np.abs(np.abs(f2s) - np.abs(u2s))) < 1e-14


def test_free_evolution_keeps_populations():
    start = ComplexState(np.array([0.6 + 0.0j, 0.48j, 0.64 + 0.0j]))
    traj = simulate_complex(start, zero, zero, SPEC, 1.0, 3.0, 1e-3, record_every=100)
    pops0 = start.populations()
    for state in traj.states:
        assert np.max(np.abs(np.abs(state) ** 2 - pops0)) < 1e-10


def test_min_time_transfer_survives_the_lift():
    law = min_time_law(1.0)
    ctrl, bulk, switches = law_pulses(law)
    traj = simulate_complex(
        PSI0, ctrl, bulk, SPEC, 1.0, law.total_duration, 1e-3, switch_times=switches
    )
    assert abs(traj.endpoint[2]) ** 2 >= 1.0 - 1e-6


def test_energy_transfer_survives_the_lift():
    alpha, m3 = 2.0, 0.09159664366351113
    e = EnergyExtremal(alpha, m3)
    T = transfer_time(alpha, m3)
    traj = simulate_complex(
        PSI0, extremal_control(e), extremal_control_bulk(e), SPEC, alpha, T, 1e-3
    )
    assert abs(traj.endpoint[2]) ** 2 >= 1.0 - 1e-5


def test_interaction_picture_recovers_bang_trajectory():
    law = min_time_law(0.5)
    ctrl, bulk, switches = law_pulses(law)
    traj = simulate_complex(
        PSI0, ctrl, bulk, SPEC, 0.5, law.total_duration, 1e-3,
        switch_times=switches, record_every=20,
    )
    real = interaction_picture(traj, SPEC)
    for t, state in zip(real.times.tolist(), real.states):
        assert np.max(np.abs(state - law_state(SOURCE, law, t))) < 1e-6


def test_interaction_picture_recovers_energy_trajectory():
    m3 = 1.0 / math.sqrt(3.0)
    e = EnergyExtremal(1.0, m3)
    ctrl = extremal_control(e)
    T = transfer_time(1.0, m3)
    traj = simulate_complex(
        PSI0, ctrl, extremal_control_bulk(e), SPEC, 1.0, T, 1e-3, record_every=20
    )
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
        ctrl, bulk, switches = law_pulses(law)
        traj = simulate_complex(
            PSI0, ctrl, bulk, spec, 1.0, law.total_duration, 2e-3,
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
        ctrl, bulk, switches = law_pulses(law)
        traj = simulate_complex(
            PSI0, ctrl, bulk, spec, 2.0, law.total_duration, 1e-3, switch_times=switches
        )
        assert abs(traj.endpoint[2]) ** 2 >= 1.0 - 1e-6


def test_norm_conserved():
    law = min_time_law(0.5)
    ctrl, bulk, switches = law_pulses(law)
    traj = simulate_complex(
        PSI0, ctrl, bulk, SPEC, 0.5, law.total_duration, 1e-4,
        switch_times=switches, record_every=200,
    )
    for state in traj.states:
        assert abs(float(np.sum(np.abs(state) ** 2)) - 1.0) < 1e-9


def test_wrong_phases_raise_consistency_error():
    spec = LevelSpec(-1.0, 0.3, 0.7, 0.9, -0.7)
    law = min_time_law(1.0)
    ctrl, bulk, switches = law_pulses(law)
    traj = simulate_complex(
        PSI0, ctrl, bulk, spec, 1.0, law.total_duration, 1e-3,
        switch_times=switches, record_every=50,
    )
    with pytest.raises(ConsistencyError):
        interaction_picture(traj, SPEC)  # phases do not match the drive


def test_step_error_on_wild_dynamics():
    # the complex path applies the same renormalization limit as the sphere
    with pytest.raises(StepError):
        simulate_complex(PSI0, wild, wild, SPEC, 1.0, 1.0, 0.1)


@pytest.mark.parametrize(
    "alpha,T,h",
    [(1.0, 1.0, math.nan), (1.0, math.inf, 1e-3), (math.nan, 1.0, 1e-3), (-1.0, 1.0, 1e-3)],
)
def test_simulate_complex_rejects_bad_input(alpha, T, h):
    with pytest.raises(DomainError):
        simulate_complex(PSI0, zero, zero, SPEC, alpha, T, h)


@pytest.mark.parametrize(
    "kwargs",
    [{"record_every": 0}, {"record_every": -1}, {"switch_times": (0.5, math.nan)}],
)
def test_simulate_complex_rejects_a_bad_record_count_or_switch_time(kwargs):
    with pytest.raises(DomainError):
        simulate_complex(PSI0, zero, zero, SPEC, 1.0, 1.0, 1e-3, **kwargs)


def test_samples_record_control_modulus_at_sample_time():
    law = min_time_law(0.7)
    cases = [
        (ramp, ramp, (), 1.0),
        (law.control, law.control_bulk, law.switch_times(), law.total_duration),
    ]
    for control, bulk, switches, T in cases:
        traj = simulate_complex(PSI0, control, bulk, SPEC, 0.7, T, 1e-2, switches, 7)
        for i, t in enumerate(traj.times.tolist()):
            u1, u2 = control(t)
            assert traj.u1[i] == abs(u1) and traj.u2[i] == abs(u2)


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


def _scalar_pulses(control, spec):
    """The resonant pulses at one time t, as Python forms them."""
    w1, w2 = spec.e2 - spec.e1, spec.e3 - spec.e2

    def pulses(t):
        u1, u2 = control(t)
        return (u1 * cmath.exp(1j * (w1 * t + spec.xi1)),
                u2 * cmath.exp(1j * (w2 * t + spec.xi2)))

    return pulses


@pytest.mark.parametrize("source", ["law", "extremal"])
@pytest.mark.parametrize(
    "spec", [SPEC, LevelSpec(-1.0, 0.3, 0.7, 0.3, -1.0), LevelSpec(0.0, 0.0, 2.5, -3.0, 0.0)]
)
def test_pulses_are_the_resonant_products_bit_for_bit(source, spec):
    control, bulk, T, _ = _law_and_extremal_controls()[source]
    ts = np.concatenate(([0.0], np.random.default_rng(2).uniform(0.0, T, 1000)))
    f1s, f2s = lift_controls(bulk, spec)(ts)
    assert f1s.dtype == complex and f2s.dtype == complex
    want = [_scalar_pulses(control, spec)(t) for t in ts.tolist()]
    assert _complex_bits(f1s) == _complex_bits(f for f, _ in want)
    assert _complex_bits(f2s) == _complex_bits(f for _, f in want)


@pytest.mark.parametrize("source", ["law", "extremal"])
def test_simulate_complex_steps_on_the_resonant_pulses_bit_for_bit(source):
    # the reference steps per stage on scalar pulses, each calling the
    # real control once
    control, bulk, T, switches = _law_and_extremal_controls()[source]
    spec = LevelSpec(-1.0, 0.3, 0.7, 0.3, -1.0)
    traj = simulate_complex(PSI0, control, bulk, spec, 0.8, T, 1e-3, switches, 7)
    ref = propagate(
        (1.0 + 0.0j, 0.0j, 0.0j), _scalar_pulses(control, spec),
        _schrodinger_rhs(spec, 0.8), T, 1e-3, switches, 7,
    )
    assert traj.times.tolist() == [t for t, _ in ref]
    for got, (_, want) in zip(traj.states, ref):
        assert _complex_bits(got) == _complex_bits(want)


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
