"""Generators, Rodrigues exponentials and the commutator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoct import (
    DomainError,
    EnergyExtremal,
    LevelSpec,
    Segment,
    SkewGenerator,
    StateS2,
    bracket,
    controls_at,
    generator,
    min_time_law,
    rodrigues_exp,
    shooting_root,
    switching_propagator,
)
from qoct.so3 import _exp_coeffs, arc_form
from qoct.tolerances import STRUCTURAL


def exp_taylor(m: np.ndarray, t: float, terms: int = 40) -> np.ndarray:
    """Independent oracle: truncated matrix exponential series."""
    acc = np.eye(3)
    term = np.eye(3)
    for n in range(1, terms + 1):
        term = term @ (t * m) / n
        acc = acc + term
    return acc


def test_generator_entries():
    g = generator(1.0, 0.0, 1.0)
    assert np.array_equal(
        g.matrix(), np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    )
    assert np.array_equal(generator(0.0, 0.0, 2.0).matrix(), np.zeros((3, 3)))
    g = generator(0.0, 1.0, 0.5)
    m = g.matrix()
    assert m[2, 1] == 0.5 and m[1, 2] == -0.5
    assert m[0, 1] == m[1, 0] == m[0, 2] == m[2, 0] == 0.0


def test_quarter_turn_in_first_plane():
    r = rodrigues_exp(generator(1.0, 0.0, 1.0), math.pi / 2.0)
    assert np.allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)


def test_zero_time_is_identity():
    r = rodrigues_exp(generator(0.3, -0.8, 1.7), 0.0)
    assert type(r) is np.ndarray and r.dtype == np.float64 and r.shape == (3, 3)
    assert np.array_equal(r, np.eye(3))


def test_exponential_against_taylor_series():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = SkewGenerator(*rng.uniform(-1.5, 1.5, size=3))
        t = float(rng.uniform(-3.0, 3.0))
        r = rodrigues_exp(g, t)
        assert np.max(np.abs(r - exp_taylor(g.matrix(), t))) < 1e-13
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-14


def test_double_bang_axis_angle():
    alpha = 1.7
    g = generator(1.0, 1.0, alpha)
    t = 0.9
    r = rodrigues_exp(g, t)
    angle = math.acos((np.trace(r) - 1.0) / 2.0)
    assert abs(angle - t * math.sqrt(1.0 + alpha * alpha)) < 1e-12
    axis = g.axis() / g.rate
    assert np.allclose(r @ axis, axis, atol=1e-14)


def test_small_angle_series_branch():
    g = generator(1.0, 1.0, 1.0)
    for t in (0.0, 1e-9, 1e-7, 5e-7):
        r = rodrigues_exp(g, t)
        assert np.max(np.abs(r - exp_taylor(g.matrix(), t))) < 1e-15


def test_inverse_and_group_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = SkewGenerator(*rng.uniform(-2.0, 2.0, size=3))
        s, t = rng.uniform(-2.0, 2.0, size=2)
        rs = rodrigues_exp(g, float(s))
        rt = rodrigues_exp(g, float(t))
        rst = rodrigues_exp(g, float(s + t))
        assert np.max(np.abs(rs @ rt - rst)) < 1e-13
        prod = rodrigues_exp(g, float(s)) @ rodrigues_exp(g, float(-s))
        assert np.max(np.abs(prod - np.eye(3))) < 1e-13


def test_rotation_preserves_state_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=3)
        state = StateS2.from_array(v / np.linalg.norm(v))
        g = SkewGenerator(*rng.uniform(-2.0, 2.0, size=3))
        out = StateS2.from_array(rodrigues_exp(g, float(rng.uniform(-3, 3))) @ state.as_array())
        n2 = out.psi1**2 + out.psi2**2 + out.psi3**2
        assert abs(n2 - 1.0) < 1e-13


def test_bracket_of_the_two_control_fields():
    c = bracket(generator(1.0, 0.0, 1.0), generator(0.0, 1.0, 1.0))
    assert c.m1 == 0.0 and c.m2 == 0.0 and abs(c.m3) == 1.0
    g = generator(0.4, -0.3, 2.0)
    z = bracket(g, g)
    assert z.m1 == z.m2 == z.m3 == 0.0


def test_jacobi_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = (SkewGenerator(*rng.uniform(-1, 1, size=3)) for _ in range(3))
        total = (
            bracket(a, bracket(b, c)).matrix()
            + bracket(b, bracket(c, a)).matrix()
            + bracket(c, bracket(a, b)).matrix()
        )
        assert np.max(np.abs(total)) < 1e-13


def test_state_norm_validation():
    with pytest.raises(DomainError):
        StateS2(1.0, 1.0, 0.0)
    s = StateS2(0.6, 0.8, 0.0)
    assert s.in_octant()
    assert not StateS2(-0.6, 0.8, 0.0).in_octant()


# -- non-finite input and the scalar guards of rodrigues_exp ------------------

NAN, INF = math.nan, math.inf
NON_FINITE_CALLS = {
    "generator-nan-u1": lambda: generator(NAN, 1.0, 1.0),
    "generator-inf-alpha": lambda: generator(1.0, 1.0, INF),
    "generator-overflow": lambda: generator(1.0, 1e200, 1e200),
    "segment-nan-u1": lambda: Segment(NAN, 0.0, 1.0),
    "segment-nan-u2": lambda: Segment(0.0, NAN, 1.0),
    "switching-nan-u1": lambda: switching_propagator(NAN, 1.0, 1.0, 1.0),
    "switching-inf-t": lambda: switching_propagator(1.0, 1.0, 1.0, INF),
    "switching-inf-alpha": lambda: switching_propagator(1.0, 0.0, INF, 1.0),
    "bracket-nan": lambda: bracket(SkewGenerator(NAN, 0.0, 0.0), generator(0.0, 1.0, 1.0)),
    "bracket-overflow": lambda: bracket(SkewGenerator(1e200, 0.0, 0.0),
                                        SkewGenerator(0.0, 1e200, 0.0)),
    "bracket-inf": lambda: bracket(SkewGenerator(INF, 0.0, 0.0), generator(0.0, 1.0, 1.0)),
    "rodrigues-nan-generator": lambda: rodrigues_exp(SkewGenerator(NAN, 0.0, 0.0), 1.0),
    "rodrigues-rate-squared": lambda: rodrigues_exp(SkewGenerator(1e200, 0.0, 0.0), 1.0),
    "rodrigues-rate-squared-small-t": lambda: rodrigues_exp(
        SkewGenerator(1e160, 0.0, 0.0), 1e-170),
    "rodrigues-angle": lambda: rodrigues_exp(SkewGenerator(1e150, 0.0, 0.0), 1e160),
    "rodrigues-t-squared": lambda: rodrigues_exp(SkewGenerator(0.0, 0.0, 0.0), 1e200),
    "rodrigues-nan-t": lambda: rodrigues_exp(generator(1.0, 1.0, 1.0), NAN),
}


@pytest.mark.parametrize("call", list(NON_FINITE_CALLS))
def test_non_finite_input_raises_domain_error(call):
    # none of these may return a NaN matrix, raise a bare ValueError or let a
    # numpy overflow warning escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            NON_FINITE_CALLS[call]()


NON_NUMERIC_CALLS = {
    "SkewGenerator": lambda: SkewGenerator("a", 0.0, 0.0),
    "Segment": lambda: Segment("a", 0.0, 1.0),
    "LevelSpec": lambda: LevelSpec("a", 0.0, 1.0),
    "StateS2": lambda: StateS2("a", 0.0, 0.0),
    "controls_at": lambda: controls_at(EnergyExtremal(0.5, 0.9), "x"),
    "min_time_law": lambda: min_time_law("a"),
    "generator": lambda: generator("a", 1.0, 1.0),
    "shooting_root": lambda: shooting_root("a"),
}


@pytest.mark.parametrize("call", list(NON_NUMERIC_CALLS))
def test_non_numeric_input_raises_domain_error(call):
    # errors.require refuses a value that is no real number; these used to
    # raise a bare TypeError, or ValueError from float("a")
    with pytest.raises(DomainError):
        NON_NUMERIC_CALLS[call]()


@pytest.mark.parametrize("alpha", [0.0, -0.0, -2.0])
def test_non_positive_factor_raises_domain_error(alpha):
    # the factor is checked as t_alpha, delta_* and f2 check it, not only
    # for finiteness
    with pytest.raises(DomainError):
        generator(1.0, 1.0, alpha)
    with pytest.raises(DomainError):
        switching_propagator(1.0, 1.0, alpha, 1.0)


def test_arc_form_refuses_a_generator_of_rate_zero():
    # the circle degenerates to the point itself; no NaN vectors, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            arc_form(generator(0.0, 0.0, 1.0), np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("entries", [(NAN, 0.0, 0.0), (0.0, INF, 0.0), (0.0, 0.0, -INF)])
def test_skew_generator_refuses_non_finite_entries(entries):
    # SkewGenerator(nan, 0, 0).apply([1, 0, 0]) used to return [nan, nan, 0]
    with pytest.raises(DomainError):
        SkewGenerator(*entries)


@pytest.mark.parametrize(
    "p",
    [[NAN, 0.0, 0.0], [0.0, INF, 0.0], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]],
     1.0, "abc", [1j, 0.0, 0.0]],
)
def test_arc_form_refuses_a_start_point_that_is_not_a_finite_3_vector(p):
    # a NaN or inf point gave NaN/inf circles and a 2-vector a bare IndexError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            arc_form(generator(1.0, 1.0, 0.7), p)


def _signed_decades(lo: int, hi: int):
    """Zero, or +-10**e with e uniform on [lo, hi]."""
    mag = st.floats(lo, hi).map(lambda e: 10.0**e)
    return st.one_of(st.just(0.0), st.tuples(mag, st.booleans()).map(
        lambda p: -p[0] if p[1] else p[0]))


@settings(max_examples=1000, deadline=None)
@given(m1=_signed_decades(-12, 6), m2=_signed_decades(-12, 6), m3=_signed_decades(-12, 6),
       t=_signed_decades(-12, 8))
@example(m1=1.0, m2=0.5, m3=0.0, t=1e-7)  # series branch
@example(m1=1e6, m2=-1e6, m3=1e6, t=-1e8)  # trigonometric branch, large angle
@example(m1=1e-12, m2=0.0, m3=0.0, t=1e8)  # small angle just above the series switch
def test_rodrigues_matrices_are_rotations_by_construction(m1, m2, m3, t):
    # the evidence that lets rodrigues_exp skip the per-call matrix check
    g = SkewGenerator(m1, m2, m3)
    m = rodrigues_exp(g, t)
    assert np.isfinite(m).all()
    assert np.max(np.abs(m.T @ m - np.eye(3))) <= STRUCTURAL
    assert abs(np.linalg.det(m) - 1.0) <= STRUCTURAL


# -- the generator's cached matrix and square ---------------------------------


def _fresh_exp(g: SkewGenerator, t: float) -> np.ndarray:
    """The Rodrigues sum built from a fresh matrix(), as before the cache."""
    a, b = _exp_coeffs(g.rate, t)
    m = g.matrix()
    return np.eye(3) + a * m + b * (m @ m)


@settings(max_examples=500, deadline=None)
@given(m1=_signed_decades(-12, 6), m2=_signed_decades(-12, 6), m3=_signed_decades(-12, 6),
       ts=st.lists(_signed_decades(-12, 8), min_size=1, max_size=8))
@example(m1=1.0, m2=0.5, m3=0.0, ts=[1e-7, -1e-9])  # series branch
@example(m1=1e6, m2=-1e6, m3=1e6, ts=[-1e8, 3.0])  # trigonometric branch
def test_cached_generator_gives_the_fresh_rodrigues_bits(m1, m2, m3, ts):
    # one generator over many times: the first call fills the cache
    g = SkewGenerator(m1, m2, m3)
    for t in ts:
        assert rodrigues_exp(g, t).tobytes() == _fresh_exp(g, t).tobytes()


def test_one_generator_scanned_over_many_times_keeps_its_bits():
    g = generator(1.0, -1.0, 0.37)
    for t in np.linspace(-4.0, 4.0, 257).tolist() + [1e-9, -3e-7]:
        assert rodrigues_exp(g, t).tobytes() == _fresh_exp(g, t).tobytes()


def test_cached_arrays_are_read_only_and_matrix_is_a_new_array():
    g = generator(0.4, -0.3, 2.0)
    rodrigues_exp(g, 0.5)
    for cached in (g._matrix, g._square):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    m = g.matrix()
    assert m.flags.writeable and m is not g._matrix
    m[1, 0] = 99.0
    assert g._matrix[1, 0] == 0.4 and g.matrix()[1, 0] == 0.4
    assert np.array_equal(g._square, g.matrix() @ g.matrix())


def test_a_filled_cache_changes_neither_equality_nor_hash():
    filled, fresh = SkewGenerator(0.1, -2.0, 3.5), SkewGenerator(0.1, -2.0, 3.5)
    rodrigues_exp(filled, 1.25)
    assert all(name in vars(filled) and name not in vars(fresh) for name in ("_square", "rate"))
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)


def test_bracket_of_finite_generators_keeps_its_bits():
    rng = np.random.default_rng(13)
    for scale in (1e-150, 1.0, 1e150):
        for _ in range(20):
            g1, g2 = (SkewGenerator(*(scale * rng.uniform(-1, 1, size=3))) for _ in range(2))
            c = g1.matrix() @ g2.matrix() - g2.matrix() @ g1.matrix()
            b = bracket(g1, g2)
            assert (b.m1, b.m2, b.m3) == (c[1, 0], c[2, 1], c[2, 0])


# -- the circle form of an arc -------------------------------------------------

UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: 0.1 < math.hypot(*v)).map(lambda v: np.array(v) / math.hypot(*v))
GENERATORS = st.one_of(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.05, 20.0)).filter(
        lambda c: math.hypot(c[0], c[2] * c[1]) > 0.01).map(lambda c: generator(*c)),
    st.tuples(*[st.floats(-3.0, 3.0)] * 3).filter(
        lambda m: math.hypot(*m) > 0.01).map(lambda m: SkewGenerator(*m)),
)


@settings(max_examples=1000, deadline=None)
@given(g=GENERATORS, p=UNIT, t=st.floats(-20.0, 20.0))
@example(g=generator(1.0, 0.0, 1.0), p=np.array([0.0, 0.0, 1.0]), t=1.0)  # p on the axis
@example(g=generator(1.0, 1.0, 0.5), p=np.array([1.0, 0.0, 0.0]), t=0.0)
def test_arc_form_traces_the_rodrigues_rotation(g, p, t):
    w, A, B, C, rows = arc_form(g, p)
    want = rodrigues_exp(g, t) @ p
    assert w == g.rate
    assert np.max(np.abs(A + B * math.cos(w * t) + C * math.sin(w * t) - want)) <= 2e-15
    # each row's a0 + r cos(w t - phi) rounds w t - phi once more
    for (a0, r, phi), x in zip(rows, want):
        assert r >= 0.0 and -math.pi <= phi <= math.pi
        assert abs(a0 + r * math.cos(w * t - phi) - x) <= 2e-15 + 2.3e-16 * abs(w * t)
    # A is the centre on the axis; B and C span the circle's plane
    n = g.axis() / w
    assert np.max(np.abs(A - (p @ n) * n)) <= 1e-15
    assert abs(float(B @ n)) <= 1e-15 and abs(float(C @ n)) <= 1e-15


@pytest.mark.parametrize(
    "arr", [[1.0, 0.0, 0.0, 5.0], [1.0, 0.0], [[1.0, 0.0, 0.0]], [], 1.0, [[1.0, 0.0], [0.0]], "abc", [1j, 0, 0]]
)
def test_state_from_array_takes_exactly_three_real_components(arr):
    with pytest.raises(DomainError):
        StateS2.from_array(arr)

