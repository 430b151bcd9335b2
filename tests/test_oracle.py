"""Quadrature and random-search oracles."""

import math

import pytest

from qoct import (
    QuadratureDepthError,
    Splitmix64,
    bisect_root,
    complete_k,
    min_time_law,
    quadrature,
    sample_search_min_time,
)
from qoct.errors import DomainError


def test_quadrature_constant():
    assert abs(quadrature(lambda x: 1.0, 0.0, math.pi / 2.0, 1e-12) - math.pi / 2.0) < 1e-12


def test_quadrature_polynomial():
    assert abs(quadrature(lambda x: x * x, 0.0, 1.0, 1e-12) - 1.0 / 3.0) < 1e-12


def test_quadrature_matches_complete_k():
    k = 0.5
    val = quadrature(
        lambda s: 1.0 / math.sqrt(1.0 - k * k * math.sin(s) ** 2),
        0.0,
        math.pi / 2.0,
        1e-12,
    )
    assert abs(val - complete_k(0.5)) < 1e-10


def test_quadrature_depth_error():
    with pytest.raises(QuadratureDepthError):
        quadrature(lambda x: math.sqrt(abs(x)), -1.0, 1.0, 1e-300)


def test_search_reproducible_bit_for_bit():
    a = sample_search_min_time(1.0, 1500, 5, seed=99)
    b = sample_search_min_time(1.0, 1500, 5, seed=99)
    assert a == b


def test_search_monotone_in_candidate_count():
    small = sample_search_min_time(1.0, 500, 5, seed=99)[0]
    large = sample_search_min_time(1.0, 2500, 5, seed=99)[0]
    assert large <= small


def test_search_single_bang_recovers_the_optimum():
    # one segment from (1, 0, 0) at alpha = 1: a corner arc of rate sqrt 2
    # peaks at the target at pi/sqrt 2, and every other arc peaks later
    best, segs = sample_search_min_time(1.0, 2000, 1, seed=7)
    assert abs(best - math.pi / math.sqrt(2.0)) < 1e-6
    assert segs is not None and len(segs) == 1


def test_search_never_beats_the_closed_form():
    for alpha in (0.5, 1.0, 2.0):
        best, _ = sample_search_min_time(alpha, 2000, 5, seed=20240817)
        assert best >= min_time_law(alpha).total_duration - 5e-3


def test_search_argument_checks():
    with pytest.raises(DomainError):
        sample_search_min_time(1.0, 0, 5, seed=1)
    with pytest.raises(DomainError):
        sample_search_min_time(-1.0, 10, 5, seed=1)


def test_search_rejects_non_finite_factor():
    # a NaN factor used to return (inf, None), as if no candidate hit
    with pytest.raises(DomainError):
        sample_search_min_time(math.nan, 10, 3, 1)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
def test_bisect_root_rejects_a_bad_tolerance(tol):
    # a NaN tolerance used to return the bracket midpoint without bisecting
    with pytest.raises(DomainError):
        bisect_root(lambda x: x - 0.3, 0.0, 1.0, tol)


def test_bisect_root_stops_at_adjacent_floats():
    # a width of 1e-12 is below the float spacing near 1e6 (1.2e-10): the
    # loop used to run forever on a midpoint equal to one end
    lo, hi = 1e6, 1e6 + 1.0
    x = bisect_root(lambda x: x - 1e6 - 1.0 / 3.0, lo, hi, 1e-12)
    assert lo <= x <= hi
    assert abs(x - (1e6 + 1.0 / 3.0)) <= math.ulp(1e6)


@pytest.mark.parametrize("seed", [1.5, "7", None, math.nan])
def test_splitmix_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(DomainError):
        Splitmix64(seed)


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: x - 0.3, 1.0, -1.0),  # reversed: used to return 0.0
        (lambda x: 0.3 - x, math.nan, 1.0),  # used to return nan
        (lambda x: x - 0.3, -math.inf, 1.0),  # used to return -inf
        (lambda x: x - 0.3, 0.5, 0.5),
        (lambda x: x - 0.3, 0.0, math.inf),
    ],
)
def test_bisect_root_rejects_a_bad_bracket(f, lo, hi):
    with pytest.raises(DomainError):
        bisect_root(f, lo, hi)


@pytest.mark.parametrize(
    "draw",
    [
        lambda r: r.below(0),  # used to raise ZeroDivisionError
        lambda r: r.below(-3),  # used to return -1
        lambda r: r.below(2.5),  # used to return 1.0
        lambda r: r.uniform(math.nan, 1.0),  # used to return nan
        lambda r: r.uniform(0.0, math.inf),
        lambda r: r.uniform(-math.inf, 0.0),
    ],
    ids=["below(0)", "below(-3)", "below(2.5)", "uniform(nan,1)", "uniform(0,inf)",
         "uniform(-inf,0)"],
)
def test_splitmix_rejects_a_bad_draw_and_stays_put(draw):
    rng = Splitmix64(5)
    with pytest.raises(DomainError):
        draw(rng)
    assert rng.next_u64() == Splitmix64(5).next_u64()


@pytest.mark.parametrize(
    "call",
    [
        lambda r: r.peek(2.5),  # used to return three draws
        lambda r: r.peek(-3),  # used to return an empty array
        lambda r: r.peek(0),
        lambda r: r.skip(-1),  # used to rewind the stream
        lambda r: r.skip(2.5),  # used to raise TypeError
        lambda r: r.skip(0),
    ],
    ids=["peek(2.5)", "peek(-3)", "peek(0)", "skip(-1)", "skip(2.5)", "skip(0)"],
)
def test_splitmix_block_calls_reject_a_bad_count_and_stay_put(call):
    rng = Splitmix64(5)
    with pytest.raises(DomainError):
        call(rng)
    assert rng.next_u64() == Splitmix64(5).next_u64()


def test_splitmix_draws_keep_their_formulas():
    rng, raw = Splitmix64(2718), Splitmix64(2718)
    for n in (1, 3, 4, 2**64 + 3):
        assert rng.below(n) == raw.next_u64() % n
    for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (math.log(0.25), math.log(4.0))):
        assert rng.uniform(lo, hi) == lo + (hi - lo) * (raw.next_u64() >> 11) * 2.0**-53


@pytest.mark.parametrize(
    "a, b, tol",
    [
        (0.0, 1.0, math.nan),
        (0.0, 1.0, math.inf),
        (0.0, 1.0, 0.0),
        (0.0, 1.0, -1e-9),
        (0.0, math.inf, 1e-9),
        (-math.inf, 0.0, 1e-9),
        (math.nan, 1.0, 1e-9),
        (0.0, math.nan, 1e-9),
    ],
)
def test_quadrature_rejects_bad_input_before_integrating(a, b, tol):
    calls = []

    def f(x):
        calls.append(x)
        return 1.0

    with pytest.raises(DomainError):
        quadrature(f, a, b, tol)
    assert calls == []
