"""Jacobi functions and K(k) against quadrature and identity oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoct import DomainError, complete_k, sncndn
from qoct import elliptic
from qoct import tolerances as tol
from qoct.elliptic import _agm, complete_k_comp
from qoct.min_energy import EnergyExtremal, controls_at
from qoct.oracle import bisect_root, quadrature

# moduli covering every branch of sncndn: trigonometric (k = 0 and below
# ELLIPTIC_DEGENERATE), generic Landen, Landen a few ulps from one, 1 - k
# inside ELLIPTIC_DEGENERATE_ONE, and the hyperbolic k = 1
KERNEL_MODULI = (0.0, 1e-11, 0.3, 0.8, 0.999, 1.0 - 1e-13, 1.0 - 2.0**-53, 1.0)
KERNEL_ARGS = (0.0, -0.0, 0.4, -0.4, 1.7, -3.9, 12.5, -25.0, 50.0, -50.0)


def k_by_quadrature(k: float) -> float:
    return quadrature(
        lambda s: 1.0 / math.sqrt(1.0 - k * k * math.sin(s) ** 2),
        0.0,
        math.pi / 2.0,
        1e-12,
    )


def test_complete_k_degenerate():
    assert complete_k(0.0) == math.pi / 2.0


def test_complete_k_against_quadrature():
    for k in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        assert abs(complete_k(k) - k_by_quadrature(k)) < 1e-10


@pytest.mark.parametrize("k", [0.0, 0.5, 0.999, math.nextafter(1.0, 0.0)])
def test_complete_k_is_complete_k_comp_of_the_comodulus(k):
    assert complete_k(k).hex() == complete_k_comp(math.sqrt((1.0 - k) * (1.0 + k))).hex()


def test_complete_k_domain():
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(DomainError):
            complete_k(bad)


def test_sncndn_degenerate_moduli():
    assert sncndn(1.0, 0.0) == (math.sin(1.0), math.cos(1.0), 1.0)
    sech = 1.0 / math.cosh(1.0)
    assert sncndn(1.0, 1.0) == (math.tanh(1.0), sech, sech)


def test_quarter_period_against_quadrature_k():
    k = 0.7
    sn, cn, dn = sncndn(k_by_quadrature(k), k)
    assert abs(sn - 1.0) < 1e-10
    assert abs(cn) < 1e-10
    assert abs(dn - math.sqrt(1.0 - k * k)) < 1e-10


def test_identities_random_sweep():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10**4):
        u = float(rng.uniform(-10.0, 10.0))
        k = float(rng.uniform(0.0, 0.999))
        sn, cn, dn = sncndn(u, k)
        worst = max(
            worst,
            abs(sn**2 + cn**2 - 1.0),
            abs(dn**2 + k * k * sn**2 - 1.0),
        )
    assert worst < 1e-11


def test_periodicity():
    for k in (0.2, 0.6, 0.95):
        period = 4.0 * complete_k(k)
        for u in (-3.0, 0.4, 2.2):
            assert abs(sncndn(u + period, k)[0] - sncndn(u, k)[0]) < 1e-9


def test_sn_derivative_is_cn_dn():
    h = 1e-5
    rng = np.random.default_rng(77)
    for _ in range(200):
        u = float(rng.uniform(-5.0, 5.0))
        k = float(rng.uniform(0.05, 0.95))
        num = (sncndn(u + h, k)[0] - sncndn(u - h, k)[0]) / (2.0 * h)
        _, cn, dn = sncndn(u, k)
        ref = cn * dn
        assert abs(num - ref) <= 1e-6 * max(1.0, abs(ref))


def test_first_cd_zero_is_quarter_period():
    # cd = cn/dn; dn stays positive, so cd vanishes where cn does
    k = 0.3

    def cd(u):
        _, cn, dn = sncndn(u, k)
        return cn / dn

    root = bisect_root(cd, 1.0, 2.0, 1e-12)
    assert abs(root - complete_k(k)) < 1e-10


def sncndn_indexed(u: float, k: float) -> tuple[float, float, float]:
    """The Landen evaluation as an indexed walk over the AGM chain.

    The reference that sncndn must match bit for bit wherever |sn| of the
    phase is not tiny (there this walk overflows to nan).
    """
    if k < tol.ELLIPTIC_DEGENERATE:
        return math.sin(u), math.cos(u), 1.0
    if 1.0 - k < tol.ELLIPTIC_DEGENERATE_ONE:
        sech = 1.0 / math.cosh(u)
        return math.tanh(u), sech, sech
    scale, em, en = _agm(math.sqrt((1.0 - k) * (1.0 + k)))
    sn, cn, dn = math.sin(u * scale), math.cos(u * scale), 1.0
    if sn != 0.0:
        a = cn / sn
        c = scale * a
        for i in range(len(em) - 1, -1, -1):
            a *= c
            c *= dn
            dn = (en[i] + a) / (em[i] + a)
            a = c / em[i]
        a = 1.0 / math.sqrt(c * c + 1.0)
        sn = -a if sn < 0.0 else a
        cn = c * sn
    return sn, cn, dn


def bits(values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("k", KERNEL_MODULI)
def test_kernel_matches_the_indexed_walk_bit_for_bit(k):
    for u in KERNEL_ARGS:
        got = sncndn(u, k)
        assert type(got) is tuple
        assert bits(got) == bits(sncndn_indexed(u, k))


def test_kernel_at_zero_and_tiny_arguments():
    # below |sn| ~ 1e-154 the backward Landen recurrence overflowed to nan
    for k in KERNEL_MODULI:
        for u in (0.0, 1e-160, -4.879815054991953e-179, 1e-300, 5e-324):
            assert bits(sncndn(u, k)) == bits((u, 1.0, 1.0))


@pytest.mark.parametrize("k", [-0.1, 1.0 + 1e-15, 1.5, math.nan, math.inf])
def test_kernel_rejects_modulus_outside_unit_interval(k):
    with pytest.raises(DomainError):
        sncndn(0.5, k)


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_kernel_rejects_non_finite_argument(u):
    for k in (0.0, 0.5, 1.0):
        with pytest.raises(DomainError):
            sncndn(u, k)


MODULI = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0**e),
    st.sampled_from([0.0, 1e-11, 1.0 - 2.0**-53, 1.0]),
)


@settings(max_examples=2000, deadline=None)
@given(u=st.floats(-50.0, 50.0), k=MODULI)
def test_jacobi_identities_hold_across_the_modulus_range(u, k):
    sn, cn, dn = sncndn(u, k)
    assert abs(sn * sn + cn * cn - 1.0) <= 4e-15
    assert abs(dn * dn + k * k * sn * sn - 1.0) <= 4e-15


# -- the kernel's one-entry memo and its per-modulus chains -------------------


def test_interleaved_arguments_and_moduli_match_the_indexed_walk():
    # alternating pairs, repeats, and the same u at moduli an ulp apart: the
    # stored value must be returned only for an equal (u, k)
    k_next = math.nextafter(0.8, 1.0)
    pairs = [(1.7, 0.8), (1.7, 0.8), (-3.9, 0.3), (1.7, 0.8), (1.7, k_next),
             (1.7, 0.8), (-3.9, 0.3), (-3.9, 0.3), (12.5, 0.999), (1.7, k_next)]
    for u, k in pairs * 3:
        assert bits(sncndn(u, k)) == bits(sncndn_indexed(u, k))
    assert bits(sncndn(1.7, k_next)) != bits(sncndn(1.7, 0.8))


def test_zero_and_negative_zero_are_not_mixed_up():
    # 0.0 == -0.0, but sn keeps the sign of its argument
    for k in (0.3, 0.8):
        sncndn(0.4, k)
        for u in (0.0, -0.0, 0.0, -0.0):
            sn, cn, dn = sncndn(u, k)
            assert math.copysign(1.0, sn) == math.copysign(1.0, u)
            assert (cn, dn) == (1.0, 1.0)


def test_degenerate_moduli_after_a_landen_value_at_the_same_argument():
    u = 1.7
    for k in (0.0, 1e-11, 1.0 - 1e-17, 1.0):
        sncndn(u, 0.5)
        assert bits(sncndn(u, k)) == bits(sncndn_indexed(u, k))
    assert bits(sncndn(u, 0.0)) == bits((math.sin(u), math.cos(u), 1.0))


def test_invalid_input_raises_after_a_stored_value():
    sncndn(1.7, 0.8)
    for u, k in ((math.nan, 0.8), (math.inf, 0.8), (1.7, math.nan), (1.7, 1.5)):
        with pytest.raises(DomainError):
            sncndn(u, k)


def test_chain_table_stays_bounded():
    for i in range(3 * elliptic._CHAIN_CACHE):
        k = 0.1 + 0.8 * i / (3 * elliptic._CHAIN_CACHE)
        assert bits(sncndn(0.9, k)) == bits(sncndn_indexed(0.9, k))
    assert len(elliptic._CHAINS) <= elliptic._CHAIN_CACHE
    assert complete_k(0.5) == math.pi / (2.0 * _agm(math.sqrt(0.75))[1][-1])


# -- the array twin ------------------------------------------------------------

# the Landen range, then the closed forms within ELLIPTIC_DEGENERATE of 0 and
# ELLIPTIC_DEGENERATE_ONE of 1
BULK_MODULI = (tol.ELLIPTIC_DEGENERATE, 1e-5, 0.3, 0.8, 0.999, 1.0 - 1e-13, 1.0 - 2.0**-51,
               0.0, 1e-11, 1.0 - 2.0**-53, 1.0)
TINY_ARGS = (0.0, -0.0, 1e-160, -4.879815054991953e-179, 1e-300, 5e-324, -5e-324)


@pytest.mark.parametrize("k", BULK_MODULI)
def test_bulk_kernel_matches_the_scalar_kernel_bit_for_bit(k):
    # every branch: both signs of sn, the small-argument branch
    # (which returns u itself, sign included) and arguments far out
    rng = np.random.default_rng(31)
    u = np.concatenate((KERNEL_ARGS, TINY_ARGS, rng.uniform(-60.0, 60.0, 2000)))
    got = elliptic.sncndn_bulk(u, k)
    assert all(type(a) is np.ndarray and a.shape == u.shape for a in got)
    for i, x in enumerate(u.tolist()):
        assert bits(v[i] for v in got) == bits(sncndn(x, k))
        assert math.copysign(1.0, got[0][i]) == math.copysign(1.0, sncndn(x, k)[0])


@pytest.mark.parametrize("k", [1.5, -0.1, math.nan])
def test_bulk_kernel_rejects_non_moduli(k):
    with pytest.raises(DomainError):
        elliptic.sncndn_bulk(np.array([0.5]), k)


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_bulk_kernel_rejects_non_finite_arguments(u):
    with pytest.raises(DomainError):
        elliptic.sncndn_bulk(np.array([0.5, u]), 0.5)


@pytest.mark.parametrize("u", [0.5, [[0.5, 0.6]], ["a"], [1j], [None], [True], [[1.0], [1.0, 2.0]]])
def test_bulk_kernel_refuses_anything_but_a_1d_real_array(u):
    with pytest.raises(DomainError, match="1-d array of reals"):
        elliptic.sncndn_bulk(u, 0.5)


@pytest.mark.parametrize("k", [1.0 - 2.0**-53, 1.0])
def test_hyperbolic_forms_stay_finite_where_cosh_overflows(k):
    # cosh overflows past |u| ~ 710.48; sech is 2 exp(-|u|) to double
    # precision there, and 0 once that underflows
    far = (710.0, -710.0, 710.5, -711.0, 745.0, 800.0, -1e300)
    for u in far:
        sn, cn, dn = sncndn(u, k)
        assert sn == math.copysign(1.0, u) and cn == dn
        assert cn == (1.0 / math.cosh(u) if abs(u) < 710.4 else 2.0 * math.exp(-abs(u)))
    assert sncndn(800.0, k) == (1.0, 0.0, 0.0)
    got = elliptic.sncndn_bulk(np.array(far), k)
    for i, u in enumerate(far):
        assert bits(v[i] for v in got) == bits(sncndn(u, k))
    # a critical extremal (modulus 1) read far out
    e = EnergyExtremal(0.5, math.sqrt(0.75) / 0.5)
    assert e.modulus == 1.0 and math.isfinite(controls_at(e, 1000.0)[1])
