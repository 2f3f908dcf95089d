import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_convolve, direct_reciprocal
from scipy.special import binom

from renewalk import series
from renewalk.errors import HorizonMismatchError, SingularSeriesError
from renewalk.laws import Geometric, Sibuya

# reciprocal blocks double 1, 2, 4, ..., series._BLOCK and then stay there:
# lengths at and next to those edges, and across the fixed blocks
LENGTHS = (1, 2, 3, 4, 5, 8, 9, 17, 129, 255, 256, 257, 511, 512, 513, 1000)


def _magnitude(a, b):
    """|a| * |b|: the scale of the rounding error of each product coefficient."""
    return np.convolve(np.abs(a), np.abs(b))[: len(a)]


def test_delta_is_identity():
    d = series.delta_series(8)
    assert np.array_equal(series.convolve(d, d), d)
    a = np.linspace(0.1, 0.9, 9)
    np.testing.assert_allclose(series.convolve(a, d), a, atol=0)


def test_hand_sum_example():
    a = np.array([1.0, 1.0, 0.0])
    b = np.array([1.0, 2.0, 0.0])
    np.testing.assert_allclose(series.convolve(a, b), [1, 3, 2], atol=0)


def test_geometric_self_convolution_is_negative_binomial():
    # waiting pmf p q^(t-1) convolved with itself at t=3: 2 p^2 q
    p, q = 0.5, 0.5
    t = np.arange(8)
    pmf = np.where(t >= 1, p * q ** np.maximum(t - 1, 0), 0.0)
    twice = series.convolve(pmf, pmf)
    assert twice[3] == pytest.approx(2 * p**2 * q, abs=1e-15)
    np.testing.assert_allclose(twice, brute_convolve(pmf, pmf), atol=1e-15)


def test_horizon_mismatch_rejected():
    with pytest.raises(HorizonMismatchError):
        series.convolve(np.ones(4), np.ones(5))


def test_reciprocal_geometric():
    np.testing.assert_allclose(
        series.reciprocal(np.r_[1.0, -1.0, np.zeros(5)]), np.ones(7), atol=0
    )
    rec = series.reciprocal(np.r_[1.0, -0.8, np.zeros(5)])
    np.testing.assert_allclose(rec, 0.8 ** np.arange(7), atol=1e-14)


def test_reciprocal_of_one_minus_u_squared():
    sq = np.r_[1.0, -2.0, 1.0, np.zeros(8)]
    rec = series.reciprocal(sq)
    # verified by the convolution identity, then against the known t+1 form
    np.testing.assert_allclose(series.convolve(sq, rec), series.delta_series(10), atol=1e-12)
    np.testing.assert_allclose(rec, np.arange(11) + 1.0, atol=1e-12)


def test_reciprocal_requires_nonzero_constant_term():
    with pytest.raises(SingularSeriesError):
        series.reciprocal(np.array([0.0, 1.0]))


def test_reciprocal_is_two_sided_inverse():
    # the reciprocal of a random series grows geometrically with its length,
    # so the residual is judged against the size of the terms it sums
    rng = np.random.default_rng(11)
    for n in (65,) * 5 + LENGTHS:
        a = rng.standard_normal(n) * 0.3
        a[0] = 1.0 + rng.random()
        rec = series.reciprocal(a)
        delta = series.delta_series(n - 1)
        for product in (series.convolve(a, rec), series.convolve(rec, a)):
            assert np.all(np.abs(product - delta) <= 1e-13 * _magnitude(a, rec))
            if n == 65:
                np.testing.assert_allclose(product, delta, atol=1e-10)


def test_binomial_inverse_pair():
    # coefficients (-1)^t C(alpha, t) of (1-u)^alpha and of (1-u)^-alpha
    t = np.arange(65)
    for alpha in (0.2, 0.5, 0.9, 1.7):
        left = (-1.0) ** t * binom(alpha, t)
        right = (-1.0) ** t * binom(-alpha, t)
        np.testing.assert_allclose(
            series.convolve(left, right), series.delta_series(64), atol=1e-10
        )


def test_convolution_commutative_associative():
    rng = np.random.default_rng(3)
    for n in (48,) + LENGTHS:
        a, b, c = rng.random((3, n))
        ab = series.convolve(a, b)
        abc = series.convolve(ab, c)
        a_bc = series.convolve(a, series.convolve(b, c))
        np.testing.assert_allclose(ab, series.convolve(b, a), rtol=1e-14, atol=0)
        np.testing.assert_allclose(abc, a_bc, rtol=1e-14, atol=0)
        if n == 48:
            np.testing.assert_allclose(ab, series.convolve(b, a), atol=1e-12)
            np.testing.assert_allclose(abc, a_bc, atol=1e-12)


def test_divide_roundtrip():
    rng = np.random.default_rng(5)
    for n in (40,) + LENGTHS:
        num = rng.random(n)
        den = rng.random(n) * 0.2
        den[0] = 1.0
        rec = series.reciprocal(den)
        ratio = series.convolve(num, rec)
        back = series.convolve(ratio, den)
        bound = 1e-12 * _magnitude(_magnitude(num, rec), den)
        assert np.all(np.abs(back - num) <= bound)
        if n == 40:
            np.testing.assert_allclose(back, num, atol=1e-10)


@pytest.mark.parametrize("mu", [0.05, 0.5, 0.95])
def test_reciprocal_of_sibuya_renewal_input_is_the_binomial_series(mu):
    # 1 / (1 - psi) = (1 - u)^-mu, coefficients Gamma(t + mu) / (Gamma(mu) t!)
    horizon = 4096
    rec = series.reciprocal(_renewal_input("sibuya", mu, horizon + 1))
    with mpmath.workdps(30):
        term, exact = mpmath.mpf(1), [1.0]
        for t in range(1, horizon + 1):
            term *= (t - 1 + mpmath.mpf(mu)) / t
            exact.append(float(term))
    np.testing.assert_allclose(rec, exact, rtol=3e-14, atol=0)


def _renewal_input(kind, param, n):
    law = Sibuya(param) if kind == "sibuya" else Geometric(param)
    return series.delta_series(n - 1) - law.pmf_vector(n - 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 775),
    seed=st.integers(0, 2**32 - 1),
    decades=st.sampled_from([0.0, 1.0, 100.0]),
    kind=st.sampled_from(["sibuya", "geometric"]),
    share=st.floats(0.0, 1.0),
)
def test_blocked_kernels_match_the_direct_methods(n, seed, decades, kind, share):
    rng = np.random.default_rng(seed)
    # nonnegative factors spread over `decades` orders of magnitude
    a, b = 10.0 ** (-decades * rng.random((2, n))) * rng.random((2, n))
    np.testing.assert_allclose(
        series.convolve(a, b), np.convolve(a, b)[:n], rtol=1e-14, atol=0
    )
    # renewal inputs delta - pmf: Sibuya mu in [0.05, 0.95], Geometric p in [0.02, 0.98]
    param = 0.05 + 0.9 * share if kind == "sibuya" else 0.02 + 0.96 * share
    a = _renewal_input(kind, param, n)
    rec = series.reciprocal(a)
    assert np.all(rec >= 0.0)
    np.testing.assert_allclose(rec, direct_reciprocal(a), rtol=2e-12, atol=0)

