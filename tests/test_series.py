import numpy as np
import pytest
from scipy.special import binom

from renewalk import series
from renewalk.errors import HorizonMismatchError, SingularSeriesError


def brute_convolve(a, b):
    """Independent O(T^2) double-sum oracle."""
    out = np.zeros(len(a))
    for t in range(len(a)):
        for r in range(t + 1):
            out[t] += a[r] * b[t - r]
    return out


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
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal(65) * 0.3
        a[0] = 1.0 + rng.random()
        rec = series.reciprocal(a)
        np.testing.assert_allclose(
            series.convolve(a, rec), series.delta_series(64), atol=1e-10
        )
        np.testing.assert_allclose(
            series.convolve(rec, a), series.delta_series(64), atol=1e-10
        )


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
    a, b, c = rng.random((3, 48))
    ab = series.convolve(a, b)
    np.testing.assert_allclose(ab, series.convolve(b, a), atol=1e-12)
    np.testing.assert_allclose(
        series.convolve(ab, c), series.convolve(a, series.convolve(b, c)), atol=1e-12
    )


def test_divide_roundtrip():
    rng = np.random.default_rng(5)
    num = rng.random(40)
    den = rng.random(40) * 0.2
    den[0] = 1.0
    ratio = series.convolve(num, series.reciprocal(den))
    np.testing.assert_allclose(series.convolve(ratio, den), num, atol=1e-10)

