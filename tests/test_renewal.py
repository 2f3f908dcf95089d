import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.special import betainc
from scipy.special import binom as binom_coef
from scipy.stats import binom

from renewalk import renewal, series
from renewalk.cli import main
from renewalk.laws import (
    INFINITY,
    DefectiveGeometric,
    DefectiveSibuya,
    Geometric,
    PowerLawBernstein,
    ShiftedPoisson,
    Sibuya,
)


def test_survival_closed_forms():
    t = np.arange(65, dtype=float)
    # defective geometric: (1-Q) + Q q^t
    surv = renewal.survival_series(DefectiveGeometric(0.5, 0.7), 64)
    np.testing.assert_allclose(surv, 0.5 + 0.5 * 0.3**t, atol=1e-14)
    # power-law family
    surv = renewal.survival_series(PowerLawBernstein(0.5, 1.5), 64)
    np.testing.assert_allclose(surv, 1.0 - 1.5**-0.5 + (t + 1.5) ** -0.5, atol=1e-14)
    for law in (Geometric(0.2), Sibuya(0.5), ShiftedPoisson(3.0)):
        assert renewal.survival_series(law, 10)[0] == 1.0


def test_state_table_geometric_is_binomial():
    table = renewal.state_table(Geometric(0.7), 24)
    for n in range(25):
        np.testing.assert_allclose(
            table.probs[n], binom.pmf(n, np.arange(25), 0.7), atol=1e-12
        )


def test_state_table_defective_geometric_closed_form():
    defect, p = 0.5, 0.7
    q = 1.0 - p
    table = renewal.state_table(DefectiveGeometric(defect, p), 20)
    for n in range(1, 8):
        for t in range(21):
            if t < n:
                expected = 0.0
            else:
                tail = sum(math.comb(r - 1, n - 1) * q**r for r in range(n, t + 1))
                expected = (defect * p) ** n * (
                    defect * math.comb(t, n) * q ** (t - n)
                    + (1.0 - defect) / q**n * tail
                )
            assert table.probs[n, t] == pytest.approx(expected, abs=1e-12)


def test_state_table_sibuya_survival_value():
    table = renewal.state_table(Sibuya(0.5), 8)
    assert table.probs[0, 2] == pytest.approx(1.0 - 0.5 - 0.125, abs=1e-12)


@pytest.mark.parametrize(
    "law",
    [Geometric(0.7), DefectiveGeometric(0.5, 0.7), Sibuya(0.5), ShiftedPoisson(1.5)],
)
def test_state_table_invariants(law):
    table = renewal.state_table(law, 96)
    assert np.array_equal(table.probs[:, 0], np.eye(97)[0])
    assert (table.probs >= -1e-12).all()
    np.testing.assert_allclose(table.row_sums(), 1.0, atol=1e-10)
    # at most one event per step: no mass at n > t
    above_diagonal = table.probs[np.arange(97)[:, None] > np.arange(97)[None, :]]
    assert np.max(np.abs(above_diagonal)) == 0.0


@pytest.mark.parametrize(
    "law",
    [Geometric(0.7), DefectiveGeometric(0.5, 0.7), Sibuya(0.4), ShiftedPoisson(1.2)],
)
def test_brute_force_oracle(law):
    table = renewal.state_table(law, 12)
    oracle = renewal.brute_force_state_table(law, 12)
    np.testing.assert_allclose(table.probs, oracle.probs, atol=1e-9)


def test_count_moments_bernoulli():
    mean, second = renewal.count_moments(Geometric(0.7), 16)
    t = np.arange(17, dtype=float)
    np.testing.assert_allclose(mean, 0.7 * t, atol=1e-10)
    np.testing.assert_allclose(second, (0.7 * t) ** 2 + 0.7 * 0.3 * t, atol=1e-10)
    table = renewal.state_table(Geometric(0.7), 16)
    np.testing.assert_allclose(mean, table.moment(1), atol=1e-10)
    np.testing.assert_allclose(second, table.moment(2), atol=1e-10)


@pytest.mark.parametrize("p", [0.3, 0.69, 0.7])
def test_count_moments_binomial_long_horizon(p):
    # N(8192) is binomial(8192, p): both moments to 1e-12 relative
    mean, second = renewal.count_moments(Geometric(p), 8192)
    t = np.arange(8193, dtype=float)
    np.testing.assert_allclose(mean, p * t, rtol=1e-12, atol=0)
    expected = (p * t) ** 2 + p * (1 - p) * t
    np.testing.assert_allclose(second, expected, rtol=1e-12, atol=0)


def test_count_moments_defective_geometric_closed_form():
    defect, p = 0.5, 0.7
    law = DefectiveGeometric(defect, p)
    mean, second = renewal.count_moments(law, 512)
    t = np.arange(513, dtype=float)
    expected = (defect / (1 - defect)) * (1.0 - (1.0 - p * (1 - defect)) ** t)
    np.testing.assert_allclose(mean, expected, atol=1e-10)
    assert mean[1] == pytest.approx(0.35, abs=1e-12)
    table = renewal.state_table(law, 64)
    np.testing.assert_allclose(mean[:65], table.moment(1), atol=1e-10)
    np.testing.assert_allclose(second[:65], table.moment(2), atol=1e-10)


def test_count_moments_cross_check_against_table():
    for law in (DefectiveGeometric(0.5, 0.7), Sibuya(0.5), ShiftedPoisson(1.5)):
        mean, second = renewal.count_moments(law, 128)
        table = renewal.state_table(law, 128)
        np.testing.assert_allclose(mean, table.moment(1), atol=1e-8)
        np.testing.assert_allclose(second, table.moment(2), atol=1e-8)


def test_defective_sibuya_count_approaches_limit_with_power_rate():
    defect, mu = 0.5, 0.5
    law = DefectiveSibuya(defect, mu)
    mean, _ = renewal.count_moments(law, 512)
    limit = defect / (1.0 - defect)
    gap = limit - mean[-1]
    predicted = (defect / (1 - defect) ** 2) * 512.0**-mu / math.gamma(1 - mu)
    assert gap == pytest.approx(predicted, rel=0.10)
    assert mean[-1] == pytest.approx(limit, abs=0.05)


def test_discrete_mittag_leffler_series_asymptotics():
    # expand the transform (1-u)^(mu-1) / (1 + (Q/P)(1-u)^mu) and check the
    # power-law tail t^-mu / Gamma(1-mu)
    defect, mu, horizon = 0.5, 0.5, 512
    ratio = defect / (1 - defect)
    delta = series.delta_series(horizon)
    # the Sibuya survival has transform (1-u)^(mu-1), so 1 - pmf has (1-u)^mu;
    # both it and scipy's binomial coefficients sit within 1e-12 of exact
    num = Sibuya(mu).survival_vector(horizon)
    one_minus = delta - Sibuya(mu).pmf_vector(horizon)
    k = np.arange(horizon + 1)
    np.testing.assert_allclose(num, (-1.0) ** k * binom_coef(mu - 1.0, k), rtol=1e-11)
    np.testing.assert_allclose(one_minus, (-1.0) ** k * binom_coef(mu, k), rtol=1e-11)
    ml = series.convolve(num, series.reciprocal(delta + ratio * one_minus))
    t = 512
    assert ml[t] * math.gamma(1 - mu) * t**mu == pytest.approx(1.0, rel=0.10)
    # identity: count mean equals Q/P - (Q/P^2) ml(t)
    mean, _ = renewal.count_moments(DefectiveSibuya(defect, mu), horizon)
    np.testing.assert_allclose(
        mean, ratio - (defect / (1 - defect) ** 2) * ml, atol=1e-8
    )


def test_exceedance_prob():
    law = DefectiveGeometric(0.5, 0.7)
    assert renewal.exceedance_prob(law, 0, INFINITY) == pytest.approx(0.5, abs=1e-15)
    assert renewal.exceedance_prob(law, 3, INFINITY) == pytest.approx(0.0625, abs=1e-15)
    assert renewal.exceedance_prob(Geometric(0.5), 5, 3) == 0.0
    # finite-time value against the state table
    table = renewal.state_table(law, 24)
    direct = float(table.probs[3:, 16].sum())
    assert renewal.exceedance_prob(law, 2, 16) == pytest.approx(direct, abs=1e-12)


def test_exceedance_prob_small_binomial_tails():
    # Bernoulli events: P[N(t) > n0] is the binomial tail I_p(n0 + 1, t - n0),
    # down to 1e-35 at n0 = 300
    p, t = 0.12, 1200
    for n0 in (144, 250, 300):
        want = betainc(n0 + 1, t - n0, p)
        assert renewal.exceedance_prob(Geometric(p), n0, t) == pytest.approx(
            want, rel=1e-12, abs=0
        )


def test_limit_state_law():
    masses, label = renewal.limit_state_law(Geometric(0.7))
    assert label == renewal.TYPE_II
    np.testing.assert_allclose(masses, 0.0, atol=0)

    masses, label = renewal.limit_state_law(DefectiveGeometric(0.5, 0.7), n_max=12)
    assert label == renewal.TYPE_I
    np.testing.assert_allclose(masses, 0.5 ** (np.arange(13) + 1), atol=1e-15)

    masses, _ = renewal.limit_state_law(DefectiveSibuya(0.9, 0.4), n_max=0)
    assert masses[0] == pytest.approx(0.1, abs=1e-15)


def test_limit_state_law_matches_table_at_large_time():
    law = DefectiveGeometric(0.5, 0.7)
    table = renewal.state_table(law, 512)
    masses, _ = renewal.limit_state_law(law, n_max=512)
    np.testing.assert_allclose(table.probs[:, -1], masses, atol=1e-9)


def test_tauberian_count_limit():
    # (1-u) * count-mean transform approaches Q/P at u -> 1
    for law in (DefectiveGeometric(0.5, 0.7), DefectiveSibuya(0.25, 0.5)):
        q = law.defect_mass
        target = q / (1 - q)
        # the transform converges like (1-u)^mu for the fat-tailed family
        u = 1.0 - 1e-9
        g = law.gf(u)
        assert g / (1.0 - g) == pytest.approx(target, rel=2e-4)

    # truncated series at u = 0.99 against the exact transform value
    u = 0.99
    law = DefectiveGeometric(0.5, 0.7)
    mean, _ = renewal.count_moments(law, 512)
    scaled = (1 - u) * polyval(u, mean)
    g = law.gf(u)
    assert scaled == pytest.approx(g / (1 - g), rel=0.008)

    mean, _ = renewal.count_moments(DefectiveSibuya(0.25, 0.5), 512)
    scaled = (1 - u) * polyval(u, mean)
    q = 0.25
    corrected = q / (1 - q) - (q / (1 - q) ** 2) * (1 - u) ** 0.5
    assert scaled == pytest.approx(corrected, rel=0.02)


def test_sibuya_type_ii_count_growth():
    # non-defective fat-tailed law: count grows like t^mu / Gamma(1+mu)
    mu = 0.5
    mean, _ = renewal.count_moments(Sibuya(mu), 512)
    assert mean[-1] / (512.0**mu / math.gamma(1 + mu)) == pytest.approx(1.0, rel=0.05)


def test_state_table_export(tmp_path):
    # the CLI writes t rows by n columns; %.12g keeps 12 significant digits
    assert main(["renewal", "--law", "geometric:p=0.5", "--horizon", "6",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "renewal_state.csv").read_text().splitlines()
    assert lines[0].split(",") == ["t"] + [f"n{n}" for n in range(7)]
    assert len(lines) == 8
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(rows[:, 0], np.arange(7))
    table = renewal.state_table(Geometric(0.5), 6)
    np.testing.assert_allclose(rows[:, 1:], table.probs.T, rtol=1e-11, atol=0)
    assert not list(tmp_path.glob("*_state.json"))
