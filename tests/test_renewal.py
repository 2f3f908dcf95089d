import hashlib
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from oracles import traced_peak
from scipy.special import betainc
from scipy.stats import binom, poisson

from renewalk import renewal, series, stopped
from renewalk.cli import main
from renewalk.errors import ParameterError
from renewalk.laws import (
    INFINITY,
    DefectiveGeometric,
    DefectiveSibuya,
    Geometric,
    PowerLawBernstein,
    ShiftedPoisson,
    Sibuya,
    Tabulated,
    WaitingLaw,
)


def test_survival_closed_forms():
    t = np.arange(65, dtype=float)
    # defective geometric: (1-Q) + Q q^t
    surv = DefectiveGeometric(0.5, 0.7).survival_vector(64)
    np.testing.assert_allclose(surv, 0.5 + 0.5 * 0.3**t, atol=1e-14)
    # power-law family
    surv = PowerLawBernstein(0.5, 1.5).survival_vector(64)
    np.testing.assert_allclose(surv, 1.0 - 1.5**-0.5 + (t + 1.5) ** -0.5, atol=1e-14)
    for law in (Geometric(0.2), Sibuya(0.5), ShiftedPoisson(3.0)):
        assert law.survival_vector(10)[0] == 1.0


@pytest.mark.parametrize("horizon", [0, 1, 2, 3, 19, 20, 127, 128, 129, 768])
@pytest.mark.parametrize(
    "law",
    [Sibuya(0.5), Sibuya(0.05), Geometric(0.3), Geometric(0.7),
     DefectiveSibuya(0.5, 0.4), PowerLawBernstein(0.5, 1.5)],
)
def test_state_table_doubling_matches_direct(law, horizon):
    # the row-by-row convolution is the oracle for the doubling at every
    # horizon, also below the one where state_table switches to it
    surv = law.survival_vector(horizon)
    pmf = law.pmf_vector(horizon)
    direct = renewal._rows_by_convolution(surv, pmf)
    for table in (renewal._rows_by_doubling(surv, pmf),
                  renewal.state_table(law, horizon).probs):
        assert table.shape == direct.shape
        assert (table >= 0.0).all()
        n, t = np.indices(table.shape)
        assert (table[n > t] == 0.0).all()
        # the geometric tails reach subnormals, which keep too few digits for
        # a relative check; entries at or below 1e-290 are checked for sign only
        normal = direct > 1e-290
        np.testing.assert_allclose(table[normal], direct[normal], rtol=1e-13, atol=0)


_STEP_LAWS = st.one_of(
    st.floats(-9.0, 0.0).map(lambda e: Geometric(10.0**e)),
    st.tuples(st.floats(-9.0, math.log10(0.5)), st.booleans()).map(
        lambda c: Sibuya(1.0 - 10.0 ** c[0] if c[1] else 10.0 ** c[0])),
)


@settings(max_examples=40, deadline=None)
@given(law=_STEP_LAWS, horizon=st.sampled_from([20, 21, 64, 257]))
def test_column_step_matches_the_row_convolution(law, horizon):
    # Geometric and Sibuya tables come from their column step; the row-by-row
    # convolution is the oracle, with mu near 0 and 1 and p up to 1
    table = renewal.state_table(law, horizon).probs
    direct = renewal._rows_by_convolution(law.survival_vector(horizon), law.pmf_vector(horizon))
    assert not np.signbit(table).any()
    n, t = np.indices(table.shape)
    assert (table[n > t] == 0.0).all()
    normal = direct > 1e-290
    np.testing.assert_allclose(table[normal], direct[normal], rtol=1e-13, atol=0)


def test_sibuya_column_step_keeps_its_digits_near_mu_one():
    # staying is (t - n) + (1 - mu)(n + 1); as t + 1 - mu (n + 1) it cancels
    # at mu = 1 - 1e-9 and loses about seven digits.  The reference runs the
    # same step in 40 digits.
    mu, horizon = 1.0 - 1e-9, 200
    table = renewal.state_table(Sibuya(mu), horizon).probs
    want = np.zeros_like(table)
    with mpmath.workdps(40):
        m = mpmath.mpf(mu)
        column = [mpmath.mpf(1)]
        want[0, 0] = 1.0
        for t in range(horizon):
            column = [((t - n + (1 - m) * (n + 1)) * column[n] if n <= t else 0)
                      + (m * n * column[n - 1] if n else 0) for n in range(t + 2)]
            column = [x / (t + 1) for x in column]
            want[: t + 2, t + 1] = [float(x) for x in column]
    cells = want > 1e-290
    np.testing.assert_allclose(table[cells], want[cells], rtol=1e-13, atol=0)


def test_certain_events_give_the_identity_table():
    assert np.array_equal(renewal.state_table(Geometric(1.0), 64).probs, np.eye(65))


@pytest.mark.parametrize("law", [Geometric(0.7), Geometric(1e-9), Sibuya(0.5), Sibuya(1e-9)])
def test_column_step_row_zero_is_the_survival(law):
    row = renewal.state_table(law, 768).probs[0]
    assert row.tobytes() == law.survival_vector(768).tobytes()


@pytest.mark.parametrize("law", [Geometric(0.7), Sibuya(0.5)])
def test_column_step_holds_one_table(law):
    table, peak = traced_peak(lambda: renewal.state_table(law, 2048))
    assert peak <= 1.05 * table.probs.nbytes


@pytest.mark.parametrize("law", [
    ShiftedPoisson(1.5), DefectiveSibuya(0.5, 0.5), DefectiveGeometric(0.5, 0.7),
    PowerLawBernstein(0.5, 1.5), Tabulated(np.array([0.25, 0.0, 0.5])),
])
def test_laws_without_a_column_step_keep_the_doubling(law):
    # byte for byte: the table is the doubling's, whatever else changes
    surv, pmf = law.survival_vector(768), law.pmf_vector(768)
    assert law.count_steps(768) is None
    table = renewal.state_table(law, 768).probs
    assert table.tobytes() == renewal._rows_by_doubling(surv, pmf).tobytes()


def test_negative_horizon_is_a_parameter_error():
    for build in (renewal.count_moments, renewal.state_table):
        with pytest.raises(ParameterError, match="horizon must be >= 0, got -1"):
            build(Geometric(0.5), -1)


def test_state_table_geometric_is_binomial():
    table = renewal.state_table(Geometric(0.7), 24)
    for n in range(25):
        np.testing.assert_allclose(
            table.probs[n], binom.pmf(n, np.arange(25), 0.7), atol=1e-12
        )


# the per-cell relative tolerance of a state table stated in the README
_CELL_RTOL = 5e-12


def _assert_cells_match(table, want):
    """Every cell above 1e-280 within _CELL_RTOL relative, and no zero cell
    where the law is a normal double; below that the law is subnormal."""
    cells = want > 1e-280
    np.testing.assert_allclose(table[cells], want[cells], rtol=_CELL_RTOL, atol=0)
    assert (table[want >= np.finfo(float).tiny] > 0.0).all()
    assert (table[want == 0.0] == 0.0).all()


def _binomial_rounds_to_zero(p, horizon):
    """P[Bin(t, p) = n] < 2^-1075, half the least subnormal, on 0 <= n, t <= horizon:
    the cells a correctly rounded table holds as 0.  Decided by the log pmf, and in
    40 digits within 1e-9 of the midpoint, where that log could land on either side."""
    t = np.arange(horizon + 1)
    gap = binom.logpmf(t[:, None], t, p) + 1075 * math.log(2)
    zero = gap < 0.0
    with mpmath.workdps(40):
        for n, s in zip(*np.nonzero(np.abs(gap) < 1e-9)):
            exact = mpmath.binomial(s, n) * mpmath.mpf(p) ** n * (1 - mpmath.mpf(p)) ** (s - n)
            zero[n, s] = exact < mpmath.mpf(2) ** -1075
    return zero


@pytest.mark.parametrize("p", [0.3, 0.7, 0.02])
def test_state_table_cells_are_binomial_at_a_large_horizon(p):
    t = np.arange(2049)
    table = renewal.state_table(Geometric(p), 2048).probs
    want = binom.pmf(t[:, None], t, p)
    cells = want > 1e-280
    np.testing.assert_allclose(table[cells], want[cells], rtol=_CELL_RTOL, atol=0)
    # zero exactly where the exact law rounds to zero: binom.pmf is no oracle
    # there, as it rounds P[Bin(261, 0.02) = 219] = 2.4717e-324 down to 0
    np.testing.assert_array_equal(table == 0.0, _binomial_rounds_to_zero(p, 2048))


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_state_table_cells_are_shifted_poisson_at_a_large_horizon(lam):
    # the n-fold sum of 1 + Poisson(lam) waits is n + Poisson(n lam), and
    # P[N(t) = n] = sum_s P[S_n = s] P[W > t - s], a sum of nonnegative terms
    t = np.arange(2049)
    table = renewal.state_table(ShiftedPoisson(lam), 2048).probs
    for n in (1, 2, 10, 100, 500, 1000):
        want = np.convolve(poisson.pmf(t - n, n * lam), poisson.sf(t - 1, lam))[: t.size]
        _assert_cells_match(table[n], want)


@pytest.mark.parametrize("build", [
    lambda horizon: renewal.state_table(Geometric(0.5), horizon),
    lambda horizon: stopped.stopped_state_table(
        stopped.StoppedSpec(Geometric(0.5), Geometric(0.5), horizon)),
], ids=["renewal", "stopped"])
@pytest.mark.parametrize("horizon,needs", [(11585, 1073883168), (10**6, 8000016000008)])
def test_state_table_over_the_entry_cap_raises_before_allocating(build, horizon, needs):
    # (8192 + 1)^2 entries fit under the cap; (11585 + 1)^2 do not
    assert (8192 + 1) ** 2 <= renewal._TABLE_CAP < (11585 + 1) ** 2
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=f"horizon {horizon} needs {needs} bytes"):
            build(horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float64 series at this horizon would be more than 90 kB
    assert peak < 1 << 16


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


@pytest.mark.parametrize("p", [0.3, 0.69, 0.7, 0.78, 0.98])
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


_CLOSED_FORM_LAWS = st.one_of(
    st.floats(-9.0, 0.0).map(lambda e: Geometric(10.0**e)),
    st.floats(1e-9, 1.0 - 1e-9).map(Sibuya),
)


@settings(max_examples=60, deadline=None)
@given(law=_CLOSED_FORM_LAWS, horizon=st.sampled_from([0, 1, 2, 64, 8192]))
def test_closed_form_densities_match_the_series_path(law, horizon):
    # the Geometric and Sibuya overrides against the base class's series
    # reciprocal and convolution on the same law
    density = law.renewal_density(horizon)
    series_density = WaitingLaw.renewal_density(law, horizon)
    for got, want in ((density, series_density),
                      (law.pair_density(density),
                       WaitingLaw.pair_density(law, series_density))):
        assert got.shape == (horizon + 1,)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("mu", [1e-9, 1e-3, 0.5, 1.0 - 1e-6])
def test_sibuya_densities_match_the_binomial_series(mu):
    # h = c_mu - delta and h*h = c_2mu - 2 c_mu + delta, where c_a holds the
    # coefficients of (1 - u)^-a; 40 digits absorb the cancellation
    horizon = 8192
    law = Sibuya(mu)
    density = law.renewal_density(horizon)
    pairs = law.pair_density(density)
    with mpmath.workdps(40):
        c = {a: [mpmath.mpf(1)] for a in (mpmath.mpf(mu), 2 * mpmath.mpf(mu))}
        for t in range(1, horizon + 1):
            for a, coef in c.items():
                coef.append(coef[-1] * (t - 1 + a) / t)
        c1, c2 = c.values()
        want_h = [0.0] + [float(x) for x in c1[1:]]
        want_g = [0.0, 0.0] + [float(c2[t] - 2 * c1[t]) for t in range(2, horizon + 1)]
    np.testing.assert_allclose(density, want_h, rtol=3e-14, atol=0)
    np.testing.assert_allclose(pairs, want_g, rtol=3e-14, atol=0)
    assert density[0] == pairs[0] == pairs[1] == 0.0


def test_closed_form_moments_need_no_series_kernel(monkeypatch):
    horizon = 8192
    t = np.arange(horizon + 1, dtype=float)
    monkeypatch.setattr(series, "reciprocal", None)
    monkeypatch.setattr(series, "convolve", None)
    mean, second = renewal.count_moments(Geometric(0.3), horizon)
    np.testing.assert_allclose(mean, 0.3 * t, rtol=1e-12, atol=0)
    np.testing.assert_allclose(second, (0.3 * t) ** 2 + 0.3 * 0.7 * t, rtol=1e-12, atol=0)
    mean, _ = renewal.count_moments(Sibuya(0.5), horizon)
    # E N(t) = Gamma(t + 1 + mu) / (Gamma(1 + mu) t!) - 1
    for s in (1, 2, 64, 666, horizon):
        with mpmath.workdps(30):
            want = float(mpmath.rf(1.5, s) / mpmath.factorial(s) - 1)
        assert mean[s] == pytest.approx(want, rel=1e-14)
    for inner in (Geometric(0.3), Sibuya(0.5)):
        spec = stopped.StoppedSpec(inner, Geometric(0.01), horizon)
        for order in (1, 2):
            assert np.isfinite(stopped.stopped_moments(spec, order)).all()


@pytest.mark.parametrize("law, digest", [
    (ShiftedPoisson(1.5), "963bd607557412c91a3b1766e53d21dfa9d6ffe448ade497366c195c72f1f6d7"),
    (DefectiveSibuya(0.5, 0.5), "accc94acf4285cddaafc0aaa8f7fb822e50c8134f55171bb47b94c445e855fe6"),
    (DefectiveGeometric(0.5, 0.7),
     "dda9a09c4944d6a68056e2f48ce58d63461783b7533aaab59c72ee0dca8bc057"),
    (PowerLawBernstein(0.5, 1.5),
     "bc8b4a5f458395138e7a66337225854264819d13425588e4ef3d37d7daa51e68"),
])
def test_series_path_moments_keep_their_bytes(law, digest):
    # laws without a closed form keep the reciprocal and convolution, bit for bit
    mean, second = renewal.count_moments(law, 2048)
    assert hashlib.sha256(mean.tobytes() + second.tobytes()).hexdigest() == digest


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
    # the product recurrence keeps both within 1e-13 of the 30-digit values
    num = Sibuya(mu).survival_vector(horizon)
    one_minus = delta - Sibuya(mu).pmf_vector(horizon)
    with mpmath.workdps(30):
        exact = np.array([
            [float((-1) ** k * mpmath.binomial(a, k)) for k in range(horizon + 1)]
            for a in (mu - 1.0, mu)
        ])
    np.testing.assert_allclose(num, exact[0], rtol=1e-13)
    np.testing.assert_allclose(one_minus, exact[1], rtol=1e-13)
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


@pytest.mark.parametrize("t", [-0.5, -1.5])
def test_exceedance_prob_refuses_a_negative_time_as_given(t):
    # the time is checked before it is truncated to an integer
    with pytest.raises(ParameterError, match=re.escape(f"time must be >= 0, got {t}")):
        renewal.exceedance_prob(Geometric(0.5), 0, t)


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
