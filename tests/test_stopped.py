import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalk import renewal, stopped
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
)
from renewalk.stopped import (
    StoppedSpec,
    bernoulli_stops_bernoulli,
    bernoulli_stops_sibuya,
    brute_force_stopped_table,
    dbp_stops_bernoulli,
    discounted_inner_law,
    geometric_stop_asymptotics,
    poisson_stop,
    renewal_equation_residual,
    stopped_moments,
    stopped_state_table,
)

LAW_PAIRS = [
    (Geometric(0.7), Geometric(0.2)),
    (Geometric(0.7), DefectiveGeometric(0.5, 0.2)),
    (Sibuya(0.5), Geometric(0.2)),
    (Sibuya(0.2), DefectiveGeometric(0.25, 0.5)),
    (ShiftedPoisson(1.5), Geometric(0.1)),
    (Geometric(0.3), ShiftedPoisson(2.0)),
    (Geometric(0.7), PowerLawBernstein(0.5, 1.5)),
    (ShiftedPoisson(2.0), PowerLawBernstein(2.0, 2.0)),
]


def test_spec_rejects_defective_inner():
    with pytest.raises(ParameterError):
        StoppedSpec(DefectiveGeometric(0.5, 0.7), Geometric(0.2), 16)


def test_initial_condition():
    spec = StoppedSpec(Geometric(0.7), Geometric(0.2), 16)
    table = stopped_state_table(spec)
    assert np.array_equal(table.column(0), np.eye(17)[0])


@pytest.mark.parametrize("inner,stop", LAW_PAIRS)
def test_columns_sum_to_one(inner, stop):
    table = stopped_state_table(StoppedSpec(inner, stop, 128))
    np.testing.assert_allclose(table.row_sums(), 1.0, atol=1e-10)


@pytest.mark.parametrize(
    "inner,stop",
    [
        (Geometric(0.7), Geometric(0.2)),
        (Geometric(0.7), DefectiveGeometric(0.5, 0.2)),
        (Sibuya(0.4), ShiftedPoisson(1.2)),
        (ShiftedPoisson(1.5), PowerLawBernstein(0.5, 1.5)),
        (Geometric(0.5), Tabulated(np.array([0.3, 0.2, 0.1]))),
    ],
)
def test_exhaustive_joint_enumeration_oracle(inner, stop):
    spec = StoppedSpec(inner, stop, 12)
    table = stopped_state_table(spec)
    oracle = brute_force_stopped_table(spec)
    np.testing.assert_allclose(table.probs, oracle.probs, atol=1e-9)


def test_geometric_stop_state_closed_form():
    # frozen state law under a plain geometric stop, assembled directly
    p, q = 0.2, 0.8
    spec = StoppedSpec(Geometric(0.7), Geometric(p), 40)
    inner_table = renewal.state_table(spec.inner, 40)
    t = np.arange(41)
    expected = inner_table.probs * q**t
    weights = q ** np.arange(41)
    weights[0] = 0.0
    expected += (p / q) * np.cumsum(inner_table.probs * weights, axis=1)
    np.testing.assert_allclose(
        stopped_state_table(spec).probs, expected, atol=1e-12
    )


@pytest.mark.parametrize("inner,stop", LAW_PAIRS[:5])
def test_moments_match_table(inner, stop):
    spec = StoppedSpec(inner, stop, 96)
    table = stopped_state_table(spec)
    for order in (1, 2):
        np.testing.assert_allclose(
            stopped_moments(spec, order), table.moment(order), atol=1e-9
        )


def test_mean_bounded_by_time():
    for inner, stop in LAW_PAIRS:
        mean = stopped_moments(StoppedSpec(inner, stop, 64), 1)
        assert (mean <= np.arange(65) + 1e-12).all()


def test_classification():
    assert stopped.classify(StoppedSpec(Geometric(0.7), Geometric(0.2), 4)) == "type_I"
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(0.25, 0.2), 4)
    assert stopped.classify(spec) == "intermediate"
    assert stopped.never_stop_prob(spec) == pytest.approx(0.75, abs=1e-15)
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(0.0, 0.2), 4)
    assert stopped.classify(spec) == "type_II"
    spec = StoppedSpec(Geometric(0.7), PowerLawBernstein(0.5, 1.5), 4)
    assert stopped.never_stop_prob(spec) == pytest.approx(1.0 - 1.5**-0.5, abs=1e-15)


def test_geometric_stop_asymptotics_reference_values():
    summary = geometric_stop_asymptotics(Geometric(0.7), 0.8)
    g = 0.56 / 0.76
    assert summary.mean == pytest.approx(3.5, abs=1e-9)
    assert summary.second_moment == pytest.approx(23.1, abs=1e-9)
    assert summary.variance == pytest.approx(10.85, abs=1e-9)
    assert summary.variance == pytest.approx(
        summary.second_moment - summary.mean**2, abs=1e-9
    )
    assert summary.state_masses[0] == pytest.approx((0.8 - g) / 0.8, abs=1e-12)
    assert summary.state_masses[0] == pytest.approx(0.078947, abs=1e-6)
    assert summary.state_mass_sum() == pytest.approx(1.0, abs=1e-9)
    assert (summary.state_masses >= 0.0).all()
    # geometric tail beyond the stored prefix
    m = len(summary.state_masses) + 5
    assert summary.state_mass(m) == pytest.approx(
        (1 - g) * g**m / 0.8, rel=1e-9
    )


def test_geometric_stop_defective_masses():
    summary = geometric_stop_asymptotics(Geometric(0.7), 0.8, stop_defect=0.5)
    assert summary.never_stop_prob == pytest.approx(0.5, abs=1e-15)
    assert summary.state_mass_sum() == pytest.approx(0.5, abs=1e-9)
    assert summary.mean == INFINITY and summary.variance == INFINITY


def test_geometric_stop_immediate_kill_limit():
    # q -> 0: the count freezes at t = 1 with the first-step law
    summary = geometric_stop_asymptotics(Geometric(0.7), 1e-7)
    assert summary.state_masses[0] == pytest.approx(0.3, abs=1e-6)
    assert summary.state_masses[1] == pytest.approx(0.7, abs=1e-6)
    assert float(summary.state_masses[2:].sum()) < 1e-6


def test_limit_masses_match_large_time_column():
    spec = StoppedSpec(Geometric(0.7), Geometric(0.2), 512)
    table = stopped_state_table(spec)
    summary = geometric_stop_asymptotics(Geometric(0.7), 0.8)
    m_max = min(len(summary.state_masses), 513)
    np.testing.assert_allclose(
        table.probs[:m_max, -1], summary.state_masses[:m_max], atol=1e-9
    )


def test_bernoulli_stops_sibuya_values_and_cross_check():
    summary = bernoulli_stops_sibuya(0.2, 0.5)
    assert summary.mean == pytest.approx((1 - 0.5**0.2) / (0.5 * 0.5**0.2), abs=1e-12)
    assert summary.mean == pytest.approx(0.29740, abs=5e-6)
    cross = geometric_stop_asymptotics(Sibuya(0.2), 0.5)
    assert summary.mean == pytest.approx(cross.mean, abs=1e-12)
    assert summary.second_moment == pytest.approx(cross.second_moment, abs=1e-12)
    assert summary.variance == pytest.approx(cross.variance, abs=1e-12)
    # p -> 1 limit: first-step mass alpha_1 = mu
    near_one = bernoulli_stops_sibuya(0.2, 1 - 1e-9)
    assert near_one.mean == pytest.approx(0.2, abs=1e-6)
    assert near_one.variance == pytest.approx(0.2 * 0.8, abs=1e-6)


def test_bernoulli_stops_bernoulli_values_and_cross_check():
    summary = bernoulli_stops_bernoulli(0.6, 0.3)
    assert summary.mean == pytest.approx(2.0, abs=1e-12)
    assert summary.second_moment == pytest.approx(7.6, abs=1e-12)
    assert summary.variance == pytest.approx(3.6, abs=1e-12)
    cross = geometric_stop_asymptotics(Geometric(0.6), 0.7)
    assert summary.mean == pytest.approx(cross.mean, abs=1e-12)
    assert summary.variance == pytest.approx(cross.variance, abs=1e-12)


def test_poisson_stop_values():
    summary = poisson_stop(0.7, 2.0)
    assert summary.mean == pytest.approx(0.7 * 3.0, abs=1e-12)
    assert summary.variance == pytest.approx(0.7 * (2.0 + 0.3), abs=1e-12)
    # lam -> 0: immediate stop at t = 1
    tiny = poisson_stop(0.7, 1e-12)
    assert tiny.mean == pytest.approx(0.7, abs=1e-11)
    assert tiny.variance == pytest.approx(0.7 * 0.3, abs=1e-11)


def test_poisson_stop_against_finite_time_series():
    # E M(t) saturates to the closed-form limit once the stop has fired
    spec = StoppedSpec(Geometric(0.7), ShiftedPoisson(2.0), 128)
    mean = stopped_moments(spec, 1)
    second = stopped_moments(spec, 2)
    summary = poisson_stop(0.7, 2.0)
    assert mean[-1] == pytest.approx(summary.mean, abs=1e-10)
    assert second[-1] == pytest.approx(summary.second_moment, abs=1e-10)


def test_mean_at_infinity_is_inner_rate_times_stop_mean():
    # Wald-flavored identity for a Bernoulli inner count
    p0 = 0.7
    for stop, stop_mean in ((Geometric(0.2), 5.0), (ShiftedPoisson(2.0), 3.0)):
        spec = StoppedSpec(Geometric(p0), stop, 256)
        mean = stopped_moments(spec, 1)
        assert mean[-1] == pytest.approx(p0 * stop_mean, abs=1e-8)


def test_monotone_decrease_in_stop_success():
    grid = np.linspace(0.02, 0.98, 50)
    sib = [bernoulli_stops_sibuya(0.2, float(p)).mean for p in grid]
    ber = [bernoulli_stops_bernoulli(0.6, float(p)).mean for p in grid]
    assert (np.diff(sib) < 0).all()
    assert (np.diff(ber) < 0).all()


def test_dbp_stops_bernoulli_against_generic_series():
    for qs in (0.0, 0.25, 0.5, 0.75, 1.0):
        closed = dbp_stops_bernoulli(0.7, 0.8, qs, 200)
        spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(qs, 0.2), 200)
        np.testing.assert_allclose(closed.mean, stopped_moments(spec, 1), atol=1e-8)
        np.testing.assert_allclose(
            closed.second_moment, stopped_moments(spec, 2), atol=2e-7
        )
        np.testing.assert_allclose(
            closed.variance, closed.second_moment - closed.mean**2, atol=1e-8
        )


def test_dbp_degenerate_unstopped_variance():
    closed = dbp_stops_bernoulli(0.7, 0.8, 0.0, 64)
    t = np.arange(65, dtype=float)
    np.testing.assert_allclose(closed.variance, 0.7 * 0.3 * t, atol=1e-10)


def test_dbp_type_one_variance_limit():
    closed = dbp_stops_bernoulli(0.7, 0.8, 1.0, 512)
    assert closed.variance[-1] == pytest.approx(10.85, abs=1e-9)
    assert closed.mean[-1] == pytest.approx(3.5, abs=1e-9)


def test_lambda_max_approaches_half():
    closed = dbp_stops_bernoulli(0.7, 0.8, 0.5, 1000)
    assert abs(closed.lambda_max[1000] - 0.5) < 0.01
    assert np.isnan(closed.lambda_max[0]) and np.isnan(closed.lambda_max[1])
    # lambda_max really maximizes the variance over the defect at fixed t
    t = 50
    lam_star = closed.lambda_max[t]
    var_at = lambda lam: dbp_stops_bernoulli(0.7, 0.8, 1.0 - lam, 64).variance[t]
    assert var_at(lam_star) >= var_at(lam_star + 0.05) - 1e-12
    assert var_at(lam_star) >= var_at(lam_star - 0.05) - 1e-12


def test_state_polynomial_matches_table():
    qs = 0.5
    closed = dbp_stops_bernoulli(0.7, 0.8, qs, 64)
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(qs, 0.2), 64)
    table = stopped_state_table(spec)
    for v in (0.0, 0.25, 0.5, 0.75, 1.0, np.exp(1j * math.pi / 3), np.exp(2.1j)):
        np.testing.assert_allclose(
            closed.state_polynomial(v, np.arange(65)),
            table.polynomial(v),
            atol=1e-9,
        )


def test_stopped_count_is_not_markov():
    # one-step polynomial composed with itself must disagree with two steps
    closed = dbp_stops_bernoulli(0.7, 0.8, 1.0, 8)
    v = 0.5
    one = closed.state_polynomial(v, 1)
    two = closed.state_polynomial(v, 2)
    assert abs(one * one - two) > 1e-6
    # while the never-stopped count is Markov: (q0 + p0 v)^t composes exactly
    free = dbp_stops_bernoulli(0.7, 0.8, 0.0, 8)
    assert free.state_polynomial(v, 1) ** 2 == pytest.approx(
        free.state_polynomial(v, 2), abs=1e-12
    )


def test_renewal_equation_holds_for_auxiliary_not_for_stopped():
    q = 0.8
    horizon = 64
    inner = Geometric(0.7)
    aux = discounted_inner_law(inner, q, horizon)
    aux_table = renewal.state_table(aux, horizon)
    spec = StoppedSpec(inner, Geometric(1.0 - q), horizon)
    stop_table = stopped_state_table(spec)
    kernel = aux.pmf_vector(horizon)
    for v in (0.25, 0.5, 0.9):
        aux_poly = aux_table.polynomial(v)
        residual = renewal_equation_residual(
            aux_poly, aux_table.probs[0], kernel, v
        )
        assert np.max(np.abs(residual)) < 1e-9
        # the identity linking the two state polynomials
        stop_poly = stop_table.polynomial(v)
        np.testing.assert_allclose(
            aux_poly, (1.0 - q) + q * stop_poly, atol=1e-10
        )
        # the stopped polynomial violates the same recursion
        bad = renewal_equation_residual(stop_poly, stop_table.probs[0], kernel, v)
        assert np.max(np.abs(bad)) > 1e-6


def test_renewal_equation_residual_validations():
    with pytest.raises(ParameterError):
        renewal_equation_residual(np.ones(4), np.ones(4), np.ones(4), 0.5)
    with pytest.raises(ParameterError):
        renewal_equation_residual(np.ones(4), np.ones(3), np.zeros(4), 0.5)


def test_discounted_inner_law_mass():
    inner = Geometric(0.7)
    aux = discounted_inner_law(inner, 0.8, 512)
    assert aux.defect_mass == pytest.approx(inner.gf(0.8), abs=1e-12)


def test_horizon_zero_table():
    spec = StoppedSpec(Geometric(0.5), Geometric(0.5), 0)
    assert stopped_state_table(spec).probs.tolist() == [[1.0]]


def _laws(full_mass: bool):
    """Every law family over its accepted range; full_mass keeps it non-defective."""
    unit = st.floats(0.0, 1.0, exclude_min=True)
    mu = st.floats(1e-3, 0.999)
    mass = st.just(1.0) if full_mass else st.floats(0.0, 1.0)
    zeta = st.just(1.0) if full_mass else st.floats(1.0, 1e6)

    @st.composite
    def tabulated(draw):
        table = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60)))
        if table.sum() < 1e-300:
            table[0] = 1.0
        return Tabulated(table / table.sum() * draw(mass))

    return st.one_of(
        st.builds(Geometric, unit),
        st.builds(DefectiveGeometric, mass, unit),
        st.builds(Sibuya, mu),
        st.builds(DefectiveSibuya, mass, mu),
        st.builds(ShiftedPoisson, st.floats(0.0, 1e3, exclude_min=True)),
        st.builds(PowerLawBernstein, st.floats(0.0, 50.0, exclude_min=True), zeta),
        tabulated(),
    )


@settings(max_examples=200, deadline=None)
@given(inner=_laws(full_mass=True), stop=_laws(full_mass=False),
       horizon=st.integers(0, 48))
def test_state_table_columns_sum_to_one(inner, stop, horizon):
    tables = (
        renewal.state_table(inner, horizon),
        renewal.state_table(stop, horizon),
        stopped_state_table(StoppedSpec(inner, stop, horizon)),
    )
    for table in tables:
        np.testing.assert_allclose(table.row_sums(), 1.0, rtol=0, atol=1e-12)
