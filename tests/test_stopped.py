import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    discounted_inner_law,
    renewal_equation_residual,
    state_polynomial,
    stored_prefix_length,
    traced_peak,
)

from renewalk import renewal, series, stopped
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
    closed_form_limits,
    dbp_stops_bernoulli,
    geometric_stop_asymptotics,
    poisson_stop,
    stopped_column,
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


def test_spec_names_a_non_integer_horizon():
    # a float horizon used to fail later, inside numpy, without naming it
    with pytest.raises(ParameterError, match="horizon must be an integer >= 0, got 10.5"):
        StoppedSpec(Geometric(0.7), Geometric(0.2), 10.5)
    assert StoppedSpec(Geometric(0.7), Geometric(0.2), np.int64(10)).horizon == 10


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


@pytest.mark.parametrize("inner", [Geometric(0.7), Sibuya(0.5), ShiftedPoisson(1.5)])
def test_massless_stop_oracle_is_the_renewal_oracle(inner):
    # a stop of mass 0 never fires, so the joint walk is the renewal walk
    for horizon in range(9):
        spec = StoppedSpec(inner, DefectiveGeometric(0.0, 0.5), horizon)
        got = brute_force_stopped_table(spec).probs
        want = renewal.brute_force_state_table(inner, horizon).probs
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("inner,stop", LAW_PAIRS[:5])
def test_mean_skips_the_pair_convolution(inner, stop, monkeypatch):
    # E M is the frozen running sum of the renewal density alone; the bytes
    # are those of the mean that comes with E M^2
    spec = StoppedSpec(inner, stop, 96)
    want = stopped._moment_pair(spec)[0]
    monkeypatch.setattr(series, "convolve", None)
    assert stopped_moments(spec, 1).tobytes() == want.tobytes()


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
    last = len(summary.state_masses) - 1
    m = last + 6
    assert summary.state_masses[-1] * summary.tail_ratio ** (m - last) == pytest.approx(
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


@pytest.mark.parametrize(
    "inner",
    [Geometric(0.7), Geometric(0.05), Sibuya(0.2), Sibuya(0.9), ShiftedPoisson(3.0),
     Tabulated([0.0, 0.0, 1.0])],
    ids=["geometric_0.7", "geometric_0.05", "sibuya_0.2", "sibuya_0.9", "poisson",
         "tabulated"],
)
def test_geometric_stop_prefix_length_matches_the_loop(inner):
    # the closed-form length against the step-by-step search, up to its cap
    # of 200000 (Sibuya(0.9) near q = 1 reaches it)
    for q in (1e-7, 0.1, 0.5, 0.8, 0.99, 0.999, 0.99999):
        for defect in (1.0, 0.5):
            summary = geometric_stop_asymptotics(inner, q, defect)
            g = inner.gf(q)
            want = stored_prefix_length(defect * (1.0 - g) / q, g)
            assert len(summary.state_masses) == want + 1, (q, defect)


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


@pytest.mark.parametrize("lam", [math.inf, -1.0, math.nan])
def test_poisson_stop_rejects_rates_outside_zero_to_inf(lam):
    # an infinite rate is a stop that never comes, not a certain one
    with pytest.raises(ParameterError, match=rf"in \[0, inf\), got {lam}$"):
        poisson_stop(0.5, lam)


def test_poisson_stop_against_finite_time_series():
    # E M(t) saturates to the closed-form limit once the stop has fired
    spec = StoppedSpec(Geometric(0.7), ShiftedPoisson(2.0), 128)
    mean = stopped_moments(spec, 1)
    second = stopped_moments(spec, 2)
    summary = poisson_stop(0.7, 2.0)
    assert mean[-1] == pytest.approx(summary.mean, abs=1e-10)
    assert second[-1] == pytest.approx(summary.second_moment, abs=1e-10)


def _fields(summary):
    return {k: v for k, v in vars(summary).items() if k != "state_masses"}


@pytest.mark.parametrize("stop, p, mass", [
    (Geometric(0.2), 0.2, 1.0),
    (DefectiveGeometric(0.5, 0.035), 0.035, 0.5),
    (DefectiveGeometric(1.0, 0.6), 0.6, 1.0),
])
@pytest.mark.parametrize("inner", [Geometric(0.7), Sibuya(0.5), ShiftedPoisson(1.5)])
def test_closed_form_limits_of_a_geometric_stop(inner, stop, p, mass):
    # any inner law under a (defective) geometric stop: field for field
    got = closed_form_limits(StoppedSpec(inner, stop, 8))
    want = geometric_stop_asymptotics(inner, 1.0 - p, mass)
    assert _fields(got) == _fields(want)
    assert np.array_equal(got.state_masses, want.state_masses)


def test_closed_form_limits_of_a_poisson_stop():
    # only a Bernoulli count has closed-form limits under a shifted-Poisson stop
    got = closed_form_limits(StoppedSpec(Geometric(0.6), ShiftedPoisson(2.0), 8))
    want = poisson_stop(0.6, 2.0)
    assert _fields(got) == _fields(want) and got.state_masses is None
    assert closed_form_limits(StoppedSpec(Sibuya(0.5), ShiftedPoisson(2.0), 8)) is None


@pytest.mark.parametrize("stop", [
    Sibuya(0.3), DefectiveSibuya(0.5, 0.4), PowerLawBernstein(0.5, 1.5),
    Tabulated(np.array([0.2, 0.3, 0.4])),
    # a stop at t = 1 and a stop of mass 0: the geometric formulas are 0/0 there
    Geometric(1.0), DefectiveGeometric(0.0, 0.5),
])
@pytest.mark.parametrize("inner", [Geometric(0.7), Sibuya(0.5)])
def test_closed_form_limits_are_none_for_other_stops(inner, stop):
    assert closed_form_limits(StoppedSpec(inner, stop, 8)) is None


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
            state_polynomial(closed, v, np.arange(65)),
            table.polynomial(v),
            atol=1e-9,
        )


def test_stopped_count_is_not_markov():
    # one-step polynomial composed with itself must disagree with two steps
    closed = dbp_stops_bernoulli(0.7, 0.8, 1.0, 8)
    v = 0.5
    one = state_polynomial(closed, v, 1)
    two = state_polynomial(closed, v, 2)
    assert abs(one * one - two) > 1e-6
    # while the never-stopped count is Markov: (q0 + p0 v)^t composes exactly
    free = dbp_stops_bernoulli(0.7, 0.8, 0.0, 8)
    assert state_polynomial(free, v, 1) ** 2 == pytest.approx(
        state_polynomial(free, v, 2), abs=1e-12
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


def _toward_0_and_1(low):
    """Floats in (0, 1) whose distance to 0 or to 1 is log-uniform down to 10^low."""
    return st.builds(lambda e, near_one: 1.0 - 10.0**e if near_one else 10.0**e,
                     st.floats(low, -0.01), st.booleans())


def _assert_column_is_the_tables(spec, t):
    want = stopped_state_table(StoppedSpec(spec.inner, spec.stop, t)).column(t)
    got = stopped_column(spec, t)
    normal = want >= 1e-300
    assert got.shape == want.shape and got[normal].tobytes() == want[normal].tobytes()
    assert np.all(got[~normal] < 1e-299)


@settings(max_examples=120, deadline=None)
@given(inner=st.one_of(st.builds(Geometric, _toward_0_and_1(-12)),
                       st.builds(Sibuya, _toward_0_and_1(-9))),
       stop=_laws(full_mass=False), t=st.sampled_from([0, 1, 2, 7, 19, 20, 64, 257]))
def test_stopped_column_is_the_tables_column(inner, stop, t):
    # below horizon 20 the table convolves rows, and so the column reads the table
    _assert_column_is_the_tables(StoppedSpec(inner, stop, 8), t)


@pytest.mark.parametrize("inner", [Geometric(0.3), Sibuya(0.5)])
def test_stopped_column_at_2048_is_the_tables_column_in_one_percent_of_its_memory(inner):
    spec = StoppedSpec(inner, DefectiveGeometric(0.5, 0.01), 2048)
    _assert_column_is_the_tables(spec, 2048)
    _, peak = traced_peak(lambda: stopped_column(spec, 2048))
    assert peak < 0.01 * 8 * 2049**2


@pytest.mark.parametrize("horizon, tables", [(768, 2.5), (2048, 1.5)])
def test_state_table_is_frozen_in_place(horizon, tables):
    # the inner table is frozen block by block, so past building it the
    # only scratch is one block of rows: about 1.25 tables at T = 2048
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(0.5, 0.035), horizon)
    stopped_state_table(StoppedSpec(spec.inner, spec.stop, 8))
    table, peak = traced_peak(lambda: stopped_state_table(spec))
    assert peak <= tables * table.probs.nbytes


@pytest.mark.parametrize("shape", [(2 * stopped._FREEZE_ROWS + 7, 40), (40,)])
def test_frozen_blocks_repeat_the_whole_series_formula(shape):
    # block by block, the same float operations in the same order, bit for bit
    stop = DefectiveGeometric(0.5, 0.035)
    series = np.random.default_rng(3).random(shape)
    want = np.cumsum(stop.pmf_vector(39) * series, axis=-1) + stop.survival_vector(39) * series
    got = stopped._frozen(stop, series)
    assert got is series and got.tobytes() == want.tobytes()


class _StopMass:
    """A stand-in stopping law whose mass no real law can have."""

    defect_mass = 1.5


# every ParameterError of the module, each with the value it got
BAD_CALLS = [
    (StoppedSpec, (Geometric(0.5), _StopMass(), 4), r"\[0, 1\], got 1.5"),
    (stopped_moments, (StoppedSpec(Geometric(0.5), Geometric(0.5), 4), 3), "2, got 3"),
    (stopped.AsymptoticSummary.state_mass_sum, (bernoulli_stops_sibuya(0.5, 0.5),), "got None"),
    (geometric_stop_asymptotics, (Geometric(0.5), 0.5, 0.0), r"\(0, 1\], got 0.0"),
    (geometric_stop_asymptotics, (DefectiveGeometric(0.25, 0.5), 0.5), "got mass 0.25"),
    (bernoulli_stops_sibuya, (1.2, 0.5), r"\(0, 1\), got 1.2"),
    (bernoulli_stops_sibuya, (0.5, 1.0), r"\(0, 1\), got 1.0"),
    (bernoulli_stops_bernoulli, (1.5, 0.5), r"\(0, 1\], got 1.5"),
    (bernoulli_stops_bernoulli, (0.5, 0.0), r"\(0, 1\), got 0.0"),
    (poisson_stop, (1.5, 2.0), r"\(0, 1\], got 1.5"),
    (dbp_stops_bernoulli, (1.0, 0.5, 0.5, 10), r"\(0, 1\), got 1.0"),
    (dbp_stops_bernoulli, (0.5, 0.0, 0.5, 10), r"\(0, 1\), got 0.0"),
    (dbp_stops_bernoulli, (0.5, 0.5, 2.0, 10), r"\[0, 1\], got 2.0"),
    (dbp_stops_bernoulli, (0.5, 0.5, 0.5, 1), ">= 2 .*, got 1"),
    (discounted_inner_law, (Geometric(0.5), 1.5, 8), r"\(0, 1\), got 1.5"),
    (brute_force_stopped_table, (StoppedSpec(Geometric(0.5), Geometric(0.5), 17),),
     "<= 16, got 17"),
    (renewal_equation_residual, (np.ones(4), np.ones(3), np.zeros(4), 0.5),
     "4 values, 3 zero_state, 4 kernel"),
    (renewal_equation_residual, (np.ones(4), np.ones(4), np.ones(4), 0.5),
     r"kernel\[0\] = 0, got 1.0"),
]


@pytest.mark.parametrize("func, args, got", BAD_CALLS, ids=[f.__name__ for f, *_ in BAD_CALLS])
def test_parameter_errors_name_the_value_and_the_limit(func, args, got):
    with pytest.raises(ParameterError, match=got):
        func(*args)
