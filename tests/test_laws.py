import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, poch

from renewalk import laws
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
    dcm_verify,
    parse_law,
)

ALL_PRESETS = [
    Geometric(0.7),
    Geometric(0.25),
    DefectiveGeometric(0.5, 0.7),
    Sibuya(0.5),
    Sibuya(0.2),
    DefectiveSibuya(0.9, 0.4),
    ShiftedPoisson(2.0),
    PowerLawBernstein(1.0, 1.0),
    PowerLawBernstein(0.5, 1.5),
    PowerLawBernstein(2.0, 2.0),
    Tabulated(np.array([0.2, 0.3, 0.4])),
]


def test_pmf_worked_values():
    sib = Sibuya(0.5)
    assert sib.pmf(1) == pytest.approx(0.5, abs=1e-15)
    assert sib.pmf(2) == pytest.approx(0.125, abs=1e-15)
    dg = DefectiveGeometric(0.5, 0.7)
    assert dg.pmf(1) == pytest.approx(0.35, abs=1e-15)
    assert dg.pmf(2) == pytest.approx(0.105, abs=1e-15)
    plb = PowerLawBernstein(1.0, 1.0)
    t = np.arange(1, 12)
    np.testing.assert_allclose(plb.pmf(t), 1.0 / (t * (t + 1.0)), atol=1e-15)
    assert plb.pmf(1) == pytest.approx(0.5, abs=0)


def test_pmf_vector_layout():
    for law in ALL_PRESETS:
        vec = law.pmf_vector(40)
        assert vec[0] == 0.0
        assert (vec >= 0.0).all()
        assert vec.sum() <= law.defect_mass + 1e-12


def test_defect_masses():
    assert Geometric(0.3).defect_mass == 1.0
    assert PowerLawBernstein(2.0, 2.0).defect_mass == pytest.approx(0.25, abs=1e-15)
    assert DefectiveSibuya(0.9, 0.4).defect_mass == 0.9


def test_partial_sums_approach_defect_mass():
    for law in ALL_PRESETS:
        partial = np.cumsum(law.pmf_vector(512))
        assert (np.diff(partial) >= -1e-15).all()
        assert partial[-1] <= law.defect_mass + 1e-12
        assert law.defect_mass - partial[-1] == pytest.approx(
            law.tail_mass(512), abs=1e-9
        )


def test_gf_worked_values():
    assert DefectiveGeometric(1.0, 0.7).gf(0.8) == pytest.approx(0.56 / 0.76, abs=1e-15)
    assert Sibuya(0.2).gf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert ShiftedPoisson(2.0).gf(0.5) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)


def test_gf_at_one_returns_mass():
    for law in ALL_PRESETS:
        assert law.gf(1.0) == pytest.approx(law.defect_mass, abs=1e-12)


def test_gf_matches_truncated_series():
    t = np.arange(1, 6001, dtype=float)
    for law in ALL_PRESETS:
        for u in (0.2, 0.5, 0.9, 0.99):
            truncated = float(np.sum(law.pmf(t) * u**t))
            assert law.gf(u) == pytest.approx(truncated, abs=1e-8), type(law)


def test_gf_domain_error():
    with pytest.raises(ParameterError):
        Geometric(0.5).gf(1.5)
    with pytest.raises(ParameterError):
        Geometric(0.5).gf(-0.1)


def test_survival_vector_matches_cumsum():
    for law in ALL_PRESETS:
        direct = 1.0 - np.cumsum(law.pmf_vector(128))
        np.testing.assert_allclose(law.survival_vector(128), direct, atol=1e-12)


def test_power_law_survival_telescopes_exactly():
    gamma, zeta = 0.5, 1.5
    law = PowerLawBernstein(gamma, zeta)
    t = np.arange(257, dtype=float)
    expected = 1.0 - zeta**-gamma + (t + zeta) ** -gamma
    assert np.array_equal(law.survival_vector(256), expected)


def test_power_law_pmf_vector_steep_and_barely_defective():
    # pmf_vector also evaluates t = 0, where (t - 1 + zeta)^-gamma overflowed
    # once zeta is within an ulp of 1; Tier-1 turns that warning into an error
    law = PowerLawBernstein(20.0, 1.0000000000000002)
    pmf = law.pmf_vector(4)
    assert pmf[0] == 0.0 and np.isfinite(pmf).all()
    assert pmf.sum() == pytest.approx(law.defect_mass - (4 + law.zeta) ** -20.0, abs=1e-15)


def test_sampling_degenerate_cases():
    rng = np.random.default_rng(0)
    never = DefectiveGeometric(0.0, 0.7)
    assert all(never.sample(rng) == INFINITY for _ in range(50))
    sure = Geometric(1.0)
    assert all(sure.sample(rng) == 1 for _ in range(50))


def test_geometric_sample_mean():
    rng = np.random.default_rng(2024)
    draws = Geometric(0.25).sample(rng, size=1_000_000)
    assert not np.isinf(draws).any()
    assert draws.mean() == pytest.approx(4.0, abs=0.02)


def test_defective_share_of_infinite_draws():
    rng = np.random.default_rng(5)
    draws = DefectiveGeometric(0.6, 0.5).sample(rng, size=200_000)
    assert np.isinf(draws).mean() == pytest.approx(0.4, abs=0.005)


@pytest.mark.parametrize(
    "law",
    [
        Geometric(0.7),
        DefectiveGeometric(0.5, 0.3),
        Sibuya(0.5),
        DefectiveSibuya(0.8, 0.6),
        ShiftedPoisson(2.0),
        PowerLawBernstein(1.5, 1.0),
        PowerLawBernstein(0.5, 1.5),
        Tabulated(np.array([0.1, 0.5, 0.2, 0.2])),
    ],
)
def test_sampling_matches_pmf_in_total_variation(law):
    # single atoms up to 32, dyadic bins beyond: keeps the comparison sharp
    # where mass sits while holding the pure-noise TV well under the bound
    # for the fat-tailed families
    rng = np.random.default_rng(99)
    draws = np.asarray(law.sample(rng, size=100_000))
    finite = draws[np.isfinite(draws)]
    edges = np.concatenate([np.arange(1, 34), 32 * 2.0 ** np.arange(1, 16)])
    atoms = np.arange(1, int(edges[-1]) + 1)
    mass = np.asarray(law.pmf(atoms)) / law.defect_mass
    exact, _ = np.histogram(atoms, bins=edges, weights=mass)
    emp, _ = np.histogram(finite, bins=edges)
    emp = emp / finite.size
    tv = 0.5 * (np.abs(emp - exact).sum() + abs(emp.sum() - exact.sum()))
    assert tv < 0.01


def test_sample_values_are_positive_integers():
    rng = np.random.default_rng(17)
    for law in ALL_PRESETS:
        draws = np.asarray(law.sample(rng, size=2000))
        finite = draws[np.isfinite(draws)]
        assert (finite >= 1).all()
        assert np.array_equal(finite, np.round(finite))


def test_sibuya_sampler_tail_matches_survival():
    # heavy-tail check well beyond any sequential-scan range
    rng = np.random.default_rng(31)
    mu = 0.3
    draws = np.asarray(Sibuya(mu).sample(rng, size=200_000))
    from scipy.special import gammaln

    for level in (10.0, 1000.0, 1e6):
        exact = math.exp(
            gammaln(level + 1 - mu) - gammaln(1 - mu) - gammaln(level + 1)
        )
        emp = (draws > level).mean()
        assert emp == pytest.approx(exact, abs=4 * math.sqrt(exact / 200_000) + 1e-4)


def _sibuya_survival(t, mu):
    """P[T > t] = G(t+1-mu) / (G(1-mu) G(t+1)), accurate for large t."""
    return float(poch(t + 1.0, -mu) / gamma(1.0 - mu))


def test_sibuya_small_index_sampler_is_fast_and_exact():
    # below mu = 0.5 the draws reach 1e15 and beyond, where a log-gamma
    # survival rounds to a constant
    rng = np.random.default_rng(41)
    start = time.perf_counter()
    draws = np.asarray(Sibuya(0.2).sample(rng, size=10**5))
    assert time.perf_counter() - start < 1.0
    for level in (1, 10, 1e3, 1e6):
        exact = _sibuya_survival(level, 0.2)
        se = math.sqrt(exact * (1 - exact) / draws.size)
        assert abs((draws > level).mean() - exact) < 5 * se


@pytest.mark.parametrize("mu", [1e-3, 0.999])
def test_sibuya_draws_at_index_edges_are_finite_integers(mu):
    draws = np.asarray(Sibuya(mu).sample(np.random.default_rng(43), size=10**5))
    assert np.isfinite(draws).all()
    assert (draws >= 1).all()
    assert np.array_equal(draws, np.floor(draws))


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(1e-3, 0.999), seed=st.integers(0, 2**32 - 1))
def test_sibuya_sampler_survival_property(mu, seed):
    # 5 standard errors, plus 5/n so that levels with a handful of expected
    # exceedances are judged on their Poisson tail
    n = 20_000
    draws = np.asarray(Sibuya(mu).sample(np.random.default_rng(seed), size=n))
    for level in (1, 10, 1e3, 1e6):
        exact = _sibuya_survival(level, mu)
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs((draws > level).mean() - exact) < 5 * se + 5 / n


def test_dcm_verify_cases():
    t = np.arange(65, dtype=float)
    ok, witness = dcm_verify(np.exp(-0.3 * t), n_max=6)
    assert ok and witness is None

    pmf_tail = PowerLawBernstein(0.5, 1.5).pmf(np.arange(1, 66))
    ok, witness = dcm_verify(pmf_tail, n_max=6)
    assert ok and witness is None

    ok, witness = dcm_verify(t, n_max=3)
    assert not ok
    assert witness[0] == 1


def test_parse_law_round_trip():
    for text in (
        "geometric:p=0.7",
        "defective_geometric:defect=0.5,p=0.2",
        "sibuya:mu=0.2",
        "shifted_poisson:lam=2.0",
        "power_law_bernstein:gamma=0.5,zeta=1.5",
        "tabulated:pmf=0.25;0.25;0.5",
    ):
        law = parse_law(text)
        again = parse_law(laws.law_config(law))
        assert type(again) is type(law)
        np.testing.assert_allclose(
            np.asarray(again.pmf(np.arange(1, 20))),
            np.asarray(law.pmf(np.arange(1, 20))),
            atol=0,
        )


def test_parse_law_rejects_unknown():
    with pytest.raises(ParameterError):
        parse_law("zeta_process:x=1")
    with pytest.raises(ParameterError):
        parse_law("geometric:nope=0.7")
    with pytest.raises(ParameterError):
        parse_law("geometric")


def test_parameter_domains():
    with pytest.raises(ParameterError):
        Geometric(0.0)
    with pytest.raises(ParameterError):
        Sibuya(1.0)
    with pytest.raises(ParameterError):
        ShiftedPoisson(0.0)
    with pytest.raises(ParameterError):
        PowerLawBernstein(0.5, 0.9)
    with pytest.raises(ParameterError):
        Tabulated(np.array([0.9, 0.4]))
