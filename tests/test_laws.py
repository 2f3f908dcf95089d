import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma, poch
from scipy.stats import binom

from renewalk import laws, montecarlo, ness, renewal, stopped, walks
from renewalk.errors import ParameterError, QuadratureError
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
    sib = Sibuya(0.5).pmf_vector(2)
    assert sib[1] == pytest.approx(0.5, abs=1e-15)
    assert sib[2] == pytest.approx(0.125, abs=1e-15)
    dg = DefectiveGeometric(0.5, 0.7).pmf_vector(2)
    assert dg[1] == pytest.approx(0.35, abs=1e-15)
    assert dg[2] == pytest.approx(0.105, abs=1e-15)
    plb = PowerLawBernstein(1.0, 1.0).pmf_vector(11)
    t = np.arange(1, 12)
    np.testing.assert_allclose(plb[1:], 1.0 / (t * (t + 1.0)), atol=1e-15)
    assert plb[1] == pytest.approx(0.5, abs=0)


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


@pytest.mark.parametrize("horizon", [20, 100])
def test_tail_masses_of_thinned_and_tabulated_laws(horizon):
    # the finite mass above T, relative: survival - (1 - defect) would cancel
    defect, p, mu = 0.5, 0.7, 0.4
    with mpmath.workdps(30):
        geometric = float(defect * mpmath.mpf(1.0 - p) ** horizon)
        sibuya = float(0.9 * mpmath.gamma(horizon + 1 - mpmath.mpf(mu))
                       / (mpmath.gamma(1 - mpmath.mpf(mu)) * mpmath.gamma(horizon + 1)))
    table = 0.8 * 0.5 ** np.arange(1.0, 150.0)
    for law, want in ((DefectiveGeometric(defect, p), geometric),
                      (DefectiveSibuya(0.9, mu), sibuya),
                      (Tabulated(table), math.fsum(table[horizon:]))):
        assert law.tail_mass(horizon) == pytest.approx(want, rel=1e-13, abs=0)


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.integers(0, 100), min_size=1, max_size=8).filter(any),
       mass=st.sampled_from([1.0, 0.9, 0.3]), horizon=st.sampled_from([8, 24]))
@example(weights=[1, 34, 55, 10], mass=1.0, horizon=8)
def test_tabulated_survival_and_table_have_no_negative_cell(weights, mass, horizon):
    # 1 - cumsum(pmf) rounds below 0 past the table (at t = 4 for the example)
    law = Tabulated(np.array(weights) / sum(weights) * mass)
    surv = law.survival_vector(horizon)
    assert surv[0] == 1.0 and (surv <= 1.0).all() and (surv >= 0.0).all()
    assert (np.diff(surv) <= 0.0).all()
    assert (renewal.state_table(law, horizon).probs >= 0.0).all()


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
            truncated = float(np.sum(law.pmf_vector(6000)[1:] * u**t))
            assert law.gf(u) == pytest.approx(truncated, abs=1e-8), type(law)


@pytest.mark.parametrize("gamma, zeta", [(0.3, 2.0), (0.5, 1.0), (1.5, 1.0)])
def test_power_law_gf_matches_lerch_reference(gamma, zeta):
    # sum_t pmf(t) u^t = zeta^-gamma - (1-u) Phi(u, gamma, zeta), Phi the Lerch transcendent
    with mpmath.workdps(30):
        u = mpmath.mpf(0.999)
        reference = mpmath.mpf(zeta) ** -gamma - (1 - u) * mpmath.lerchphi(u, gamma, zeta)
    assert PowerLawBernstein(gamma, zeta).gf(0.999) == pytest.approx(float(reference), abs=1e-13)


def test_power_law_gf_refuses_to_truncate_its_tail():
    # at u = 1 - 1e-8 the tail bound is still about 1e-2 after 2**22 terms
    with pytest.raises(QuadratureError, match=r"gf\(0\.99999999\): tail bound"):
        PowerLawBernstein(0.3, 2.0).gf(1.0 - 1e-8)


@pytest.mark.parametrize(
    "config",
    ["shifted_poisson:lam=inf", "power_law_bernstein:gamma=inf,zeta=1",
     "power_law_bernstein:gamma=0.5,zeta=inf"],
)
def test_non_finite_law_parameters_are_rejected(config):
    with pytest.raises(ParameterError, match="got inf"):
        parse_law(config)


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
    assert (DefectiveGeometric(0.0, 0.7).sample(rng, 50) == INFINITY).all()
    assert (Geometric(1.0).sample(rng, 50) == 1).all()


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
    mass = law.pmf_vector(atoms[-1])[1:] / law.defect_mass
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


_SURVIVAL_LEVELS = (0, 1, 2, 3, 5, 10, 30, 100, 1000, 5000)


# one-sided tail of 6 standard errors of a normal law
_SIX_SIGMA_TAIL = 0.5 * math.erfc(6.0 / math.sqrt(2.0))


def _assert_binomial_count(count, n, prob, what):
    """``count`` of ``n`` trials lies in the exact Binomial(n, prob) region
    whose two tails each hold at most ``_SIX_SIGMA_TAIL``.

    Where n * prob is large this is the 6-standard-error band; at far levels,
    with a fraction of one expected exceedance, a single draw beyond the level
    is a likely event that a normal band of width 6 * sqrt(prob / n) < 1 / n
    would reject.
    """
    lo = binom.ppf(_SIX_SIGMA_TAIL, n, prob)
    hi = binom.isf(_SIX_SIGMA_TAIL, n, prob)
    assert lo <= count <= hi, (what, count, lo, hi)


def _assert_sampler_survival(law, seed, n=1_000_000):
    """Count of draws above each level against the exact survival.

    Infinite draws count as exceeding every level, so the far levels also
    check the rate of infinite draws, 1 - defect_mass.
    """
    draws = np.asarray(law.sample(np.random.default_rng(seed), size=n))
    if law.defect_mass == 1.0:
        assert not np.isinf(draws).any()
    surv = law.survival_vector(_SURVIVAL_LEVELS[-1])
    for level in _SURVIVAL_LEVELS:
        exact = min(max(surv[level], 0.0), 1.0)
        _assert_binomial_count(int((draws > level).sum()), n, exact, (law, level))
    exact_inf = min(max(1.0 - law.defect_mass, 0.0), 1.0)
    _assert_binomial_count(int(np.isinf(draws).sum()), n, exact_inf, (law, "inf"))


# both sides of numpy's switch from inversion to a search at p = 1/3
_GEOMETRIC_P = st.sampled_from([1e-3, 0.2, 1 / 3, 0.5, 0.9, 1.0])
_SEED = st.integers(0, 2**32 - 1)


@settings(max_examples=12, deadline=None)
@given(p=_GEOMETRIC_P, seed=_SEED)
def test_geometric_sampler_survival_property(p, seed):
    _assert_sampler_survival(Geometric(p), seed)


@settings(max_examples=12, deadline=None)
@given(defect=st.floats(0.0, 1.0), p=_GEOMETRIC_P, seed=_SEED)
def test_defective_geometric_sampler_survival_property(defect, p, seed):
    _assert_sampler_survival(DefectiveGeometric(defect, p), seed)


@settings(max_examples=12, deadline=None)
@given(defect=st.floats(0.0, 1.0), mu=st.floats(0.05, 0.95), seed=_SEED)
def test_defective_sibuya_sampler_survival_property(defect, mu, seed):
    _assert_sampler_survival(DefectiveSibuya(defect, mu), seed)


@settings(max_examples=12, deadline=None)
@given(lam=st.floats(0.05, 200.0), seed=_SEED)
def test_shifted_poisson_sampler_survival_property(lam, seed):
    _assert_sampler_survival(ShiftedPoisson(lam), seed)


@settings(max_examples=12, deadline=None)
@given(gamma=st.floats(0.1, 4.0), zeta=st.floats(1.0, 4.0), seed=_SEED)
def test_power_law_bernstein_sampler_survival_property(gamma, zeta, seed):
    _assert_sampler_survival(PowerLawBernstein(gamma, zeta), seed)


@pytest.mark.parametrize("gamma", [1e-9, 1e-6])
def test_power_law_bernstein_sampler_stays_finite_at_tiny_gamma(gamma):
    # full mass, yet u^(-1/gamma) overflows for nearly every draw; draws
    # beyond the float range are clipped, since infinity means "never"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = PowerLawBernstein(gamma, 1.0).sample(np.random.default_rng(7), 200_000)
    assert np.isfinite(draws).all() and (draws >= 1.0).all()


@settings(max_examples=12, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).filter(
        lambda w: sum(w) > 0
    ),
    mass=st.floats(0.05, 1.0),
    seed=_SEED,
)
def test_tabulated_sampler_survival_property(weights, mass, seed):
    table = mass * np.array(weights) / sum(weights)
    _assert_sampler_survival(Tabulated(table), seed)


def test_geometric_draws_at_tiny_p_stay_finite():
    # E / -log1p(-p) overflows for p near the smallest float; a law without
    # a defect must still never return infinity
    for p in (5e-324, 1e-300, 1e-17):
        draws = Geometric(p).sample(np.random.default_rng(3), size=1000)
        assert np.isfinite(draws).all() and (draws >= 1).all()
        assert np.array_equal(draws, np.floor(draws))


def test_dcm_verify_cases():
    t = np.arange(65, dtype=float)
    ok, witness = dcm_verify(np.exp(-0.3 * t), n_max=6)
    assert ok and witness is None

    pmf_tail = PowerLawBernstein(0.5, 1.5).pmf_vector(65)[1:]
    ok, witness = dcm_verify(pmf_tail, n_max=6)
    assert ok and witness is None

    ok, witness = dcm_verify(t, n_max=3)
    assert not ok
    assert witness[0] == 1


#: one config of each law kind
_CONFIGS = (
    "geometric:p=0.7",
    "defective_geometric:defect=0.5,p=0.2",
    "sibuya:mu=0.2",
    "defective_sibuya:defect=0.9,mu=0.4",
    "shifted_poisson:lam=2.0",
    "power_law_bernstein:gamma=0.5,zeta=1.5",
    "tabulated:pmf=0.25;0.25;0.5",
)


def test_parse_law_round_trip():
    # every JSON summary embeds these strings, so they are pinned byte for byte
    for text in _CONFIGS:
        law = parse_law(text)
        assert laws.law_config(law) == text
        again = parse_law(laws.law_config(law))
        assert type(again) is type(law)
        np.testing.assert_allclose(again.pmf_vector(19), law.pmf_vector(19), atol=0)


def test_law_config_refuses_a_kind_outside_the_registry():
    # the registry matches types exactly, so a subclass of a registered kind has no form
    class Unregistered(Geometric):
        pass

    with pytest.raises(ParameterError, match="^no config form for Unregistered$"):
        laws.law_config(Unregistered(0.5))


@pytest.mark.parametrize("text", _CONFIGS)
def test_vectors_on_the_one_term_window(text):
    # T = 0 holds only t = 0, where no law has mass; T < 0 is no window
    law = parse_law(text)
    assert law.pmf_vector(0).tolist() == [0.0]
    assert law.survival_vector(0).tolist() == [1.0]
    for vector in (law.pmf_vector, law.survival_vector):
        with pytest.raises(ParameterError, match="horizon must be >= 0, got -1"):
            vector(-1)


@pytest.mark.parametrize("text", _CONFIGS + ("geometric:p=1",))
def test_shorter_windows_are_bitwise_prefixes(text):
    # callers take the window they need, so a series must not depend on where
    # it is cut; the table of 3 is cut below, at and above its length
    law = parse_law(text)
    pmf, surv = law.pmf_vector(64), law.survival_vector(64)
    for horizon in (0, 1, 2, 3, 4, 40, 63):
        assert law.pmf_vector(horizon).tobytes() == pmf[: horizon + 1].tobytes()
        assert law.survival_vector(horizon).tobytes() == surv[: horizon + 1].tobytes()


def test_configs_cover_every_law_kind():
    assert sorted(text.partition(":")[0] for text in _CONFIGS) == sorted(laws._LAW_KINDS)


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


@settings(max_examples=60, deadline=None)
@given(
    defect=st.floats(0.0, 1.0),
    share=st.floats(1e-3, 0.999),
    u=st.floats(0.0, 1.0),
    sibuya=st.booleans(),
)
# a subnormal defect makes subnormal pmf values, which carry fewer digits
# than rtol asks for unless the closed form is grouped as the law groups it
@example(defect=1.1125369292536007e-308, share=0.001, u=0.0, sibuya=False)
def test_thinned_law_is_defect_times_base(defect, share, u, sibuya):
    if sibuya:
        law, base = DefectiveSibuya(defect, share), Sibuya(share)
    else:
        law, base = DefectiveGeometric(defect, share), Geometric(share)
        t = np.arange(1, 60)
        np.testing.assert_allclose(
            law.pmf_vector(59)[1:],
            defect * (share * (1.0 - share) ** (t - 1)),
            rtol=1e-13,
            atol=0,
        )
        assert law.gf(u) == pytest.approx(
            defect * share * u / (1.0 - (1.0 - share) * u), rel=1e-14, abs=1e-300
        )
    np.testing.assert_array_equal(law.pmf_vector(59), defect * base.pmf_vector(59))
    np.testing.assert_array_equal(
        law.survival_vector(59), (1.0 - defect) + defect * base.survival_vector(59)
    )
    assert law.gf(u) == defect * base.gf(u)
    assert law.defect_mass == defect
    assert law.has_full_mass == (defect >= 1.0 - 1e-12)


def test_thinned_sample_is_mask_then_base_draws():
    # one uniform per draw decides finite or infinite, then the base law
    # draws the finite ones from the same generator
    for law, base in (
        (DefectiveGeometric(0.4, 0.2), Geometric(0.2)),
        (DefectiveSibuya(0.7, 0.3), Sibuya(0.3)),
        (DefectiveGeometric(1.0, 0.6), Geometric(0.6)),
    ):
        got = law.sample(np.random.default_rng(11), 1000)
        rng = np.random.default_rng(11)
        want = np.full(1000, np.inf)
        if law.defect < 1.0:
            finite = rng.random(1000) < law.defect
            want[finite] = base.sample(rng, int(finite.sum()))
        else:
            want = base.sample(rng, 1000)
        np.testing.assert_array_equal(got, want)


def test_thinned_law_validates_defect_then_base():
    with pytest.raises(ParameterError, match="defect mass must be in"):
        DefectiveGeometric(1.5, 0.0)
    with pytest.raises(ParameterError, match="geometric p must be in"):
        DefectiveGeometric(0.5, 0.0)
    with pytest.raises(ParameterError, match="sibuya index must be in"):
        DefectiveSibuya(0.5, 1.0)


def test_full_mass_boundary_is_shared():
    # one test, WaitingLaw.has_full_mass, decides "no mass at infinity" for
    # the renewal class, the stopped inner law and the lattice inner law
    full, short = DefectiveGeometric(1.0 - 1e-13, 0.5), DefectiveGeometric(1.0 - 1e-11, 0.5)
    assert full.has_full_mass and not short.has_full_mass
    assert Geometric(0.5).has_full_mass and not PowerLawBernstein(1.0, 2.0).has_full_mass
    assert renewal.classify(full) == renewal.TYPE_II
    assert renewal.classify(short) == renewal.TYPE_I
    stopped.StoppedSpec(full, Geometric(0.1), 5)
    stopped.geometric_stop_asymptotics(full, 0.8)
    ness.lattice_ness(walks.line_walk(0.5), full, 0.8, 8)
    with pytest.raises(ParameterError, match="inner law must be non-defective"):
        stopped.StoppedSpec(short, Geometric(0.1), 5)
    with pytest.raises(ParameterError, match="inner law must be non-defective"):
        stopped.geometric_stop_asymptotics(short, 0.8)
    with pytest.raises(ParameterError, match="inner law must be non-defective"):
        ness.lattice_ness(walks.line_walk(0.5), short, 0.8, 8)


_SPEC = stopped.StoppedSpec(Geometric(0.7), Geometric(0.2), 8)
_CFG = montecarlo.SimConfig(seed=1, replicas=10, horizon=8)


@pytest.mark.parametrize("make, got", [
    (lambda: renewal.exceedance_prob(Geometric(0.5), -2, 5), "n0 must be >= 0, got -2"),
    (lambda: renewal.exceedance_prob(Geometric(0.5), 1, -3), "time must be >= 0, got -3"),
    (lambda: walks.StepLaw([[1], [-1]], [1.0]),
     "one probability per step is required, got 1 for 2 steps"),
    (lambda: walks.StepLaw([[1, 0], [0, 1]], [0.5, 0.5], np.eye(3)),
     r"basis must be a d x d matrix, got shape \(3, 3\) for d=2"),
    (lambda: walks.line_walk(1.5), r"p_right must be in \[0, 1\], got 1.5"),
    (lambda: walks.propagator(walks.line_walk(0.5), [0.5, 0.25], 4),
     "count pmf must sum to 1, got 0.75"),
    (lambda: Tabulated([0.5, -0.25]), "tabulated pmf has negative entries, got -0.25"),
    (lambda: Tabulated([]), "tabulated pmf must be nonempty"),
    (lambda: dcm_verify([1.0, 0.5, 0.25], 3),
     "n_max exceeds the series horizon, got n_max=3 for horizon 2"),
    (lambda: montecarlo.compare_discrete([1, 2], [0, 1, 2], [0.5, 0.5]),
     r"support and probs must align, got \(3,\) and \(2,\)"),
    (lambda: ness.stable_density(1.0, 2.5), r"symmetric stable index must be in \(0, 2\], got 2.5"),
    (lambda: ness.stable_density(1.0, 1.0, 1.0),
     r"one-sided stable index must be in \(0, 1\), got 1.0"),
    (lambda: renewal.exceedance_prob(Geometric(0.5), 1.5, 10), "n0 must be an integer, got 1.5"),
    (lambda: renewal.limit_state_law(Geometric(0.5), n_max=2.5),
     "n_max must be an integer >= 0, got 2.5"),
    (lambda: renewal.limit_state_law(Geometric(0.5), n_max=-1),
     "n_max must be an integer >= 0, got -1"),
    (lambda: walks.StepLaw([[1], [-1]], [np.nan, 1.0]),
     r"step probabilities must be positive, got \[nan, 1.0\]"),
    (lambda: walks.propagator(walks.line_walk(0.5), [0.5, 0.5], True),
     "half_width=True must be an integer >= 0"),
    (lambda: walks.propagator(walks.line_walk(0.5), [0.5, 0.5], 2.5),
     "half_width=2.5 must be an integer >= 0"),
    (lambda: ness.lattice_ness(walks.line_walk(0.5), Geometric(0.7), 0.8, 2.5),
     "half_width=2.5 must be an integer >= 0"),
    *((lambda panels=panels: ness.lattice_ness(walks.line_walk(0.5), Geometric(0.7), 0.8, 16,
                                               panels=panels),
       f"panels={panels} must be an integer >= 1") for panels in (1000.0, 2.5, True, 0, -5)),
    (lambda: ness.lattice_ness(walks.line_walk(0.5), Geometric(0.7), 0.8, 2**23),
     "half_width=8388608: box over the 16777216-entry grid cap"),
    *((lambda q=q: ness.ness_scale(Geometric(0.7), q), rf"q must be in \(0, 1\), got {q}")
      for q in (0.0, 1.0)),
    *((lambda t=t: renewal.exceedance_prob(Geometric(0.7), 1, t),
       f"time must be an integer or INFINITY, got {t}") for t in (2.5, True)),
    (lambda: montecarlo.sample_stopped_value(_SPEC, _CFG, 2.5),
     r"t_obs must be an integer in \[0, horizon=8\] or INFINITY, got 2.5"),
    (lambda: montecarlo.sample_walk_endpoint(walks.line_walk(0.5), _SPEC, _CFG, True),
     r"t_obs must be an integer in \[0, horizon=8\] or INFINITY, got True"),
    (lambda: walks.propagator(walks.line_walk(0.5), [1.5, -0.5], 4),
     "count pmf entries must be >= 0, got -0.5"),
    *((lambda probs=probs: montecarlo.compare_discrete([0, 1, 1], [0, 1], probs),
       f"probs must be finite and >= 0, got {got}")
      for probs, got in (([np.nan, 0.5], np.nan), ([-0.5, 1.5], -0.5))),
    (lambda: montecarlo.compare_discrete([0, 1, 1], [0, 1], [0.9, 0.9]),
     "probs must sum to at most 1, got 1.8"),
    (lambda: ness.lattice_ness(walks.line_walk(0.5), DefectiveGeometric(0.5, 0.7), 0.8, 8),
     "inner law must be non-defective, got mass 0.5"),
    (lambda: renewal.brute_force_state_table(Geometric(0.5), 21),
     "exhaustive enumeration is for horizons <= 20, got 21"),
], ids=["n0", "time", "step-count", "basis", "p-right", "count-pmf", "negative-table",
        "empty-table", "dcm-n-max", "compare-shapes", "symmetric-alpha", "one-sided-alpha",
        "n0-not-integer", "n-max-not-integer", "n-max-negative", "nan-step-prob",
        "bool-half-width", "float-half-width", "float-lattice-half-width",
        "lattice-box-over-the-cap", "float-panels", "fractional-panels", "bool-panels",
        "zero-panels", "negative-panels",
        "ness-scale-q-0", "ness-scale-q-1", "float-time", "bool-time", "float-t-obs",
        "bool-t-obs", "negative-count-pmf", "nan-compare-probs", "negative-compare-probs", "compare-probs-over-1",
        "defective-lattice-inner", "enumeration-horizon"])
def test_parameter_errors_name_the_value_they_got(make, got):
    with pytest.raises(ParameterError, match=f"^{got}$"):
        make()
