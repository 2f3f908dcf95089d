import math
import os
import subprocess
import sys

import numpy as np
import pytest

import renewalk
from renewalk import montecarlo as mc
from renewalk import ness, stopped, walks
from renewalk.errors import InconclusiveRunError, ParameterError
from renewalk.laws import INFINITY, DefectiveGeometric, Geometric, Sibuya
from renewalk.montecarlo import SimConfig
from renewalk.stopped import StoppedSpec


SPEC = StoppedSpec(Geometric(0.7), Geometric(0.2), 20)


def test_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(seed=1, replicas=0)
    with pytest.raises(ParameterError):
        SimConfig(seed=1, replicas=10, workers=0)


def test_path_shape_invariants():
    cfg = SimConfig(seed=1234, replicas=50_000, horizon=20)
    paths = mc.sample_stopped_path(SPEC, cfg)
    assert paths.shape == (50_000, 21)
    assert (paths[:, 0] == 0).all()
    assert (np.diff(paths, axis=1) >= 0).all()
    assert (paths <= np.arange(21)).all()


def test_paths_freeze_after_stopping():
    # a defective stop leaves visibly frozen and visibly growing paths
    spec = StoppedSpec(Geometric(0.9), DefectiveGeometric(0.5, 0.5), 40)
    paths = mc.sample_stopped_path(spec, SimConfig(seed=7, replicas=20_000, horizon=40))
    tail_growth = paths[:, -1] - paths[:, 20]
    assert (tail_growth == 0).any() and (tail_growth > 10).any()


def test_reproducible_across_runs_and_workers():
    cfg1 = SimConfig(seed=42, replicas=70_000, horizon=20, workers=1)
    cfg4 = SimConfig(seed=42, replicas=70_000, horizon=20, workers=4)
    a = mc.sample_stopped_path(SPEC, cfg1)
    b = mc.sample_stopped_path(SPEC, cfg4)
    c = mc.sample_stopped_path(SPEC, cfg1)
    assert np.array_equal(a, b) and np.array_equal(a, c)
    ea = mc.sample_walk_endpoint(walks.line_walk(0.5), SPEC, cfg1, 20)
    eb = mc.sample_walk_endpoint(walks.line_walk(0.5), SPEC, cfg4, 20)
    assert np.array_equal(ea, eb)


def test_empirical_state_law_matches_exact_table():
    cfg = SimConfig(seed=11, replicas=100_000, horizon=20)
    paths = mc.sample_stopped_path(SPEC, cfg)
    exact = stopped.stopped_state_table(SPEC).column(20)
    comp = mc.compare_discrete(paths[:, 20], np.arange(21), exact)
    assert comp.tv < 0.01
    assert comp.chisq_pvalue > 0.001


def test_stopped_value_agrees_with_paths():
    cfg = SimConfig(seed=13, replicas=30_000, horizon=20)
    values = mc.sample_stopped_value(SPEC, cfg, 20)
    exact = stopped.stopped_state_table(SPEC).column(20)
    comp = mc.compare_discrete(values, np.arange(21), exact)
    assert comp.tv < 0.015


def test_frozen_value_mean_and_variance():
    cfg = SimConfig(seed=17, replicas=1_000_000, horizon=4096)
    values = mc.sample_stopped_value(SPEC, cfg, INFINITY)
    summary = stopped.geometric_stop_asymptotics(Geometric(0.7), 0.8)
    assert values.mean() == pytest.approx(summary.mean, rel=0.01)
    assert values.var() == pytest.approx(summary.variance, rel=0.02)


def test_unfrozen_fraction_tracks_never_stop_probability():
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(0.25, 0.2), 10_000)
    cfg = SimConfig(seed=23, replicas=100_000, horizon=10_000)
    frac = mc.unfrozen_fraction(spec, cfg, 10_000)
    assert frac == pytest.approx(0.75, abs=0.01)


def test_infinite_proxy_rejects_defective_stop():
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(0.25, 0.2), 500)
    cfg = SimConfig(seed=29, replicas=10_000, horizon=500)
    with pytest.raises(InconclusiveRunError):
        mc.sample_stopped_value(spec, cfg, INFINITY)


def test_unstopped_generator_is_plain_renewal_count():
    # zero stopping mass: M(t) has the inner binomial law
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(0.0, 0.2), 30)
    cfg = SimConfig(seed=31, replicas=100_000, horizon=30)
    values = mc.sample_stopped_value(spec, cfg, 30)
    from scipy.stats import binom

    comp = mc.compare_discrete(values, np.arange(31), binom.pmf(np.arange(31), 30, 0.7))
    assert comp.tv < 0.01
    assert comp.chisq_pvalue > 0.001


def test_deterministic_step_endpoint_equals_frozen_count():
    cfg = SimConfig(seed=37, replicas=200_000, horizon=4096)
    pos = mc.sample_walk_endpoint(walks.line_walk(1.0), SPEC, cfg, INFINITY)
    summary = stopped.geometric_stop_asymptotics(Geometric(0.7), 0.8)
    assert pos[:, 0].mean() == pytest.approx(summary.mean, rel=0.01)


def test_unbiased_endpoint_mean_is_zero():
    cfg = SimConfig(seed=41, replicas=100_000, horizon=64)
    pos = mc.sample_walk_endpoint(walks.line_walk(0.5), SPEC, cfg, 20)
    m1 = stopped.stopped_moments(SPEC, 1)[20]
    sigma = math.sqrt(m1 / cfg.replicas)
    assert abs(pos[:, 0].mean()) < 5 * sigma


def test_walk_endpoint_moments_match_wald():
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(0.5, 0.2), 300)
    cfg = SimConfig(seed=43, replicas=100_000, horizon=300)
    step = walks.triangular_walk(True)
    pos = mc.sample_walk_endpoint(step, spec, cfg, 300)
    cart = pos @ step.basis.T
    m1 = stopped.stopped_moments(spec, 1)
    m2 = stopped.stopped_moments(spec, 2)
    exact = walks.walk_moments(step, m1, m2)
    msd_emp = (cart**2).sum(axis=1).mean()
    assert msd_emp == pytest.approx(exact.msd[300], rel=0.05)
    assert cart[:, 1].mean() == pytest.approx(exact.mean[300, 1], rel=0.05)


def test_walk_endpoint_law_matches_propagator():
    # the full 2-d lattice law of the biased triangular walk at a finite t
    spec = StoppedSpec(Geometric(0.6), DefectiveGeometric(0.5, 0.15), 12)
    step = walks.triangular_walk(True)
    t = half_width = 12
    grid = walks.propagator(step, stopped.stopped_state_table(spec).column(t), half_width)
    cfg = SimConfig(seed=79, replicas=200_000, horizon=t)
    pos = mc.sample_walk_endpoint(step, spec, cfg, t) + half_width
    width = 2 * half_width + 1
    comp = mc.compare_discrete(pos[:, 0] * width + pos[:, 1], np.arange(width**2),
                               grid.values.ravel())
    assert comp.chisq_pvalue > 0.001


def test_sibuya_paths_match_state_table_columns():
    # events marked up to min(S, horizon) and summed, for a fat-tailed inner
    # law and a stop that never comes on half the paths
    spec = StoppedSpec(Sibuya(0.5), DefectiveGeometric(0.5, 0.1), 40)
    paths = mc.sample_stopped_path(spec, SimConfig(seed=83, replicas=100_000, horizon=40))
    table = stopped.stopped_state_table(spec)
    for t in (3, 17, 40):
        comp = mc.compare_discrete(paths[:, t], np.arange(41), table.column(t))
        assert comp.chisq_pvalue > 0.001, t


def test_samplers_identical_for_any_worker_count_over_many_chunks():
    replicas = 3 * mc._CHUNK + 1000
    step = walks.triangular_walk(True)
    outs = []
    for workers in (1, 3):
        cfg = SimConfig(seed=89, replicas=replicas, horizon=128, workers=workers)
        outs.append((
            mc.sample_stopped_path(SPEC, cfg).tobytes(),
            mc.sample_walk_endpoint(step, SPEC, cfg, 20).tobytes(),
            mc.sample_walk_endpoint(step, SPEC, cfg, INFINITY).tobytes(),
        ))
    assert outs[0] == outs[1]


def test_lattice_ness_against_endpoint_histogram():
    q = 0.8
    step = walks.line_walk(0.5)
    inner = Geometric(0.7)
    grid = ness.lattice_ness(step, inner, q, 120)
    spec = StoppedSpec(inner, Geometric(1 - q), 2048)
    cfg = SimConfig(seed=47, replicas=1_000_000, horizon=2048)
    pos = mc.sample_walk_endpoint(step, spec, cfg, INFINITY)[:, 0]
    support = np.arange(-120, 121)
    comp = mc.compare_discrete(pos, support, grid.values)
    assert comp.tv < 0.01


def test_compare_discrete_self_consistency():
    rng = np.random.default_rng(53)
    draws = Geometric(0.5).sample(rng, size=100_000)
    support = np.arange(1, 40)
    probs = 0.5**support
    comp = mc.compare_discrete(draws, support, probs)
    assert comp.tv < 0.01
    assert comp.chisq_pvalue > 0.001


def test_compare_discrete_pvalue_matches_scipy_chisquare():
    # every expected count is at least 5, so no bin is pooled
    from scipy.stats import chisquare

    counts = [30, 52, 61, 40, 12, 5]
    probs = np.array([0.1, 0.25, 0.3, 0.2, 0.1, 0.05])
    samples = np.repeat(np.arange(6), counts)
    comp = mc.compare_discrete(samples, np.arange(6), probs)
    want = chisquare(counts, probs * len(samples)).pvalue
    assert comp.chisq_pvalue == pytest.approx(want, rel=1e-12, abs=0)


def test_compare_discrete_counts_each_support_value():
    # unsorted support with gaps, and samples that fall outside it: relabel
    # each sample by per-value counting to its support index (-1 outside),
    # which must give the very same comparison on the support 0..m-1
    rng = np.random.default_rng(67)
    support = np.array([7, 2, 11, 3, 20, 5, 9])
    probs = rng.dirichlet(np.ones(support.size)) * 0.9
    samples = rng.integers(0, 25, size=5000)
    labels = np.full(samples.size, -1)
    for i, v in enumerate(support):
        labels[samples == v] = i
    assert (labels == -1).any()
    got = mc.compare_discrete(samples, support, probs)
    want = mc.compare_discrete(labels, np.arange(support.size), probs)
    assert got == want
    counts = np.array([(samples == v).sum() for v in support])
    other = samples.size - counts.sum()
    tv = 0.5 * (np.abs(counts / samples.size - probs).sum()
                + abs(other / samples.size - (1.0 - probs.sum())))
    assert got.tv == float(tv)


def test_cli_import_leaves_scipy_stats_out():
    src = os.path.dirname(os.path.dirname(renewalk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, renewalk.cli; "
            "print([m for m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_compare_continuous_and_two_sample():
    rng = np.random.default_rng(59)
    z = rng.standard_normal(20_000)
    from scipy.stats import norm

    comp = mc.compare_continuous(z, norm.cdf)
    assert comp.ks < 0.015
    other = rng.standard_normal(20_000)
    assert mc.ks_two_sample(z, other) < 0.02


def test_compare_continuous_uniform_and_empty_samples():
    rng = np.random.default_rng(61)
    z = rng.random(5000)
    comp = mc.compare_continuous(z, lambda x: np.clip(x, 0, 1))
    assert comp.ks is not None and comp.tv is None
    with pytest.raises(ParameterError):
        mc.compare_continuous(np.array([]), lambda x: np.clip(x, 0, 1))
    with pytest.raises(ParameterError):
        mc.compare_discrete(np.array([]), np.arange(3), np.ones(3) / 3)


def test_exceedance_probability_against_simulation():
    # simulate a defective renewal count path-wise: 16 steps need at most
    # 16 finite waits, so a 20-column block of draws is enough
    from renewalk import renewal

    law = DefectiveGeometric(0.5, 0.7)
    rng = np.random.default_rng(71)
    waits = law.sample(rng, size=100_000 * 20).reshape(100_000, 20)
    times = np.cumsum(np.where(np.isinf(waits), 1e18, waits), axis=1)
    counts = (times <= 16).sum(axis=1)
    for n0 in (0, 1, 3):
        exact = renewal.exceedance_prob(law, n0, 16)
        emp = (counts > n0).mean()
        sigma = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(emp - exact) < 5 * sigma + 1e-4


def test_defective_renewal_total_count_is_geometric():
    # the number of finite waits before the first infinite one
    from renewalk import renewal

    law = DefectiveGeometric(0.5, 0.7)
    rng = np.random.default_rng(73)
    draws = law.sample(rng, size=200_000 * 60).reshape(200_000, 60)
    infinite = np.isinf(draws)
    assert infinite.any(axis=1).all()  # 60 tries: miss chance 0.5^60
    totals = np.argmax(infinite, axis=1)
    masses, _ = renewal.limit_state_law(law, n_max=10)
    emp = np.array([(totals == n).mean() for n in range(11)])
    assert 0.5 * np.abs(emp - masses).sum() < 0.01


def test_dequantize_properties():
    rng = np.random.default_rng(67)
    vals = np.arange(10)
    one_sided = mc.dequantize(vals, rng, one_sided=True)
    assert ((one_sided >= vals) & (one_sided < vals + 1)).all()
    centered = mc.dequantize(vals, np.random.default_rng(67))
    assert ((centered >= vals - 0.5) & (centered < vals + 0.5)).all()
