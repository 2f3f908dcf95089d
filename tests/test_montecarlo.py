import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from oracles import traced_peak

import renewalk
from renewalk import montecarlo as mc
from renewalk import ness, stopped, walks
from renewalk.errors import InconclusiveRunError, ParameterError
from renewalk.laws import (
    INFINITY, DefectiveGeometric, Geometric, ShiftedPoisson, Sibuya, Tabulated,
)
from renewalk.montecarlo import SimConfig
from renewalk.stopped import StoppedSpec


SPEC = StoppedSpec(Geometric(0.7), Geometric(0.2), 20)


def test_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(seed=1, replicas=0)
    with pytest.raises(ParameterError):
        SimConfig(seed=1, replicas=10, workers=0)


@pytest.mark.parametrize("seed, replicas, got", [
    (-1, 10, "seed must be an integer >= 0, got -1"),
    (1.5, 10, "seed must be an integer >= 0, got 1.5"),
    (1, 10.5, "replicas must be an integer >= 1, got 10.5"),
    (1, 0, "replicas must be an integer >= 1, got 0"),
])
def test_config_names_a_bad_seed_or_replica_count(seed, replicas, got):
    # a negative seed used to reach numpy's SeedSequence and fail there
    with pytest.raises(ParameterError, match=got):
        SimConfig(seed, replicas)


@pytest.mark.parametrize("kwargs, got", [
    (dict(horizon=10.5), "horizon must be an integer >= 0, got 10.5"),
    (dict(horizon=2**31), r"horizon must be <= 2\*\*31 - 1, got 2147483648"),
    (dict(workers=2.5), "workers must be an integer >= 1, got 2.5"),
    (dict(workers=True), "workers must be an integer >= 1, got True"),
    (dict(workers=0), "workers must be an integer >= 1, got 0"),
])
def test_config_names_a_bad_horizon_or_worker_count(kwargs, got):
    # checked at construction, before any sampler allocates a path
    with pytest.raises(ParameterError, match=got):
        SimConfig(1, 1, **kwargs)


def test_config_takes_python_and_numpy_integers():
    cfg = SimConfig(np.int64(1), np.int32(10), horizon=np.int64(2**31 - 1), workers=np.int8(2))
    assert (cfg.replicas, cfg.horizon, cfg.workers) == (10, 2**31 - 1, 2)


@pytest.mark.parametrize("inner, replicas, horizon, workers", [
    pytest.param(Geometric(0.7), 20_000, 40, 1, id="20000-40-1"),
    pytest.param(Geometric(0.7), 3 * mc._CHUNK + 1000, 20, 3, id=f"{3 * mc._CHUNK + 1000}-20-3"),
    pytest.param(Sibuya(0.5), 3 * mc._CHUNK + 1000, 20, 3, id="sibuya"),
])
def test_paths_hold_one_result_at_their_peak(inner, replicas, horizon, workers):
    # each chunk fills its own rows: no second, stacked copy of the result,
    # and the int32 marks and running sums (one Bernoulli mark per step for
    # a geometric inner law, the event loop otherwise) make no int64 temporary
    spec = StoppedSpec(inner, Geometric(0.2), horizon)
    cfg = SimConfig(seed=5, replicas=replicas, horizon=horizon, workers=workers)
    mc.sample_stopped_path(spec, SimConfig(seed=5, replicas=10, horizon=horizon))
    paths, peak = traced_peak(lambda: mc.sample_stopped_path(spec, cfg))
    assert paths.dtype == np.int32
    assert peak <= 1.5 * paths.nbytes


@pytest.mark.parametrize("inner, digest", [
    pytest.param(Geometric(0.7), "ebe9352a628e91dedcb5b26f001db0743b260b8575e09105af8c298b7c78d13b",
                 id="geometric"),
    pytest.param(Sibuya(0.3), "92734971fb8cc2be8c86ce15bea840e79a191be6ce6e9b0722ab213e3f461878",
                 id="sibuya"),
])
@pytest.mark.parametrize("workers", [1, 3])
def test_paths_keep_their_pinned_random_stream(inner, digest, workers):
    # SHA-256 of the seeded paths, from one Bernoulli mark per step for a
    # geometric inner law and the event loop otherwise: a reordered draw
    # changes it
    spec = StoppedSpec(inner, DefectiveGeometric(0.5, 0.1), 40)
    cfg = SimConfig(seed=2203, replicas=3 * mc._CHUNK + 1000, horizon=40, workers=workers)
    paths = mc.sample_stopped_path(spec, cfg)
    assert hashlib.sha256(paths.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("replicas", [1, mc._CHUNK, mc._CHUNK + 1, 100_000, 3 * mc._CHUNK + 1000])
def test_chunks_are_equal_and_the_same_for_any_worker_count(replicas):
    # the fewest chunks of at most 65536 replicas, sizes within one of each
    # other, tiling the replica axis in order whatever the worker count
    plans = []
    for workers in (1, 2, 3, 8):
        cfg = SimConfig(seed=3, replicas=replicas, workers=workers)
        plans.append(mc._run_chunks(cfg, lambda rng, rows: (rows.start, rows.stop)))
    assert all(plan == plans[0] for plan in plans)
    starts, stops = zip(*plans[0])
    assert starts == (0, *stops[:-1]) and stops[-1] == replicas
    sizes = np.subtract(stops, starts)
    assert len(sizes) == math.ceil(replicas / mc._CHUNK)
    assert sizes.max() - sizes.min() <= 1 and sizes.max() <= mc._CHUNK


def test_default_workers_are_the_cpus_the_process_may_run_on():
    want = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert SimConfig(seed=1, replicas=10).workers == want


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


@pytest.mark.parametrize("inner, stop, horizon", [
    (Geometric(0.7), Geometric(0.2), 20),
    (Sibuya(0.3), DefectiveGeometric(0.5, 0.1), 40),
])
@pytest.mark.parametrize("workers", [1, 3])
def test_path_end_is_the_stopped_value_draw_for_draw(inner, stop, horizon, workers):
    # both draw S first, then the event loop draws the same events under the
    # same caps min(S, T); a geometric path marks each step where the value
    # is one binomial draw, so there the two are independent samplers of
    # the exact column
    spec = StoppedSpec(inner, stop, horizon)
    cfg = SimConfig(seed=97, replicas=3 * mc._CHUNK + 5, horizon=horizon, workers=workers)
    ends = mc.sample_stopped_path(spec, cfg)[:, horizon]
    values = mc.sample_stopped_value(spec, cfg, horizon)
    if type(inner) is not Geometric:
        assert np.array_equal(ends, values)
        return
    exact = stopped.stopped_state_table(spec).column(horizon)
    for sample in (ends, values):
        assert mc.compare_discrete(sample, np.arange(horizon + 1), exact).chisq_pvalue > 1e-3


def test_frozen_value_mean_and_variance():
    cfg = SimConfig(seed=17, replicas=1_000_000, horizon=4096)
    values = mc.sample_stopped_value(SPEC, cfg, INFINITY)
    summary = stopped.geometric_stop_asymptotics(Geometric(0.7), 0.8)
    assert values.mean() == pytest.approx(summary.mean, rel=0.01)
    assert values.var() == pytest.approx(summary.variance, rel=0.02)


@pytest.mark.parametrize("sample", [
    mc.sample_stopped_value,
    lambda spec, cfg, t_obs: mc.sample_walk_endpoint(walks.line_walk(0.5), spec, cfg, t_obs),
], ids=["value", "endpoint"])
def test_infinite_proxy_rejects_defective_stop(sample):
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(0.25, 0.2), 500)
    cfg = SimConfig(seed=29, replicas=10_000, horizon=500)
    unfrozen = (r"of 10000 replicas were still unfrozen at the horizon 500; "
                r"raise the horizon or fix the stopping law")
    with pytest.raises(InconclusiveRunError, match=unfrozen):
        sample(spec, cfg, INFINITY)


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


@pytest.mark.parametrize("inner, stop", [
    (Sibuya(0.5), DefectiveGeometric(0.5, 0.1)),
    (Geometric(0.7), DefectiveGeometric(0.5, 0.1)),
])
def test_sibuya_paths_match_state_table_columns(inner, stop):
    # events marked up to min(S, horizon) and summed, for a fat-tailed inner
    # law and a stop that never comes on half the paths; a geometric inner
    # law places its binomial count, so its inner columns check the placing
    spec = StoppedSpec(inner, stop, 40)
    paths = mc.sample_stopped_path(spec, SimConfig(seed=83, replicas=100_000, horizon=40))
    table = stopped.stopped_state_table(spec)
    for t in (3, 17, 40):
        comp = mc.compare_discrete(paths[:, t], np.arange(41), table.column(t))
        assert comp.chisq_pvalue > 0.001, t


@pytest.mark.parametrize("inner", [
    Geometric(0.6), Tabulated(np.append(Geometric(0.6).pmf_vector(12)[1:], 0.4**12)),
])
def test_binomial_counts_agree_with_the_event_loop(inner):
    # a geometric inner law draws one Binomial(cap, p) count per replica; the
    # same pmf as a table, with its tail mass moved to t = 13 where no cap
    # reaches, runs the event loop.  Both must follow the exact law of the
    # series code.
    T = 12
    stop = DefectiveGeometric(0.5, 0.15)
    table = stopped.stopped_state_table(StoppedSpec(Geometric(0.6), stop, T))
    spec = StoppedSpec(inner, stop, T)
    cfg = SimConfig(seed=101, replicas=100_000, horizon=T)
    step = walks.line_walk(0.7)
    paths = mc.sample_stopped_path(spec, cfg)
    counts = np.arange(T + 1)
    for name, sample, support, probs in (
        ("value", mc.sample_stopped_value(spec, cfg, T), counts, table.column(T)),
        ("path t=4", paths[:, 4], counts, table.column(4)),
        ("path t=9", paths[:, 9], counts, table.column(9)),
        ("walk", mc.sample_walk_endpoint(step, spec, cfg, T)[:, 0], np.arange(-T, T + 1),
         walks.propagator(step, table.column(T), T).values),
    ):
        assert mc.compare_discrete(sample, support, probs).chisq_pvalue > 0.001, name


def test_samplers_identical_for_any_worker_count_over_many_chunks():
    # three threads, or the default of one per CPU, fill their rows of one
    # shared result; a short switch interval interleaves them as often as
    # the interpreter allows
    replicas = 3 * mc._CHUNK + 1000
    step = walks.triangular_walk(True)
    outs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in ({"workers": 1}, {"workers": 3}, {}):
            cfg = SimConfig(seed=89, replicas=replicas, horizon=128, **workers)
            outs.append((
                mc.sample_stopped_path(SPEC, cfg).tobytes(),
                mc.sample_stopped_value(SPEC, cfg, 20).tobytes(),
                mc.sample_stopped_value(SPEC, cfg, INFINITY).tobytes(),
                mc.sample_walk_endpoint(step, SPEC, cfg, 20).tobytes(),
                mc.sample_walk_endpoint(step, SPEC, cfg, INFINITY).tobytes(),
            ))
    finally:
        sys.setswitchinterval(interval)
    assert outs[0] == outs[1] == outs[2]


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


def test_lattice_ness_three_dimensions_against_endpoints():
    q = 0.9
    step = walks.hypercubic_walk(3)
    inner = ShiftedPoisson(1.0)
    grid = ness.lattice_ness(step, inner, q, 16)
    assert grid.mass_in_box == pytest.approx(1.0, abs=1e-6)
    spec = StoppedSpec(inner, Geometric(1 - q), 2048)
    cfg = SimConfig(seed=59, replicas=200_000, horizon=2048)
    pos = mc.sample_walk_endpoint(step, spec, cfg, INFINITY)
    at_origin = (pos == 0).all(axis=1)
    p0 = grid.prob([0, 0, 0])
    se = math.sqrt(p0 * (1.0 - p0) / len(pos))
    assert abs(at_origin.mean() - p0) < 6.0 * se
    sq = (pos.astype(float) ** 2).sum(axis=1)
    _, second = grid.cartesian_moments()
    assert abs(sq.mean() - second.sum()) < 6.0 * sq.std() / math.sqrt(len(pos))


def test_lattice_ness_three_dimensions_on_a_chernoff_sized_torus(monkeypatch):
    # the step count alone asks for 512 panels, past the dense-grid cap; the
    # exact tails of the axis marginals need 64, which 128 panels confirm
    q, step, inner = 0.95, walks.hypercubic_walk(3), Geometric(0.7)
    sizes = []
    torus_grid = ness._torus_grid
    monkeypatch.setattr(ness, "_torus_grid", lambda *a: sizes.append(a[2]) or torus_grid(*a))
    grid = ness.lattice_ness(step, inner, q, 16)
    assert sizes == [64]
    finer = ness.lattice_ness(step, inner, q, 16, panels=128)
    np.testing.assert_allclose(grid.values, finer.values, rtol=0, atol=1e-10)
    # about 6e-5 of this law lies outside the 33^3 box, so the endpoints are
    # compared on the box: the share outside it, the origin and E|X|^2 there
    spec = StoppedSpec(inner, Geometric(1 - q), 2048)
    cfg = SimConfig(seed=61, replicas=200_000, horizon=2048)
    pos = mc.sample_walk_endpoint(step, spec, cfg, INFINITY)
    inside = (np.abs(pos) <= 16).all(axis=1)
    for share, want in (((pos == 0).all(axis=1), grid.prob([0, 0, 0])),
                        (~inside, 1.0 - grid.mass_in_box)):
        assert abs(share.mean() - want) < 6.0 * math.sqrt(want * (1.0 - want) / len(pos))
    sq = np.where(inside, (pos.astype(float) ** 2).sum(axis=1), 0.0)
    _, second = grid.cartesian_moments()
    assert abs(sq.mean() - second.sum()) < 6.0 * sq.std() / math.sqrt(len(pos))


def test_compare_discrete_self_consistency():
    rng = np.random.default_rng(53)
    draws = Geometric(0.5).sample(rng, size=100_000)
    support = np.arange(1, 40)
    probs = 0.5**support
    comp = mc.compare_discrete(draws, support, probs)
    assert comp.tv < 0.01
    assert comp.chisq_pvalue > 0.001
    with pytest.raises(ParameterError):
        mc.compare_discrete(np.array([]), np.arange(3), np.ones(3) / 3)


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
            "print([m for m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize', "
            "'scipy.special') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


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
