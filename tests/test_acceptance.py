"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one PASS/FAIL line (run with ``pytest -s`` to see them live)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import discounted_inner_law, renewal_equation_residual
from scipy import stats as sps

from renewalk import cli, montecarlo as mc, ness, renewal, stopped, walks
from renewalk.laws import (
    INFINITY,
    DefectiveGeometric,
    DefectiveSibuya,
    Geometric,
    PowerLawBernstein,
    ShiftedPoisson,
    Sibuya,
)
from renewalk.montecarlo import SimConfig
from renewalk.stopped import StoppedSpec


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_01_geometric_stop_closed_forms():
    with criterion(1, "geometric-stop limits: mean 3.5 / variance 10.85 / 1% MC"):
        summary = stopped.geometric_stop_asymptotics(Geometric(0.7), 0.8)
        assert summary.mean == pytest.approx(3.5, abs=1e-9)
        assert summary.variance == pytest.approx(10.85, abs=1e-2)
        start = time.monotonic()
        spec = StoppedSpec(Geometric(0.7), Geometric(0.2), 4096)
        cfg = SimConfig(seed=101, replicas=1_000_000, horizon=4096)
        values = mc.sample_stopped_value(spec, cfg, INFINITY)
        elapsed = time.monotonic() - start
        assert values.mean() == pytest.approx(3.5, rel=0.01)
        assert elapsed < 10.0


NORMALIZATION_PAIRS = [
    (Geometric(0.7), Geometric(0.2)),
    (Geometric(0.7), DefectiveGeometric(0.5, 0.2)),
    (Sibuya(0.5), Geometric(0.2)),
    (Sibuya(0.2), DefectiveGeometric(0.25, 0.5)),
    (ShiftedPoisson(1.5), Geometric(0.1)),
    (Geometric(0.3), ShiftedPoisson(2.0)),
    (Geometric(0.7), PowerLawBernstein(0.5, 1.5)),
    (ShiftedPoisson(2.0), PowerLawBernstein(2.0, 2.0)),
]


def test_criterion_02_normalization_suite():
    with criterion(2, "state normalization at every t <= 512 and at infinity"):
        for inner, stop in NORMALIZATION_PAIRS:
            table = stopped.stopped_state_table(StoppedSpec(inner, stop, 512))
            assert np.max(np.abs(table.row_sums() - 1.0)) <= 1e-10, (inner, stop)
        # infinite-time mass equals the stopping law's total mass
        for inner, q, qs in (
            (Geometric(0.7), 0.8, 1.0),
            (Geometric(0.7), 0.8, 0.5),
            (Sibuya(0.5), 0.8, 1.0),
            (Sibuya(0.2), 0.5, 0.25),
            (ShiftedPoisson(1.5), 0.9, 1.0),
            (ShiftedPoisson(1.5), 0.9, 0.35),
        ):
            summary = stopped.geometric_stop_asymptotics(inner, q, qs)
            assert summary.state_mass_sum() == pytest.approx(qs, abs=1e-9)


def test_criterion_03_brute_force_oracle():
    with criterion(3, "exhaustive joint enumeration reproduces the state table"):
        start = time.monotonic()
        for inner, stop in (
            (Geometric(0.7), Geometric(0.2)),
            (Geometric(0.7), DefectiveGeometric(0.5, 0.2)),
            (Sibuya(0.4), ShiftedPoisson(1.2)),
            (ShiftedPoisson(1.5), PowerLawBernstein(0.5, 1.5)),
        ):
            spec = StoppedSpec(inner, stop, 12)
            table = stopped.stopped_state_table(spec)
            oracle = stopped.brute_force_stopped_table(spec)
            assert np.max(np.abs(table.probs - oracle.probs)) <= 1e-9
        assert time.monotonic() - start < 5.0


def test_criterion_04_defective_renewal_appendix_laws():
    with criterion(4, "defective geometric/sibuya count laws and limits"):
        # geometric family: transform expansion vs closed form
        defect, p = 0.5, 0.7
        mean, _ = renewal.count_moments(DefectiveGeometric(defect, p), 512)
        t = np.arange(513, dtype=float)
        closed = (defect / (1 - defect)) * (1 - (1 - p * (1 - defect)) ** t)
        assert np.max(np.abs(mean - closed)) <= 1e-10

        # sibuya family: power-rate approach to Q/P
        mu = 0.5
        mean, _ = renewal.count_moments(DefectiveSibuya(defect, mu), 512)
        limit = defect / (1 - defect)
        gap = limit - mean[-1]
        predicted = (defect / (1 - defect) ** 2) * 512.0**-mu / math.gamma(1 - mu)
        assert gap / predicted == pytest.approx(1.0, abs=0.10)

        # limiting state law (1-Q) Q^n against the (1-u)-scaled transform
        for law in (DefectiveGeometric(0.5, 0.7), DefectiveSibuya(0.25, 0.5)):
            q_mass = law.defect_mass
            g1 = law.gf(1.0)
            n = np.arange(32, dtype=float)
            scaled = (1.0 - g1) * g1**n
            assert np.max(np.abs(scaled - (1 - q_mass) * q_mass**n)) <= 1e-9
        table = renewal.state_table(DefectiveGeometric(0.5, 0.7), 512)
        masses, _ = renewal.limit_state_law(DefectiveGeometric(0.5, 0.7), n_max=512)
        assert np.max(np.abs(table.probs[:, -1] - masses)) <= 1e-9


def test_criterion_05_variance_peak_at_half():
    with criterion(5, "lambda_max -> 1/2 and the t^2 variance coefficient"):
        closed = stopped.dbp_stops_bernoulli(0.7, 0.8, 0.5, 1000)
        assert abs(closed.lambda_max[1000] - 0.5) < 0.01
        t = 4000
        p0 = 0.7
        grid = np.linspace(0.0, 1.0, 21)
        ratios = np.array(
            [stopped.dbp_stops_bernoulli(p0, 0.8, qs, t).variance[t] / t**2 for qs in grid]
        )
        coefficients = (1.0 - grid) * grid * p0**2
        assert np.max(np.abs(ratios - coefficients)) < 0.01 * p0**2 / 4
        assert grid[np.argmax(ratios)] == pytest.approx(0.5, abs=1e-12)


def test_criterion_06_triangular_lattice_asymptotics():
    with criterion(6, "triangular MSD: ballistic / diffusive laws plus MC"):
        qs = 0.5
        lam = 1.0 - qs
        p0 = 0.7
        t = 2000
        start = time.monotonic()
        closed = stopped.dbp_stops_bernoulli(p0, 0.8, qs, t)
        biased = walks.triangular_msd("biased", closed.mean, closed.second_moment)
        unbiased = walks.triangular_msd("unbiased", closed.mean, closed.second_moment)
        assert time.monotonic() - start < 1.0
        assert biased[t] / t**2 == pytest.approx((3.0 / 16.0) * lam * p0**2, rel=0.02)
        assert unbiased[t] / t == pytest.approx(lam * p0, rel=0.02)

        spec = StoppedSpec(Geometric(p0), DefectiveGeometric(qs, 0.2), t)
        cfg = SimConfig(seed=606, replicas=100_000, horizon=t)
        step = walks.triangular_walk(True)
        pos = mc.sample_walk_endpoint(step, spec, cfg, t)
        cart = pos @ step.basis.T
        msd_emp = float((cart**2).sum(axis=1).mean())
        assert msd_emp == pytest.approx(biased[t], rel=0.05)


def _exp_cdf(y):
    return np.where(y < 0, 0.0, 1.0 - np.exp(-np.clip(y, 0, None)))


def _laplace_cdf(y):
    y = np.asarray(y, dtype=float)
    return np.where(
        y < 0,
        0.5 * np.exp(math.sqrt(2.0) * np.clip(y, None, 0)),
        1.0 - 0.5 * np.exp(-math.sqrt(2.0) * np.clip(y, 0, None)),
    )


def test_criterion_07_ness_universality():
    with criterion(7, "rescaled endpoints approach the universal stationary law"):
        start = time.monotonic()
        inner = Geometric(0.7)
        replicas = 100_000
        horizon = 20_000
        jitter = np.random.default_rng(777)

        biased_ks = []
        unbiased_ks = []
        for i, p in enumerate((0.05, 0.02, 0.01)):
            lam = ness.ness_scale(inner, 1.0 - p)
            spec = StoppedSpec(inner, Geometric(p), horizon)
            cfg = SimConfig(seed=700 + i, replicas=replicas, horizon=horizon)
            frozen = mc.sample_stopped_value(spec, cfg, INFINITY)
            y = mc.dequantize(frozen, jitter, one_sided=True) / lam
            biased_ks.append(sps.kstest(y, _exp_cdf).statistic)
            pos = mc.sample_walk_endpoint(
                walks.line_walk(0.5), spec,
                SimConfig(seed=730 + i, replicas=replicas, horizon=horizon),
                INFINITY,
            )[:, 0]
            yu = mc.dequantize(pos, jitter) / math.sqrt(lam)
            unbiased_ks.append(sps.kstest(yu, _laplace_cdf).statistic)

        assert biased_ks[0] > biased_ks[1] > biased_ks[2]
        assert unbiased_ks[0] > unbiased_ks[1] > unbiased_ks[2]
        assert biased_ks[-1] < 0.02
        assert unbiased_ks[-1] < 0.02

        # two different inner laws land on the same rescaled law
        other = ShiftedPoisson(1.0)
        spec_other = StoppedSpec(other, Geometric(0.01), horizon)
        frozen_other = mc.sample_stopped_value(
            spec_other, SimConfig(seed=760, replicas=replicas, horizon=horizon),
            INFINITY,
        )
        lam_b = ness.ness_scale(inner, 0.99)
        lam_o = ness.ness_scale(other, 0.99)
        spec_b = StoppedSpec(inner, Geometric(0.01), horizon)
        frozen_b = mc.sample_stopped_value(
            spec_b, SimConfig(seed=761, replicas=replicas, horizon=horizon), INFINITY
        )
        cross = sps.ks_2samp(
            mc.dequantize(frozen_b, jitter, one_sided=True) / lam_b,
            mc.dequantize(frozen_other, jitter, one_sided=True) / lam_o,
        ).statistic
        assert cross < 0.01
        assert time.monotonic() - start < 60.0


def test_criterion_08_stable_density_presets():
    with criterion(8, "stable-density closed forms and the mixture identity"):
        y = np.linspace(-8.0, 8.0, 33)
        gauss = np.exp(-(y**2) / 4.0) / (2.0 * math.sqrt(math.pi))
        assert np.max(np.abs(ness.stable_density(y, 2.0) - gauss)) <= 1e-6
        y = np.linspace(-10.0, 10.0, 41)
        cauchy = 1.0 / (math.pi * (1.0 + y**2))
        assert np.max(np.abs(ness.stable_density(y, 1.0) - cauchy)) <= 1e-6
        ypos = np.array([0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0])
        smirnov = ypos**-1.5 * np.exp(-1.0 / (4.0 * ypos)) / (2.0 * math.sqrt(math.pi))
        assert np.max(np.abs(ness.stable_density(ypos, 0.5, 1.0) - smirnov)) <= 1e-6

        y = np.linspace(-10.0, 10.0, 41)
        mix = ness.stable_mixture_density(y, 2.0)
        assert np.max(np.abs(mix - ness.laplace_density(y, 2.0))) <= 1e-6


def test_criterion_09_renewal_equation_structure():
    with criterion(9, "auxiliary count is renewal, the stopped count is not"):
        q = 0.8
        horizon = 128
        inner = Geometric(0.7)
        aux = discounted_inner_law(inner, q, horizon)
        aux_table = renewal.state_table(aux, horizon)
        kernel = aux.pmf_vector(horizon)
        v = 0.5
        poly = aux_table.polynomial(v)
        residual = renewal_equation_residual(
            poly, aux_table.probs[0], kernel, v
        )
        assert np.max(np.abs(residual)) <= 1e-9

        spec = StoppedSpec(inner, Geometric(1.0 - q), horizon)
        table = stopped.stopped_state_table(spec)
        stopped_poly = table.polynomial(v)
        bad = renewal_equation_residual(
            stopped_poly, table.probs[0], kernel, v
        )
        # documented witness: v = 0.5, t = 2
        assert abs(bad[2]) > 1e-6


def test_criterion_10_byte_identical_reruns(tmp_path):
    with criterion(10, "seeded Monte Carlo reruns are byte-identical"):
        args = [
            "mc", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2",
            "--t-obs", "24", "--replicas", "150000", "--seed", "4242",
            "--horizon", "128",
        ]
        outputs = []
        for sub, workers in (("a", 1), ("b", 1), ("c", 6)):
            out = tmp_path / sub
            code = cli.main(args + ["--out", str(out), "--workers", str(workers)])
            assert code == 0
            outputs.append(
                (out / "mc_histogram.csv").read_bytes()
                + (out / "mc_summary.json").read_bytes()
            )
        assert outputs[0] == outputs[1] == outputs[2]
