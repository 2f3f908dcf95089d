import math

import numpy as np
import pytest
from oracles import char_fn, char_fn_lattice, char_lattice, full_box_propagator

from renewalk import stopped
from renewalk.cli import main, parse_steps
from renewalk.errors import BoxLeakageError, ParameterError
from renewalk.laws import DefectiveGeometric, Geometric
from renewalk.stopped import StoppedSpec, dbp_stops_bernoulli, stopped_moments
from renewalk.walks import (
    StepLaw,
    hypercubic_walk,
    line_walk,
    propagator,
    triangular_msd,
    triangular_walk,
    walk_moments,
)


def test_step_law_validation():
    with pytest.raises(ParameterError):
        StepLaw(np.array([[1], [-1]]), np.array([0.6, 0.6]))
    with pytest.raises(ParameterError):
        StepLaw(np.array([[1], [-1]]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("p_right, steps, chances", [
    (0.0, [[-1]], [1.0]), (1.0, [[1]], [1.0]), (0.25, [[1], [-1]], [0.25, 0.75])])
def test_line_walk_keeps_the_steps_of_positive_chance(p_right, steps, chances):
    step = line_walk(p_right)
    assert step.displacements.tolist() == steps and step.probs.tolist() == chances
    assert step.mean_step.tolist() == [2.0 * p_right - 1.0]


def test_cached_moments_equal_direct_sums():
    for step in (
        line_walk(0.3),
        hypercubic_walk(3),
        triangular_walk(True),
        triangular_walk(False),
    ):
        cart = step.cartesian_steps
        np.testing.assert_allclose(step.mean_step, step.probs @ cart, atol=0)
        np.testing.assert_allclose(step.second_moment, step.probs @ cart**2, atol=0)


def test_triangular_step_moments():
    biased = triangular_walk(True)
    assert biased.mean_step[0] == pytest.approx(0.0, abs=1e-15)
    assert biased.mean_step[1] == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
    assert biased.second_moment.sum() == pytest.approx(1.0, abs=1e-15)
    unbiased = triangular_walk(False)
    np.testing.assert_allclose(unbiased.mean_step, 0.0, atol=1e-15)
    assert unbiased.second_moment.sum() == pytest.approx(1.0, abs=1e-15)
    # all six unit vectors have unit length
    np.testing.assert_allclose(
        (unbiased.cartesian_steps**2).sum(axis=1), 1.0, atol=1e-15
    )


def test_char_fn_basics():
    step = triangular_walk(True)
    assert char_fn(step, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi = rng.uniform(-math.pi, math.pi, size=2)
        val = char_fn(step, phi)
        assert abs(val) <= 1.0 + 1e-12


def test_char_fn_hypercubic_cosine_form():
    d = 3
    step = hypercubic_walk(d)
    rng = np.random.default_rng(2)
    for _ in range(10):
        phi = rng.uniform(-math.pi, math.pi, size=d)
        expected = np.cos(phi).sum() / d
        assert char_fn(step, phi) == pytest.approx(expected, abs=1e-12)


def test_char_fn_unbiased_triangular_is_real():
    step = triangular_walk(False)
    rng = np.random.default_rng(3)
    for _ in range(25):
        phi = rng.uniform(-math.pi, math.pi, size=2)
        assert abs(char_fn(step, phi).imag) < 1e-12


def test_propagator_degenerate_counts():
    step = line_walk(0.5)
    delta = propagator(step, [1.0], 3)
    assert delta.prob([0]) == 1.0 and delta.mass_in_box == 1.0
    single = propagator(step, [0.0, 1.0], 3)
    assert single.prob([1]) == pytest.approx(0.5, abs=0)
    assert single.prob([-1]) == pytest.approx(0.5, abs=0)


def test_propagator_two_step_enumeration():
    grid = propagator(line_walk(0.5), [0.0, 0.0, 1.0], 4)
    assert grid.prob([-2]) == pytest.approx(0.25, abs=1e-15)
    assert grid.prob([0]) == pytest.approx(0.5, abs=1e-15)
    assert grid.prob([2]) == pytest.approx(0.25, abs=1e-15)
    assert grid.prob([1]) == 0.0


def test_prob_outside_the_box_names_the_site():
    grid = propagator(line_walk(1.0), [0.0, 1.0], 3)
    assert grid.prob([1]) == 1.0 and grid.prob([-3]) == 0.0
    # -6 once read the mass at +1 through a negative index
    for x in ([-6], [5], [4], [0, 0], []):
        with pytest.raises(ParameterError, match=r"x=.* half-width 3 in dimension 1"):
            grid.prob(x)
    square = propagator(hypercubic_walk(2), [1.0], 2)
    assert square.prob([0, 0]) == 1.0
    with pytest.raises(ParameterError, match=r"x=\[0, -3\] .* dimension 2"):
        square.prob([0, -3])


# every step law the CLI builds
_CLI_STEPS = ["line", "line:p=0.3", "line-biased", "hypercubic:d=1", "hypercubic:d=2",
              "hypercubic:d=3", "triangular-biased", "triangular-unbiased"]


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _agrees_with_full_box(step, pmf, half_width):
    """The propagator holds the full-box oracle's values to the bit, or
    raises BoxLeakageError exactly where those values leak."""
    want = full_box_propagator(step, pmf, half_width)
    if want.sum() < 1.0 - 1e-6:
        with pytest.raises(BoxLeakageError):
            propagator(step, pmf, half_width)
        return False
    assert _same_bits(propagator(step, pmf, half_width).values, want)
    return True


@pytest.mark.parametrize("steps", _CLI_STEPS)
def test_propagator_matches_the_full_box_loop(steps):
    step = parse_steps(steps)
    table = stopped.stopped_state_table(StoppedSpec(Geometric(0.7), Geometric(0.04), 64))
    cap = 12 if step.dim == 3 else 64
    held = [_agrees_with_full_box(step, table.column(t), min(t, cap)) for t in (0, 1, 17, 64)]
    assert held == [True, True, True, step.dim < 3]  # 3-d at t = 64 leaks from a box of 12
    # interior zeros, and a far tail of 1e-7 that the box truncates: power 40
    # runs over the edges of a box of half-width 6, yet no leak is flagged
    pmf = np.zeros(41)
    pmf[[0, 3, 5, 40]] = [0.25, 0.5, 0.25 - 1e-7, 1e-7]
    assert _agrees_with_full_box(step, pmf, 6)
    assert not _agrees_with_full_box(step, np.eye(41)[40], 6)


def test_propagator_keeps_the_signs_of_zeros():
    # a pmf with negative zero and negative entries adds the same signed zeros
    for pmf in ([-0.0, 0.5, 0.5], [-1e-18, 0.0, 1.0 + 1e-18], [0.5, -1e-18, 0.5 + 1e-18]):
        for steps in ("line", "triangular-unbiased"):
            assert _agrees_with_full_box(parse_steps(steps), np.array(pmf), 3)
    with pytest.raises(ParameterError, match="sum to 1, got nan"):
        propagator(line_walk(0.5), [0.5, np.nan, 0.5], 3)


def test_propagator_leakage_detection():
    with pytest.raises(BoxLeakageError):
        propagator(line_walk(0.5), np.eye(9)[8], 4)


def test_propagator_box_cap():
    with pytest.raises(ParameterError):
        propagator(hypercubic_walk(3), [1.0], 200)


def test_propagator_rejects_negative_box(tmp_path, capsys):
    with pytest.raises(ParameterError, match="half_width"):
        propagator(line_walk(0.5), [1.0], -1)
    assert main(["walk", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2",
                 "--steps", "line:p=0.5", "--horizon", "8", "--propagator-time", "4",
                 "--box", "-1", "--out", str(tmp_path)]) == 1
    assert "half_width=-1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "step",
    [line_walk(0.5), line_walk(0.8), hypercubic_walk(2), triangular_walk(True)],
)
def test_grid_moments_match_wald_formulas(step):
    spec = StoppedSpec(Geometric(0.7), Geometric(0.2), 8)
    table = stopped.stopped_state_table(spec)
    m1 = stopped_moments(spec, 1)
    m2 = stopped_moments(spec, 2)
    exact = walk_moments(step, m1, m2)
    for t in (2, 5, 8):
        grid = propagator(step, table.column(t), 10)
        mean, second = grid.cartesian_moments()
        np.testing.assert_allclose(mean, exact.mean[t], atol=1e-9)
        np.testing.assert_allclose(second, exact.second[t], atol=1e-9)


def test_fourier_consistency_on_grid():
    # transform of the spatial law equals the count polynomial at the step
    # characteristic value
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(0.5, 0.2), 10)
    table = stopped.stopped_state_table(spec)
    step = triangular_walk(False)
    t = 10
    grid = propagator(step, table.column(t), 12)
    axis = np.linspace(-math.pi, math.pi, 5)
    for a in axis:
        for b in axis:
            theta = np.array([a, b])
            w = char_fn_lattice(step, theta)
            expected = sum(table.column(t)[n] * w**n for n in range(t + 1))
            assert char_lattice(grid, theta) == pytest.approx(expected, abs=1e-8)


def test_walk_moment_formulas():
    spec = StoppedSpec(Geometric(0.7), Geometric(0.2), 32)
    m1 = stopped_moments(spec, 1)
    m2 = stopped_moments(spec, 2)
    unbiased = walk_moments(hypercubic_walk(2), m1, m2)
    np.testing.assert_allclose(unbiased.mean, 0.0, atol=1e-15)
    step = triangular_walk(True)
    biased = walk_moments(step, m1, m2)
    np.testing.assert_allclose(
        biased.mean[:, 1], math.sqrt(3.0) / 4.0 * m1, atol=1e-12
    )
    np.testing.assert_allclose(biased.mean[:, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(
        biased.variance,
        (m2 - m1**2)[:, None] * step.mean_step**2 + m1[:, None] * step.var_step,
        atol=1e-12,
    )


def test_triangular_msd_formulas():
    spec = StoppedSpec(Geometric(0.7), DefectiveGeometric(0.5, 0.2), 64)
    m1 = stopped_moments(spec, 1)
    m2 = stopped_moments(spec, 2)
    np.testing.assert_allclose(triangular_msd("unbiased", m1, m2), m1, atol=0)
    np.testing.assert_allclose(
        triangular_msd("biased", m1, m2), (3 * m2 + 13 * m1) / 16.0, atol=0
    )
    # agreement with the component-wise Wald route
    for biased in (True, False):
        wm = walk_moments(triangular_walk(biased), m1, m2)
        np.testing.assert_allclose(
            triangular_msd("biased" if biased else "unbiased", m1, m2),
            wm.msd,
            atol=1e-12,
        )
    with pytest.raises(ParameterError):
        triangular_msd("sideways", m1, m2)


def test_unbiased_pure_bernoulli_msd_is_linear():
    closed = dbp_stops_bernoulli(0.7, 0.8, 0.0, 64)
    msd = triangular_msd("unbiased", closed.mean, closed.second_moment)
    np.testing.assert_allclose(msd, 0.7 * np.arange(65), atol=1e-10)


def test_diffusive_asymptote_unbiased():
    # MSD(t)/t tends to (never-stop prob) * inner rate at large times
    qs = 0.5
    t = 2000
    closed = dbp_stops_bernoulli(0.7, 0.8, qs, t)
    msd = triangular_msd("unbiased", closed.mean, closed.second_moment)
    target = (1 - qs) * 0.7
    assert msd[t] / t == pytest.approx(target, rel=0.02)


def test_ballistic_asymptote_biased():
    qs = 0.5
    t = 2000
    closed = dbp_stops_bernoulli(0.7, 0.8, qs, t)
    wm = walk_moments(triangular_walk(True), closed.mean, closed.second_moment)
    target = (1 - qs) * 0.7**2 * (math.sqrt(3.0) / 4.0) ** 2
    assert wm.second[t, 1] / t**2 == pytest.approx(target, rel=0.02)
    msd = triangular_msd("biased", closed.mean, closed.second_moment)
    assert msd[t] / t**2 == pytest.approx((3.0 / 16.0) * (1 - qs) * 0.49, rel=0.02)


def test_propagator_grid_csv(tmp_path):
    # an event every step and a stop that never comes: N(1) = 1, mass 1/2 at +-1
    argv = ["walk", "--inner", "geometric:p=1", "--stop",
            "defective_geometric:defect=0,p=0.5", "--steps", "line:p=0.5",
            "--horizon", "2", "--propagator-time", "1", "--box", "2",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "walk_propagator_t1.csv").read_text().splitlines()
    assert lines == ["x0,prob", "-2,0", "-1,0.5", "0,0", "1,0.5", "2,0"]


def test_propagator_time_ignores_later_horizon(tmp_path):
    # column t of the stopped table depends on no later time, so the
    # propagator file is the same whatever the horizon beyond t
    files = []
    for horizon in (24, 200):
        out = tmp_path / str(horizon)
        assert main(["walk", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.04",
                     "--steps", "triangular-biased", "--horizon", str(horizon),
                     "--propagator-time", "24", "--box", "24", "--out", str(out)]) == 0
        files.append((out / "walk_propagator_t24.csv").read_bytes())
    assert files[0] == files[1]
