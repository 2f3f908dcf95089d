import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from renewalk import ness, walks
from renewalk.cli import main
from renewalk.errors import ParameterError, QuadratureError
from renewalk.laws import DefectiveGeometric, Geometric, ShiftedPoisson
from renewalk.ness import (
    laplace_curve,
    laplace_density,
    lattice_ness,
    ness_scale,
    one_sided_exp_curve,
    one_sided_exp_density,
    stable_density,
    stable_mixture_curve,
    stable_mixture_density,
)


def gaussian_preset(y):
    return np.exp(-np.asarray(y) ** 2 / 4.0) / (2.0 * math.sqrt(math.pi))


def cauchy_preset(y):
    return 1.0 / (math.pi * (1.0 + np.asarray(y) ** 2))


def smirnov_preset(y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    pos = y > 0
    out[pos] = y[pos] ** -1.5 * np.exp(-1.0 / (4.0 * y[pos])) / (2.0 * math.sqrt(math.pi))
    return out


def test_stable_density_gaussian_preset():
    y = np.linspace(-8.0, 8.0, 33)
    np.testing.assert_allclose(stable_density(y, 2.0), gaussian_preset(y), atol=1e-6)
    assert stable_density(0.0, 2.0) == pytest.approx(0.2820948, abs=1e-7)


def test_stable_density_cauchy_preset():
    y = np.linspace(-10.0, 10.0, 41)
    np.testing.assert_allclose(stable_density(y, 1.0), cauchy_preset(y), atol=1e-6)
    assert stable_density(0.0, 1.0) == pytest.approx(0.3183099, abs=1e-7)


def test_stable_density_one_sided_preset():
    y = np.array([0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0])
    np.testing.assert_allclose(
        stable_density(y, 0.5, 1.0), smirnov_preset(y), atol=1e-6
    )
    assert stable_density(1.0, 0.5, 1.0) == pytest.approx(0.2196956, abs=1e-7)
    # causal: no mass on the negative side
    assert abs(stable_density(-0.5, 0.5, 1.0)) < 1e-10


def test_stable_density_admissibility():
    for alpha, theta in ((2.5, 0.0), (0.5, 0.5), (1.5, 1.0), (0.0, 0.0)):
        with pytest.raises(ParameterError):
            stable_density(0.0, alpha, theta)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize(
    "alpha,theta,lo,hi",
    [(2.0, 0.0, -np.inf, np.inf), (1.0, 0.0, -np.inf, np.inf), (0.5, 1.0, 0.0, np.inf)],
)
def test_stable_density_normalization(alpha, theta, lo, hi):
    total, err = quad(
        lambda y: float(stable_density(y, alpha, theta)), lo, hi, limit=400
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_stable_density_nonnegative_on_grid():
    y = np.linspace(-12.0, 12.0, 49)
    assert (stable_density(y, 2.0) > -1e-10).all()
    assert (stable_density(y, 1.0) > -1e-10).all()
    ypos = np.linspace(0.05, 12.0, 40)
    assert (stable_density(ypos, 0.5, 1.0) > -1e-10).all()


def stable_series(y, alpha, theta):
    """Stable density from its series at 50 digits, or None where neither
    settles (three terms in a row below 1e-17 of the sum) within 1000 terms
    with at most 30 digits lost to cancellation.  The large-y series
    (1/pi) sum_k (-1)^(k+1) G(k alpha+1)/k! sin(k pi alpha (1+theta)/2) y^(-k alpha-1)
    converges for alpha < 1; the power series, symmetric family only,
    (1/(pi alpha)) sum_k (-1)^k G((2k+1)/alpha)/(2k)! y^(2k) for alpha > 1.
    Where one is only asymptotic it is cut at terms that small."""
    with mp.workdps(50):
        y, a = mp.mpf(y), mp.mpf(alpha)
        s = mp.pi * a * (1 + theta) / 2

        def large(k):
            return ((-1) ** (k + 1) * mp.gamma(k * a + 1) / mp.factorial(k)
                    * mp.sin(k * s) * y ** (-k * a - 1) / mp.pi)

        def small(k):
            return ((-1) ** k * mp.gamma((2 * k + 1) / a) / mp.factorial(2 * k)
                    * y ** (2 * k) / (a * mp.pi))

        for term, first in ((large, 1), (small, 0))[: 2 - int(theta)]:
            total, biggest, quiet = mp.mpf(0), mp.mpf(0), 0
            for k in range(first, first + 1000):
                t = term(k)
                total += t
                biggest = max(biggest, abs(t))
                quiet = quiet + 1 if abs(t) <= mp.mpf(1e-17) * abs(total) else 0
                if quiet == 3:
                    if biggest < mp.mpf(1e30) * abs(total):
                        return float(total)
                    break
    return None


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_stable_density_matches_series_for_small_alpha(theta):
    # the range where inverting the Fourier integral returned 2e-9 for
    # 9.58e-4 (alpha = 0.2, y = 30) and negative values at alpha = 0.1
    for alpha in (0.05, 0.1, 0.2):
        for y in (3.0, 30.0, 300.0):
            assert stable_density(y, alpha, theta) == pytest.approx(
                stable_series(y, alpha, theta), rel=1e-12, abs=0
            )
    assert stable_density(30.0, 0.2) == pytest.approx(9.5804e-4, rel=1e-4)


def test_stable_density_hard_points():
    # alpha = 1.5, y = 300: one breakpoint at the peak gave 8.21e-8 for 1.9206e-7;
    # alpha -> 2 at y = 10: a heavy tail of weight ~(2 - alpha) on a Gaussian bulk
    for alpha, y in ((1.5, 300.0), (1.9999, 10.0), (1.999999, 10.0), (1.99999999, 6.0)):
        assert stable_density(y, alpha) == pytest.approx(
            stable_series(y, alpha, 0.0), rel=1e-12, abs=0
        )
    assert stable_density(10.0, 1.999999) == pytest.approx(1.146330857933180e-09, rel=1e-12)


def test_stable_density_levy_pin():
    # alpha = 1/2, theta = 1 is the Levy law: fixes the sign of the skewness
    # and the scale cos(pi alpha theta/2)^(1/alpha) of the one-sided family
    y = np.geomspace(0.01, 1e4, 25)
    np.testing.assert_allclose(stable_density(y, 0.5, 1.0), smirnov_preset(y), rtol=1e-14, atol=0)


def test_stable_density_at_origin():
    for alpha in (0.3, 1.0, 1.5, 2.0):
        assert stable_density(0.0, alpha) == pytest.approx(
            math.gamma(1.0 + 1.0 / alpha) / math.pi, rel=1e-15
        )
    assert stable_density(0.0, 0.3, 1.0) == 0.0
    assert stable_density(np.array([-1.0, 0.0]), 0.3, 1.0).tolist() == [0.0, 0.0]


def test_stable_density_is_continuous_through_cauchy():
    # f(y; 1 -+ eps) straddle the Cauchy density, and the central difference
    # in alpha is the same at two eps: a slope, not a jump, at alpha = 1
    y = np.array([0.001, 0.3, 1.0, 2.0, 5.0, 30.0, 1000.0])
    slopes = []
    for eps in (1e-3, 4e-4):
        below, above = stable_density(y, 1.0 - eps), stable_density(y, 1.0 + eps)
        cauchy = cauchy_preset(y)
        assert np.all(np.abs(below / cauchy - 1.0) < 10.0 * eps)
        assert np.all(np.abs(above / cauchy - 1.0) < 10.0 * eps)
        assert np.all(np.abs((below + above) / (2.0 * cauchy) - 1.0) < 30.0 * eps**2)
        slopes.append((above - below) / (2.0 * eps * cauchy))
    np.testing.assert_allclose(slopes[0], slopes[1], rtol=0, atol=1e-4)
    # closer to 1 the integrand amplifies rounding by alpha/|alpha-1|
    # beyond the 1e-11 tolerance, which is refused rather than returned
    for alpha in (1.0 - 1e-6, 1.0 + 1e-6, 1.0 + 2.0**-52):
        with pytest.raises(QuadratureError, match="stable density"):
            stable_density(0.5, alpha)


def report_error_of_one_in_a_million(monkeypatch):
    """Make the quadrature sweep return its values with an error estimate of
    1e-6 of each, far above the 1e-11 tolerance."""
    sweep = ness._sweep

    def noisy(*args):
        total, _ = sweep(*args)
        return total, 1e-6 * np.abs(total)

    monkeypatch.setattr(ness, "_sweep", noisy)


def test_stable_density_quadrature_error_is_reported(monkeypatch):
    report_error_of_one_in_a_million(monkeypatch)
    with pytest.raises(QuadratureError, match="alpha=1.5, theta=0.0, y=2.0"):
        stable_density(2.0, 1.5)


@settings(max_examples=50, deadline=None)
@given(one_sided=st.booleans(), alpha=st.floats(0.05, 2.0), log_y=st.floats(-3.0, 3.0))
def test_stable_density_property(one_sided, alpha, log_y):
    # every value is the series' (or a closed form's) to 1e-12, or refused
    theta = 1.0 if one_sided else 0.0
    if one_sided:
        alpha = min(alpha, 2.0 - alpha)
        assume(alpha < 1.0)
    y = 10.0**log_y
    if alpha == 2.0:
        want = gaussian_preset(y)
    elif alpha == 1.0:
        want = cauchy_preset(y)
    else:
        want = stable_series(y, alpha, theta)
        assume(want is not None)
    try:
        value = stable_density(y, alpha, theta)
    except QuadratureError:
        return
    assert value == pytest.approx(want, rel=1e-12, abs=0)
    if not one_sided:
        assert stable_density(-y, alpha, theta) == value


def test_mixture_alpha_two_equals_laplace():
    # the pointwise 1e-6 agreement also settles the mixture's mass: it
    # inherits the Laplace curve's, which is checked separately
    y = np.linspace(-10.0, 10.0, 41)
    mix = stable_mixture_density(y, 2.0)
    np.testing.assert_allclose(mix, laplace_density(y, 2.0), atol=1e-6)


def test_mixture_delta_case_is_one_sided_exponential():
    y = np.linspace(-1.0, 8.0, 37)
    np.testing.assert_allclose(
        stable_mixture_density(y, 1.0, 1.0), one_sided_exp_density(y, 1.0), atol=1e-12
    )


def test_one_sided_exp_values():
    assert one_sided_exp_density(1.0, 2.0) == pytest.approx(
        0.5 * math.exp(-0.5), abs=1e-12
    )
    assert one_sided_exp_density(1.0, 2.0) == pytest.approx(0.3032653, abs=1e-7)
    assert one_sided_exp_density(-0.1, 2.0) == 0.0
    # negative drift mirrors the support
    assert one_sided_exp_density(-1.0, -2.0) == pytest.approx(
        0.5 * math.exp(-0.5), abs=1e-12
    )
    assert one_sided_exp_density(0.1, -2.0) == 0.0


def test_laplace_values():
    assert laplace_density(0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert laplace_density(0.0, 1.0) == pytest.approx(0.7071068, abs=1e-7)


def test_curves_integrate_to_one():
    for curve in (
        one_sided_exp_curve(1.0),
        one_sided_exp_curve(2.0),
        laplace_curve(1.0),
        laplace_curve(2.0),
        stable_mixture_curve(1.0, 1.0),
    ):
        assert 0.99 <= curve.trapezoid_mass() <= 1.001


def test_ness_scale_matches_expected_frozen_count():
    from renewalk.stopped import geometric_stop_asymptotics

    inner = Geometric(0.7)
    assert ness_scale(inner, 0.8) == pytest.approx(
        geometric_stop_asymptotics(inner, 0.8).mean, abs=1e-12
    )


def test_lattice_ness_one_dimension():
    step = walks.line_walk(0.5)
    grid = lattice_ness(step, Geometric(0.7), 0.8, 200)
    assert grid.mass_in_box == pytest.approx(1.0, abs=1e-6)
    assert grid.prob([0]) >= 0.0
    assert (grid.values >= -1e-12).all()
    # symmetric steps give a symmetric stationary law
    np.testing.assert_allclose(grid.values, grid.values[::-1], atol=1e-12)


def test_lattice_ness_origin_deduction():
    # P(0) = P_q(0)/q - p/q stays a probability
    step = walks.line_walk(0.5)
    for q in (0.5, 0.8, 0.95):
        grid = lattice_ness(step, Geometric(0.7), q, 150)
        assert 0.0 <= grid.prob([0]) <= 1.0


def test_lattice_ness_biased_and_poisson_inner():
    step = walks.line_walk(1.0)
    grid = lattice_ness(step, ShiftedPoisson(1.0), 0.9, 400)
    assert grid.mass_in_box == pytest.approx(1.0, abs=1e-6)
    # strictly increasing walk: no mass on the negative axis
    coords = np.arange(-400, 401)
    assert np.abs(grid.values[coords < 0]).max() < 1e-12


def test_lattice_ness_two_dimensions():
    step = walks.hypercubic_walk(2)
    grid = lattice_ness(step, Geometric(0.7), 0.5, 24)
    assert grid.mass_in_box == pytest.approx(1.0, abs=1e-6)
    assert (grid.values >= -1e-12).all()
    # four-fold symmetry
    np.testing.assert_allclose(grid.values, grid.values.T, atol=1e-12)
    np.testing.assert_allclose(grid.values, grid.values[::-1, :], atol=1e-12)


def test_lattice_ness_rejects_bad_input(monkeypatch):
    step = walks.line_walk(0.5)
    with pytest.raises(ParameterError):
        lattice_ness(step, Geometric(0.7), 1.2, 16)
    with pytest.raises(ParameterError):
        lattice_ness(step, DefectiveGeometric(0.5, 0.7), 0.8, 16)

    # near q = 1 the tail bound asks for a 3-d torus past the dense-grid
    # cap; that is refused before any grid is allocated
    def no_grid(*args):
        raise AssertionError("torus grid allocated")

    monkeypatch.setattr(ness, "_torus_grid", no_grid)
    with pytest.raises(ParameterError, match="box 8 at q=0.9999"):
        lattice_ness(walks.hypercubic_walk(3), Geometric(0.7), 0.9999, 8)


def test_lattice_ness_names_given_panels_over_the_cap(monkeypatch):
    # the default sizing runs this box on 64 panels, so 512 is no need: the
    # message names the given count and the cap
    monkeypatch.setattr(ness, "_torus_grid", lambda *a: pytest.fail("torus grid allocated"))
    with pytest.raises(ParameterError) as err:
        lattice_ness(walks.hypercubic_walk(3), Geometric(0.7), 0.9, 8, panels=512)
    assert str(err.value) == ("512 panels per axis in 3 dimensions, over the "
                              "dense-grid cap of 16777216 entries")


def test_lattice_ness_rejects_negative_box(tmp_path, capsys):
    with pytest.raises(ParameterError, match="half_width"):
        lattice_ness(walks.line_walk(0.5), Geometric(0.7), 0.8, -3)
    argv = ["ness", "--kind", "lattice", "--steps", "line:p=0.5",
            "--inner", "geometric:p=0.7", "--box", "-3", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "half_width=-3" in capsys.readouterr().err


def test_lattice_ness_refinement_guard():
    # 16 panels cannot hold the 121-site box: its images overlap the box
    # itself, and the alias bound exceeds 1
    step = walks.line_walk(0.5)
    with pytest.raises(QuadratureError):
        lattice_ness(step, Geometric(0.7), 0.97, 60, panels=16)


@pytest.mark.parametrize(
    "step,inner,q,half_width,panels",
    [
        (walks.line_walk(0.5), Geometric(0.5), 0.98, 256, 540),
        (walks.hypercubic_walk(2), Geometric(0.5), 0.96, 64, 135),
        (walks.triangular_walk(True), Geometric(0.7), 0.99, 256, 1250),
        # the step count alone, g^ceil(n - 60) <= 1e-12 q, needs n >= 152;
        # the exact tails keep the 125 panels the box fits in
        (walks.line_walk(0.5), Geometric(0.7), 0.8, 60, 125),
        (walks.hypercubic_walk(3), ShiftedPoisson(1.0), 0.9, 16, 45),
        # the drift sets the decay rate: the tails ask as much as the step
        # count does
        (walks.line_walk(0.8), Geometric(0.7), 0.99, 256, 1440),
    ],
    ids=["line", "square", "triangular_biased", "line_tail", "cubic", "line_biased"],
)
def test_lattice_ness_torus_size(monkeypatch, step, inner, q, half_width, panels):
    # the least 5-smooth count above 2L whose alias bound is within 1e-12,
    # built once; a 1-d walk of steps -1, 0, +1 takes its closed form, no torus
    assert ness._torus_panels(step, inner.gf(q), q, half_width) == panels
    sizes = []
    grid = ness._torus_grid
    monkeypatch.setattr(ness, "_torus_grid", lambda *a: sizes.append(a[2]) or grid(*a))
    lattice_ness(step, inner, q, half_width)
    assert sizes == ([] if step.dim == 1 else [panels])


def _is_5_smooth(n):
    for f in (2, 3, 5):
        while n % f == 0:
            n //= f
    return n == 1


@settings(max_examples=40, deadline=None)
@given(
    step=st.sampled_from([walks.line_walk(0.5), walks.line_walk(0.8),
                          walks.hypercubic_walk(2), walks.triangular_walk(True),
                          walks.triangular_walk(False)]),
    q=st.floats(0.5, 0.97),
    half_width=st.integers(4, 48),
    cap=st.none() | st.integers(9, 160),
)
def test_default_torus_is_the_least_5_smooth_size_within_1e_12(step, q, half_width, cap):
    # ``cap`` stands in for the dense-grid cap, in panels per axis: the
    # sizes under it are enumerated one by one, and where none meets 1e-12
    # the largest serves if it meets 1e-9, else the box is refused
    psibar = Geometric(0.7).gf(q)
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(ness, "_MEMORY_CAP", cap**step.dim)
        try:
            n = ness._torus_panels(step, psibar, q, half_width)
        except ParameterError:
            n = None
    bound = partial(ness._alias_bound, step, psibar, q, half_width)
    sizes = [m for m in range(2 * half_width + 1, (cap or n) + 1) if _is_5_smooth(m)]
    within = [m for m in sizes if bound(m) <= 1e-12]
    fallback = sizes[-1] if sizes and bound(sizes[-1]) <= 1e-9 else None
    assert n == (within[0] if within else fallback)
    if n is not None:
        # images add nonnegative mass, so the torus exceeds the 4n one by less
        # than q times the alias bound
        coarse, fine = (ness._torus_grid(step, psibar, m, half_width) for m in (n, 4 * n))
        assert np.abs(coarse - fine).sum() <= q * bound(n) + 1e-13


@pytest.mark.parametrize(
    "step,half_width,panels",
    [(walks.triangular_walk(True), 256, 4096), (walks.hypercubic_walk(3), 64, 256)],
    ids=["triangular_biased", "cubic"],
)
def test_lattice_ness_at_the_cap_takes_the_largest_size_under_it(monkeypatch, step, half_width,
                                                                 panels):
    # at q = 0.998 no 5-smooth torus under the dense-grid cap meets 1e-12,
    # so the largest one serves, as its bound is within 1e-9; the grid
    # itself is replaced by zeros, as a 2^24-entry torus takes seconds
    sizes = []
    box = (2 * half_width + 1,) * step.dim
    monkeypatch.setattr(ness, "_torus_grid", lambda *a: sizes.append(a[2]) or np.zeros(box))
    grid = lattice_ness(step, Geometric(0.7), 0.998, half_width)
    assert isinstance(grid, walks.PropagatorGrid) and grid.values.shape == box
    assert sizes == [panels] and panels**step.dim == ness._MEMORY_CAP
    bound = ness._alias_bound(step, Geometric(0.7).gf(0.998), 0.998, half_width, panels)
    assert 1e-12 < bound <= 1e-9


@pytest.mark.parametrize("p", [0.5, 0.7])
@pytest.mark.parametrize("q", [0.8, 0.99])
def test_lattice_ness_matches_two_sided_geometric(p, q):
    # for +-1 steps P_q(x) = (1-g)/sqrt(1 - 4 g^2 p(1-p)) r^|x|, where the
    # ratio r on each side is the small root of g b r^2 - r + g a = 0, a the
    # probability of a step towards that side and b = 1 - a
    inner, half_width = Geometric(0.7), 100
    g = inner.gf(q)
    right = np.roots([g * (1.0 - p), -1.0, g * p]).min()
    left = np.roots([g * p, -1.0, g * (1.0 - p)]).min()
    x = np.arange(-half_width, half_width + 1)
    want = np.where(x >= 0, right ** np.abs(x), left ** np.abs(x))
    want *= (1.0 - g) / math.sqrt(1.0 - 4.0 * g * g * p * (1.0 - p)) / q
    want[half_width] -= (1.0 - q) / q
    grid = lattice_ness(walks.line_walk(p), inner, q, half_width)
    np.testing.assert_allclose(grid.values, want, rtol=0, atol=1e-12)


def exact_line_ness(step, inner, q, half_width):
    """P on the 1-d box at 30 digits: P_q(x) = k r^|x|, the ratio r on each
    side the small root of g v r^2 - (1 - g b) r + g u = 0 (u the chance of a
    step towards that side, v away from it, b of no move) and k unit mass."""
    with mp.workdps(30):
        g, q = mp.mpf(inner.gf(q)), mp.mpf(q)
        a, b, c = (mp.fsum(mp.mpf(float(p)) for p in step.probs[step.displacements[:, 0] == m])
                   for m in (1, 0, -1))
        root = lambda u, v: 2 * g * u / (1 - g * b + mp.sqrt((1 - g * b) ** 2 - 4 * g * g * u * v))
        right, left = root(a, c), root(c, a)
        k = 1 / (1 / (1 - right) + left / (1 - left))
        cells = [k * (right**x if x >= 0 else left**-x) / q
                 for x in range(-half_width, half_width + 1)]
        cells[half_width] -= (1 - q) / q
        return np.array([float(z) for z in cells])


@pytest.mark.parametrize(
    "step",
    [walks.line_walk(0.5), walks.line_walk(0.7), walks.line_walk(1.0), walks.hypercubic_walk(1),
     walks.StepLaw([[1], [0], [-1]], [0.3, 0.45, 0.25])],
    ids=["0.5", "0.7", "1.0", "hypercubic", "lazy"],
)
@pytest.mark.parametrize("q", [0.8, 0.99])
def test_lattice_ness_one_dimension_is_the_closed_form(step, q):
    # every cell down to 1e-100, out to +-256, within 1e-13 of 30 digits; a
    # torus holds only about 1e-16 of the peak, so its tails are far off
    inner, half_width = Geometric(0.7), 256
    want = exact_line_ness(step, inner, q, half_width)
    got = lattice_ness(step, inner, q, half_width).values
    assert (got >= 0.0).all()
    big = want >= 1e-100
    np.testing.assert_allclose(got[big], want[big], rtol=1e-13, atol=0)
    assert (got[~big] <= 1e-100).all()
    # a given panel count still builds the torus, which agrees in absolute terms
    panels = ness._torus_panels(step, inner.gf(q), q, half_width)
    torus = lattice_ness(step, inner, q, half_width, panels=panels).values
    np.testing.assert_allclose(torus, got, rtol=0, atol=1e-13)


def test_cli_lattice_ness_default_line_tails(tmp_path):
    # the tail cells lie far below a torus's rounding floor of about 1e-17
    argv = ["ness", "--kind", "lattice", "--inner", "geometric:p=0.7", "--steps", "line:p=0.5",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "ness_lattice.csv").read_text().splitlines()
    assert lines[0] == "x0,prob"
    cells = {int(x): float(prob) for x, prob in (line.split(",") for line in lines[1:])}
    assert min(cells.values()) >= 0.0
    for x in (-256, 256):
        assert cells[x] == pytest.approx(1.16718575297e-20, rel=1e-11, abs=0)


def test_lattice_ness_biased_triangular_near_one():
    # the ballistic case at q = 0.99: a 1125-panel torus, most mass in the box
    step = walks.triangular_walk(True)
    grid = lattice_ness(step, Geometric(0.7), 0.99, 128)
    assert 0.97 < grid.mass_in_box <= 1.0
    assert (grid.values >= -1e-13).all()
    # the steps are symmetric under the Cartesian reflection x -> -x, which
    # maps lattice coordinates (a, b) to (-a - b, b)
    a, b = grid.lattice_coordinates()
    inside = np.abs(a + b) <= 128
    mirror = grid.values[-a[inside] - b[inside] + 128, b[inside] + 128]
    np.testing.assert_allclose(grid.values[inside], mirror, rtol=0, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    step=st.sampled_from([walks.line_walk(0.5), walks.line_walk(0.8),
                          walks.hypercubic_walk(2), walks.triangular_walk(True),
                          walks.triangular_walk(False)]),
    q=st.floats(0.5, 0.97),
    half_width=st.integers(4, 48),
    doublings=st.integers(0, 1),
)
def test_torus_alias_bound_holds(step, q, half_width, doublings):
    # images add nonnegative mass, so the grid at n panels exceeds the one at
    # 4n by less than its own aliased mass, q times the alias bound on P_q
    psibar = Geometric(0.7).gf(q)
    n = (1 << (2 * half_width).bit_length()) << doublings
    bound = q * ness._alias_bound(step, psibar, q, half_width, n)
    coarse = ness._torus_grid(step, psibar, n, half_width)
    fine = ness._torus_grid(step, psibar, 4 * n, half_width)
    assert (coarse - fine >= -1e-15).all()
    assert np.abs(coarse - fine).sum() <= bound + 1e-13


@pytest.mark.parametrize(
    "step",
    [walks.line_walk(p) for p in (0.5, 0.7, 0.9, 1.0)]
    + [walks.hypercubic_walk(2), walks.hypercubic_walk(3),
       walks.triangular_walk(True), walks.triangular_walk(False)],
    ids=["0.5", "0.7", "0.9", "1.0", "square", "cubic", "triangular_biased",
         "triangular_unbiased"],
)
@pytest.mark.parametrize("q", [0.5, 0.8, 0.95, 0.99, 0.999])
def test_alias_bound_against_exact_tails(step, q):
    # each step moves X_i by -1, 0 or +1 (chances c, b, a), so P_q(X_i = x) is
    # k r^|x|, where the ratio r on each side is the small root of
    # g v r^2 - (1 - g b) r + g u = 0, u the chance of a step towards that
    # side and v away from it, and k gives unit mass.  The bound is the sum
    # over half-axes of P_q(+-X_i >= m) = k r^m/(1 - r), or the step count
    # g^m where that is smaller
    g = Geometric(0.7).gf(q)

    def ratio(u, v):
        # near q = 1 the two roots close in, so np.roots leaves a relative
        # error near 1e-15 and the float coefficients, whose chances need not
        # sum to 1, move the root as much; r^m multiplies it by m.  One Newton
        # step at 30 digits, with b = 1 - u - v, removes both
        u, v = mp.mpf(u), mp.mpf(v)
        poly = [g * v, g * (1 - u - v) - 1, g * u]
        r = mp.mpf(np.roots([float(c) for c in poly]).min())
        value, slope = mp.polyval(poly, r, derivative=True)
        return r - value / slope

    with mp.workdps(30):
        for half_width, n in ((10, 32), (60, 128), (100, 1024), (256, 2048)):
            m = n - half_width
            tail = 0
            for moves in step.displacements.T:
                a, c = step.probs[moves == 1].sum(), step.probs[moves == -1].sum()
                right, left = ratio(a, c), ratio(c, a)
                k = 1 / (1 / (1 - right) + left / (1 - left))
                tail += sum(k * r**m / (1 - r) for r in (right, left))
            bound = q * ness._alias_bound(step, g, q, half_width, n)
            assert bound == pytest.approx(min(g**m, float(tail)), rel=1e-12, abs=0)


def test_heavy_tailed_steps_share_the_biased_limit():
    # one-sided power-law steps with finite mean but infinite variance land
    # on the same rescaled exponential limit as any light-tailed biased walk;
    # the approach is slower (rate (scale)^-(mu-1)), so demonstrate it by
    # KS decreasing along the stopping probability
    from scipy import stats as sps
    from scipy.special import zeta

    from renewalk import montecarlo as mc
    from renewalk.laws import INFINITY, PowerLawBernstein
    from renewalk.montecarlo import SimConfig
    from renewalk.stopped import StoppedSpec

    inner = Geometric(0.7)
    step_law = PowerLawBernstein(1.5, 1.0)  # pmf ~ 1.5 t^-2.5, mean zeta(1.5)
    exp_cdf = lambda t: np.where(t < 0, 0.0, 1.0 - np.exp(-np.clip(t, 0, None)))
    distances = []
    for i, p in enumerate((0.05, 0.01, 0.002)):
        horizon = int(30 / p)
        spec = StoppedSpec(inner, Geometric(p), horizon)
        cfg = SimConfig(seed=300 + i, replicas=100_000, horizon=horizon)
        counts = mc.sample_stopped_value(spec, cfg, INFINITY)
        rng = np.random.default_rng(400 + i)
        draws = np.asarray(step_law.sample(rng, size=int(counts.sum())))
        assert np.isfinite(draws).all()
        endpoints = np.bincount(
            np.repeat(np.arange(counts.size), counts),
            weights=draws,
            minlength=counts.size,
        )
        scale = ness_scale(inner, 1.0 - p) * zeta(1.5)
        y = mc.dequantize(endpoints, rng, one_sided=True) / scale
        distances.append(sps.kstest(y, exp_cdf).statistic)
    assert distances[0] > distances[1] > distances[2]
    assert distances[-1] < 0.025


def test_curve_csv(tmp_path):
    argv = ["ness", "--kind", "laplace", "--scale", "1.0", "--y-min", "-2",
            "--y-max", "2", "--points", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "ness_curve.csv").read_text().splitlines()
    assert lines[0] == "y,density"
    assert [line.split(",")[0] for line in lines[1:]] == ["-2", "-1", "0", "1", "2"]
    density = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_allclose(
        density, laplace_density(np.linspace(-2, 2, 5), 1.0), rtol=1e-11, atol=0
    )


# --- independent oracles -------------------------------------------------


def _one_sided_series(z, alpha):
    """Convergent large-argument series of the one-sided stable density,
    (1/pi) sum_j (-1)^(j+1) G(j alpha + 1)/j! sin(pi j alpha) z^(-j alpha - 1)."""
    total, sign, small_streak = 0.0, 1.0, 0
    for j in range(1, 400):
        term = (
            sign
            * math.exp(gammaln(j * alpha + 1.0) - gammaln(j + 1.0))
            * math.sin(math.pi * j * alpha)
            * z ** (-j * alpha - 1.0)
        )
        total += term
        # terms vanish where sin hits a lattice point; stop after two in a row
        small_streak = small_streak + 1 if abs(term) <= 1e-17 * abs(total) else 0
        if small_streak >= 2:
            break
        sign = -sign
    return total / math.pi


def nested_mixture(y, alpha, theta):
    """The mixture int_0^45 e^-tau tau^(-1/alpha) L_alpha(y tau^(-1/alpha)) dtau
    by adaptive quadrature over the Fourier-inverted stable density, with the
    one-sided tail series at large arguments."""
    inv = 1.0 / alpha

    def point(z):
        if theta == 1.0 and z > 10.0:
            return _one_sided_series(z, alpha)
        return stable_density(z, alpha, theta)

    value, _ = quad(
        lambda tau: math.exp(-tau) * tau**-inv * point(y * tau**-inv),
        0.0, 45.0, epsabs=1e-10, epsrel=1e-10, limit=200,
    )
    return value


def dense_torus_grid(step, psibar, panels, half_width):
    """Trapezoid sum over the torus by explicit phase matrices."""
    n = panels
    theta = -math.pi + 2.0 * math.pi * np.arange(n) / n
    phase = np.exp(1j * np.outer(np.arange(-half_width, half_width + 1), theta))
    w = 0.0
    for vec, p in zip(step.displacements, step.probs):
        factors = [np.exp(-1j * theta * v) for v in vec]
        w = w + p * (factors[0] if step.dim == 1 else np.outer(*factors))
    f = (1.0 - psibar) / (1.0 - w * psibar)
    vals = phase @ f / n if step.dim == 1 else phase @ f @ phase.T / n**2
    return vals.real


@pytest.mark.parametrize(
    "alpha,theta",
    [(0.7, 0.0), (1.0, 0.0), (1.5, 0.0), (1.9, 0.0), (0.3, 1.0), (0.5, 1.0), (0.8, 1.0)],
)
def test_mixture_matches_nested_quadrature(alpha, theta):
    for y in (0.5, 2.0):
        want = nested_mixture(y, alpha, theta)
        assert stable_mixture_density(y, alpha, theta) == pytest.approx(want, rel=1e-9)
        if theta == 0.0:
            assert stable_mixture_density(-y, alpha, theta) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "step",
    [walks.line_walk(0.5), walks.line_walk(0.8), walks.hypercubic_walk(2),
     walks.triangular_walk(True)],
    ids=["line", "line_biased", "square", "triangular_biased"],
)
def test_torus_fft_matches_dense_sum(step):
    psibar = Geometric(0.7).gf(0.9)
    for panels in (64, 16):  # 16 panels alias the 33-site box, identically
        got = ness._torus_grid(step, psibar, panels, 16)
        np.testing.assert_allclose(
            got, dense_torus_grid(step, psibar, panels, 16), rtol=0, atol=1e-13
        )


def test_torus_grid_peak_memory_is_near_one_grid():
    # a 128^3 torus is 32 MiB of complex entries; both FFTs and the division
    # run in place on it, so nothing else of its size is allocated
    step, n = walks.hypercubic_walk(3), 128
    psibar = Geometric(0.7).gf(0.9)
    tracemalloc.start()
    try:
        ness._torus_grid(step, psibar, n, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 16 * n**3


def test_mixture_closed_forms_are_exact():
    y = np.linspace(-10.0, 10.0, 41)
    np.testing.assert_array_equal(stable_mixture_density(y, 2.0), np.exp(-np.abs(y)) / 2)
    np.testing.assert_array_equal(
        stable_mixture_density(y, 1.0, 1.0), one_sided_exp_density(y, 1.0)
    )


def test_mixture_at_origin():
    # infinite for alpha <= 1, 1/(alpha sin(pi/alpha)) above
    for alpha in (0.05, 0.7, 1.0):
        assert stable_mixture_density(0.0, alpha) == math.inf
    for alpha in (1.2, 2.0):
        assert stable_mixture_density(0.0, alpha) == pytest.approx(
            1.0 / (alpha * math.sin(math.pi / alpha)), rel=1e-15
        )
    assert stable_mixture_density(0.0, 1.5) == pytest.approx(
        nested_mixture(0.0, 1.5, 0.0), rel=1e-9
    )
    assert stable_mixture_density(0.0, 0.5, 1.0) == 0.0


def test_default_symmetric_grid_skips_the_singular_origin(tmp_path):
    for alpha in (0.7, 1.0):
        curve = stable_mixture_curve(alpha, y=None)
        assert 0.0 not in curve.y and curve.y.size == 144
        assert np.isfinite(curve.density).all()
        assert math.isfinite(curve.trapezoid_mass())
    assert 0.0 in stable_mixture_curve(1.5).y


def test_mixture_edges_approach_their_closed_forms():
    y = np.linspace(-3.0, 3.0, 25)
    np.testing.assert_allclose(
        stable_mixture_density(y, 1.9999), np.exp(-np.abs(y)) / 2, rtol=1e-3
    )
    ypos = np.linspace(0.125, 3.0, 24)
    np.testing.assert_allclose(
        stable_mixture_density(ypos, 0.9999, 1.0), np.exp(-ypos), rtol=1e-3
    )


def test_mixture_quadrature_error_is_reported(monkeypatch):
    # an error estimate above the tolerance must not pass silently
    report_error_of_one_in_a_million(monkeypatch)
    with pytest.raises(QuadratureError, match="alpha=1.5, theta=0.0, y=2.0"):
        stable_mixture_density(2.0, 1.5)


def test_sweep_gives_up_on_one_point_past_its_interval_limit():
    # 1/t is not integrable at 0: the error of the interval at 0 never
    # shrinks, so that point stops past the limit with an infinite error,
    # while the other point of the same sweep converges
    f = lambda t, k: np.where(k == 0, np.cos(t), 1.0 / t)
    total, err = ness._sweep(f, np.empty((2, 0)), 1.0, np.arange(2))
    assert total[0] == pytest.approx(math.sin(1.0), rel=1e-14)
    assert err[0] <= 1e-11 * total[0]
    assert err[1] == math.inf


def test_densities_leave_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(ness.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys; from renewalk import ness; "
            "ness.stable_mixture_density([0.5, 2.0], 1.5); "
            "ness.stable_mixture_density(1.0, 0.5, 1.0); "
            "ness.stable_density([0.5, 2.0], 1.5); ness.stable_density(1.0, 0.3, 1.0); "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def mixture_mp(y, alpha, theta):
    """The module's mixture integral in r at 30 digits, cut at r = 1, at the
    edges of the peak there (width sqrt(2 (1 + cos(pi a)))/alpha, narrow as
    a -> 1) and where e^(-ry) turns over."""
    with mp.workdps(30):
        y, al = mp.mpf(y), mp.mpf(alpha)
        a = al / 2 if theta == 0.0 else al
        gap = 2 * (1 + mp.cos(mp.pi * a))
        width = mp.sqrt(gap) / al
        cuts = ({mp.mpf(1)} | {1 + s * width * 4**k for s in (-1, 1) for k in range(-2, 8)}
                | {mp.e**k / y for k in range(-4, 5)})
        value = mp.quad(lambda r: r**al * mp.exp(-r * y) / ((1 - r**al) ** 2 + gap * r**al),
                        [0] + sorted(c for c in cuts if c > 0) + [mp.inf])
        return float(mp.sin(mp.pi * a) / mp.pi * value)


@pytest.mark.parametrize(
    "alpha,theta", [(0.01, 0.0), (0.5, 0.0), (1.5, 0.0), (1.9999, 0.0), (0.3, 1.0), (0.9999, 1.0)]
)
def test_mixture_matches_mpmath(alpha, theta):
    y = np.array([1e-3, 1.0, 30.0])
    want = [mixture_mp(v, alpha, theta) for v in y]
    np.testing.assert_allclose(stable_mixture_density(y, alpha, theta), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_mixture_holds_its_tolerance_at_the_least_index(theta):
    # alpha = 1e-4 is the least index taken: 1.1e-12 off 30 digits, where
    # 1e-5 is 1e-11 off and 3e-6 2.6e-11
    y = np.array([1e-3, 0.1, 1.0, 30.0])
    want = [mixture_mp(v, 1e-4, theta) for v in y]
    np.testing.assert_allclose(stable_mixture_density(y, 1e-4, theta), want, rtol=1e-11, atol=0)
    with pytest.raises(ParameterError, match=r"alpha=9e-05 must be in \[0.0001, "):
        stable_mixture_density(y, 9e-5, theta)


def test_mixture_rejects_bad_parameters():
    for alpha, theta in ((2.5, 0.0), (0.0, 0.0), (1.5, 1.0), (0.5, 0.5)):
        with pytest.raises(ParameterError):
            stable_mixture_density(1.0, alpha, theta)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@settings(max_examples=60, deadline=None)
@given(
    one_sided=st.booleans(),
    share=st.floats(0.0, 1.0),
    y=st.floats(1e-3, 50.0),
)
def test_mixture_density_property(one_sided, share, y):
    theta = 1.0 if one_sided else 0.0
    top = 1.0 if one_sided else 2.0
    alpha = 1e-3 * (top / 1e-3) ** share  # log-uniform over [1e-3, top]
    value = stable_mixture_density(y, alpha, theta)
    assert math.isfinite(value) and value > 0.0
    mirrored = stable_mixture_density(-y, alpha, theta)
    if one_sided:
        assert mirrored == 0.0
    else:
        assert mirrored == value
