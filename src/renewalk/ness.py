"""Infinite-time propagators of geometrically stopped walks and their
continuous-space limits.

On the lattice the stationary law is a Fourier integral over the torus,
computed by the trapezoid rule (spectrally accurate for these periodic
integrands): one inverse FFT gives the sum at every site of the box, and
a second one at half the panels checks the refinement.

In the scaling limit of a rarely stopped walk the rescaled endpoint density
is an exponential mixture of alpha-stable laws.  The symmetric mixture is
the Linnik law, characteristic function 1/(1+|k|^alpha); the one-sided
mixture is the Mittag-Leffler law, Laplace transform 1/(1+s^alpha) (Pillai,
Ann. Inst. Stat. Math. 1990; Kotz, Kozubowski & Podgorski, The Laplace
Distribution and Generalizations, 2001).  Both densities are one integral
that does not oscillate,

    f(y) = (sin(pi a)/pi) int_0^inf r^alpha e^(-r|y|)
           / ((1 - r^alpha)^2 + 2 r^alpha (1 + cos(pi a))) dr,

with a = alpha/2 (Linnik) or a = alpha (Mittag-Leffler).  The stable
densities themselves (``stable_density``) are Zolotarev's integral, which
does not oscillate either (see ``_stable_point``).  Every density value from
a quadrature carries its error estimate, and one above 1e-11 relative, or a
failure that ``quad`` reports, raises ``QuadratureError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ParameterError, QuadratureError
from .laws import WaitingLaw
from .walks import PropagatorGrid, StepLaw


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call.

    The import takes about 0.3 s, which every CLI start would pay although
    only the stationary-law quadratures need it.  The first call rebinds
    this module's ``quad`` to scipy's, so later calls go straight to it.
    """
    global quad
    from scipy.integrate import quad

    return quad(*args, **kwargs)


# relative tolerance of one density value
_RTOL = 1e-11
# breakpoints where x = e^k in an integrand x e^(-x): it is flat below the
# first turn and negligible above the last
_TURNS = (-32.0, -16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0)


def _integrate(f, top, points, floor):
    """(value, error) of int_0^top f; a failure quad reports is an infinite error."""
    val, est, *info = quad(
        f, 0.0, top, points=sorted(p for p in points if 0.0 < p < top) or None,
        epsabs=0.5 * _RTOL * floor, epsrel=0.5 * _RTOL, limit=400, full_output=1,
    )
    return val, est if len(info) < 2 else math.inf


def _checked(total: float, err: float, what: str) -> float:
    if not err <= _RTOL * total:
        raise QuadratureError(
            f"{what}: quadrature error estimate {err:.3g} exceeds {_RTOL:g} of {total:.6g}"
        )
    return total


def _per_magnitude(point, y: np.ndarray, one_sided: bool) -> np.ndarray:
    """``point`` once per distinct |y|; y <= 0 maps to 0 when one-sided."""
    mags = np.clip(y, 0.0, None) if one_sided else np.abs(y)
    uniq, inverse = np.unique(mags, return_inverse=True)
    return np.array([point(float(m)) for m in uniq])[inverse].reshape(y.shape)


def ness_scale(inner: WaitingLaw, q: float) -> float:
    """Rescaling length g/(q(1-g)), g = inner_gf(q): the expected frozen count.

    Computed from the exact generating function, not its small-p asymptote,
    to reduce pre-asymptotic bias in rescaled-endpoint experiments.
    """
    g = inner.gf(q)
    return g / (q * (1.0 - g))


def _torus_grid(step: StepLaw, psibar: float, panels: int, half_width: int):
    """Trapezoid-rule inverse Fourier transform of (1-g)/(1 - W(theta) g) on the box.

    With nodes theta_j = -pi + 2 pi j/n the sum n^-d sum_j f(theta_j) e^(i x.theta_j)
    is (-1)^(x_1+...+x_d) times the inverse FFT of f at x mod n.
    """
    if step.dim not in (1, 2):
        raise ParameterError("lattice stationary law supports d <= 2 only")
    n = panels
    theta = -math.pi + 2.0 * math.pi * np.arange(n) / n
    w = np.zeros((n,) * step.dim, dtype=complex)
    for vec, p in zip(step.displacements, step.probs):
        phases = [np.exp(-1j * theta * v) for v in vec]
        w += reduce(np.multiply.outer, phases[1:], p * phases[0])
    w *= -psibar
    w += 1.0
    vals = np.fft.ifftn(np.divide(1.0 - psibar, w, out=w))
    x = np.arange(-half_width, half_width + 1)
    sign = reduce(np.multiply.outer, [1.0 - 2.0 * (x % 2)] * step.dim)
    vals = vals[np.ix_(*[x % n] * step.dim)] * sign
    if np.max(np.abs(vals.imag)) > 1e-9:
        raise QuadratureError("inverse Fourier transform is not numerically real")
    return vals.real


def lattice_ness(
    step: StepLaw,
    inner: WaitingLaw,
    q: float,
    half_width: int,
    panels: int | None = None,
) -> PropagatorGrid:
    """Stationary propagator of a walk stopped at a geometric(p = 1-q) time.

    P(x, inf) = P_q(x, inf)/q - (p/q) delta_x0 where P_q is the inverse
    Fourier transform of (1-g)/(1 - W(theta) g), g = inner_gf(q).  The
    quadrature is repeated at half resolution; disagreement above 1e-6
    relative raises.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError("q must be in (0, 1)")
    if not inner.has_full_mass:
        raise ParameterError("inner law must be non-defective")
    if panels is None:
        panels = 4096 if step.dim == 1 else 512
    psibar = inner.gf(q)
    fine = _torus_grid(step, psibar, panels, half_width)
    coarse = _torus_grid(step, psibar, panels // 2, half_width)
    scale = np.max(np.abs(fine))
    if np.max(np.abs(fine - coarse)) > 1e-6 * scale:
        raise QuadratureError(
            "lattice quadrature did not converge; increase the panel count"
        )
    values = fine / q
    origin = (half_width,) * step.dim
    values[origin] -= (1.0 - q) / q
    return PropagatorGrid(values, half_width, step.basis)


def stable_density(y, alpha: float, theta: float = 0.0) -> np.ndarray:
    """Stable density with characteristic function exp(-(i^theta k)^alpha).

    Admissible parameters are the symmetric family theta = 0 with alpha in
    (0, 2] and the one-sided family theta = 1 with alpha in (0, 1); other
    combinations are rejected rather than guessed.  Closed-form members:
    alpha=2 Gaussian (variance 2), alpha=1 Cauchy, alpha=1/2 with theta=1
    the one-sided 1/(2 sqrt(pi)) y^(-3/2) exp(-1/(4y)).  Other points come
    from one quadrature each (``_stable_point``) whose error estimate must
    stay below 1e-11 relative, else QuadratureError.
    """
    if theta == 0.0:
        if not 0.0 < alpha <= 2.0:
            raise ParameterError("symmetric stable index must be in (0, 2]")
    elif theta == 1.0:
        if not 0.0 < alpha < 1.0:
            raise ParameterError("one-sided stable index must be in (0, 1)")
    else:
        raise ParameterError(f"unsupported stable asymmetry parameter {theta}")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if alpha == 2.0:
        out = np.exp(-(y_arr**2) / 4.0) / (2.0 * math.sqrt(math.pi))
    elif alpha == 1.0:
        out = 1.0 / (math.pi * (1.0 + y_arr**2))
    else:
        out = _per_magnitude(lambda m: _stable_point(m, alpha, theta), y_arr, theta == 1.0)
    return out if np.ndim(y) else float(out[0])


def _stable_point(y: float, alpha: float, theta: float) -> float:
    """Stable density at y >= 0, alpha != 1, 2, by Zolotarev's integral

        f(y) = alpha / (pi |alpha-1| y) int_0^(pi (1+theta)/2) g e^(-g) dw,
        g = (y sin w / sin(c + alpha w))^(alpha/(alpha-1)) sin(c + (alpha-1) w) / sin w,

    c = pi (1 - alpha (1+theta)/2) (Zolotarev 1986, sec. 2.2; Nolan 1997; the
    scale cos(pi alpha theta/2)^(1/alpha) cancels).  g is monotone in w.  Each
    half of the range is integrated in the distance from its own end, where
    the sines keep every digit; from the far end, v, they are sin(e + v),
    sin(alpha v) and sin(e + (1-alpha) v) with e = pi (1-theta)/2.  Breakpoints
    sit where g = e^k (k in _TURNS) and at octaves towards an end where g is
    not smooth: c 2^j on the near half (a layer w ~ c, thin as c -> 0) and,
    for theta = 0 and alpha < 1/2, on the far half (g ~ v^(alpha/(1-alpha))).
    """
    if y == 0.0:
        return 0.0 if theta == 1.0 else math.gamma(1.0 + 1.0 / alpha) / math.pi
    from scipy.optimize import brentq

    c = math.pi * (1.0 - alpha * (1.0 + theta) / 2.0)
    e = math.pi * (1.0 - theta) / 2.0
    half = math.pi * (1.0 + theta) / 4.0
    power = alpha / (alpha - 1.0)
    what = f"stable density alpha={alpha}, theta={theta}, y={y}"
    # g carries the sines' rounding times |power|; the error it leaves in f
    # measures below eps |power|, so 16 eps |power| is its estimate
    _checked(1.0, 16.0 * np.finfo(float).eps * abs(power), what)
    ends = (
        (lambda w: (math.sin(w), math.sin(c + alpha * w), math.sin(c + (alpha - 1.0) * w)),
         [c * 2.0**j for j in range(64)]),
        (lambda v: (math.sin(e + v), math.sin(alpha * v), math.sin(e + (1.0 - alpha) * v)),
         [half * 2.0**-j for j in range(1, 48)] if theta == 0.0 and alpha < 0.5 else []),
    )
    total = err = 0.0
    for sines, points in ends:

        def log_g(t, sines=sines):
            a, b, d = sines(t)
            return power * (math.log(y) + math.log(a / b)) + math.log(d / a)

        def integrand(t):
            x = log_g(t)
            return math.exp(x - math.exp(x)) if x < 700.0 else 0.0

        edge, mid = log_g(1e-200), log_g(half)
        points = points + [
            math.exp(brentq(lambda s: log_g(math.exp(s)) - k, math.log(1e-200), math.log(half)))
            for k in _TURNS
            if (edge - k) * (mid - k) < 0.0
        ]
        val, est = _integrate(integrand, half, points, total)
        total += val
        err += est
    return alpha / (math.pi * abs(alpha - 1.0) * y) * _checked(total, err, what)


@dataclass(frozen=True)
class NessCurve:
    """Sampled continuous stationary density over a stored support."""

    y: np.ndarray
    density: np.ndarray
    kind: str

    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.density, self.y))


def one_sided_exp_density(y, mean_displacement: float) -> np.ndarray:
    """(1/|A|) exp(-y/A) on the side of the bias, A the mean displacement."""
    a = mean_displacement
    if a == 0.0:
        raise ParameterError("mean displacement must be nonzero")
    y = np.asarray(y, dtype=float)
    ratio = y / a
    return np.where(ratio >= 0.0, np.exp(-np.clip(ratio, 0.0, None)) / abs(a), 0.0)


def laplace_density(y, msd: float) -> np.ndarray:
    """exp(-|y| sqrt(2/B)) / sqrt(2B), B the per-count mean squared step."""
    if not msd > 0.0:
        raise ParameterError("mean squared displacement must be positive")
    y = np.asarray(y, dtype=float)
    return np.exp(-np.abs(y) * math.sqrt(2.0 / msd)) / math.sqrt(2.0 * msd)


def one_sided_exp_curve(mean_displacement: float, y=None) -> NessCurve:
    if y is None:
        top = 14.0 * abs(mean_displacement)
        y = np.linspace(0.0, top, 1401) * math.copysign(1.0, mean_displacement)
        y = np.sort(y)
    y = np.asarray(y, dtype=float)
    return NessCurve(y, one_sided_exp_density(y, mean_displacement), "one_sided_exp")


def laplace_curve(msd: float, y=None) -> NessCurve:
    if y is None:
        top = 14.0 * math.sqrt(msd)
        y = np.linspace(-top, top, 2001)
    y = np.asarray(y, dtype=float)
    return NessCurve(y, laplace_density(y, msd), "laplace")


def _mixture_point(y: float, alpha: float, theta: float) -> float:
    """Linnik (theta = 0) or Mittag-Leffler (theta = 1) density at y >= 0.

    The substitution r^alpha = sin(u)/sin(pi a - u) turns the module's
    integral into (1/(alpha pi)) int_0^(pi a) r e^(-ry) du: the factor that
    peaks at r = 1 with width ~pi(1-a)/alpha (sharp as a -> 1) becomes du/pi.
    The u-range is split at r = 1 and each half is integrated in the distance
    w from its own end, where sin(w) keeps every digit.  Breakpoints sit
    where e^(-ry) turns over (ry = e^k) and, for a > 1/2, at
    r^(+-alpha) = 1 - 2^-j, grading the end layers of width ~sin(pi a).
    """
    if y == 0.0:
        if theta == 1.0:
            return 0.0
        # (1/pi) int_0^inf dk / (1 + k^alpha), infinite for alpha <= 1
        return 1.0 / (alpha * math.sin(math.pi / alpha)) if alpha > 1.0 else math.inf
    a = alpha / 2.0 if theta == 0.0 else alpha
    top = math.pi * a
    if a > 0.5:
        # sin(pi a - w) from the exact complement 1 - a, not from pi a rounded near pi
        shift = math.pi * (1.0 - a)
        s_top, c_top = math.sin(shift), -math.cos(shift)
        far = lambda w: math.sin(w + shift)
        layers = [1.0 - 0.5**j for j in range(1, 60) if 0.5**j > s_top]
    else:
        s_top, c_top = math.sin(top), math.cos(top)
        far = lambda w: math.sin(top - w)
        layers = []
    turns = [(math.exp(k) / y) ** alpha for k in _TURNS]
    total = err = 0.0
    # side +1 is r < 1, side -1 is r > 1; the half where e^(-ry) turns over
    # goes first, so the other one gets an absolute target
    for side in (1.0, -1.0) if y >= 1.0 else (-1.0, 1.0):
        ratios = [t**side for t in turns if t**side < 1.0] + layers
        pts = {math.atan2(p * s_top, 1.0 + p * c_top) for p in ratios}

        def integrand(w, side=side):
            log_r = side * math.log(math.sin(w) / far(w)) / alpha
            return math.exp(log_r - y * math.exp(log_r)) if log_r < 700.0 else 0.0

        val, est = _integrate(integrand, top / 2.0, pts, total)
        total += val
        err += est
    what = f"stable mixture alpha={alpha}, theta={theta}, y={y}"
    return _checked(total, err, what) / (alpha * math.pi)


def stable_mixture_density(y, alpha: float, theta: float = 0.0):
    """Exponential mixture int_0^inf e^-tau tau^(-1/alpha) L_alpha(y tau^(-1/alpha)) dtau
    of the stable densities of ``stable_density``.

    theta = 0, alpha in (0, 2]: the Linnik law, characteristic function
    1/(1+|k|^alpha); alpha = 2 is the Laplace law exp(-|y|)/2, and at y = 0
    the density is 1/(alpha sin(pi/alpha)), infinite for alpha <= 1.
    theta = 1, alpha in (0, 1]: the Mittag-Leffler law, Laplace transform
    1/(1+s^alpha), zero for y <= 0; alpha = 1 is the unit exponential.
    Other points come from one quadrature each (``_mixture_point``) whose
    error estimate must stay below 1e-11 relative, else QuadratureError.
    """
    if theta == 0.0:
        if not 0.0 < alpha <= 2.0:
            raise ParameterError(f"symmetric mixture index alpha={alpha} must be in (0, 2]")
    elif theta == 1.0:
        if not 0.0 < alpha <= 1.0:
            raise ParameterError(f"one-sided mixture index alpha={alpha} must be in (0, 1]")
    else:
        raise ParameterError(f"unsupported stable asymmetry parameter theta={theta}")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if theta == 0.0 and alpha == 2.0:
        out = laplace_density(y_arr, 2.0)
    elif theta == 1.0 and alpha == 1.0:
        out = one_sided_exp_density(y_arr, 1.0)
    else:
        out = _per_magnitude(lambda m: _mixture_point(m, alpha, theta), y_arr, theta == 1.0)
    return out if np.ndim(y) else float(out[0])


def stable_mixture_curve(alpha: float, theta: float = 0.0, y=None) -> NessCurve:
    """Mixture density on ``y``; by default 701 points on [0, 25] for the
    exponential case, 126 on [0, 25] for other one-sided laws, and 145 on
    [-18, 18] for symmetric ones, without y = 0 where the density is
    infinite (alpha <= 1)."""
    if y is None:
        if alpha == 1.0 and theta == 1.0:
            y = np.linspace(0.0, 25.0, 701)
        elif theta == 1.0:
            y = np.linspace(0.0, 25.0, 126)
        else:
            y = np.linspace(-18.0, 18.0, 145)
            if alpha <= 1.0:
                y = y[y != 0.0]
    y = np.asarray(y, dtype=float)
    return NessCurve(y, stable_mixture_density(y, alpha, theta), "stable_mixture")
