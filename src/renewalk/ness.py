"""Infinite-time propagators of geometrically stopped walks and their
continuous-space limits.

On the lattice the stationary law of a 1-d walk of steps -1, 0, +1 is
two-sided geometric in closed form, unless ``panels`` asks for the torus; any
other is the trapezoid rule over the torus: a real FFT of the step law gives
the integrand on the half spectrum, an inverse real FFT the sum at every site
of the box.  Its only error, the aliased mass of images one period away, is
bounded by a step count or the exact two-sided geometric tails of the axis
marginals, and held within 1e-12.

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
does not oscillate either (see ``_stable_points``).  One adaptive sweep of
QUADPACK's 21-point Gauss-Kronrod rule integrates every point of a call at
once (``_sweep``); an error estimate above 1e-11 relative, or a point that
needs more than 400 intervals, raises ``QuadratureError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParameterError, QuadratureError
from .laws import WaitingLaw, _is_int
from .walks import _MEMORY_CAP, PropagatorGrid, StepLaw


# relative tolerance of one density value
_RTOL = 1e-11
# mass the default lattice torus may alias onto the box, and any torus
_ALIAS_TARGET, _ALIAS_TOL = 1e-12, 1e-9
# breakpoints where x = e^k in an integrand x e^(-x): it is flat below the
# first turn and negligible above the last
_TURNS = np.array([-32.0, -16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0])
# least stable-mixture index: the quadrature is within 1.1e-12 of 30 digits at
# 1e-4, but 1e-11 off at 1e-5 and 2.6e-11 at 3e-6
_MIXTURE_ALPHA_MIN = 1e-4
# QUADPACK's qk21 rule (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner,
# QUADPACK, Springer 1983) as doubles: each node x >= 0 of the 21-point
# Kronrod rule on [-1, 1], its weight, and its 10-point Gauss weight; -x mirrors x
_NODES, _KRONROD, _GAUSS = np.array([
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.0, 0.1494455540029169, 0.0),
]).T
_NODES, _KRONROD, _GAUSS = (np.concatenate([z, sign * z[-2::-1]])
                            for z, sign in ((_NODES, -1.0), (_KRONROD, 1.0), (_GAUSS, 1.0)))
# intervals one density value may use
_LIMIT = 400


def _sweep(f, cuts: np.ndarray, top: float, owner: np.ndarray):
    """Each point's (total, error) of the integrals of f(t, k) over [0, top],
    piece k cut at row k of ``cuts`` and added into point owner[k].

    Each round applies qk21, with its error estimate and 50 eps floor, to
    every new interval as one (intervals, 21) node array.  A point whose
    summed error is above 0.5e-11 of its total bisects each interval whose
    error is above its share, that bound over its interval count; a point
    past _LIMIT intervals gets an infinite error while the others go on.
    """
    edges = np.sort(np.clip(np.pad(cuts, ((0, 0), (1, 1)), constant_values=(0.0, top)), 0.0, top))
    new = edges[:, 1:] > edges[:, :-1]
    lo, hi, piece = edges[:, :-1][new], edges[:, 1:][new], np.nonzero(new)[0]
    n = int(owner.max()) + 1
    kept = [lo[:0]] * 4 + [piece[:0]]
    with np.errstate(all="ignore"):
        while lo.size:
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            fx = f(mid[:, None] + half[:, None] * _NODES, piece[:, None])
            kronrod = fx @ _KRONROD
            asc = np.abs(fx - kronrod[:, None] / 2.0) @ _KRONROD * half
            err = np.abs(kronrod - fx @ _GAUSS) * half
            err = np.where(asc > 0.0, asc * np.minimum(1.0, (200.0 * err / asc) ** 1.5), err)
            err = np.maximum(err, 50.0 * np.finfo(float).eps * (np.abs(fx) @ _KRONROD) * half)
            lo, hi, val, err, piece = (np.concatenate(z) for z in zip(
                kept, (lo, hi, kronrod * half, err, piece)))
            p = owner[piece]
            total, error, count = (np.bincount(p, w, n) for w in (val, err, None))
            target = 0.5 * _RTOL * np.abs(total)
            split = ((error > target) & (count <= _LIMIT))[p] & (err * count[p] > target[p])
            kept = [z[~split] for z in (lo, hi, val, err, piece)]
            mid = (lo[split] + hi[split]) / 2.0
            lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
            piece = np.concatenate([piece[split]] * 2)
    return total, np.where(count > _LIMIT, np.inf, error)


def _checked(total: np.ndarray, err: np.ndarray, what: str, y: np.ndarray) -> np.ndarray:
    """``total``, unless some error estimate is above 1e-11 of its total."""
    i = np.argmin(err <= _RTOL * total)  # the first failure, if any
    if not err[i] <= _RTOL * total[i]:
        raise QuadratureError(f"{what}, y={float(y[i])}: quadrature error estimate "
                              f"{err[i]:.3g} exceeds {_RTOL:g} of {total[i]:.6g}")
    return total


def _per_magnitude(points, at_zero, y: np.ndarray, one_sided: bool) -> np.ndarray:
    """``points`` at the distinct nonzero |y| at once, ``at_zero()`` at 0; one-sided: 0 at y<=0."""
    mags = np.clip(y, 0.0, None) if one_sided else np.abs(y)
    uniq, inverse = np.unique(mags, return_inverse=True)
    out = np.zeros(uniq.shape)
    if 0.0 in uniq and not one_sided:
        out[uniq == 0.0] = at_zero()
    if (uniq != 0.0).any():
        out[uniq != 0.0] = points(uniq[uniq != 0.0])
    return out[inverse].reshape(y.shape)


def ness_scale(inner: WaitingLaw, q: float) -> float:
    """Rescaling length g/(q(1-g)), g = inner_gf(q): the expected frozen count.

    Computed from the exact generating function, not its small-p asymptote,
    to reduce pre-asymptotic bias in rescaled-endpoint experiments.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"q must be in (0, 1), got {q}")
    g = inner.gf(q)
    return g / (q * (1.0 - g))


def _torus_grid(step: StepLaw, psibar: float, panels: int, half_width: int):
    """Trapezoid-rule inverse Fourier transform of (1-g)/(1 - W(theta) g) on the box.

    The step law mod n is real, so its FFT at theta_j = 2 pi j/n is Hermitian:
    a real FFT on the last axis and in-place ones on the others give it at
    j_d <= n/2, and their inverses n^-d sum_j f(theta_j) e^(i x.theta_j).
    """
    n, axes = panels, tuple(range(step.dim - 1))
    w = np.zeros((n,) * step.dim)
    np.add.at(w, tuple((step.displacements % n).T), step.probs)
    w = np.fft.rfft(w)
    np.fft.fftn(w, axes=axes, out=w)
    w *= -psibar
    w += 1.0
    w = np.fft.irfft(np.fft.ifftn(np.divide(1.0 - psibar, w, out=w), axes=axes, out=w), n)
    for axis in range(step.dim):
        w = w.take(np.arange(-half_width, half_width + 1) % n, axis)
    if not np.isfinite(w).all():
        raise QuadratureError("inverse Fourier transform is not finite")
    return w


def _fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a length the FFT transforms as fast as a
    power of two."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # odd times the least power of two that takes it to n or more
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _axis_ratios(step: StepLaw, g: float):
    """Per axis e_i, (sqrt(D), rho, sigma): for steps of at most one site
    along e_i, with chances a, b, c of +1, 0, -1, the marginal of X_i is
    P_q(X_i = x) = (1-g)/sqrt(D) rho^x for x >= 0 and sigma^(-x) for x <= 0,
    where D = (1-g)(1+g-2gb) + g^2 (a-c)^2, rho = 2ga/S, sigma = 2gc/S and
    S = 1 - gb + sqrt(D) (Feller, An Introduction to Probability Theory and
    Its Applications I, ch. XIV)."""
    for axis in step.displacements.T.tolist():
        a, b, c = (math.fsum(p for v, p in zip(axis, step.probs) if v == m) for m in (1, 0, -1))
        root = math.sqrt((1.0 - g) * (1.0 + g - 2.0 * g * b) + (g * (a - c)) ** 2)
        yield root, *(2.0 * g * x / (1.0 - g * b + root) for x in (a, c))


def _alias_bound(step: StepLaw, g: float, q: float, half_width: int, panels: int) -> float:
    """Bound on the mass an n-panel torus aliases onto the box, as a share of P.

    Every image of a box site lies r = n - L or more sites out along some
    half-axis +-e_i, so the aliased mass of P_q is at most P_q(max_i |X_i| >= r).
    Two bounds on it, the smaller taken (the steps for ballistic walks, the
    tails for walks that return), divided by q as P is:

    * steps: a step moves at most s sites, so X leaves only after ceil(r/s)
      or more steps, which P_q weighs g^ceil(r/s);
    * tails, when no step moves more than one site per axis: the half-axis
      tails (1-g)/sqrt(D) rho^r/(1-rho), and with sigma, of the two-sided
      geometric marginals (``_axis_ratios``), summed over the axes.
    """
    r = panels - half_width
    reach = int(np.abs(step.displacements).max()) or 1
    steps = g ** math.ceil(r / reach)
    if r <= 0 or reach > 1:
        return steps / q
    tails = 0.0
    for root, *ratios in _axis_ratios(step, g):
        for ratio in ratios:
            tails += (1.0 - g) / root * ratio**r / (1.0 - ratio)
    return min(steps, tails) / q


def _torus_panels(step: StepLaw, g: float, q: float, half_width: int, panels=None) -> int:
    """Panels per axis of the torus for the box: ``panels`` if given, else the
    least 5-smooth count (a fast FFT length) above 2L with alias bound within
    1e-12, or, where n^d passes the dense-grid cap first, the largest under it
    with bound within 1e-9.  A box that needs more, or ``panels`` not an integer
    >= 1 or over the cap, is a ParameterError; a bound over 1e-9 QuadratureError."""
    aliased = partial(_alias_bound, step, g, q, half_width)
    given = panels is not None
    if given and not (_is_int(panels) and panels >= 1):
        raise ParameterError(f"panels={panels} must be an integer >= 1")
    if not given:
        panels, fits = _fast_len(2 * half_width + 1), None
        while panels**step.dim <= _MEMORY_CAP and aliased(panels) > _ALIAS_TARGET:
            fits, panels = panels, _fast_len(panels + 1)
        if panels**step.dim > _MEMORY_CAP and fits is not None and aliased(fits) <= _ALIAS_TOL:
            panels = fits
    if panels**step.dim > _MEMORY_CAP:
        torus = (f"{panels} panels per axis in {step.dim} dimensions" if given else
                 f"box {half_width} at q={q} needs a torus of at least {panels} panels per axis")
        raise ParameterError(f"{torus}, over the dense-grid cap of {_MEMORY_CAP} entries")
    if aliased(panels) > _ALIAS_TOL:
        raise QuadratureError(f"{panels} panels may alias {aliased(panels):.3g} of "
                              "mass onto the box; increase the panel count")
    return panels


def lattice_ness(step: StepLaw, inner: WaitingLaw, q: float, half_width: int,
                 panels: int | None = None) -> PropagatorGrid:
    """Stationary propagator of a walk stopped at a geometric(p = 1-q) time.

    P(x, inf) = P_q(x, inf)/q - (p/q) delta_x0 where P_q is the inverse
    Fourier transform of (1-g)/(1 - W(theta) g) = sum_m (1-g) g^m W^m,
    g = inner_gf(q): for a 1-d walk of steps -1, 0, +1 and no ``panels`` the
    exact two-sided law of ``_axis_ratios``, else the trapezoid rule on the
    torus of ``_torus_panels``.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"q must be in (0, 1), got {q}")
    if not _is_int(half_width) or half_width < 0:
        raise ParameterError(f"half_width={half_width} must be an integer >= 0")
    if (2 * half_width + 1) ** step.dim > _MEMORY_CAP:
        raise ParameterError(f"half_width={half_width}: box over the {_MEMORY_CAP}-entry grid cap")
    if not inner.has_full_mass:
        raise ParameterError(f"inner law must be non-defective, got mass {inner.defect_mass}")
    psibar = inner.gf(q)
    if panels is None and step.dim == 1 and np.abs(step.displacements).max() <= 1:
        [(root, rho, sigma)] = _axis_ratios(step, psibar)
        x = np.arange(-half_width, half_width + 1)
        values = (1.0 - psibar) / root / q * np.where(x >= 0, rho, sigma) ** np.abs(x)
    else:
        panels = _torus_panels(step, psibar, q, half_width, panels)
        values = _torus_grid(step, psibar, panels, half_width) / q
    values[(half_width,) * step.dim] -= (1.0 - q) / q
    return PropagatorGrid(values, half_width, step.basis)


def stable_density(y, alpha: float, theta: float = 0.0) -> np.ndarray:
    """Stable density with characteristic function exp(-(i^theta k)^alpha).

    Admissible parameters are the symmetric family theta = 0 with alpha in
    (0, 2] and the one-sided family theta = 1 with alpha in (0, 1); other
    combinations are rejected rather than guessed.  alpha=2 (Gaussian,
    variance 2) and alpha=1 (Cauchy) are evaluated in closed form.  Every
    other point comes from one quadrature (``_stable_points``) whose error
    estimate must stay below 1e-11 relative, else QuadratureError; that
    includes alpha=1/2 with theta=1, the one-sided
    1/(2 sqrt(pi)) y^(-3/2) exp(-1/(4y)), a closed form the tests pin.
    """
    if theta == 0.0:
        if not 0.0 < alpha <= 2.0:
            raise ParameterError(f"symmetric stable index must be in (0, 2], got {alpha}")
    elif theta == 1.0:
        if not 0.0 < alpha < 1.0:
            raise ParameterError(f"one-sided stable index must be in (0, 1), got {alpha}")
    else:
        raise ParameterError(f"unsupported stable asymmetry parameter {theta}")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if alpha == 2.0:
        out = np.exp(-(y_arr**2) / 4.0) / (2.0 * math.sqrt(math.pi))
    elif alpha == 1.0:
        out = 1.0 / (math.pi * (1.0 + y_arr**2))
    else:
        out = _per_magnitude(lambda m: _stable_points(m, alpha, theta),
                             lambda: math.gamma(1.0 + 1.0 / alpha) / math.pi, y_arr, theta == 1.0)
    return out if np.ndim(y) else float(out[0])


def _stable_points(y: np.ndarray, alpha: float, theta: float) -> np.ndarray:
    """Stable density at y > 0, alpha != 1, 2, by Zolotarev's integral

        f(y) = alpha / (pi |alpha-1| y) int_0^(pi (1+theta)/2) g e^(-g) dw,
        g = (y sin w / sin(c + alpha w))^(alpha/(alpha-1)) sin(c + (alpha-1) w) / sin w,

    c = pi (1 - alpha (1+theta)/2) (Zolotarev 1986, sec. 2.2; Nolan 1997; the
    scale cos(pi alpha theta/2)^(1/alpha) cancels).  g is monotone in w.  Each
    half of the range is integrated in the distance from its own end, where
    the sines keep every digit; from the far end, v, they are sin(e + v),
    sin(alpha v) and sin(e + (1-alpha) v) with e = pi (1-theta)/2.  Breakpoints
    sit where g = e^k (k in _TURNS), found by bisection in log w, and at
    octaves towards an end where g is not smooth: c 2^j on the near half (a
    layer w ~ c, thin as c -> 0) and, for theta = 0 and alpha < 1/2, on the
    far half (g ~ v^(alpha/(1-alpha))).
    """
    c = math.pi * (1.0 - alpha * (1.0 + theta) / 2.0)
    e = math.pi * (1.0 - theta) / 2.0
    half = math.pi * (1.0 + theta) / 4.0
    power = alpha / (alpha - 1.0)
    what = f"stable density alpha={alpha}, theta={theta}"
    # g carries the sines' rounding times |power|; the error it leaves in f
    # measures below eps |power|, so 16 eps |power| is its estimate
    _checked(np.ones(1), np.array([16.0 * np.finfo(float).eps * abs(power)]), what, y)
    # piece 2i is the near half of y_i and piece 2i + 1 its far half; the
    # sines of a piece are sin(o_a + t), sin(o_b + alpha t), sin(o_d + m t)
    far = np.arange(2 * y.size) % 2
    pieces = np.array([np.repeat(np.log(y), 2), *(np.array(z)[far] for z in (
        (0.0, e), (c, 0.0), (c, e), (alpha - 1.0, 1.0 - alpha)))])

    def log_g(t, log_y, o_a, o_b, o_d, m):
        a = np.sin(o_a + t)
        return (power * (log_y + np.log(a / np.sin(o_b + alpha * t)))
                + np.log(np.sin(o_d + m * t) / a))

    def integrand(t, k):
        x = log_g(t, *pieces[:, k])
        return np.where(x >= 700.0, 0.0, np.exp(x - np.exp(x)))

    edge, mid = log_g(1e-200, *pieces[..., None]), log_g(half, *pieces[..., None])
    # bisection in log w: step towards the turn while g is still on the edge's side
    s, step = np.full((far.size, _TURNS.size), math.log(1e-200)), math.log(half / 1e-200)
    for _ in range(26):
        step /= 2.0
        ahead = (log_g(np.exp(s + step), *pieces[..., None]) - _TURNS) * (edge - _TURNS) > 0.0
        s = np.where(ahead, s + step, s)
    octaves = np.zeros((far.size, 64))
    octaves[0::2] = c * 2.0 ** np.arange(64)
    if theta == 0.0 and alpha < 0.5:
        octaves[1::2, :47] = half * 2.0 ** -np.arange(1, 48)
    turns = np.where((edge - _TURNS) * (mid - _TURNS) < 0.0, np.exp(s), 0.0)
    total, err = _sweep(integrand, np.hstack([turns, octaves]), half, np.arange(far.size) // 2)
    return alpha / (math.pi * abs(alpha - 1.0) * y) * _checked(total, err, what, y)


@dataclass(frozen=True)
class NessCurve:
    """Sampled continuous stationary density over a stored support."""

    y: np.ndarray
    density: np.ndarray

    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.density, self.y))


def _displacement(a: float) -> float:
    if a == 0.0 or not math.isfinite(a):
        raise ParameterError(f"mean displacement must be finite and nonzero, got {a}")
    return a


def _msd(b: float) -> float:
    if not 0.0 < b < math.inf:
        raise ParameterError(f"mean squared displacement must be in (0, inf), got {b}")
    return b


def one_sided_exp_density(y, mean_displacement: float) -> np.ndarray:
    """(1/|A|) exp(-y/A) on the side of the bias, A the mean displacement."""
    a = _displacement(mean_displacement)
    y = np.asarray(y, dtype=float)
    ratio = y / a
    return np.where(ratio >= 0.0, np.exp(-np.clip(ratio, 0.0, None)) / abs(a), 0.0)


def laplace_density(y, msd: float) -> np.ndarray:
    """exp(-|y| sqrt(2/B)) / sqrt(2B), B the per-count mean squared step."""
    msd = _msd(msd)
    y = np.asarray(y, dtype=float)
    return np.exp(-np.abs(y) * math.sqrt(2.0 / msd)) / math.sqrt(2.0 * msd)


def one_sided_exp_curve(mean_displacement: float, y=None) -> NessCurve:
    if y is None:
        top = 14.0 * abs(_displacement(mean_displacement))
        y = np.linspace(0.0, top, 1401) * math.copysign(1.0, mean_displacement)
        y = np.sort(y)
    y = np.asarray(y, dtype=float)
    return NessCurve(y, one_sided_exp_density(y, mean_displacement))


def laplace_curve(msd: float, y=None) -> NessCurve:
    if y is None:
        top = 14.0 * math.sqrt(_msd(msd))
        y = np.linspace(-top, top, 2001)
    y = np.asarray(y, dtype=float)
    return NessCurve(y, laplace_density(y, msd))


def _mixture_points(y: np.ndarray, alpha: float, theta: float) -> np.ndarray:
    """Linnik (theta = 0) or Mittag-Leffler (theta = 1) density at y > 0.

    The substitution r^alpha = sin(u)/sin(pi a - u) turns the module's
    integral into (1/(alpha pi)) int_0^(pi a) r e^(-ry) du: the factor that
    peaks at r = 1 with width ~pi(1-a)/alpha (sharp as a -> 1) becomes du/pi.
    The u-range is split at r = 1 and each half is integrated in the distance
    w from its own end, where sin(w) keeps every digit.  Breakpoints sit
    where e^(-ry) turns over (ry = e^k) and, for a > 1/2, at
    r^(+-alpha) = 1 - 2^-j, grading the end layers of width ~sin(pi a).
    """
    a = alpha / 2.0 if theta == 0.0 else alpha
    top = math.pi * a
    if a > 0.5:
        # sin(pi a - w) from the exact complement 1 - a, not from pi a rounded near pi
        shift = math.pi * (1.0 - a)
        s_top, c_top = math.sin(shift), -math.cos(shift)
        far = lambda w: np.sin(w + shift)
        layers = [1.0 - 0.5**j for j in range(1, 60) if 0.5**j > s_top]
    else:
        s_top, c_top = math.sin(top), math.cos(top)
        far = lambda w: np.sin(top - w)
        layers = []
    # piece 2i is the r < 1 half of y_i (side +1), piece 2i + 1 its r > 1 half
    side, ys = np.tile([1.0, -1.0], y.size), np.repeat(y, 2)
    with np.errstate(over="ignore"):
        ratios = (np.exp(_TURNS) / ys[:, None]) ** (alpha * side[:, None])
    ratios = np.hstack([np.where(ratios < 1.0, ratios, 0.0),
                        np.broadcast_to(layers, (ys.size, len(layers)))])

    def integrand(w, k):
        log_r = side[k] * np.log(np.sin(w) / far(w)) / alpha
        return np.where(log_r >= 700.0, 0.0, np.exp(log_r - ys[k] * np.exp(log_r)))

    cuts = np.arctan2(ratios * s_top, 1.0 + ratios * c_top)
    total, err = _sweep(integrand, cuts, top / 2.0, np.arange(ys.size) // 2)
    what = f"stable mixture alpha={alpha}, theta={theta}"
    return _checked(total, err, what, y) / (alpha * math.pi)


def stable_mixture_density(y, alpha: float, theta: float = 0.0):
    """Exponential mixture int_0^inf e^-tau tau^(-1/alpha) L_alpha(y tau^(-1/alpha)) dtau
    of the stable densities of ``stable_density``.

    theta = 0, alpha in [1e-4, 2]: the Linnik law, characteristic function
    1/(1+|k|^alpha); alpha = 2 is the Laplace law exp(-|y|)/2, and at y = 0
    the density is 1/(alpha sin(pi/alpha)), infinite for alpha <= 1.
    theta = 1, alpha in [1e-4, 1]: the Mittag-Leffler law, Laplace transform
    1/(1+s^alpha), zero for y <= 0; alpha = 1 is the unit exponential.
    Other points come from one quadrature each (``_mixture_points``) whose
    error estimate must stay below 1e-11 relative, else QuadratureError.
    Indices below 1e-4 are refused: there the values drift past 1e-11.
    """
    lo = _MIXTURE_ALPHA_MIN
    if theta == 0.0:
        if not lo <= alpha <= 2.0:
            raise ParameterError(f"symmetric mixture index alpha={alpha} must be in [{lo}, 2]")
    elif theta == 1.0:
        if not lo <= alpha <= 1.0:
            raise ParameterError(f"one-sided mixture index alpha={alpha} must be in [{lo}, 1]")
    else:
        raise ParameterError(f"unsupported stable asymmetry parameter theta={theta}")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if theta == 0.0 and alpha == 2.0:
        out = laplace_density(y_arr, 2.0)
    elif theta == 1.0 and alpha == 1.0:
        out = one_sided_exp_density(y_arr, 1.0)
    else:
        # at 0: (1/pi) int_0^inf dk / (1 + k^alpha), infinite for alpha <= 1
        at_zero = lambda: 1.0 / (alpha * math.sin(math.pi / alpha)) if alpha > 1.0 else math.inf
        out = _per_magnitude(lambda m: _mixture_points(m, alpha, theta), at_zero, y_arr,
                             theta == 1.0)
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
    return NessCurve(y, stable_mixture_density(y, alpha, theta))
