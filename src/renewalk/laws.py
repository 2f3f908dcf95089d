"""Waiting-time laws on {1, 2, ...}, possibly defective.

A law carries a total mass ``defect_mass`` in (0, 1]; the deficit
``1 - defect_mass`` is probability sitting at infinity, so a draw may
return the ``INFINITY`` sentinel.  ``has_full_mass`` is the one test of
whether that deficit is below float resolution.  A law is a series window
on t = 0..T: each family gives its pmf and survival there (``pmf_vector``,
``survival_vector``), its renewal and pair densities (``renewal_density``,
``pair_density``: series by default, closed forms for Geometric and
Sibuya), the Markov steps of the count of those two (``count_steps``), its
generating function and an exact sampler of
arrays of draws: CDF inversion (for geometric laws, of an exponential
variate), except for Sibuya draws, which are geometric with a
Beta-distributed success probability.  Laws without a defect skip the
draw that decides between a finite time and infinity.  The defective
families are one construction (``_Thinned``): a base law whose pmf is
scaled by ``defect``, with the rest of the mass at infinity and the base
law's own finite draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series
from .errors import ParameterError, QuadratureError

#: Distinguished value for a waiting time that never arrives.  Kept as the
#: IEEE infinity, never as a large integer, so defective sampling is exact.
INFINITY = math.inf

_MASS_TOL = 1e-12


def _geometric_draws(rng, n: int, p: float) -> np.ndarray:
    """``n`` Geometric(p) draws on {1, 2, ...} as floats, one variate each.

    W = ceil(E / -log(1-p)) with E standard exponential has P[W > t] =
    (1-p)^t (Devroye 1986, X.2).  numpy's own sampler searches draw by draw
    for p >= 1/3, at about 1/p uniforms per draw.  E = 0 would give 0, so
    W is kept at 1 or more; draws beyond the float range (p near the
    smallest float) are clamped, as infinity means "never arrives".
    """
    if p >= 1.0:
        return np.ones(n)
    w = rng.standard_exponential(n)
    with np.errstate(over="ignore"):
        w /= -math.log1p(-p)
    np.ceil(w, out=w)
    return np.clip(w, 1.0, np.finfo(float).max, out=w)


def _is_int(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _window(horizon: int) -> int:
    """The horizon T of a series on t = 0..T; T = 0 is the one-term series."""
    if not _is_int(horizon):
        raise ParameterError(f"horizon must be an integer >= 0, got {horizon}")
    if horizon < 0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}")
    return horizon


def _series(horizon: int, at_zero: float, closed_form) -> np.ndarray:
    """[at_zero, closed_form(t) for t = 1..T] on the window t = 0..T."""
    out = np.full(_window(horizon) + 1, at_zero)
    out[1:] = closed_form(np.arange(1, horizon + 1, dtype=float))
    return out


def _rising_series(a: float, horizon: int) -> np.ndarray:
    """(1 - u)^-a on t = 0..T: c(t) = a prod_{s=2..t} (1 - (1-a)/s), one rounding
    per factor; the first is a itself, which 1 - (1-a) would round for small a."""
    c = _series(horizon, 1.0, lambda t: 1.0 - (1.0 - a) / t)
    c[1:2] = a
    return np.cumprod(c, out=c)


class WaitingLaw:
    """Base interface; concrete families override the closed forms."""

    #: total probability mass on finite times, in (0, 1]
    defect_mass: float = 1.0

    @property
    def has_full_mass(self) -> bool:
        """True when the mass at infinity is below float resolution."""
        return self.defect_mass >= 1.0 - _MASS_TOL

    def pmf_vector(self, horizon: int) -> np.ndarray:
        """Series [0, pmf(1), ..., pmf(horizon)], horizon >= 0; never renormalized."""
        raise NotImplementedError

    def survival_vector(self, horizon: int) -> np.ndarray:
        """P[waiting time > t] for t = 0..horizon; tends to 1 - defect_mass."""
        raise NotImplementedError

    def tail_mass(self, horizon: int) -> float:
        """Finite mass above the horizon: defect_mass - sum(pmf[1..horizon])."""
        return float(self.survival_vector(horizon)[-1] - (1.0 - self.defect_mass))

    def renewal_density(self, horizon: int) -> np.ndarray:
        """h(t) = P[an event at t] on [0, horizon], whose running sum is E N(t):
        h = reciprocal(delta - pmf) - delta, as its generating function is gf / (1 - gf)."""
        delta = series.delta_series(horizon)
        return series.reciprocal(delta - self.pmf_vector(horizon)) - delta

    def pair_density(self, density: np.ndarray) -> np.ndarray:
        """h*h for this law's renewal density h: E #{event pairs s < s' = t}."""
        return series.convolve(density, density)

    def count_steps(self, horizon: int):
        """None, or where the count N is a Markov chain, the chances (stay, move) that N(t) = n
        stays or rises by one at t + 1, t < horizon: floats, or arrays over n <= t for one step."""
        return None

    def gf(self, u: float) -> float:
        """Generating function sum_t pmf(t) u^t on [0, 1]; returns the mass at u=1."""
        raise NotImplementedError

    def sample(self, rng, size: int) -> np.ndarray:
        """``size`` waiting times as floats; np.inf where a defective law never arrives."""
        if self.defect_mass >= 1.0:
            return self._sample_finite(rng, size)
        out = np.full(size, np.inf)
        finite = rng.random(size) < self.defect_mass
        k = int(finite.sum())
        if k:
            out[finite] = self._sample_finite(rng, k)
        return out

    def _sample_finite(self, rng, n: int) -> np.ndarray:
        """Draw ``n`` samples from the normalized law pmf / defect_mass."""
        raise NotImplementedError

    def _check_u(self, u: float) -> float:
        if not 0.0 <= u <= 1.0:
            raise ParameterError(f"generating function argument {u} outside [0, 1]")
        return float(u)


@dataclass(frozen=True)
class Geometric(WaitingLaw):
    """Success probability p per step; pmf(t) = p (1-p)^(t-1)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ParameterError(f"geometric p must be in (0, 1], got {self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    def pmf_vector(self, horizon: int) -> np.ndarray:
        return _series(horizon, 0.0, lambda t: self.p * self.q ** (t - 1.0))

    def survival_vector(self, horizon: int) -> np.ndarray:
        return self.q ** np.arange(_window(horizon) + 1, dtype=float)

    def renewal_density(self, horizon: int) -> np.ndarray:
        # 1 / (1 - gf) = (1 - qu) / (1 - u): an event at each step with chance p
        return _series(horizon, 0.0, lambda t: self.p)

    def pair_density(self, density: np.ndarray) -> np.ndarray:
        # (h*h)(t) = p^2 #{0 < s < t}
        return _series(len(density) - 1, 0.0, lambda t: self.p**2 * (t - 1.0))

    def count_steps(self, horizon: int):
        # the Bernoulli process: an event at each step with chance p
        return ((self.q, self.p) for _ in range(horizon))

    def gf(self, u: float) -> float:
        u = self._check_u(u)
        return self.p * u / (1.0 - self.q * u)

    def _sample_finite(self, rng, n):
        return _geometric_draws(rng, n, self.p)


@dataclass(frozen=True)
class Sibuya(WaitingLaw):
    """Fat-tailed law pmf(t) = (-1)^(t-1) C(mu, t), mu in (0, 1); infinite mean."""

    mu: float

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ParameterError(f"sibuya index must be in (0, 1), got {self.mu}")

    def pmf_vector(self, horizon: int) -> np.ndarray:
        # pmf(t) = surv(t-1) mu / t
        return _series(horizon, 0.0, lambda t: self.survival_vector(horizon)[:-1] * (self.mu / t))

    def survival_vector(self, horizon: int) -> np.ndarray:
        # (-1)^t C(mu-1, t) = prod_{s<=t} (1 - mu/s): one rounding per factor
        # keeps ~1e-15 relative, where exp of a gammaln difference loses 1e-12
        return _series(horizon, 1.0, lambda t: np.cumprod(1.0 - self.mu / t))

    def renewal_density(self, horizon: int) -> np.ndarray:
        # 1 / (1 - gf) = (1 - u)^-mu
        return _rising_series(self.mu, horizon) - series.delta_series(horizon)

    def pair_density(self, density: np.ndarray) -> np.ndarray:
        # g = h*h solves (1 - u) g' = 2 mu (g + h), as (1 - u) R' = mu R for R = 1 + h.
        # Solved through c = (1 - u)^-2mu: g(t) = c(t) sum_{s<t} 2 mu h(s) / (c(s)
        # (s + 2 mu)), nonnegative terms only, where c - 2 h - delta cancels.
        a = 2.0 * self.mu
        c = _rising_series(a, len(density) - 1)
        terms = a * density[:-1] / (c[:-1] * (np.arange(len(c) - 1) + a))
        return c * np.concatenate(([0.0], np.cumsum(terms)))

    def count_steps(self, horizon: int):
        # sum_t P[N(t) = n] u^t = G_n = gf^n (1 - u)^(mu - 1) solves (1 - u) G_n' = n mu
        # G_(n-1) + (1 - mu - n mu) G_n: from n at t, an event has chance mu (n + 1) / (t + 1).
        # Staying is (t - n) + (1 - mu)(n + 1); t + 1 - mu (n + 1) cancels for mu near 1.
        n = np.arange(_window(horizon) + 1.0)
        stays, moves = (1.0 - self.mu) * (n + 1.0), self.mu * (n + 1.0)
        stay = np.empty_like(n)
        for t in range(horizon):
            stay_t = np.add(n[t::-1], stays[: t + 1], out=stay[: t + 1])
            stay_t /= t + 1.0
            yield stay_t, moves[: t + 1] / (t + 1.0)

    def gf(self, u: float) -> float:
        u = self._check_u(u)
        return 1.0 - (1.0 - u) ** self.mu

    def _sample_finite(self, rng, n):
        # Geometric with a Beta(mu, 1-mu) success probability U, since
        # E (1-U)^t = G(t+1-mu)/(G(1-mu) G(t+1)) is the Sibuya survival
        # (Devroye 1993).  The geometric draw is floor(log(1-V)/log(1-U)) + 1.
        # U is kept above 0, where the ratio would be 0/0; U = 1 gives 1.
        # Draws beyond the float range are clamped, never made infinite:
        # infinity means "never arrives" and this law has no defect.  In place:
        u = rng.beta(self.mu, 1.0 - self.mu, n)
        t = rng.random(n)
        with np.errstate(divide="ignore", over="ignore"):
            np.log1p(np.negative(np.maximum(u, np.finfo(float).tiny, out=u), out=u), out=u)
            np.log1p(np.negative(t, out=t), out=t)
            np.floor(np.divide(t, u, out=t), out=t)
        t += 1.0
        return np.minimum(t, np.finfo(float).max, out=t)


@dataclass(frozen=True)
class ShiftedPoisson(WaitingLaw):
    """1 + Poisson(lam): pmf(t) = lam^(t-1) e^(-lam) / (t-1)! on t >= 1."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ParameterError(f"poisson rate must be in (0, inf), got {self.lam}")

    def pmf_vector(self, horizon: int) -> np.ndarray:
        from scipy.special import gammaln

        log_lam = math.log(self.lam)
        return _series(horizon, 0.0, lambda t: np.exp((t - 1.0) * log_lam - self.lam - gammaln(t)))

    def survival_vector(self, horizon: int) -> np.ndarray:
        # P[1 + Poisson > t] = P[Poisson >= t] = gammainc(t, lam) for t >= 1
        from scipy.special import gammainc

        return _series(horizon, 1.0, lambda t: gammainc(t, self.lam))

    def gf(self, u: float) -> float:
        u = self._check_u(u)
        return u * math.exp(self.lam * (u - 1.0))

    def _sample_finite(self, rng, n):
        return 1.0 + rng.poisson(self.lam, size=n).astype(float)


@dataclass(frozen=True)
class PowerLawBernstein(WaitingLaw):
    """Telescoping power-law family pmf(t) = (t-1+zeta)^-gamma - (t+zeta)^-gamma.

    Superposition of geometric laws against the gamma-type mixing density
    e^(-zeta x) x^(gamma-1) / Gamma(gamma); total mass zeta^-gamma, so the law
    is defective for zeta > 1.  Its pmf and survival are discrete completely
    monotone.
    """

    gamma: float
    zeta: float

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ParameterError(f"gamma must be in (0, inf), got {self.gamma}")
        if not 1.0 <= self.zeta < math.inf:
            raise ParameterError(f"zeta must be in [1, inf), got {self.zeta}")

    @property
    def defect_mass(self) -> float:
        return self.zeta ** (-self.gamma)

    def pmf_vector(self, horizon: int) -> np.ndarray:
        z, g = self.zeta, self.gamma
        return _series(horizon, 0.0, lambda t: (t - 1.0 + z) ** -g - (t + z) ** -g)

    def survival_vector(self, horizon: int) -> np.ndarray:
        t = np.arange(_window(horizon) + 1, dtype=float)
        return 1.0 - self.zeta ** (-self.gamma) + (t + self.zeta) ** (-self.gamma)

    def tail_mass(self, horizon: int) -> float:
        return float((horizon + self.zeta) ** (-self.gamma))

    def gf(self, u: float) -> float:
        # No closed form: truncated sum with tail bound u^T (T+zeta)^-gamma.
        u = self._check_u(u)
        if u == 1.0:
            return self.defect_mass
        cutoff = 64
        while (bound := u**cutoff * (cutoff + self.zeta) ** (-self.gamma)) > 1e-14:
            if cutoff == 2**22:
                raise QuadratureError(f"gf({u}): tail bound {bound:.2g} > 1e-14 at 2**22 terms")
            cutoff *= 2
        t = np.arange(1, cutoff + 1, dtype=float)
        return float(np.sum(self.pmf_vector(cutoff)[1:] * u**t))

    def _sample_finite(self, rng, n):
        """Conditional survival zeta^gamma (t+zeta)^-gamma inverted: zeta expm1(-log(u)/gamma).
        Draws beyond the float range (most of them for gamma near 0) are
        clipped to the largest float: infinity means "never arrives"."""
        t = rng.random(n)
        with np.errstate(divide="ignore", over="ignore"):
            np.log(t, out=t)
            t /= -self.gamma
            np.expm1(t, out=t)
            t *= self.zeta
        return np.clip(np.ceil(t, out=t), 1.0, np.finfo(float).max, out=t)


@dataclass(frozen=True)
class Tabulated(WaitingLaw):
    """Law given by an explicit finite pmf table for t = 1..len(table)."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float).ravel().copy()
        if table.size == 0:
            raise ParameterError("tabulated pmf must be nonempty")
        if not np.isfinite(table).all():
            bad = table[~np.isfinite(table)][0]
            raise ParameterError(f"tabulated pmf entries must be finite, got {bad}")
        if np.any(table < -_MASS_TOL):
            raise ParameterError(f"tabulated pmf has negative entries, got {table.min()}")
        table = np.clip(table, 0.0, None)
        if table.sum() > 1.0 + 1e-9:
            raise ParameterError(f"tabulated pmf mass {table.sum()} exceeds 1")
        object.__setattr__(self, "table", table)

    @property
    def defect_mass(self) -> float:
        return float(min(self.table.sum(), 1.0))

    def pmf_vector(self, horizon: int) -> np.ndarray:
        head = self.table[:horizon]
        return np.concatenate([[0.0], head, np.zeros(_window(horizon) - head.size)])

    def survival_vector(self, horizon: int) -> np.ndarray:
        # 1 - Q plus the entries above t, sums of nonnegative terms: 1 - cumsum(pmf)
        # rounds below 0 past the table
        above = np.zeros(_window(horizon) + 1)
        tails = np.cumsum(self.table[::-1])[::-1][: horizon + 1]
        above[: tails.size] = tails
        surv = np.minimum(1.0 - self.defect_mass + above, 1.0)
        surv[0] = 1.0
        return surv

    def tail_mass(self, horizon: int) -> float:
        return float(self.table[_window(horizon):].sum())

    def gf(self, u: float) -> float:
        u = self._check_u(u)
        t = np.arange(1, len(self.table) + 1, dtype=float)
        return float(np.sum(self.table * u**t))

    def _sample_finite(self, rng, n):
        cum = np.cumsum(self.table)
        u = rng.random(n) * cum[-1]
        return np.searchsorted(cum, u, side="right").astype(float) + 1.0


class _Thinned(WaitingLaw):
    """Base law thinned to total mass ``defect``; the rest sits at infinity.

    Subclasses are frozen dataclasses with fields ``defect`` and the base
    law's parameters.  ``_build_base`` runs once, after the ``defect``
    check, so the base law validates its own parameters.  ``defect`` = 0
    is the degenerate law with all mass at infinity.
    """

    def __post_init__(self):
        if not 0.0 <= self.defect <= 1.0:
            raise ParameterError(f"defect mass must be in [0, 1], got {self.defect}")
        object.__setattr__(self, "_base", self._build_base())

    @property
    def defect_mass(self) -> float:
        return self.defect

    def pmf_vector(self, horizon: int) -> np.ndarray:
        return self.defect * self._base.pmf_vector(horizon)

    def survival_vector(self, horizon: int) -> np.ndarray:
        return (1.0 - self.defect) + self.defect * self._base.survival_vector(horizon)

    def tail_mass(self, horizon: int) -> float:
        # the base law's own tail, where survival - (1 - defect) cancels
        return self.defect * self._base.tail_mass(horizon)

    def gf(self, u: float) -> float:
        return self.defect * self._base.gf(u)

    def _sample_finite(self, rng, n):
        return self._base._sample_finite(rng, n)


@dataclass(frozen=True)
class DefectiveGeometric(_Thinned):
    """Geometric thinned to total mass ``defect``; pmf(t) = defect * p (1-p)^(t-1)."""

    defect: float
    p: float

    def _build_base(self) -> Geometric:
        return Geometric(self.p)


@dataclass(frozen=True)
class DefectiveSibuya(_Thinned):
    """Sibuya law thinned to total mass ``defect``."""

    defect: float
    mu: float

    def _build_base(self) -> Sibuya:
        return Sibuya(self.mu)


def dcm_verify(values, n_max: int, tol: float = 1e-12):
    """Check discrete complete monotonicity: (-1)^n D^n f(t) >= -tol for t >= n.

    ``D`` is the backward difference f(t) - f(t-1).  Returns ``(True, None)``
    or ``(False, (n, t))`` with the earliest violating order and time.
    """
    g = np.asarray(values, dtype=float)
    horizon = len(g) - 1
    if n_max > horizon:
        raise ParameterError(f"n_max exceeds the series horizon, got n_max={n_max} "
                             f"for horizon {horizon}")
    for n in range(n_max + 1):
        # g[k] = D^n f(n + k), the window t >= n
        bad = np.flatnonzero((-1.0) ** n * g < -tol)
        if bad.size:
            return False, (n, n + int(bad[0]))
        g = np.diff(g)
    return True, None


_LAW_KINDS = {
    "geometric": (Geometric, ("p",)),
    "defective_geometric": (DefectiveGeometric, ("defect", "p")),
    "sibuya": (Sibuya, ("mu",)),
    "defective_sibuya": (DefectiveSibuya, ("defect", "mu")),
    "shifted_poisson": (ShiftedPoisson, ("lam",)),
    "power_law_bernstein": (PowerLawBernstein, ("gamma", "zeta")),
    "tabulated": (Tabulated, ("pmf",)),
}


def parse_config(text: str, kinds: dict, what: str) -> tuple[str, dict]:
    """Split ``kind:key=value,key=value`` into the kind and a dict of numbers.

    ``kinds`` maps each kind to a pair whose second entry names its keys; '-'
    and '_' in a kind are the same.  A ``pmf`` value is a list ``v1;v2;...``
    of numbers, every other value one number.  Unknown kinds and keys, items
    without '=' and values that are not numbers raise ParameterError.
    """
    given, _, params_text = text.strip().partition(":")
    given = given.strip().lower()
    kind = {k.replace("-", "_"): k for k in kinds}.get(given.replace("-", "_"))
    if kind is None:
        raise ParameterError(
            f"unknown {what} kind {given!r}; expected one of {sorted(kinds)}"
        )
    values = {}
    for item in params_text.split(",") if params_text.strip() else ():
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise ParameterError(f"malformed {what} parameter {item!r}")
        if key not in kinds[kind][1]:
            raise ParameterError(f"unknown parameter {key!r} for {what} {kind!r}")
        try:
            values[key] = (
                [float(v) for v in value.split(";") if v.strip()]
                if key == "pmf" else float(value)
            )
        except ValueError:
            raise ParameterError(
                f"parameter {key}={value.strip()!r} of {what} {kind!r} is not a number"
            ) from None
    return kind, values


def parse_law(text: str) -> WaitingLaw:
    """Build a law from a config string like ``geometric:p=0.7``.

    Format: ``kind:key=value,key=value`` (``parse_config``).  The tabulated
    kind takes ``pmf=v1;v2;...``.  Unknown kinds or keys are rejected.
    """
    kind, values = parse_config(text, _LAW_KINDS, "law")
    cls, names = _LAW_KINDS[kind]
    missing = [n for n in names if n not in values]
    if missing:
        raise ParameterError(f"law {kind!r} is missing parameters {missing}")
    return cls(*(values[name] for name in names))


def law_config(law: WaitingLaw) -> str:
    """Inverse of :func:`parse_law`: the config string of a law of any kind."""
    for kind, (cls, names) in _LAW_KINDS.items():
        if type(law) is cls:
            if cls is Tabulated:
                return "tabulated:pmf=" + ";".join(repr(float(v)) for v in law.table)
            return f"{kind}:" + ",".join(f"{name}={getattr(law, name)}" for name in names)
    raise ParameterError(f"no config form for {type(law).__name__}")
