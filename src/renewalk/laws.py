"""Waiting-time laws on {1, 2, ...}, possibly defective.

A law carries a total mass ``defect_mass`` in (0, 1]; the deficit
``1 - defect_mass`` is probability sitting at infinity, so a draw may
return the ``INFINITY`` sentinel.  ``has_full_mass`` is the one test of
whether that deficit is below float resolution.  Each family exposes its
pmf, a closed-form generating-function evaluation where one exists, a
closed-form survival, and an exact sampler: CDF inversion (for geometric
laws, of an exponential variate), except for Sibuya draws, which are
geometric with a Beta-distributed success probability.  Laws without a
defect skip the draw that decides between a finite time and infinity.
The defective families are one construction (``_Thinned``): a base law
whose pmf is scaled by ``defect``, with the rest of the mass at infinity
and the base law's own finite draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import ParameterError

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


class WaitingLaw:
    """Base interface; concrete families override the closed forms."""

    #: total probability mass on finite times, in (0, 1]
    defect_mass: float = 1.0

    @property
    def has_full_mass(self) -> bool:
        """True when the mass at infinity is below float resolution."""
        return self.defect_mass >= 1.0 - _MASS_TOL

    def pmf(self, t):
        """Probability of waiting exactly ``t`` steps (vectorized, 0 for t < 1)."""
        raise NotImplementedError

    def pmf_vector(self, horizon: int) -> np.ndarray:
        """Series [0, pmf(1), ..., pmf(horizon)]; never renormalized."""
        if horizon < 1:
            raise ParameterError("pmf_vector needs horizon >= 1")
        t = np.arange(horizon + 1)
        out = np.asarray(self.pmf(t), dtype=float)
        out[0] = 0.0
        return out

    def survival_vector(self, horizon: int) -> np.ndarray:
        """P[waiting time > t] for t = 0..horizon; tends to 1 - defect_mass."""
        return 1.0 - np.cumsum(self.pmf_vector(horizon))

    def tail_mass(self, horizon: int) -> float:
        """Finite mass above the horizon: defect_mass - sum(pmf[1..horizon])."""
        return float(self.survival_vector(horizon)[-1] - (1.0 - self.defect_mass))

    def gf(self, u: float) -> float:
        """Generating function sum_t pmf(t) u^t on [0, 1]; returns the mass at u=1."""
        raise NotImplementedError

    def sample(self, rng, size=None):
        """Draw waiting times; INFINITY (scalar) / np.inf (array) when defective."""
        if size is None:
            draw = float(self.sample(rng, 1)[0])
            return INFINITY if draw == INFINITY else int(draw)
        n = int(size)
        if self.defect_mass >= 1.0:
            return self._sample_finite(rng, n)
        out = np.full(n, np.inf)
        finite = rng.random(n) < self.defect_mass
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

    defect_mass = 1.0

    @property
    def q(self) -> float:
        return 1.0 - self.p

    def pmf(self, t):
        t = np.asarray(t)
        with np.errstate(invalid="ignore"):
            vals = np.where(t >= 1, self.p * self.q ** np.maximum(t - 1, 0), 0.0)
        return vals

    def survival_vector(self, horizon: int) -> np.ndarray:
        return self.q ** np.arange(horizon + 1, dtype=float)

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

    defect_mass = 1.0

    def pmf(self, t):
        # mu * G(t - mu) / (G(1 - mu) G(t + 1)), stable for any t
        t = np.asarray(t, dtype=float)
        safe = np.maximum(t, 1.0)
        logp = (
            math.log(self.mu)
            + gammaln(safe - self.mu)
            - gammaln(1.0 - self.mu)
            - gammaln(safe + 1.0)
        )
        return np.where(t >= 1, np.exp(logp), 0.0)

    def pmf_vector(self, horizon: int) -> np.ndarray:
        if horizon < 1:
            raise ParameterError("pmf_vector needs horizon >= 1")
        # pmf(t) = surv(t-1) mu / t
        out = np.zeros(horizon + 1)
        out[1:] = self.survival_vector(horizon - 1) * (self.mu / np.arange(1, horizon + 1))
        return out

    def survival_vector(self, horizon: int) -> np.ndarray:
        # (-1)^t C(mu-1, t) = prod_{s<=t} (1 - mu/s): one rounding per factor
        # keeps ~1e-15 relative, where exp of a gammaln difference loses 1e-12
        out = np.ones(horizon + 1)
        out[1:] = np.cumprod(1.0 - self.mu / np.arange(1, horizon + 1))
        return out

    def gf(self, u: float) -> float:
        u = self._check_u(u)
        return 1.0 - (1.0 - u) ** self.mu

    def _sample_finite(self, rng, n):
        # Geometric with a Beta(mu, 1-mu) success probability U, since
        # E (1-U)^t = G(t+1-mu)/(G(1-mu) G(t+1)) is the Sibuya survival
        # (Devroye 1993).  The geometric draw is floor(log(1-V)/log(1-U)) + 1.
        # U is kept above 0, where the ratio would be 0/0; U = 1 gives 1.
        # Draws beyond the float range are clamped, never made infinite:
        # infinity means "never arrives" and this law has no defect.
        u = np.maximum(rng.beta(self.mu, 1.0 - self.mu, n), np.finfo(float).tiny)
        v = rng.random(n)
        with np.errstate(divide="ignore", over="ignore"):
            t = np.floor(np.log1p(-v) / np.log1p(-u)) + 1.0
        return np.minimum(t, np.finfo(float).max)


@dataclass(frozen=True)
class ShiftedPoisson(WaitingLaw):
    """1 + Poisson(lam): pmf(t) = lam^(t-1) e^(-lam) / (t-1)! on t >= 1."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ParameterError(f"poisson rate must be positive, got {self.lam}")

    defect_mass = 1.0

    def pmf(self, t):
        t = np.asarray(t, dtype=float)
        safe = np.maximum(t, 1.0)
        logp = (safe - 1.0) * math.log(self.lam) - self.lam - gammaln(safe)
        return np.where(t >= 1, np.exp(logp), 0.0)

    def survival_vector(self, horizon: int) -> np.ndarray:
        # P[1 + Poisson > t] = P[Poisson >= t] = gammainc(t, lam) for t >= 1
        out = np.empty(horizon + 1)
        out[0] = 1.0
        if horizon >= 1:
            out[1:] = gammainc(np.arange(1, horizon + 1, dtype=float), self.lam)
        return out

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
        if not self.gamma > 0.0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")
        if not self.zeta >= 1.0:
            raise ParameterError(f"zeta must be >= 1, got {self.zeta}")

    @property
    def defect_mass(self) -> float:
        return self.zeta ** (-self.gamma)

    def pmf(self, t):
        t = np.asarray(t, dtype=float)
        # t < 1 would put (t - 1 + zeta) near 0 and overflow the power
        safe = np.maximum(t, 1.0)
        vals = (safe - 1.0 + self.zeta) ** (-self.gamma) - (safe + self.zeta) ** (
            -self.gamma
        )
        return np.where(t >= 1, vals, 0.0)

    def survival_vector(self, horizon: int) -> np.ndarray:
        t = np.arange(horizon + 1, dtype=float)
        return 1.0 - self.zeta ** (-self.gamma) + (t + self.zeta) ** (-self.gamma)

    def tail_mass(self, horizon: int) -> float:
        return float((horizon + self.zeta) ** (-self.gamma))

    def gf(self, u: float) -> float:
        # No closed form: truncated sum with tail bound u^T (T+zeta)^-gamma.
        u = self._check_u(u)
        if u == 0.0:
            return 0.0
        if u >= 1.0 - _MASS_TOL:
            return self.defect_mass
        cutoff = 64
        while u**cutoff * (cutoff + self.zeta) ** (-self.gamma) > 1e-14 and cutoff < 2**22:
            cutoff *= 2
        t = np.arange(1, cutoff + 1, dtype=float)
        return float(np.sum(self.pmf(t) * u**t))

    def _sample_finite(self, rng, n):
        # Conditional survival zeta^gamma (t+zeta)^-gamma inverts in closed form.
        u = rng.random(n)
        t = np.ceil(self.zeta * (u ** (-1.0 / self.gamma) - 1.0))
        return np.maximum(t, 1.0)


@dataclass(frozen=True)
class Tabulated(WaitingLaw):
    """Law given by an explicit finite pmf table for t = 1..len(table)."""

    table: np.ndarray = field(default_factory=lambda: np.array([1.0]))

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float).ravel().copy()
        if table.size == 0:
            raise ParameterError("tabulated pmf must be nonempty")
        if np.any(table < -_MASS_TOL):
            raise ParameterError("tabulated pmf has negative entries")
        table = np.clip(table, 0.0, None)
        if table.sum() > 1.0 + 1e-9:
            raise ParameterError(f"tabulated pmf mass {table.sum()} exceeds 1")
        object.__setattr__(self, "table", table)

    @property
    def defect_mass(self) -> float:
        return float(min(self.table.sum(), 1.0))

    def pmf(self, t):
        t = np.asarray(t)
        rounded = np.rint(t).astype(np.int64)
        idx = np.clip(rounded - 1, 0, len(self.table) - 1)
        inside = (t == rounded) & (rounded >= 1) & (rounded <= len(self.table))
        return np.where(inside, self.table[idx], 0.0)

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

    def pmf(self, t):
        return self.defect * self._base.pmf(t)

    def pmf_vector(self, horizon: int) -> np.ndarray:
        return self.defect * self._base.pmf_vector(horizon)

    def survival_vector(self, horizon: int) -> np.ndarray:
        return (1.0 - self.defect) + self.defect * self._base.survival_vector(horizon)

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

    @property
    def q(self) -> float:
        return 1.0 - self.p


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
    g = np.asarray(values, dtype=float).copy()
    horizon = len(g) - 1
    if n_max > horizon:
        raise ParameterError("n_max exceeds the series horizon")
    for n in range(n_max + 1):
        sign = 1.0 if n % 2 == 0 else -1.0
        bad = np.nonzero(sign * g[n:] < -tol)[0]
        if bad.size:
            return False, (n, n + int(bad[0]))
        if n < n_max:
            g[1:] = g[1:] - g[:-1]
            # g[0] is D^n f at t=0 with the causal convention f(t<0)=0; it sits
            # outside the checked window t >= n+1 next round only when n+1 > 0,
            # so leave it in place.
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


def parse_law(text: str) -> WaitingLaw:
    """Build a law from a config string like ``geometric:p=0.7``.

    Format: ``kind:key=value,key=value``.  The tabulated kind takes
    ``pmf=v1;v2;...``.  Unknown kinds or keys are rejected.
    """
    text = text.strip()
    kind, _, params_text = text.partition(":")
    kind = kind.strip().lower().replace("-", "_")
    if kind not in _LAW_KINDS:
        raise ParameterError(
            f"unknown law kind {kind!r}; expected one of {sorted(_LAW_KINDS)}"
        )
    cls, names = _LAW_KINDS[kind]
    kwargs = {}
    if params_text.strip():
        for item in params_text.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise ParameterError(f"malformed law parameter {item!r}")
            if key not in names:
                raise ParameterError(f"unknown parameter {key!r} for law {kind!r}")
            if key == "pmf":
                kwargs["table"] = np.array(
                    [float(v) for v in value.split(";") if v.strip()]
                )
            else:
                kwargs[key] = float(value)
    missing = [n for n in names if n != "pmf" and n not in kwargs]
    if kind == "tabulated" and "table" not in kwargs:
        missing.append("pmf")
    if missing:
        raise ParameterError(f"law {kind!r} is missing parameters {missing}")
    return cls(**kwargs)


def law_config(law: WaitingLaw) -> str:
    """Inverse of :func:`parse_law`: the config string of a law of any kind."""
    for kind, (cls, names) in _LAW_KINDS.items():
        if type(law) is cls:
            if cls is Tabulated:
                return "tabulated:pmf=" + ";".join(repr(float(v)) for v in law.table)
            return f"{kind}:" + ",".join(f"{name}={getattr(law, name)}" for name in names)
    raise ParameterError(f"no config form for {type(law).__name__}")
