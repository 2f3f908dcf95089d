"""Laws of a recurrent counting process frozen at an independent stopping time.

The stopped count M(t) runs like the inner (recurrent) process until the
first event of an independent stopping process and keeps that value
forever.  A defective stopping law leaves mass 1 - Q_S on paths that are
never stopped, making M an intermediate process: it stops with
probability Q_S and runs forever with probability 1 - Q_S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import renewal
from .errors import ParameterError
from .laws import INFINITY, Tabulated, WaitingLaw
from .renewal import INTERMEDIATE, TYPE_I, TYPE_II, StateTable

#: float-safe boundary for the never-stop probability and the stop mass Q_S
_FULL_MASS_TOL = 1e-12


@dataclass(frozen=True)
class StoppedSpec:
    """Inner (non-defective) waiting law, stopping waiting law, horizon."""

    inner: WaitingLaw
    stop: WaitingLaw
    horizon: int

    def __post_init__(self):
        if not self.inner.has_full_mass:
            raise ParameterError(
                "inner law must be non-defective "
                f"(mass {self.inner.defect_mass}); only the stopping law may be"
            )
        if not 0.0 <= self.stop.defect_mass <= 1.0:
            raise ParameterError("stopping law mass outside [0, 1]")
        if self.horizon < 0:
            raise ParameterError("horizon must be >= 0")


def never_stop_prob(spec: StoppedSpec) -> float:
    """Probability that the stopped process never freezes: 1 - Q_S."""
    return 1.0 - spec.stop.defect_mass


def classify(spec: StoppedSpec) -> str:
    """TYPE_I if stopped almost surely, TYPE_II if never, else INTERMEDIATE."""
    lam = never_stop_prob(spec)
    if lam <= _FULL_MASS_TOL:
        return TYPE_I
    if lam >= 1.0 - _FULL_MASS_TOL:
        return TYPE_II
    return INTERMEDIATE


def stopped_state_table(spec: StoppedSpec) -> StateTable:
    """P[M(t) = m] for 0 <= m, t <= horizon.

    P_m(t) = survival_S(t) P[N(t)=m] + sum_{r<=t} pmf_S(r) P[N(r)=m]; the
    survival term carries the not-yet-stopped (and never-stopped) paths, the
    partial sum the paths frozen at r.  Columns sum to one for every finite t
    whatever the stopping-law defect.
    """
    horizon = spec.horizon
    inner = renewal.state_table(spec.inner, horizon)
    if horizon == 0:
        return StateTable(np.ones((1, 1)))
    stop_pmf = spec.stop.pmf_vector(horizon)
    stop_surv = spec.stop.survival_vector(horizon)
    frozen = np.cumsum(inner.probs * stop_pmf[None, :], axis=1)
    probs = inner.probs * stop_surv[None, :] + frozen
    return StateTable(probs)


def stopped_moments(spec: StoppedSpec, order: int) -> np.ndarray:
    """Series E M(t) (order 1) or E M^2(t) (order 2) on [0, horizon]."""
    if order not in (1, 2):
        raise ParameterError("order must be 1 or 2")
    return _moment_pair(spec)[order - 1]


def _moment_pair(spec: StoppedSpec) -> tuple[np.ndarray, np.ndarray]:
    """E M(t) and E M^2(t) on [0, horizon] from one ``count_moments`` call."""
    horizon = max(spec.horizon, 1)
    stop_pmf = spec.stop.pmf_vector(horizon)
    stop_surv = spec.stop.survival_vector(horizon)
    return tuple(
        (stop_surv * inner + np.cumsum(stop_pmf * inner))[: spec.horizon + 1]
        for inner in renewal.count_moments(spec.inner, horizon)
    )


@dataclass(frozen=True)
class AsymptoticSummary:
    """Infinite-time limits of a stopped process.

    ``state_masses`` holds P[M(infinity) = m] for m up to the point where the
    geometric tail drops below 1e-15; the analytic tail ratio is kept so sums
    stay exact.  The masses total Q_S: the missing 1 - Q_S sits on paths that
    never freeze.  Moments are infinite when the stopping law is defective.
    """

    mean: float
    second_moment: float
    variance: float
    never_stop_prob: float
    state_masses: np.ndarray | None = None
    tail_ratio: float | None = None
    state_mass_total: float = 1.0

    def state_mass(self, m: int) -> float:
        """P[M(infinity) = m] from the stored prefix or the analytic tail."""
        if self.state_masses is None:
            raise ParameterError("no state-mass representation for this summary")
        if m < len(self.state_masses):
            return float(self.state_masses[m])
        last = len(self.state_masses) - 1
        return float(self.state_masses[last] * self.tail_ratio ** (m - last))

    def state_mass_sum(self) -> float:
        """Exact sum over all m: stored prefix plus geometric tail."""
        if self.state_masses is None:
            raise ParameterError("no state-mass representation for this summary")
        head = float(self.state_masses[:-1].sum())
        tail = float(self.state_masses[-1] / (1.0 - self.tail_ratio))
        return head + tail


def geometric_stop_asymptotics(
    inner: WaitingLaw, q: float, stop_defect: float = 1.0
) -> AsymptoticSummary:
    """Infinite-time law of M for a (possibly defective) geometric stopping time.

    With g = inner_gf(q) the limiting state probabilities are

        P_0(inf) = Q_S (q - g) / q,     P_m(inf) = Q_S (1 - g) g^m / q  (m >= 1)

    and for a non-defective stop (Q_S = 1) the moments are

        E M(inf)   = g / (q (1 - g)),
        E M^2(inf) = E M(inf) (1 + g) / (1 - g),
        Var M(inf) = g (q - p g) / (q^2 (1 - g)^2).

    A defective stop leaves the process unfrozen with probability 1 - Q_S, so
    all infinite-time moments diverge.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"failure probability q must be in (0, 1), got {q}")
    if not 0.0 < stop_defect <= 1.0:
        raise ParameterError("stop defect mass must be in (0, 1]")
    if not inner.has_full_mass:
        raise ParameterError("inner law must be non-defective")
    p = 1.0 - q
    g = inner.gf(q)
    head = [stop_defect * (q - g) / q]
    scale = stop_defect * (1.0 - g) / q
    m = 1
    while scale * g**m > 1e-15 and m < 200_000:
        m += 1
    masses = np.empty(m + 1)
    masses[0] = head[0]
    masses[1:] = scale * g ** np.arange(1, m + 1)
    if stop_defect >= 1.0 - _FULL_MASS_TOL:
        mean = g / (q * (1.0 - g))
        second = mean * (1.0 + g) / (1.0 - g)
        variance = g * (q - p * g) / (q**2 * (1.0 - g) ** 2)
    else:
        mean = second = variance = INFINITY
    return AsymptoticSummary(
        mean=mean,
        second_moment=second,
        variance=variance,
        never_stop_prob=1.0 - stop_defect,
        state_masses=masses,
        tail_ratio=g,
        state_mass_total=stop_defect,
    )


def bernoulli_stops_sibuya(mu: float, p: float) -> AsymptoticSummary:
    """Closed-form limits for a Sibuya count stopped by a Bernoulli process."""
    if not 0.0 < mu < 1.0:
        raise ParameterError("sibuya index must be in (0, 1)")
    if not 0.0 < p < 1.0:
        raise ParameterError("stopping success probability must be in (0, 1)")
    q = 1.0 - p
    pm = p**mu
    mean = (1.0 - pm) / (q * pm)
    second = (1.0 - pm) * (2.0 - pm) / (q * pm**2)
    variance = (1.0 - pm) * (q - p + pm * p) / (q**2 * pm**2)
    return AsymptoticSummary(mean, second, variance, never_stop_prob=0.0)


def bernoulli_stops_bernoulli(p: float, p_stop: float) -> AsymptoticSummary:
    """Closed-form limits for a Bernoulli count stopped by a Bernoulli process."""
    if not 0.0 < p <= 1.0:
        raise ParameterError("inner success probability must be in (0, 1]")
    if not 0.0 < p_stop < 1.0:
        raise ParameterError("stopping success probability must be in (0, 1)")
    q = 1.0 - p
    q_stop = 1.0 - p_stop
    mean = p / p_stop
    second = p * (1.0 + q_stop * (p - q)) / p_stop**2
    variance = p * (q + q_stop * (p - q)) / p_stop**2
    return AsymptoticSummary(mean, second, variance, never_stop_prob=0.0)


def poisson_stop(p: float, lam: float) -> AsymptoticSummary:
    """Closed-form limits for a Bernoulli count with 1 + Poisson(lam) stop."""
    if not 0.0 < p <= 1.0:
        raise ParameterError("inner success probability must be in (0, 1]")
    if not lam >= 0.0:
        raise ParameterError("poisson rate must be >= 0")
    q = 1.0 - p
    mean = p * (lam + 1.0)
    second = p * (p * (lam + 1.0) ** 2 + lam + q)
    variance = p * (lam + q)
    return AsymptoticSummary(mean, second, variance, never_stop_prob=0.0)


@dataclass(frozen=True)
class BernoulliStopSummary:
    """Closed-form finite-time series for a Bernoulli count with a defective
    geometric stop: moments, variance, and the fluctuation-maximizing
    never-stop probability over time."""

    p0: float
    q: float
    stop_defect: float
    mean: np.ndarray
    second_moment: np.ndarray
    variance: np.ndarray
    lambda_max: np.ndarray

    def state_polynomial(self, v, t):
        """E v^M(t); v and t broadcast, v may be complex."""
        v = np.asarray(v)
        t = np.asarray(t)
        p0, q, qs = self.p0, self.q, self.stop_defect
        lam = 1.0 - qs
        p = 1.0 - q
        a = (1.0 - p0) + p0 * v
        return lam * a**t + qs / (1.0 - q * a) * (p * a + (1.0 - a) * (q * a) ** t)


def dbp_stops_bernoulli(
    p0: float, q: float, stop_defect: float, horizon: int
) -> BernoulliStopSummary:
    """Closed-form law of a Bernoulli(p0) count stopped by a defective
    geometric time of pmf Q_S p q^(t-1).

    The mean splits into a ballistic never-stopped part and a saturating
    stopped part, E M(t) = (1-Q_S) p0 t + Q_S (p0/p)(1 - q^t); the variance
    grows like (1-Q_S) Q_S p0^2 t^2 and is maximized over the defect at the
    time-dependent value ``lambda_max`` which approaches 1/2.
    """
    if not 0.0 < p0 < 1.0:
        raise ParameterError("inner success probability must be in (0, 1)")
    if not 0.0 < q < 1.0:
        raise ParameterError("stop failure probability must be in (0, 1)")
    if not 0.0 <= stop_defect <= 1.0:
        raise ParameterError("stop defect mass must be in [0, 1]")
    if horizon < 2:
        raise ParameterError("horizon must be >= 2 (lambda_max needs t >= 2)")
    p = 1.0 - q
    q0 = 1.0 - p0
    lam = 1.0 - stop_defect
    t = np.arange(horizon + 1, dtype=float)
    qt = q**t
    b = (p0 / p) * (1.0 - qt)
    c = (2.0 * p0**2 * q / p**2) * (1.0 - qt - p * t * q ** np.maximum(t - 1.0, 0.0)) + (
        p0 / p
    ) * (1.0 - qt)
    free_mean = p0 * t
    free_second = p0**2 * t**2 + p0 * q0 * t
    mean = lam * free_mean + stop_defect * b
    second = lam * free_second + stop_defect * c
    variance = (
        c
        - b**2
        + lam * (2.0 * b * (b - free_mean) - c + free_second)
        - lam**2 * (free_mean - b) ** 2
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        lambda_max = (free_second - c + 2.0 * b * (b - free_mean)) / (
            2.0 * (free_mean - b) ** 2
        )
    lambda_max[:2] = np.nan
    return BernoulliStopSummary(
        p0=p0,
        q=q,
        stop_defect=stop_defect,
        mean=mean,
        second_moment=second,
        variance=variance,
        lambda_max=lambda_max,
    )


def discounted_inner_law(inner: WaitingLaw, q: float, horizon: int) -> Tabulated:
    """Auxiliary defective waiting law pmf(t) = q^t inner_pmf(t).

    This is the renewal process that governs the large-time behavior of a
    geometrically stopped count; its total mass is inner_gf(q) < 1.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError("discount factor q must be in (0, 1)")
    t = np.arange(1, horizon + 1, dtype=float)
    return Tabulated(np.asarray(inner.pmf(t)) * q**t)


def brute_force_stopped_table(spec: StoppedSpec) -> StateTable:
    """Independent oracle for :func:`stopped_state_table` on small horizons.

    Exhausts every pair (inner event path, stopping time) jointly: paths are
    event-time subsets of {1..T}, the stopping time runs over {1..T} plus a
    single beyond-horizon bucket, and M(t) is read off each pair as the
    number of events up to min(t, stopping time).
    """
    horizon = spec.horizon
    if horizon > 16:
        raise ParameterError("exhaustive enumeration is for horizons <= 16")
    if horizon == 0:
        return StateTable(np.ones((1, 1)))
    inner_pmf = spec.inner.pmf_vector(horizon)
    inner_surv = spec.inner.survival_vector(horizon)
    stop_pmf = spec.stop.pmf_vector(horizon)
    beyond = spec.stop.survival_vector(horizon)[-1]
    probs = np.zeros((horizon + 1, horizon + 1))
    t_axis = np.arange(horizon + 1)

    def walk(events: list, weight: float) -> None:
        last = events[-1] if events else 0
        w = weight * inner_surv[horizon - last]
        n_of_t = np.searchsorted(events, t_axis, side="right")
        for r in range(1, horizon + 1):
            wr = w * stop_pmf[r]
            if wr > 0.0:
                frozen = n_of_t[np.minimum(t_axis, r)]
                np.add.at(probs, (frozen, t_axis), wr)
        np.add.at(probs, (n_of_t, t_axis), w * beyond)
        for nxt in range(last + 1, horizon + 1):
            w_next = weight * inner_pmf[nxt - last]
            if w_next > 0.0:
                events.append(nxt)
                walk(events, w_next)
                events.pop()

    walk([], 1.0)
    return StateTable(probs)


def renewal_equation_residual(values, zero_state, kernel, v) -> np.ndarray:
    """Residual of the renewal identity for a state polynomial sequence.

    For a genuine renewal process with waiting pmf ``kernel`` the state
    polynomial satisfies values[t] = zero_state[t] + v sum_{r<=t} kernel[r]
    values[t-r]; the returned residual is zero.  The stopped process is not
    a renewal process, so its polynomial leaves a visible residual.
    """
    values = np.asarray(values)
    zero_state = np.asarray(zero_state)
    kernel = np.asarray(kernel, dtype=float)
    if not (len(values) == len(zero_state) == len(kernel)):
        raise ParameterError("series lengths differ")
    if kernel[0] != 0.0:
        raise ParameterError("kernel must be a waiting pmf with kernel[0] = 0")
    conv = np.convolve(kernel, values)[: len(values)]
    return values - zero_state - v * conv
