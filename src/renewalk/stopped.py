"""Laws of a recurrent counting process frozen at an independent stopping time.

The stopped count M(t) runs like the inner (recurrent) process until the
first event of an independent stopping process and keeps that value
forever.  A defective stopping law leaves mass 1 - Q_S on paths that are
never stopped, making M an intermediate process: it stops with
probability Q_S and runs forever with probability 1 - Q_S.  The state table
of M is the inner table frozen at S; its columns are running sums over the
inner law's columns (``renewal.state_columns``), without the stopped table.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import laws, renewal
from .errors import ParameterError
from .laws import INFINITY, _MASS_TOL, WaitingLaw, _window
from .renewal import INTERMEDIATE, TYPE_I, TYPE_II, StateTable


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
            raise ParameterError(
                f"stopping law mass must be in [0, 1], got {self.stop.defect_mass}"
            )
        _window(self.horizon)


def never_stop_prob(spec: StoppedSpec) -> float:
    """Probability that the stopped process never freezes: 1 - Q_S."""
    return 1.0 - spec.stop.defect_mass


def classify(spec: StoppedSpec) -> str:
    """TYPE_I if stopped almost surely, TYPE_II if never, else INTERMEDIATE."""
    if spec.stop.has_full_mass:
        return TYPE_I
    if spec.stop.defect_mass <= _MASS_TOL:
        return TYPE_II
    return INTERMEDIATE


def stopped_state_table(spec: StoppedSpec) -> StateTable:
    """P[M(t) = m] for 0 <= m, t <= horizon.

    P_m(t) = survival_S(t) P[N(t)=m] + sum_{r<=t} pmf_S(r) P[N(r)=m]; the
    survival term carries the not-yet-stopped (and never-stopped) paths, the
    partial sum the paths frozen at r.  Columns sum to one for every finite t
    whatever the stopping-law defect.
    """
    return StateTable(_frozen(spec.stop, renewal.state_table(spec.inner, spec.horizon).probs))


def stopped_columns(spec: StoppedSpec):
    """Yield column t of ``stopped_state_table(spec)``, rows m <= t, byte for byte, as a view
    the next overwrites: sum_(r<=t) pmf_S(r) P[N(r) = .] + surv_S(t) P[N(t) = .] over the inner
    ``renewal.state_columns``, in the table's order of sums; in O(T) memory where those step."""
    pmf, surv = spec.stop.pmf_vector(spec.horizon), spec.stop.survival_vector(spec.horizon)
    total, out = np.zeros(spec.horizon + 1), np.empty(spec.horizon + 1)
    for t, column in enumerate(renewal.state_columns(spec.inner, spec.horizon)):
        now, cell = total[: t + 1], out[: t + 1]
        now += np.multiply(column, pmf[t], out=cell)
        yield np.add(np.multiply(column, surv[t], out=cell), now, out=cell)


def stopped_column(spec: StoppedSpec, t: int) -> np.ndarray:
    """Column t of the stopped table, byte for byte: the last of ``stopped_columns`` to t."""
    return deque(stopped_columns(replace(spec, horizon=t)), 1)[0]


def stopped_moments(spec: StoppedSpec, order: int) -> np.ndarray:
    """Series E M(t) (order 1) or E M^2(t) (order 2) on [0, horizon]: the inner
    law's ``count_moments`` frozen at S; order 1 skips its pair density."""
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order}")
    if order == 1:
        return _frozen(spec.stop, np.cumsum(spec.inner.renewal_density(spec.horizon)))
    return _frozen(spec.stop, renewal.count_moments(spec.inner, spec.horizon)[1])


def _moment_pair(spec: StoppedSpec) -> tuple[np.ndarray, np.ndarray]:
    """E M(t) and E M^2(t) on [0, horizon] from one ``count_moments`` call."""
    return tuple(_frozen(spec.stop, m) for m in renewal.count_moments(spec.inner, spec.horizon))


_FREEZE_ROWS = 256


def _frozen(stop: WaitingLaw, series: np.ndarray) -> np.ndarray:
    """X(min(t, S)) = surv_S(t) X(t) + sum_{r<=t} pmf_S(r) X(r) along the last axis.

    Freezes the C-contiguous ``series`` in place and returns it, going
    through its rows ``_FREEZE_ROWS`` at a time, so the only scratch is one
    block of rows.
    """
    horizon = series.shape[-1] - 1
    pmf, surv = stop.pmf_vector(horizon), stop.survival_vector(horizon)
    rows = series.reshape(-1, horizon + 1)
    for start in range(0, len(rows), _FREEZE_ROWS):
        block = rows[start:start + _FREEZE_ROWS]
        frozen = pmf * block
        np.cumsum(frozen, axis=-1, out=frozen)
        block *= surv
        block += frozen
    return series


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

    def state_mass_sum(self) -> float:
        """Exact sum over all m: stored prefix plus geometric tail."""
        if self.state_masses is None:
            raise ParameterError("state_mass_sum needs state_masses, got None")
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
        raise ParameterError(f"stop defect mass must be in (0, 1], got {stop_defect}")
    if not inner.has_full_mass:
        raise ParameterError(f"inner law must be non-defective, got mass {inner.defect_mass}")
    p = 1.0 - q
    g = inner.gf(q)
    scale = stop_defect * (1.0 - g) / q
    # the least m >= 1 with scale g^m <= 1e-15, at most 200000
    m = 1
    if scale * g > 1e-15:
        m = min(math.ceil(math.log(1e-15 / scale) / math.log(g)), 200_000)
    masses = np.empty(m + 1)
    masses[0] = stop_defect * (q - g) / q
    masses[1:] = scale * g ** np.arange(1, m + 1)
    if stop_defect >= 1.0 - _MASS_TOL:
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
        raise ParameterError(f"sibuya index must be in (0, 1), got {mu}")
    if not 0.0 < p < 1.0:
        raise ParameterError(f"stopping success probability must be in (0, 1), got {p}")
    q = 1.0 - p
    pm = p**mu
    mean = (1.0 - pm) / (q * pm)
    second = (1.0 - pm) * (2.0 - pm) / (q * pm**2)
    variance = (1.0 - pm) * (q - p + pm * p) / (q**2 * pm**2)
    return AsymptoticSummary(mean, second, variance, never_stop_prob=0.0)


def bernoulli_stops_bernoulli(p: float, p_stop: float) -> AsymptoticSummary:
    """Closed-form limits for a Bernoulli count stopped by a Bernoulli process."""
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"inner success probability must be in (0, 1], got {p}")
    if not 0.0 < p_stop < 1.0:
        raise ParameterError(f"stopping success probability must be in (0, 1), got {p_stop}")
    q = 1.0 - p
    q_stop = 1.0 - p_stop
    mean = p / p_stop
    second = p * (1.0 + q_stop * (p - q)) / p_stop**2
    variance = p * (q + q_stop * (p - q)) / p_stop**2
    return AsymptoticSummary(mean, second, variance, never_stop_prob=0.0)


def poisson_stop(p: float, lam: float) -> AsymptoticSummary:
    """Closed-form limits for a Bernoulli count with 1 + Poisson(lam) stop."""
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"inner success probability must be in (0, 1], got {p}")
    if not 0.0 <= lam < math.inf:
        raise ParameterError(f"poisson rate must be in [0, inf), got {lam}")
    q = 1.0 - p
    mean = p * (lam + 1.0)
    second = p * (p * (lam + 1.0) ** 2 + lam + q)
    variance = p * (lam + q)
    return AsymptoticSummary(mean, second, variance, never_stop_prob=0.0)


def closed_form_limits(spec: StoppedSpec) -> AsymptoticSummary | None:
    """Closed-form infinite-time limits: any inner law under a (defective) geometric
    stop, a Bernoulli count under a shifted-Poisson stop; None for every other pair,
    and for a geometric stop of mass 0 or at t = 1, where those formulas are 0/0."""
    stop = spec.stop
    if isinstance(stop, (laws.Geometric, laws.DefectiveGeometric)):
        if stop.defect_mass == 0.0 or stop.p == 1.0:
            return None
        return geometric_stop_asymptotics(spec.inner, 1.0 - stop.p, stop.defect_mass)
    if isinstance(stop, laws.ShiftedPoisson) and isinstance(spec.inner, laws.Geometric):
        return poisson_stop(spec.inner.p, stop.lam)
    return None


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
        raise ParameterError(f"inner success probability must be in (0, 1), got {p0}")
    if not 0.0 < q < 1.0:
        raise ParameterError(f"stop failure probability must be in (0, 1), got {q}")
    if not 0.0 <= stop_defect <= 1.0:
        raise ParameterError(f"stop defect mass must be in [0, 1], got {stop_defect}")
    if horizon < 2:
        raise ParameterError(f"horizon must be >= 2 (lambda_max needs t >= 2), got {horizon}")
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


def brute_force_stopped_table(spec: StoppedSpec) -> StateTable:
    """Independent oracle for :func:`stopped_state_table` on small horizons.

    Exhausts every pair (inner event path, stopping time) jointly: paths are
    event-time subsets of {1..T}, the stopping time runs over {1..T} plus a
    single beyond-horizon bucket, and M(t) is read off each pair as the
    number of events up to min(t, stopping time).
    """
    horizon = spec.horizon
    if horizon > 16:
        raise ParameterError(f"exhaustive enumeration is for horizons <= 16, got {horizon}")
    stop_pmf = spec.stop.pmf_vector(horizon)
    beyond = spec.stop.survival_vector(horizon)[-1]
    probs = np.zeros((horizon + 1, horizon + 1))
    t_axis = np.arange(horizon + 1)
    paths = renewal.event_paths(
        spec.inner.pmf_vector(horizon), spec.inner.survival_vector(horizon)
    )
    for n_of_t, w in paths:
        for r in range(1, horizon + 1):
            wr = w * stop_pmf[r]
            if wr > 0.0:
                frozen = n_of_t[np.minimum(t_axis, r)]
                np.add.at(probs, (frozen, t_axis), wr)
        np.add.at(probs, (n_of_t, t_axis), w * beyond)
    return StateTable(probs)
