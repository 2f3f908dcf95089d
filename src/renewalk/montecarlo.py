"""Path-level simulation of stopped counts and walks: the universal
independent oracle for every exact law in the package.

Replicas are split into the fewest equal chunks of at most 65536, each
driven by its own counter-derived random stream, and each chunk fills its
rows of one result.  Outputs therefore depend only on (seed, replicas,
request), never on the worker count, which makes seeded runs
byte-reproducible; by default the chunks run on every CPU the process may
use.  As M(t) = N(min(t, S)), one driver (``_capped_runs``) draws and caps
every stopping time.

A Geometric(p) inner stream is the Bernoulli(p) process, so its count
within a cap c is one Binomial(c, p) draw, and its path marks each step
1..c with an event independently with chance p.  This is the one closed
form used here, and no exact table uses it, so Monte Carlo stays
independent of the series code.  Every other inner law runs one event loop
(``_events``): each pass spends one waiting time from the budget (cap minus
last event time) of every replica still within its cap.  Paths write their
event marks in one step-major int32 buffer and sum it in place, one
contiguous step row at a time.  A walk draws the steps of its M events as
one multinomial count per step kind, which is the sum of M IID steps in law.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InconclusiveRunError, ParameterError
from .laws import INFINITY, _MASS_TOL, Geometric, WaitingLaw, _is_int, _window
from .stopped import StoppedSpec
from .walks import StepLaw

_CHUNK = 1 << 16


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SimConfig:
    """Replica count, horizon cap, seed, and worker count for one experiment;
    the workers default to the CPUs the process may run on."""

    seed: int
    replicas: int
    horizon: int = 512
    workers: int = field(default_factory=_available_cpus)

    def __post_init__(self):
        if not _is_int(self.seed) or self.seed < 0:
            raise ParameterError(f"seed must be an integer >= 0, got {self.seed}")
        if not _is_int(self.replicas) or self.replicas < 1:
            raise ParameterError(f"replicas must be an integer >= 1, got {self.replicas}")
        # paths hold their counts, which never exceed the horizon, as int32
        if _window(self.horizon) > np.iinfo(np.int32).max:
            raise ParameterError(f"horizon must be <= 2**31 - 1, got {self.horizon}")
        if not _is_int(self.workers) or self.workers < 1:
            raise ParameterError(f"workers must be an integer >= 1, got {self.workers}")


def _run_chunks(cfg: SimConfig, worker):
    """Run ``worker(rng, rows)`` per chunk, returning results in chunk order.

    R replicas make k = ceil(R / 65536) chunks of equal size (give or take
    one): chunk i holds rows [R*i // k, R*(i+1) // k) and draws from the
    counter-derived stream ``SeedSequence((seed, i))``, so a worker may fill
    its rows of a shared result.  The chunks run on min(workers, k) threads.
    """
    count = -(-cfg.replicas // _CHUNK)
    bounds = [cfg.replicas * idx // count for idx in range(count + 1)]
    chunks = [
        (np.random.default_rng(np.random.SeedSequence((cfg.seed, idx))),
         slice(bounds[idx], bounds[idx + 1]))
        for idx in range(count)
    ]
    threads = min(cfg.workers, count)
    if threads == 1:
        return [worker(rng, rows) for rng, rows in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, *zip(*chunks)))


def _events(law: WaitingLaw, caps: np.ndarray, rng):
    """Yield ``(active, left)`` for each successive event at a time <= caps.

    Pass k holds the k-th event of every replica that has one within its
    cap: ``active`` indexes those replicas and ``left`` = caps - event time
    is their budget.  Each pass spends one waiting time per active replica.
    """
    left = caps - law.sample(rng, len(caps))
    active = np.nonzero(left >= 0)[0]
    left = left[active]
    while active.size:
        yield active, left
        left -= law.sample(rng, active.size)
        keep = left >= 0
        active, left = active[keep], left[keep]


def _renewal_count(law: WaitingLaw, caps: np.ndarray, rng, counts: np.ndarray):
    """Fill the zeroed ``counts`` with the events of a renewal stream with
    waiting law ``law`` within [0, caps].

    A Geometric(p) stream has an event at each step independently with
    chance p (Devroye 1986, X.2), so its count is one Binomial(cap, p) draw
    per replica; any other law runs the event loop.
    """
    if type(law) is Geometric:
        counts[:] = rng.binomial(caps.astype(np.int64), law.p)
        return
    # the replicas of pass k are those with at least k events
    for k, (active, _) in enumerate(_events(law, caps, rng), 1):
        counts[active] = k


def _capped_runs(spec: StoppedSpec, cfg: SimConfig, t_obs, count):
    """Run ``count(rng, caps, rows)`` per chunk with caps = min(S, t_obs).

    The one place that draws the stopping times S, first in each chunk's
    stream, for paths, values and walk endpoints alike.  At t_obs = INFINITY,
    S is capped at cfg.horizon; if more than one replica in a thousand hits
    the cap the run is inconclusive and raises.
    """
    infinite = t_obs == INFINITY
    if not infinite and not (_is_int(t_obs) and 0 <= t_obs <= cfg.horizon):
        raise ParameterError(
            f"t_obs must be an integer in [0, horizon={cfg.horizon}] or INFINITY, got {t_obs}"
        )
    cap = float(cfg.horizon if infinite else t_obs)

    def worker(rng, rows):
        stop_times = spec.stop.sample(rng, rows.stop - rows.start)
        count(rng, np.minimum(stop_times, cap), rows)
        return int(np.count_nonzero(stop_times > cap)) if infinite else 0

    total_hits = sum(_run_chunks(cfg, worker))
    if total_hits > 1e-3 * cfg.replicas:
        raise InconclusiveRunError(
            f"{total_hits} of {cfg.replicas} replicas were still unfrozen at the "
            f"horizon {cfg.horizon}; raise the horizon or fix the stopping law"
        )


def sample_stopped_path(spec: StoppedSpec, cfg: SimConfig) -> np.ndarray:
    """Replica paths M(0..horizon) of the stopped count, one int32 row per replica.

    Each path runs the inner renewal stream up to its cap min(S, horizon):
    M(t) = N(min(t, S)), never frozen if S is infinite.  A Geometric inner
    law marks an event at each step up to the cap with chance p, so its
    last column and :func:`sample_stopped_value` are two independent
    samplers of one law.  Cast to int64 before squaring counts above 46340,
    or int32 overflows.

    The paths are filled step-major, so each per-step operation runs on a
    contiguous row of replicas.  The result is the transposed
    (Fortran-ordered) view of that buffer: its shape, values and
    ``tobytes()`` are those of a C-ordered array, which
    ``np.ascontiguousarray`` makes where one is needed.
    """
    horizon = min(spec.horizon, cfg.horizon)
    paths = np.zeros((horizon + 1, cfg.replicas), dtype=np.int32).T

    def fill(rng, caps, rows):
        view = paths[rows]
        if type(spec.inner) is Geometric:
            # the Bernoulli(p) process: a 0/1 mark with chance p at each step
            # up to the cap, each step one contiguous row of the buffer
            for t in range(1, int(caps.max(initial=0)) + 1):
                view[:, t] = (rng.random(len(caps)) < spec.inner.p) & (caps >= t)
        else:
            for active, left in _events(spec.inner, caps, rng):
                view[active, (caps[active] - left).astype(np.intp)] = 1
        for t in range(1, horizon + 1):
            np.add(view[:, t - 1], view[:, t], out=view[:, t])

    _capped_runs(spec, cfg, horizon, fill)
    return paths


def sample_stopped_value(spec: StoppedSpec, cfg: SimConfig, t_obs) -> np.ndarray:
    """Replica values of M(t_obs); t_obs = INFINITY means run until frozen,
    raising InconclusiveRunError, not biased values, if over one replica in a
    thousand is still unfrozen at cfg.horizon."""
    counts = np.zeros(cfg.replicas, dtype=np.int64)
    _capped_runs(
        spec, cfg, t_obs,
        lambda rng, caps, rows: _renewal_count(spec.inner, caps, rng, counts[rows]),
    )
    return counts


def sample_walk_endpoint(
    step: StepLaw, spec: StoppedSpec, cfg: SimConfig, t_obs
) -> np.ndarray:
    """Replica lattice positions of the walk at t_obs (or frozen, INFINITY).

    The generator count M is drawn exactly as in
    :func:`sample_stopped_value`: one binomial per replica for a Geometric
    inner law, the event loop otherwise.  The sum of M IID steps depends on
    them only through how many of each kind were taken, which is
    multinomial.
    """
    ends = np.empty((cfg.replicas, step.dim), dtype=np.int64)

    def endpoint(rng, caps, rows):
        counts = np.zeros(len(caps), dtype=np.int64)
        _renewal_count(spec.inner, caps, rng, counts)
        ends[rows] = rng.multinomial(counts, step.probs) @ step.displacements

    _capped_runs(spec, cfg, t_obs, endpoint)
    return ends


def dequantize(values, rng, one_sided: bool = False) -> np.ndarray:
    """Spread lattice samples uniformly over their unit cells.

    Comparing integer-valued endpoints against a continuous limit law by a
    raw Kolmogorov-Smirnov statistic is floored by the lattice cell mass;
    histograms are not.  Uniform in-cell jitter is the sample-level
    equivalent of histogram binning: one-sided supports use [x, x+1) so
    nonnegativity survives, symmetric ones use [x-1/2, x+1/2).
    """
    values = np.asarray(values, dtype=float).ravel()
    offset = rng.random(values.size)
    if not one_sided:
        offset = offset - 0.5
    return values + offset


@dataclass(frozen=True)
class EmpiricalComparison:
    """Total variation distance and chi-square p-value of a sample against an
    exact integer law."""

    tv: float
    chisq_pvalue: float


def compare_discrete(samples, support, probs) -> EmpiricalComparison:
    """Total variation and chi-square p-value against an integer law.

    ``probs`` live on ``support``, finite and nonnegative, of total at most
    1; any remaining exact mass is treated as a single out-of-support bin.
    Chi-square bins with expected count below 5 are pooled from the tail
    before the test.
    """
    samples = np.asarray(samples).ravel()
    if samples.size == 0:
        raise ParameterError("empty sample")
    support = np.asarray(support)
    probs = np.asarray(probs, dtype=float)
    if support.shape != probs.shape:
        raise ParameterError(f"support and probs must align, got {support.shape} and {probs.shape}")
    bad = probs[~(probs >= -_MASS_TOL)]  # NaN fails it, and +inf the total below
    if bad.size:
        raise ParameterError(f"probs must be finite and >= 0, got {bad[0]}")
    if probs.sum() > 1.0 + 1e-9:
        raise ParameterError(f"probs must sum to at most 1, got {probs.sum()}")
    n = samples.size
    # one sort of the samples, then a binary search per support value
    values, freq = np.unique(samples, return_counts=True)
    at = np.minimum(np.searchsorted(values, support), values.size - 1)
    counts = np.where(values[at] == support, freq[at], 0).astype(float)
    other_count = n - counts.sum()
    other_prob = max(0.0, 1.0 - probs.sum())
    emp = counts / n
    tv = 0.5 * (np.abs(emp - probs).sum() + abs(other_count / n - other_prob))

    expected = np.append(probs, other_prob) * n
    observed = np.append(counts, other_count)
    # pool small-expectation bins, sweeping from the tail
    obs_bins, exp_bins = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed[::-1], expected[::-1]):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and obs_bins:
        obs_bins[-1] += acc_o
        exp_bins[-1] += acc_e
    if len(obs_bins) < 2:
        pvalue = float("nan")
    else:
        from scipy.special import chdtrc

        exp_arr = np.array(exp_bins)
        exp_arr *= np.sum(obs_bins) / exp_arr.sum()
        stat = float(np.sum((np.array(obs_bins) - exp_arr) ** 2 / exp_arr))
        pvalue = float(chdtrc(len(exp_bins) - 1, stat))
    return EmpiricalComparison(tv=float(tv), chisq_pvalue=pvalue)

