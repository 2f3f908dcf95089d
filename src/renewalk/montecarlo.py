"""Path-level simulation of stopped counts and walks: the universal
independent oracle for every exact law in the package.

Replicas are split into fixed-size chunks, each driven by its own
counter-derived random stream, and chunk results are combined in index
order.  Outputs therefore depend only on (seed, replicas, request), never
on the worker count, which makes seeded runs byte-reproducible.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .errors import InconclusiveRunError, ParameterError
from .laws import INFINITY, WaitingLaw
from .stopped import StoppedSpec
from .walks import StepLaw

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Replica count, horizon cap, seed, and worker count for one experiment."""

    seed: int
    replicas: int
    horizon: int = 512
    workers: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ParameterError("replicas must be >= 1")
        if self.horizon < 0:
            raise ParameterError("horizon must be >= 0")
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")


def _chunk_layout(cfg: SimConfig):
    return [
        (idx, min(_CHUNK, cfg.replicas - start))
        for idx, start in enumerate(range(0, cfg.replicas, _CHUNK))
    ]


def _chunk_rng(cfg: SimConfig, idx: int):
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, idx)))


def _run_chunks(cfg: SimConfig, worker):
    """Run ``worker(rng, size)`` per chunk, returning results in chunk order."""
    layout = _chunk_layout(cfg)
    if cfg.workers == 1 or len(layout) == 1:
        return [worker(_chunk_rng(cfg, idx), size) for idx, size in layout]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [
            pool.submit(worker, _chunk_rng(cfg, idx), size) for idx, size in layout
        ]
        return [f.result() for f in futures]


def _renewal_count(law: WaitingLaw, caps: np.ndarray, rng) -> np.ndarray:
    """Events of a renewal stream with waiting law ``law`` within [0, caps]."""
    n = len(caps)
    counts = np.zeros(n, dtype=np.int64)
    times = np.asarray(law.sample(rng, n), dtype=float)
    active = np.nonzero(times <= caps)[0]
    while active.size:
        counts[active] += 1
        times[active] += np.asarray(law.sample(rng, active.size), dtype=float)
        active = active[times[active] <= caps[active]]
    return counts


def sample_stopped_path(spec: StoppedSpec, cfg: SimConfig) -> np.ndarray:
    """Replica paths M(0..horizon) of the stopped count, one row per replica.

    Each path runs the inner renewal stream, draws one stopping time, and
    freezes at it; an infinite stopping time never freezes the path.
    """
    horizon = min(spec.horizon, cfg.horizon)
    t_axis = np.arange(horizon + 1)

    def worker(rng, size):
        stop_times = np.asarray(spec.stop.sample(rng, size), dtype=float)
        events = np.zeros((size, horizon + 1), dtype=np.int64)
        times = np.asarray(spec.inner.sample(rng, size), dtype=float)
        active = np.nonzero(times <= horizon)[0]
        while active.size:
            events[active, times[active].astype(np.int64)] = 1
            times[active] += np.asarray(spec.inner.sample(rng, active.size), dtype=float)
            active = active[times[active] <= horizon]
        counts = np.cumsum(events, axis=1)
        freeze_col = np.minimum(t_axis[None, :], np.clip(stop_times, 0, horizon)[:, None])
        return np.take_along_axis(counts, freeze_col.astype(np.int64), axis=1)

    return np.vstack(_run_chunks(cfg, worker))


def sample_stopped_value(spec: StoppedSpec, cfg: SimConfig, t_obs) -> np.ndarray:
    """Replica values of M(t_obs); t_obs = INFINITY means run until frozen.

    At the infinite-time proxy the stopping time is capped at cfg.horizon;
    if more than one replica in a thousand hits the cap the run is
    inconclusive and raises instead of returning biased values.
    """
    infinite = t_obs == INFINITY
    if not infinite and (t_obs < 0 or t_obs > cfg.horizon):
        raise ParameterError("t_obs must be in [0, horizon] or INFINITY")

    def worker(rng, size):
        stop_times = np.asarray(spec.stop.sample(rng, size), dtype=float)
        if infinite:
            hits = int(np.count_nonzero(stop_times > cfg.horizon))
            caps = np.minimum(stop_times, cfg.horizon)
        else:
            hits = 0
            caps = np.minimum(stop_times, float(t_obs))
        return _renewal_count(spec.inner, caps, rng), hits

    results = _run_chunks(cfg, worker)
    total_hits = sum(r[1] for r in results)
    if infinite and total_hits > 1e-3 * cfg.replicas:
        raise InconclusiveRunError(
            f"{total_hits} of {cfg.replicas} paths were still unfrozen at the "
            f"horizon {cfg.horizon}; raise the horizon or fix the stopping law"
        )
    return np.concatenate([r[0] for r in results])


def sample_walk_endpoint(
    step: StepLaw, spec: StoppedSpec, cfg: SimConfig, t_obs
) -> np.ndarray:
    """Replica lattice positions of the walk at t_obs (or frozen, INFINITY).

    The generator count is simulated path-wise exactly as in
    :func:`sample_stopped_value`, then that many IID steps are summed.
    """
    infinite = t_obs == INFINITY
    if not infinite and (t_obs < 0 or t_obs > cfg.horizon):
        raise ParameterError("t_obs must be in [0, horizon] or INFINITY")
    n_steps = len(step.probs)

    def worker(rng, size):
        stop_times = np.asarray(spec.stop.sample(rng, size), dtype=float)
        if infinite:
            hits = int(np.count_nonzero(stop_times > cfg.horizon))
            caps = np.minimum(stop_times, cfg.horizon)
        else:
            hits = 0
            caps = np.minimum(stop_times, float(t_obs))
        # walk one inner event at a time: each still-running replica takes
        # one step per loop pass, so memory stays O(chunk) whatever the horizon
        pos = np.zeros((size, step.dim), dtype=np.int64)
        times = np.asarray(spec.inner.sample(rng, size), dtype=float)
        active = np.nonzero(times <= caps)[0]
        while active.size:
            picks = rng.choice(n_steps, size=active.size, p=step.probs)
            pos[active] += step.displacements[picks]
            times[active] += np.asarray(spec.inner.sample(rng, active.size), dtype=float)
            active = active[times[active] <= caps[active]]
        return pos, hits

    results = _run_chunks(cfg, worker)
    total_hits = sum(r[1] for r in results)
    if infinite and total_hits > 1e-3 * cfg.replicas:
        raise InconclusiveRunError(
            f"{total_hits} of {cfg.replicas} walks were still unfrozen at the "
            f"horizon {cfg.horizon}"
        )
    return np.vstack([r[0] for r in results])


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


def unfrozen_fraction(spec: StoppedSpec, cfg: SimConfig, t: float) -> float:
    """Empirical probability that the stopped process is still running at t.

    Only the stopping times need sampling: a path is unfrozen at t exactly
    when its stopping time exceeds t.  Converges to the never-stop
    probability as t grows.
    """

    def worker(rng, size):
        stop_times = np.asarray(spec.stop.sample(rng, size), dtype=float)
        return int(np.count_nonzero(stop_times > t))

    return sum(_run_chunks(cfg, worker)) / cfg.replicas


@dataclass(frozen=True)
class EmpiricalComparison:
    """Distances between a sample and an exact law; unset fields are None."""

    tv: float | None = None
    ks: float | None = None
    chisq_pvalue: float | None = None


def compare_discrete(samples, support, probs) -> EmpiricalComparison:
    """Total variation and chi-square p-value against an integer law.

    ``probs`` live on ``support``; any remaining exact mass is treated as a
    single out-of-support bin.  Chi-square bins with expected count below 5
    are pooled from the tail before the test.
    """
    samples = np.asarray(samples).ravel()
    if samples.size == 0:
        raise ParameterError("empty sample")
    support = np.asarray(support)
    probs = np.asarray(probs, dtype=float)
    if support.shape != probs.shape:
        raise ParameterError("support and probs must align")
    n = samples.size
    counts = np.array(
        [(samples == v).sum() for v in support], dtype=float
    )
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
        exp_arr = np.array(exp_bins)
        exp_arr *= np.sum(obs_bins) / exp_arr.sum()
        pvalue = float(sps.chisquare(np.array(obs_bins), exp_arr).pvalue)
    return EmpiricalComparison(tv=float(tv), chisq_pvalue=pvalue)


def compare_continuous(samples, cdf) -> EmpiricalComparison:
    """One-sample Kolmogorov-Smirnov distance against a CDF callable."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ParameterError("empty sample")
    ks = float(sps.kstest(samples, cdf).statistic)
    return EmpiricalComparison(ks=ks)


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance."""
    return float(sps.ks_2samp(np.asarray(a).ravel(), np.asarray(b).ravel()).statistic)
