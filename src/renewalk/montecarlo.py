"""Path-level simulation of stopped counts and walks: the universal
independent oracle for every exact law in the package.

Replicas are split into fixed-size chunks, each driven by its own
counter-derived random stream, and chunk results are combined in index
order.  Outputs therefore depend only on (seed, replicas, request), never
on the worker count, which makes seeded runs byte-reproducible.

Every sampler runs one event loop (``_events``): each pass draws one
waiting time from the inner law's own sampler for every replica whose
next event still falls within its cap.  Paths mark their events and take
a running sum; a walk draws the steps of its M events as one multinomial
count per step kind, which is the sum of M IID steps in law.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

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


def _events(law: WaitingLaw, caps: np.ndarray, rng):
    """Yield ``(active, times)`` for each successive event at a time <= caps.

    Pass k holds the k-th event of every replica that has one within its
    cap: ``active`` indexes those replicas and ``times`` is where their
    event falls.  Each pass draws one waiting time per active replica.
    """
    times = law.sample(rng, len(caps))
    active = np.nonzero(times <= caps)[0]
    times, caps = times[active], caps[active]
    while active.size:
        yield active, times
        times += law.sample(rng, active.size)
        keep = times <= caps
        active, times, caps = active[keep], times[keep], caps[keep]


def _renewal_count(law: WaitingLaw, caps: np.ndarray, rng) -> np.ndarray:
    """Events of a renewal stream with waiting law ``law`` within [0, caps]."""
    counts = np.zeros(len(caps), dtype=np.int64)
    # the replicas of pass k are those with at least k events
    for k, (active, _) in enumerate(_events(law, caps, rng), 1):
        counts[active] = k
    return counts


def _capped_runs(spec: StoppedSpec, cfg: SimConfig, t_obs, count, unfrozen: str):
    """Run ``count(rng, caps)`` per chunk with caps = min(S, t_obs).

    At t_obs = INFINITY the stopping time S is capped at cfg.horizon; if
    more than one replica in a thousand hits the cap the run is
    inconclusive and raises, with ``unfrozen`` as the message.
    """
    infinite = t_obs == INFINITY
    if not infinite and (t_obs < 0 or t_obs > cfg.horizon):
        raise ParameterError("t_obs must be in [0, horizon] or INFINITY")
    cap = float(cfg.horizon if infinite else t_obs)

    def worker(rng, size):
        stop_times = spec.stop.sample(rng, size)
        hits = int(np.count_nonzero(stop_times > cap)) if infinite else 0
        return count(rng, np.minimum(stop_times, cap)), hits

    results = _run_chunks(cfg, worker)
    total_hits = sum(hits for _, hits in results)
    if total_hits > 1e-3 * cfg.replicas:
        raise InconclusiveRunError(f"{total_hits} of {cfg.replicas} {unfrozen}")
    return [r for r, _ in results]


def sample_stopped_path(spec: StoppedSpec, cfg: SimConfig) -> np.ndarray:
    """Replica paths M(0..horizon) of the stopped count, one row per replica.

    Each path draws one stopping time S and runs the inner renewal stream up
    to min(S, horizon), so M(t) = N(min(t, S)) is the running event count;
    an infinite stopping time never freezes the path.
    """
    horizon = min(spec.horizon, cfg.horizon)

    def worker(rng, size):
        caps = np.minimum(spec.stop.sample(rng, size), horizon)
        paths = np.zeros((size, horizon + 1), dtype=np.int64)
        for active, times in _events(spec.inner, caps, rng):
            paths[active, times.astype(np.int64)] = 1
        return np.cumsum(paths, axis=1, out=paths)

    return np.vstack(_run_chunks(cfg, worker))


def sample_stopped_value(spec: StoppedSpec, cfg: SimConfig, t_obs) -> np.ndarray:
    """Replica values of M(t_obs); t_obs = INFINITY means run until frozen.

    At the infinite-time proxy the stopping time is capped at cfg.horizon;
    if more than one replica in a thousand hits the cap the run is
    inconclusive and raises instead of returning biased values.
    """
    counts = _capped_runs(
        spec, cfg, t_obs, lambda rng, caps: _renewal_count(spec.inner, caps, rng),
        f"paths were still unfrozen at the horizon {cfg.horizon}; "
        "raise the horizon or fix the stopping law",
    )
    return np.concatenate(counts)


def sample_walk_endpoint(
    step: StepLaw, spec: StoppedSpec, cfg: SimConfig, t_obs
) -> np.ndarray:
    """Replica lattice positions of the walk at t_obs (or frozen, INFINITY).

    The generator count M is simulated path-wise exactly as in
    :func:`sample_stopped_value`.  The sum of M IID steps depends on them
    only through how many of each kind were taken, which is multinomial.
    """

    def endpoint(rng, caps):
        counts = _renewal_count(spec.inner, caps, rng)
        return rng.multinomial(counts, step.probs) @ step.displacements

    unfrozen = f"walks were still unfrozen at the horizon {cfg.horizon}"
    return np.vstack(_capped_runs(spec, cfg, t_obs, endpoint, unfrozen))


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
        return int(np.count_nonzero(spec.stop.sample(rng, size) > t))

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
        exp_arr = np.array(exp_bins)
        exp_arr *= np.sum(obs_bins) / exp_arr.sum()
        stat = float(np.sum((np.array(obs_bins) - exp_arr) ** 2 / exp_arr))
        pvalue = float(chdtrc(len(exp_bins) - 1, stat))
    return EmpiricalComparison(tv=float(tv), chisq_pvalue=pvalue)


def compare_continuous(samples, cdf) -> EmpiricalComparison:
    """One-sample Kolmogorov-Smirnov distance against a CDF callable."""
    from scipy import stats as sps

    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ParameterError("empty sample")
    ks = float(sps.kstest(samples, cdf).statistic)
    return EmpiricalComparison(ks=ks)


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance."""
    from scipy import stats as sps

    return float(sps.ks_2samp(np.asarray(a).ravel(), np.asarray(b).ravel()).statistic)
