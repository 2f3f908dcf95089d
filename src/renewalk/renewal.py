"""Finite-time and limiting laws of a single renewal process.

The central object is the state table Phi[n, t] = P[N(t) = n] for a
counting process driven by IID waiting times, built coefficient-wise as
survival * pmf^(*n) on a shared horizon, or column by column where the count
is a Markov chain; that column step also serves a single stopped column
(``stopped.stopped_column``) without the table.  Waiting laws may be
defective, in which case the process is transient and the limiting state
law is geometric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import series
from .errors import ParameterError
from .laws import INFINITY, WaitingLaw, _is_int, _window

TYPE_I = "type_I"
TYPE_II = "type_II"
INTERMEDIATE = "intermediate"

#: columns of the Toeplitz factor that :func:`state_table` holds at once
_TOEPLITZ_BLOCK = 256

#: below this horizon :func:`state_table` convolves row by row, which is
#: faster than setting up the doubling's matrix products
_DOUBLING_MIN_HORIZON = 20

#: entries one state table may hold, 1 GiB of float64: T = 8192 (8193^2 is
#: just over 2^26) fits, and a table the machine cannot hold is refused first
_TABLE_CAP = 2**27


@dataclass
class StateTable:
    """Matrix ``probs[n, t]`` of state probabilities on 0 <= n, t <= T."""

    probs: np.ndarray

    @property
    def horizon(self) -> int:
        return self.probs.shape[1] - 1

    @property
    def n_max(self) -> int:
        return self.probs.shape[0] - 1

    def column(self, t: int) -> np.ndarray:
        """Distribution over the count n at fixed time t."""
        return self.probs[:, t]

    def row_sums(self) -> np.ndarray:
        """sum_n probs[n, t] for each t; 1 everywhere when n_max >= horizon."""
        return self.probs.sum(axis=0)

    def moment(self, order: int) -> np.ndarray:
        """sum_n n^order probs[n, t] as a series over t."""
        n = np.arange(self.probs.shape[0], dtype=float)
        return (n[:, None] ** order * self.probs).sum(axis=0)

    def polynomial(self, v) -> np.ndarray:
        """State polynomial sum_n probs[n, t] v^n over t; v may be complex."""
        n = np.arange(self.probs.shape[0])
        weights = np.asarray(v) ** n
        return weights @ self.probs


def state_table(law: WaitingLaw, horizon: int) -> StateTable:
    """Full table P[N(t) = n] for 0 <= n, t <= horizon.

    Row n is survival * pmf^(*n); keeping n_max equal to the horizon makes
    the column sums exactly one.  From horizon 20 on, a law whose count is a
    Markov chain (``count_steps``: Geometric, Sibuya) steps one column at a
    time, and the rows of any other law are built by doubling: with c =
    pmf^(*k), rows [k, 2k) are rows [0, k) times the upper-triangular
    Toeplitz matrix U[i, t] = c[t - i], one matrix product per doubling.
    Every term of either is nonnegative, so each entry keeps its relative
    accuracy.  Smaller tables are convolved row by row.  A table of more
    than ``_TABLE_CAP`` entries raises ParameterError.
    """
    entries = (_window(horizon) + 1) ** 2
    if entries > _TABLE_CAP:
        raise ParameterError(f"a state table at horizon {horizon} needs {8 * entries} bytes, "
                             f"over the cap of {_TABLE_CAP} entries ({8 * _TABLE_CAP} bytes)")
    surv = law.survival_vector(horizon)
    if horizon < _DOUBLING_MIN_HORIZON:
        return StateTable(_rows_by_convolution(surv, law.pmf_vector(horizon)))
    steps = law.count_steps(horizon)
    if steps is None:
        return StateTable(_rows_by_doubling(surv, law.pmf_vector(horizon)))
    probs = np.zeros((horizon + 1, horizon + 1))
    for t, column in enumerate(_stepped_columns(steps, horizon + 1)):
        probs[: t + 1, t] = column
    probs[0] = surv
    return StateTable(probs)


def _stepped_columns(steps, size: int):
    """Yield the columns P_t(n), n <= t, t < size, of the count of chances ``steps``
    (``law.count_steps``): P_(t+1)(n) = stay(n) P_t(n) + move(n - 1) P_t(n - 1), each a view
    the next step overwrites.  The running column is held times 2^900, so no step runs in
    subnormals and a cell below the normal range is one rounding, as it is scaled back.  Row 0
    can be off the survival vector in its last bits, so its consumers write that there."""
    run, moved, column = np.zeros(size), np.empty(size), np.ones(size)
    run[0] = scale = 2.0**900
    yield column[:1]
    for t, (stay, move) in enumerate(steps):
        now, moves = run[: t + 1], moved[: t + 1]
        np.multiply(now, move, out=moves)
        now *= stay
        np.add(run[1 : t + 2], moves, out=run[1 : t + 2])
        yield np.multiply(run[: t + 2], 1.0 / scale, out=column[: t + 2])


def _rows_by_convolution(surv: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """Rows surv * pmf^(*n), two convolutions per row."""
    horizon = len(surv) - 1
    probs = np.zeros((horizon + 1, horizon + 1))
    power = series.delta_series(horizon)
    for n in range(horizon + 1):
        probs[n] = series.convolve(surv, power)
        if n < horizon:
            power = series.convolve(power, pmf)
    return probs


def _rows_by_doubling(surv: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """Rows surv * pmf^(*n), one matrix product per doubling of n."""
    size = len(surv)
    probs = np.zeros((size, size))
    probs[0] = surv
    power = pmf
    k = 1
    while k < size:
        rows = min(k, size - k)
        # padded[size + j] = power[j], zero for j < 0
        padded = np.concatenate([np.zeros(size), power])
        # c[j] = 0 for j < k: only columns t >= k and rows i <= t - k are nonzero
        for start in range(k, size, _TOEPLITZ_BLOCK):
            stop = min(start + _TOEPLITZ_BLOCK, size)
            depth = stop - k
            # toeplitz[i, j] = U[i, start + j] = power[start + j - i]
            toeplitz = np.ascontiguousarray(
                sliding_window_view(padded, stop - start)[
                    size + start : size + start - depth : -1
                ]
            )
            used = min(rows, depth)
            probs[k : k + used, start:stop] = probs[:used, :depth] @ toeplitz
        if 2 * k < size:
            power = series.convolve(power, power)
        k *= 2
    return probs


def count_moments(law: WaitingLaw, horizon: int):
    """Series of E N(t) and E N^2(t) on [0, horizon] from the renewal density.

    E N(t) = sum_{s<=t} h(s) for the renewal density h, and since
    N^2 = N + 2 #{event pairs s < s'} with E #pairs up to
    t = sum_{s'<=t} (h*h)(s'), E N^2(t) = sum_{s<=t} (h + 2 h*h)(s).  The law
    gives h and h*h: in closed form for Geometric and Sibuya, else as series.
    """
    density = law.renewal_density(horizon)
    pairs = law.pair_density(density)
    return np.cumsum(density), np.cumsum(density + 2.0 * pairs)


def exceedance_prob(law: WaitingLaw, n0: int, t) -> float:
    """P[N(t) > n0]; at t = INFINITY this is defect_mass^(n0+1).

    At finite t it is the first-passage probability P[T_1 + ... + T_(n0+1) <= t],
    the mass of pmf^(*(n0+1)) on [0, t], with the power taken by repeated
    squaring.  That is a sum of nonnegative terms, so a small tail keeps its
    relative accuracy.
    """
    if not _is_int(n0):
        raise ParameterError(f"n0 must be an integer, got {n0}")
    if n0 < 0:
        raise ParameterError(f"n0 must be >= 0, got {n0}")
    if t == INFINITY:
        return law.defect_mass ** (n0 + 1)
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    if not _is_int(t):
        raise ParameterError(f"time must be an integer or INFINITY, got {t}")
    if n0 >= t:
        return 0.0
    square = law.pmf_vector(t)
    power = None
    exponent = n0 + 1
    while True:
        if exponent & 1:
            power = square if power is None else series.convolve(power, square)
        exponent >>= 1
        if not exponent:
            return float(power.sum())
        square = series.convolve(square, square)


def classify(law: WaitingLaw) -> str:
    """TYPE_II when the waiting law has full mass, TYPE_I otherwise."""
    return TYPE_II if law.has_full_mass else TYPE_I


def limit_state_law(law: WaitingLaw, n_max: int = 64):
    """Limiting state probabilities (1-Q) Q^n and the process class label.

    For a defective law the count freezes at a geometric level; for a
    non-defective law every fixed level has limiting probability zero.
    """
    if not _is_int(n_max) or n_max < 0:
        raise ParameterError(f"n_max must be an integer >= 0, got {n_max}")
    q = law.defect_mass
    n = np.arange(n_max + 1, dtype=float)
    masses = (1.0 - q) * q**n
    return masses, classify(law)


def _event_paths(pmf: np.ndarray, surv: np.ndarray):
    """Yield (N(t) for t = 0..T, probability) for every event path on {1..T}.

    A path is a strictly increasing tuple of event times; its probability is
    prod pmf(gaps) times surv(T - last event), the chance that the next
    waiting time overshoots the horizon.  Paths through a zero-probability
    gap are skipped.  Depth first, each path before its extensions.
    """
    horizon = len(pmf) - 1
    t_axis = np.arange(horizon + 1)

    def walk(events: list, weight: float):
        last = events[-1] if events else 0
        yield np.searchsorted(events, t_axis, side="right"), weight * surv[horizon - last]
        for nxt in range(last + 1, horizon + 1):
            w = weight * pmf[nxt - last]
            if w > 0.0:
                events.append(nxt)
                yield from walk(events, w)
                events.pop()

    return walk([], 1.0)


def brute_force_state_table(law: WaitingLaw, horizon: int) -> StateTable:
    """Independent oracle: exhaust all event-time subsets of {1..horizon}.

    Each finished path contributes its probability to N(t) = #events <= t at
    every t.  Practical only for small horizons (exponential count).
    """
    if horizon > 20:
        raise ParameterError("exhaustive enumeration is for horizons <= 20")
    probs = np.zeros((horizon + 1, horizon + 1))
    t_axis = np.arange(horizon + 1)
    paths = _event_paths(law.pmf_vector(horizon), law.survival_vector(horizon))
    for n_of_t, weight in paths:
        probs[n_of_t, t_axis] += weight
    return StateTable(probs)
