"""Random walks on integer lattices time-changed by a counting process.

Positions live in exact integer lattice coordinates; a basis matrix maps
them to Cartesian space, so triangular-lattice bookkeeping stays exact
and only the final moments touch irrational constants.  The walk's law at
time t is a mixture of step-convolution powers weighted by the state
probabilities of its generator count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoxLeakageError, ParameterError
from .laws import _MASS_TOL, _is_int

_MEMORY_CAP = 2**24  # grid entries; dense boxes and tori beyond this are refused


@dataclass(frozen=True)
class StepLaw:
    """Finite step distribution on an integer lattice.

    ``displacements`` holds one integer row per step in lattice coordinates;
    ``basis`` columns are the lattice vectors in Cartesian coordinates.  The
    Cartesian first and second moments are properties, computed on each access.
    """

    displacements: np.ndarray
    probs: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        disp = np.atleast_2d(np.asarray(self.displacements, dtype=np.int64))
        probs = np.asarray(self.probs, dtype=float).ravel()
        if disp.shape[0] != probs.shape[0]:
            raise ParameterError(f"one probability per step is required, got "
                                 f"{probs.shape[0]} for {disp.shape[0]} steps")
        # written so that NaN fails them
        if not np.all(probs > 0.0):
            raise ParameterError(f"step probabilities must be positive, got {probs.tolist()}")
        if not abs(probs.sum() - 1.0) <= 1e-12:
            raise ParameterError(f"step probabilities sum to {probs.sum()}, not 1")
        basis = self.basis
        if basis is None:
            basis = np.eye(disp.shape[1])
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (disp.shape[1], disp.shape[1]):
            raise ParameterError(f"basis must be a d x d matrix, got shape {basis.shape} "
                                 f"for d={disp.shape[1]}")
        object.__setattr__(self, "displacements", disp)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.displacements.shape[1]

    @property
    def cartesian_steps(self) -> np.ndarray:
        return self.displacements @ self.basis.T

    @property
    def mean_step(self) -> np.ndarray:
        """First Cartesian moment per component."""
        return self.probs @ self.cartesian_steps

    @property
    def second_moment(self) -> np.ndarray:
        """Second Cartesian moment E xi_j^2 per component."""
        return self.probs @ self.cartesian_steps**2

    @property
    def var_step(self) -> np.ndarray:
        return self.second_moment - self.mean_step**2


def line_walk(p_right: float = 0.5) -> StepLaw:
    """Steps +-1 on the one-dimensional lattice; p_right = 1 keeps only +1."""
    if not 0.0 <= p_right <= 1.0:
        raise ParameterError(f"p_right must be in [0, 1], got {p_right}")
    if p_right == 1.0:
        return StepLaw(np.array([[1]]), np.array([1.0]))
    if p_right == 0.0:
        return StepLaw(np.array([[-1]]), np.array([1.0]))
    return StepLaw(np.array([[1], [-1]]), np.array([p_right, 1.0 - p_right]))


def hypercubic_walk(d: int) -> StepLaw:
    """Unbiased nearest-neighbor walk on the d-dimensional cubic lattice."""
    if not (d >= 1 and float(d).is_integer()):
        raise ParameterError(f"dimension d={d} must be an integer >= 1")
    d = int(d)
    disp = np.vstack([np.eye(d, dtype=np.int64), -np.eye(d, dtype=np.int64)])
    return StepLaw(disp, np.full(2 * d, 1.0 / (2 * d)))


_TRI_BASIS = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])


def triangular_walk(biased: bool) -> StepLaw:
    """Unit steps on the triangular lattice.

    The biased variant allows the four directions r pi/3, r = 0..3 (all with
    probability 1/4), giving mean step (0, sqrt(3)/4); the unbiased variant
    uses all six directions with probability 1/6.
    """
    biased_steps = [(1, 0), (0, 1), (-1, 1), (-1, 0)]
    if biased:
        disp = np.array(biased_steps, dtype=np.int64)
        return StepLaw(disp, np.full(4, 0.25), _TRI_BASIS)
    disp = np.array(biased_steps + [(0, -1), (1, -1)], dtype=np.int64)
    return StepLaw(disp, np.full(6, 1.0 / 6.0), _TRI_BASIS)


@dataclass
class PropagatorGrid:
    """Probability mass over the lattice box [-L, L]^d at a fixed time."""

    values: np.ndarray
    half_width: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def mass_in_box(self) -> float:
        return float(self.values.sum())

    def prob(self, x) -> float:
        """Mass at the lattice point x (vector of integer coordinates)."""
        x = np.atleast_1d(x)
        if x.shape != (self.dim,) or np.any(np.abs(x) > self.half_width):
            raise ParameterError(f"x={x.tolist()} is not a site of the box of half-width "
                                 f"{self.half_width} in dimension {self.dim}")
        return float(self.values[tuple(int(c) + self.half_width for c in x)])

    def lattice_coordinates(self) -> np.ndarray:
        """Array of shape (d, *grid) with the integer coordinates."""
        return np.indices(self.values.shape) - self.half_width

    def cartesian_moments(self):
        """(E X_j, E X_j^2) per Cartesian component, by direct grid sums."""
        coords = self.lattice_coordinates().astype(float)
        cart = np.tensordot(self.basis, coords, axes=1)
        mean = np.array([(self.values * c).sum() for c in cart])
        second = np.array([(self.values * c**2).sum() for c in cart])
        return mean, second


def propagator(step: StepLaw, count_pmf, half_width: int) -> PropagatorGrid:
    """Spatial law P(x, t) = sum_n P[count = n] W^(*n)(x) on a dense box.

    ``count_pmf`` is the distribution of the generator count at the observed
    time.  Convolution powers are accumulated incrementally, one sparse
    shift-add per step direction and power over that power's support, the
    box [L + n min(0, min v), L + n max(0, max v)] per axis: the cost grows
    with the support, not the grid, and the cells skipped would only add
    +0.0.  If mass escapes the box the result would be corrupted, so that
    raises instead of renormalizing.
    """
    count_pmf = np.asarray(count_pmf, dtype=float)
    if not abs(count_pmf.sum() - 1.0) <= 1e-9:  # so is a NaN or infinite entry
        raise ParameterError(f"count pmf must sum to 1, got {count_pmf.sum()}")
    if count_pmf.min() < -_MASS_TOL:
        raise ParameterError(f"count pmf entries must be >= 0, got {count_pmf.min()}")
    if not _is_int(half_width) or half_width < 0:
        raise ParameterError(f"half_width={half_width} must be an integer >= 0")
    size = 2 * half_width + 1
    shape = (size,) * step.dim
    if math.prod(shape) > _MEMORY_CAP:
        raise ParameterError(
            f"box with {math.prod(shape)} entries exceeds the dense-grid cap"
        )
    n_max = int(np.nonzero(count_pmf)[0][-1])
    disp = step.displacements
    powers = np.arange(n_max + 1)[:, None]
    # power n is zero outside [lo[n], hi[n]) per axis; step v moves the cells
    # [first, last) - v of power n - 1's support to the cells [first, last)
    lo = np.maximum(half_width + powers * np.minimum(disp.min(axis=0), 0), 0)
    hi = np.minimum(half_width + 1 + powers * np.maximum(disp.max(axis=0), 0), size)
    first = np.maximum(lo[:-1, None] + disp, 0)
    last = np.maximum(np.minimum(hi[:-1, None] + disp, size), first)
    moves = zip(first.tolist(), last.tolist(), (first - disp).tolist(), (last - disp).tolist())
    power, nxt, values = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    power[(half_width,) * step.dim] = 1.0
    values[(half_width,) * step.dim] = count_pmf[0]
    probs = step.probs.tolist()
    for n, a, b, shifts in zip(range(1, n_max + 1), lo[1:].tolist(), hi[1:].tolist(), moves):
        box = tuple(map(slice, a, b))
        nxt[box] = 0.0  # nxt held power n - 2, whose support lies inside
        for f, e, sf, se, p in zip(*shifts, probs):
            nxt[tuple(map(slice, f, e))] += p * power[tuple(map(slice, sf, se))]
        power, nxt = nxt, power
        if count_pmf[n]:
            values[box] += count_pmf[n] * power[box]
    grid = PropagatorGrid(values, half_width, step.basis)
    if grid.mass_in_box < 1.0 - 1e-6:
        raise BoxLeakageError(
            f"probability {1.0 - grid.mass_in_box:.3e} left the box; enlarge it"
        )
    return grid


@dataclass(frozen=True)
class WalkMoments:
    """Exact spatial moment series derived from the generator's moments."""

    mean: np.ndarray  # (T+1, d): E X_j(t)
    second: np.ndarray  # (T+1, d): E X_j(t)^2
    variance: np.ndarray  # (T+1, d)

    @property
    def msd(self) -> np.ndarray:
        """Mean squared displacement sum_j E X_j(t)^2."""
        return self.second.sum(axis=1)


def walk_moments(step: StepLaw, count_mean, count_second) -> WalkMoments:
    """Wald-type moments: the count's randomness enters only through its
    first two moments.

    E X_j = E M . E xi_j;  E X_j^2 = E M^2 (E xi_j)^2 + E M Var xi_j;
    Var X_j = Var M (E xi_j)^2 + E M Var xi_j.
    """
    m1 = np.asarray(count_mean, dtype=float)[:, None]
    m2 = np.asarray(count_second, dtype=float)[:, None]
    a = step.mean_step[None, :]
    var_xi = step.var_step[None, :]
    mean = m1 * a
    second = m2 * a**2 + m1 * var_xi
    variance = (m2 - m1**2) * a**2 + m1 * var_xi
    return WalkMoments(mean=mean, second=second, variance=variance)


def triangular_msd(kind: str, count_mean, count_second) -> np.ndarray:
    """MSD series on the triangular lattice from the generator's moments.

    unbiased: MSD(t) = E M(t); biased: MSD(t) = (3/16) E M^2(t) + (13/16) E M(t).
    """
    count_mean = np.asarray(count_mean, dtype=float)
    count_second = np.asarray(count_second, dtype=float)
    if kind == "unbiased":
        return count_mean.copy()
    if kind == "biased":
        return (3.0 / 16.0) * count_second + (13.0 / 16.0) * count_mean
    raise ParameterError(f"kind must be 'biased' or 'unbiased', got {kind!r}")
