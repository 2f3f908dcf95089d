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

_MEMORY_CAP = 2**24  # grid entries; dense boxes beyond this are refused


@dataclass(frozen=True)
class StepLaw:
    """Finite step distribution on an integer lattice.

    ``displacements`` holds one integer row per step in lattice coordinates;
    ``basis`` columns are the lattice vectors in Cartesian coordinates.  The
    Cartesian first and second moments are cached at construction.
    """

    displacements: np.ndarray
    probs: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        disp = np.atleast_2d(np.asarray(self.displacements, dtype=np.int64))
        probs = np.asarray(self.probs, dtype=float).ravel()
        if disp.shape[0] != probs.shape[0]:
            raise ParameterError("one probability per step is required")
        if np.any(probs <= 0.0):
            raise ParameterError("step probabilities must be positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ParameterError(f"step probabilities sum to {probs.sum()}, not 1")
        basis = self.basis
        if basis is None:
            basis = np.eye(disp.shape[1])
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (disp.shape[1], disp.shape[1]):
            raise ParameterError("basis must be a d x d matrix")
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

    def is_unbiased(self) -> bool:
        return bool(np.all(np.abs(self.mean_step) < 1e-14))


def line_walk(p_right: float = 0.5) -> StepLaw:
    """Steps +-1 on the one-dimensional lattice; p_right = 1 keeps only +1."""
    if not 0.0 <= p_right <= 1.0:
        raise ParameterError("p_right must be in [0, 1]")
    if p_right == 1.0:
        return StepLaw(np.array([[1]]), np.array([1.0]))
    if p_right == 0.0:
        return StepLaw(np.array([[-1]]), np.array([1.0]))
    return StepLaw(np.array([[1], [-1]]), np.array([p_right, 1.0 - p_right]))


def hypercubic_walk(d: int) -> StepLaw:
    """Unbiased nearest-neighbor walk on the d-dimensional cubic lattice."""
    if d < 1:
        raise ParameterError("dimension must be >= 1")
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


def char_fn(step: StepLaw, phi) -> complex:
    """Characteristic function sum_r p_r exp(-i phi . a_r), Cartesian phi."""
    phi = np.asarray(phi, dtype=float).ravel()
    if phi.shape[0] != step.dim:
        raise ParameterError("phi dimension mismatch")
    return complex(np.sum(step.probs * np.exp(-1j * step.cartesian_steps @ phi)))


def char_fn_lattice(step: StepLaw, theta) -> complex:
    """Characteristic function in lattice coordinates (theta conjugate to
    the integer position)."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape[0] != step.dim:
        raise ParameterError("theta dimension mismatch")
    return complex(np.sum(step.probs * np.exp(-1j * step.displacements @ theta)))


@dataclass
class PropagatorGrid:
    """Probability mass over the lattice box [-L, L]^d at a fixed time."""

    values: np.ndarray
    half_width: int
    time: float
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def mass_in_box(self) -> float:
        return float(self.values.sum())

    def prob(self, x) -> float:
        """Mass at the lattice point x (vector of integer coordinates)."""
        idx = tuple(int(c) + self.half_width for c in np.atleast_1d(x))
        return float(self.values[idx])

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

    def char_lattice(self, theta) -> complex:
        """sum_x values(x) exp(-i theta . x) over the box."""
        theta = np.asarray(theta, dtype=float).ravel()
        coords = self.lattice_coordinates()
        phase = np.exp(-1j * np.tensordot(theta, coords, axes=1))
        return complex((self.values * phase).sum())


def _shift_add(dst: np.ndarray, src: np.ndarray, vec, weight: float) -> None:
    """dst[x] += weight * src[x - vec], truncating at the box edges."""
    dst_slices = []
    src_slices = []
    for size, v in zip(dst.shape, vec):
        v = int(v)
        dst_slices.append(slice(max(v, 0), size + min(v, 0)))
        src_slices.append(slice(max(-v, 0), size + min(-v, 0)))
    dst[tuple(dst_slices)] += weight * src[tuple(src_slices)]


def propagator(step: StepLaw, count_pmf, half_width: int) -> PropagatorGrid:
    """Spatial law P(x, t) = sum_n P[count = n] W^(*n)(x) on a dense box.

    ``count_pmf`` is the distribution of the generator count at the observed
    time.  Convolution powers are accumulated incrementally, one sparse
    shift-add per step direction and power.  If mass escapes the box the
    result would be corrupted, so that raises instead of renormalizing.
    """
    count_pmf = np.asarray(count_pmf, dtype=float)
    if abs(count_pmf.sum() - 1.0) > 1e-9:
        raise ParameterError("count pmf must sum to 1")
    shape = (2 * half_width + 1,) * step.dim
    if math.prod(shape) > _MEMORY_CAP:
        raise ParameterError(
            f"box with {math.prod(shape)} entries exceeds the dense-grid cap"
        )
    n_max = int(np.nonzero(count_pmf)[0][-1])
    origin = tuple([half_width] * step.dim)
    power = np.zeros(shape)
    power[origin] = 1.0
    values = count_pmf[0] * power
    for n in range(1, n_max + 1):
        nxt = np.zeros(shape)
        for vec, p in zip(step.displacements, step.probs):
            _shift_add(nxt, power, vec, p)
        power = nxt
        if count_pmf[n]:
            values += count_pmf[n] * power
    grid = PropagatorGrid(values, half_width, float("nan"), step.basis)
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
