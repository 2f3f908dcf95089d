"""Truncated power-series arithmetic on coefficient vectors.

A series is a 1-D float array ``c`` of length ``T + 1`` holding the
coefficients ``c[0..T]`` of a generating function truncated at the shared
horizon ``T``.  All identities in the package are checked coefficient-wise
on that window, so truncation introduces no error for coefficients below
the horizon.
"""

from __future__ import annotations

import numpy as np

from .errors import HorizonMismatchError, SingularSeriesError

DEFAULT_HORIZON = 512


def delta_series(horizon: int) -> np.ndarray:
    """Unit of the convolution algebra: 1 at t=0, zero elsewhere."""
    c = np.zeros(horizon + 1)
    c[0] = 1.0
    return c


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Causal discrete convolution (a*b)[t] = sum_r a[r] b[t-r], truncated."""
    if len(a) != len(b):
        raise HorizonMismatchError(
            f"series horizons differ: {len(a) - 1} vs {len(b) - 1}"
        )
    return np.convolve(a, b)[: len(a)]


def reciprocal(a: np.ndarray) -> np.ndarray:
    """Series ``b`` with (a*b) = delta, by the standard division recursion."""
    if a[0] == 0.0:
        raise SingularSeriesError("cannot invert a series with zero constant term")
    b = np.zeros_like(a)
    b[0] = 1.0 / a[0]
    for t in range(1, len(a)):
        b[t] = -np.dot(a[1 : t + 1], b[t - 1 :: -1]) / a[0]
    return b
