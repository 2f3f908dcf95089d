"""Truncated power-series arithmetic on coefficient vectors.

A series is a 1-D float array ``c`` of length ``T + 1`` holding the
coefficients ``c[0..T]`` of a generating function truncated at the shared
horizon ``T``.  All identities in the package are checked coefficient-wise
on that window, so truncation introduces no error for coefficients below
the horizon.

Both kernels fill their output block by block, with one or two direct
``np.convolve`` calls per block: only the kept half of a product is
computed, no FFT is used, and a sum of nonnegative terms stays one, so tiny
coefficients keep their relative accuracy.  ``convolve`` blocks are
``_BLOCK`` coefficients; ``reciprocal`` blocks double from 1 up to
``_BLOCK``.
"""

from __future__ import annotations

import numpy as np

from .errors import HorizonMismatchError, SingularSeriesError

DEFAULT_HORIZON = 512
_BLOCK = 256  # largest output block per np.convolve call


def delta_series(horizon: int) -> np.ndarray:
    """Unit of the convolution algebra: 1 at t=0, zero elsewhere."""
    c = np.zeros(horizon + 1)
    c[0] = 1.0
    return c


def _history(a: np.ndarray, b: np.ndarray, s: int, e: int) -> np.ndarray:
    """sum_{j<s} a[t-j] b[j] for t in [s, e): the terms of b before the block."""
    return np.convolve(a[1:e], b[:s], "valid")


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Causal discrete convolution (a*b)[t] = sum_r a[r] b[t-r], truncated.

    Block [s, e) is the product of a[:e-s] with b[s:e] plus the history of
    b[:s]: about n^2/2 + n*_BLOCK products instead of the full n^2.
    """
    if len(a) != len(b):
        raise HorizonMismatchError(
            f"series horizons differ: {len(a) - 1} vs {len(b) - 1}"
        )
    n = len(a)
    out = np.empty(n, np.result_type(a, b))
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        out[s:e] = np.convolve(a[: e - s], b[s:e])[: e - s]
        if s:
            out[s:e] += _history(a, b, s, e)
    return out


def reciprocal(a: np.ndarray) -> np.ndarray:
    """Series ``b`` with (a*b) = delta.

    b[0] = 1/a[0]; then b[:s] inverts the lower-triangular Toeplitz factor of
    a[:s], so block [s, e) with e <= 2s is b[:e-s] times minus the history of
    the blocks before it.  Blocks double 1, 2, 4, ... up to ``_BLOCK`` and
    then stay there; on delta - pmf every term is nonnegative.
    """
    if a[0] == 0.0:
        raise SingularSeriesError("cannot invert a series with zero constant term")
    b = np.zeros_like(a)
    b[0] = 1.0 / a[0]
    s = 1
    while s < len(a):
        e = min(2 * s, s + _BLOCK, len(a))
        b[s:e] = np.convolve(b[: e - s], -_history(a, b, s, e))[: e - s]
        s = e
    return b
