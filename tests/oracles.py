"""Direct methods kept as test oracles for the blocked library kernels."""

import numpy as np


def brute_convolve(a, b):
    """Independent O(T^2) double-sum oracle."""
    out = np.zeros(len(a))
    for t in range(len(a)):
        for r in range(t + 1):
            out[t] += a[r] * b[t - r]
    return out


def direct_reciprocal(a):
    """Series ``b`` with (a*b) = delta, one coefficient at a time by the
    division recursion b[t] = -sum_{r>=1} a[r] b[t-r] / a[0]."""
    b = np.zeros_like(a)
    b[0] = 1.0 / a[0]
    for t in range(1, len(a)):
        b[t] = -np.dot(a[1 : t + 1], b[t - 1 :: -1]) / a[0]
    return b
