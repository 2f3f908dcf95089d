"""Direct methods and closed forms kept as test oracles: the double-sum
product and division recursion behind the blocked series kernels, the
characteristic functions and state polynomial of the walk and stop tests,
the propagator's shift-adds over the whole box,
the step-by-step prefix length of the limiting stopped-count masses, the
discounted inner law and renewal-equation residual that show the stopped
count is not a renewal process, and the traced peak memory of a call."""

import tracemalloc

import numpy as np

from renewalk.errors import ParameterError
from renewalk.laws import Tabulated


def traced_peak(call):
    """``call()`` and the peak bytes that ``tracemalloc`` saw while it ran;
    numpy reports its array buffers to ``tracemalloc``."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def char_fn(step, phi) -> complex:
    """Characteristic function sum_r p_r exp(-i phi . a_r), Cartesian phi."""
    phi = np.asarray(phi, dtype=float).ravel()
    return complex(np.sum(step.probs * np.exp(-1j * step.cartesian_steps @ phi)))


def char_fn_lattice(step, theta) -> complex:
    """Characteristic function in lattice coordinates (theta conjugate to
    the integer position)."""
    theta = np.asarray(theta, dtype=float).ravel()
    return complex(np.sum(step.probs * np.exp(-1j * step.displacements @ theta)))


def char_lattice(grid, theta) -> complex:
    """sum_x values(x) exp(-i theta . x) over a propagator grid's box."""
    theta = np.asarray(theta, dtype=float).ravel()
    phase = np.exp(-1j * np.tensordot(theta, grid.lattice_coordinates(), axes=1))
    return complex((grid.values * phase).sum())


def _shift_add(dst, src, vec, weight):
    """dst[x] += weight * src[x - vec], truncating at the box edges."""
    dst_slices = []
    src_slices = []
    for size, v in zip(dst.shape, vec):
        v = int(v)
        dst_slices.append(slice(max(v, 0), size + min(v, 0)))
        src_slices.append(slice(max(-v, 0), size + min(-v, 0)))
    dst[tuple(dst_slices)] += weight * src[tuple(src_slices)]


def full_box_propagator(step, count_pmf, half_width):
    """Values of ``walks.propagator`` with every convolution power added over
    the whole box [-L, L]^d, one shift-add per step direction and power."""
    count_pmf = np.asarray(count_pmf, dtype=float)
    shape = (2 * half_width + 1,) * step.dim
    n_max = int(np.nonzero(count_pmf)[0][-1])
    power = np.zeros(shape)
    power[(half_width,) * step.dim] = 1.0
    values = count_pmf[0] * power
    for n in range(1, n_max + 1):
        nxt = np.zeros(shape)
        for vec, p in zip(step.displacements, step.probs):
            _shift_add(nxt, power, vec, p)
        power = nxt
        if count_pmf[n]:
            values += count_pmf[n] * power
    return values


def state_polynomial(summary, v, t):
    """E v^M(t) of a ``dbp_stops_bernoulli`` summary; v and t broadcast, v may
    be complex."""
    v = np.asarray(v)
    t = np.asarray(t)
    p0, q, qs = summary.p0, summary.q, summary.stop_defect
    p = 1.0 - q
    a = (1.0 - p0) + p0 * v
    return (1.0 - qs) * a**t + qs / (1.0 - q * a) * (p * a + (1.0 - a) * (q * a) ** t)


def stored_prefix_length(scale, g):
    """The least m >= 1 with scale g^m <= 1e-15, at most 200000, one m at a
    time: the last index of ``geometric_stop_asymptotics``' stored masses."""
    m = 1
    while scale * g**m > 1e-15 and m < 200_000:
        m += 1
    return m


def discounted_inner_law(inner, q, horizon):
    """Auxiliary defective waiting law pmf(t) = q^t inner_pmf(t).

    This is the renewal process that governs the large-time behavior of a
    geometrically stopped count; its total mass is inner_gf(q) < 1.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"discount factor q must be in (0, 1), got {q}")
    t = np.arange(1, horizon + 1, dtype=float)
    return Tabulated(inner.pmf_vector(horizon)[1:] * q**t)


def renewal_equation_residual(values, zero_state, kernel, v):
    """Residual of the renewal identity for a state polynomial sequence.

    For a genuine renewal process with waiting pmf ``kernel`` the state
    polynomial satisfies values[t] = zero_state[t] + v sum_{r<=t} kernel[r]
    values[t-r]; the returned residual is zero.  The stopped process is not
    a renewal process, so its polynomial leaves a visible residual.
    """
    values = np.asarray(values)
    zero_state = np.asarray(zero_state)
    kernel = np.asarray(kernel, dtype=float)
    if not (len(values) == len(zero_state) == len(kernel)):
        raise ParameterError(
            "series lengths differ: "
            f"{len(values)} values, {len(zero_state)} zero_state, {len(kernel)} kernel"
        )
    if kernel[0] != 0.0:
        raise ParameterError(f"kernel must be a waiting pmf with kernel[0] = 0, got {kernel[0]}")
    conv = np.convolve(kernel, values)[: len(values)]
    return values - zero_state - v * conv
