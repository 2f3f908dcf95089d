"""Batch command-line front end.

Subcommands: renewal | stopped | walk | ness | mc | figures.  Each writes
figure-ready CSV data plus a machine-readable JSON summary into the
output directory.  Exit codes: 0 success, 1 computation error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import montecarlo, ness, renewal, stopped, walks
from .series import DEFAULT_HORIZON
from .errors import ParameterError, SingularSeriesError
from .laws import INFINITY, law_config, parse_config, parse_law

SCHEMA_VERSION = 1

_COMPUTE_ERRORS = (ValueError, RuntimeError, SingularSeriesError, OSError)


#: cells per block of rows that ``_format_rows`` formats at a time, in the
#: writing process; the block's temporaries take under 400 bytes a cell
_CSV_BLOCK_CELLS = 6144
# A cell's text is 11 little-endian uint32 words, NUL-padded: separator and
# sign, 3 of integer part, "." and 4 of fraction, 2 of exponent; a zero cell
# is word 0 alone, an integer cell under 10^8 words 0-2.  Digit group g is
# word g of the word table, or word _TRAIL + g with trailing zeros NUL.
_TRAIL, _E0 = 10_000, 330  # decade e of |x| is column e + _E0 of the decade table


@functools.cache
def _csv_tables():
    """The word table, and per decade e: 10^k1, 10^k2 (k1 + k2 = 11 - e),
    10^s and 10^(16 - s) for the s digits ``%.12g`` prints after the point,
    masks of the integer part's digits in its 3 words, the exponent words."""
    digits = np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    text = (digits + ord("0")).astype(np.uint8)
    trail = text * np.logical_or.accumulate(digits[:, ::-1] > 0, axis=1)[:, ::-1]
    e = np.arange(-_E0, _E0)
    fixed = (e >= -4) & (e < 12)
    k, s = 11 - e, np.where(fixed, 11 - e, 11)
    pow10 = np.array([float(f"1e{j}") for j in range(-_E0, _E0)])  # correctly rounded
    scales = pow10[_E0 + np.stack([k >> 1, k - (k >> 1), s, 16 - s])]
    masks = (np.arange(12) >= 11 - np.where(fixed & (e >= 0), e, 0)[:, None]) * np.uint8(255)
    expo = b"".join((b"e%+03d" % j).ljust(8, b"\0") for j in e.tolist())
    expo = np.frombuffer(expo, "<u4").reshape(-1, 2) * ~fixed[:, None]
    words = np.concatenate([text, trail]).view("<u4").ravel()
    return words, np.vstack([scales, masks.view("<u4").T, expo.T])


@functools.cache
def _int_words():
    """``'%d' % v`` for v < 10^4, one NUL-padded word each: the 4-digit word
    of v with its leading zeros shifted out."""
    lead = np.repeat(np.uint32([24, 16, 8, 0]), [10, 90, 900, 9000])  # bits of 3, 2, 1, 0 zeros
    return _csv_tables()[0][:10_000] >> lead


def _cell_words(x, out) -> np.ndarray:
    """Words 1-10 of ``'%.12g' % x`` for finite nonzero ``x`` into ``out``
    (10, x.size); returns the mask of cells they may get wrong.  The digits,
    rint(y) for y = |x| 10^k1 10^k2 within 6e-4 of exact, are right if y is
    in [1e11, 1e12) (a wrong log10 decade is not) and not 1e-3 from a tie."""
    words, table = _csv_tables()
    a = np.abs(x)
    t = np.take(table, np.floor(np.log10(a)).astype(np.intp) + _E0, axis=1)
    out[8:] = t[7:]
    masks = t[4:7].astype(np.uint32)
    y = a * t[0] * t[1]
    d = np.rint(y)
    exact = (y >= 1e11) & (d < 1e12) & (np.abs(y - d) < 0.499)
    d *= exact  # keeps the digit groups of the other cells in range
    # integer part d // 10^s and fraction (d mod 10^s) 10^(16 - s), exact;
    # row 3, the fraction over 10^16, is an integer (0) when it is empty
    ipart = np.floor(d / t[2])
    g = np.empty((8, x.size))
    np.divide(ipart, [[1e8], [1e4], [1.0]], out=g[:3])
    np.divide((d - ipart * t[2]) * t[3], [[1e16], [1e12], [1e8], [1e4], [1.0]], out=g[3:])
    rest_zero = np.floor(g[3:]) == g[3:]  # no fraction digit after the group
    # the group indices overwrite t, which is not read again
    idx = np.floor(g, out=t[:8].view(np.intp), casting="unsafe")
    idx[1:3] -= 10_000 * idx[:2]
    idx[4:] -= 10_000 * idx[3:7]
    np.add(idx[3:], _TRAIL, out=idx[3:], where=rest_zero)
    np.take(words, idx, out=out[:8], mode="clip")  # "clip": unbuffered
    out[3] = ~rest_zero[0] * np.uint32(ord("."))
    out[:3] &= masks
    return ~exact


def _int_cells(groups):
    """For the cells of integer ``groups`` (2-D stacks of columns), row by row:
    their word counts, words 1-2 of ``'%d'`` under 10^8 (str(a // 10^4) and
    a mod 10^4 in 4 digits, or str(a), for a = |v|; NUL for 0), and the masks
    of the cells left to ``_cell_words`` (10^8 to 10^12) and to Python."""
    a = np.abs(np.concatenate(groups, dtype=float).T).ravel()
    small, huge = a < 1e8, a >= 1e12
    m = a * small
    high = np.floor(m / 1e4)  # exact: m is an integer under 2^53
    low = (m - 1e4 * high).astype(np.intp)
    high = high.astype(np.intp)
    digits = np.stack([_int_words()[np.where(high, high, low)] * (m > 0),
                       _csv_tables()[0][low] * (high > 0)], axis=1)
    return np.where(small, np.uint8(3), np.uint8(11)), digits, ~(small | huge), huge


def _format_rows(groups):
    """Yield the rows of the columns in ``groups`` (2-D stacks of columns)
    as CSV text, each row after its "\\n", one bytes object per block:
    integer cells under 10^8 take their digits from the word tables, numpy
    formats what ``_cell_words`` proves exact, Python the rest."""
    cols = [c for g in groups for c in g]
    fmts = ["%d" if g.dtype.kind in "iu" else "%.12g" for g in groups for _ in g]
    ncols, is_int = len(cols), np.array(fmts) == "%d"
    block = max(1, _CSV_BLOCK_CELLS // ncols)
    rows = groups[0].shape[1]
    buf = np.empty((min(block, rows), ncols))
    sep = np.tile(np.where(np.arange(ncols), ord(","), ord("\n")), len(buf)).astype("<u4")
    # the integer cells' places in a block, row by row; their words are made
    # for ``per`` blocks at a time, about a block of cells
    igroups = [g for g in groups if g.dtype.kind in "iu"]
    nint = np.count_nonzero(is_int)
    icells = (np.arange(len(buf))[:, None] * ncols + np.flatnonzero(is_int)).ravel()
    per = max(1, _CSV_BLOCK_CELLS // (block * nint)) if nint else 0
    for b, start in enumerate(range(0, rows, block)):
        n = min(block, rows - start)
        np.concatenate([g[:, start : start + n] for g in groups], out=buf[:n].T)
        x = buf[:n].ravel()
        zero = x == 0
        slow = ~np.isfinite(x)
        size = 11 - 10 * zero
        if nint:
            if b % per == 0:
                stop = start + per * block
                isize, idigits, icalc, islow = _int_cells([g[:, start:stop] for g in igroups])
            k = slice(b % per * block * nint, (b % per * block + n) * nint)
            at = icells[: n * nint]
            size[at] = isize[k]
            slow[at] = islow[k]
        first = np.cumsum(size) - size  # each cell's first word
        words = np.zeros(first[-1] + size[-1], "<u4")
        # word 0: separator ("\n" before a row), "-" if the sign bit is set, "0" if zero
        words[first] = (sep[: x.size] | np.signbit(x) * np.uint32(ord("-") << 8)
                        | zero * np.uint32(ord("0") << 16))
        calc = ~(zero | slow)
        if nint:  # words 1-2 of the other integer cells are written again below
            calc[at] = icalc[k]
            words[first[at, None] + [1, 2]] = idigits[k]
        out = np.empty((10, np.count_nonzero(calc)), "<u4")
        slow[calc] = _cell_words(x[calc], out)
        words[first[calc] + np.arange(1, 11)[:, None]] = out
        if (slow := np.flatnonzero(slow)).size:  # Python's text in all 11 words
            text = "".join((",\n"[not j] + fmts[j] % cols[j][start + i]).ljust(44, "\0")
                           for i, j in zip(*np.divmod(slow, ncols)))
            slots = np.frombuffer(text.encode(), "<u4").reshape(-1, 11)
            words[first[slow, None] + np.arange(11)] = slots
        yield words.tobytes().translate(None, b"\0")


def _write_csv(path: str, header, columns) -> None:
    """Write equal-length columns under ``header`` (a 2-D entry is a stack of
    columns) as ``%d`` for integers, else ``%.12g``, byte for byte, formatted
    block by block in this process."""
    groups = [np.atleast_2d(c) for c in columns]
    if any(g.shape[1] != groups[0].shape[1] for g in groups):
        raise ValueError(f"CSV columns for {path} differ in length")
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode())
        fh.writelines(_format_rows(groups))
        fh.write(b"\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_state_table(args, table, stem: str) -> None:
    """Rows t, columns n0..nN of ``table.probs[n, t]``; no transposed copy."""
    header = ["t"] + [f"n{n}" for n in range(table.n_max + 1)]
    path = os.path.join(args.out, f"{stem}.csv")
    _write_csv(path, header, [np.arange(table.horizon + 1), table.probs])


def validate_summary(payload: dict) -> None:
    """Schema check for emitted JSON summaries; raises on violation."""
    if not isinstance(payload, dict):
        raise ValueError("summary must be a JSON object")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("summary is missing the supported schema_version")
    if "command" not in payload:
        raise ValueError("summary must name its command")
    for key in payload:
        if not isinstance(key, str):
            raise ValueError("summary keys must be strings")


def _json_value(value):
    """JSON has no NaN or infinity: a non-finite float is written as null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit_summary(args, payload: dict) -> None:
    """Write ``<command>_summary.json`` and echo it under ``--summary``."""
    payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **payload}
    payload = {key: _json_value(value) for key, value in payload.items()}
    validate_summary(payload)
    _write_json(os.path.join(args.out, f"{args.command}_summary.json"), payload)
    if args.summary:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_renewal(args) -> int:
    law = parse_law(args.law)
    _write_state_table(args, renewal.state_table(law, args.horizon), "renewal_state")
    pmf = law.pmf_vector(args.horizon)
    path = os.path.join(args.out, "law_pmf.csv")
    _write_csv(path, ["t", "psi"], [np.arange(len(pmf)), pmf])
    mean, second = renewal.count_moments(law, args.horizon)
    _write_csv(
        os.path.join(args.out, "renewal_moments.csv"),
        ["t", "count_mean", "count_second"],
        [np.arange(len(mean)), mean, second],
    )
    masses, label = renewal.limit_state_law(law, n_max=15)
    _emit_summary(
        args,
        {
            "law": law_config(law),
            "defect_mass": law.defect_mass,
            "classification": label,
            "limit_state": [float(v) for v in masses],
            "horizon": args.horizon,
        },
    )
    return 0


def _stopped_spec(args):
    """The spec of --inner, --stop and --horizon, and its summary fields."""
    spec = stopped.StoppedSpec(parse_law(args.inner), parse_law(args.stop), args.horizon)
    laws = {"inner": law_config(spec.inner), "stop": law_config(spec.stop)}
    return spec, {**laws, "horizon": args.horizon}


def _cmd_stopped(args) -> int:
    spec, fields = _stopped_spec(args)
    _write_state_table(args, stopped.stopped_state_table(spec), "stopped_state")
    mean, second = stopped._moment_pair(spec)
    _write_csv(
        os.path.join(args.out, "stopped_moments.csv"),
        ["t", "mean", "second", "variance"],
        [np.arange(len(mean)), mean, second, second - mean**2],
    )
    payload = {
        **fields,
        "never_stop_prob": stopped.never_stop_prob(spec),
        "classification": stopped.classify(spec),
        "mean_at_horizon": float(mean[-1]),
        "variance_at_horizon": float(second[-1] - mean[-1] ** 2),
    }
    limits = stopped.closed_form_limits(spec)
    if limits is not None:
        payload.update(mean_inf=limits.mean, second_inf=limits.second_moment,
                       variance_inf=limits.variance, state_mass_total=limits.state_mass_total)
    _emit_summary(args, payload)
    return 0


_STEP_KINDS = {
    "line": (lambda p=0.5: walks.line_walk(p), ("p",)),
    "line-biased": (lambda: walks.line_walk(1.0), ()),
    "hypercubic": (lambda d=1: walks.hypercubic_walk(d), ("d",)),
    "triangular-biased": (lambda: walks.triangular_walk(True), ()),
    "triangular-unbiased": (lambda: walks.triangular_walk(False), ()),
}


def parse_steps(text: str) -> walks.StepLaw:
    """Step-law config: kind[:key=value,...], e.g. line:p=0.5 or hypercubic:d=2."""
    kind, values = parse_config(text, _STEP_KINDS, "step")
    return _STEP_KINDS[kind][0](**values)


def _write_grid(path: str, grid: walks.PropagatorGrid) -> None:
    """Lattice coordinates x0..x{d-1} and the mass at each site of the box."""
    coords = grid.lattice_coordinates().reshape(grid.dim, -1)
    header = [f"x{j}" for j in range(grid.dim)] + ["prob"]
    _write_csv(path, header, [*coords, grid.values.ravel()])


def _cmd_walk(args) -> int:
    t = args.propagator_time
    if t is None:
        if args.box is not None:
            raise ParameterError(f"--box ({args.box}) needs --propagator-time")
    elif not 0 <= t <= args.horizon:
        raise ParameterError(f"--propagator-time must be in [0, horizon={args.horizon}], got {t}")
    spec, fields = _stopped_spec(args)
    step = parse_steps(args.steps)
    if t is not None:
        box = 64 if args.box is None else args.box
        grid = walks.propagator(step, stopped.stopped_column(spec, t), box)
        _write_grid(os.path.join(args.out, f"walk_propagator_t{t}.csv"), grid)
    mean, second = stopped._moment_pair(spec)
    moments = walks.walk_moments(step, mean, second)
    header = ["t", "count_mean", "count_second", "msd"]
    columns = [np.arange(len(mean)), mean, second, moments.msd]
    for j in range(step.dim):
        header += [f"mean_x{j}", f"second_x{j}"]
        columns += [moments.mean[:, j], moments.second[:, j]]
    _write_csv(os.path.join(args.out, "walk_moments.csv"), header, columns)
    horizon = args.horizon
    payload = {
        "steps": args.steps,
        **fields,
        "never_stop_prob": stopped.never_stop_prob(spec),
        "mean_step": [float(v) for v in step.mean_step],
        "step_second_moment": [float(v) for v in step.second_moment],
        "msd_at_horizon": float(moments.msd[-1]),
        "msd_over_t": float(moments.msd[-1] / horizon) if horizon else None,
        "msd_over_t2": float(moments.msd[-1] / horizon**2) if horizon else None,
    }
    _emit_summary(args, payload)
    return 0


_CURVE_GRID = ("y_min", "y_max", "points")
#: the ness flags each kind reads, with the default of each that has one
_NESS_FLAGS = {
    "lattice": {"inner": None, "steps": None, "q": 0.99, "box": 256},
    "one-sided-exp": {"scale": 1.0, **dict.fromkeys(_CURVE_GRID)},
    "laplace": {"scale": 1.0, **dict.fromkeys(_CURVE_GRID)},
    "stable-mixture": {"alpha": 2.0, "theta": 0.0, **dict.fromkeys(_CURVE_GRID)},
}


def _cmd_ness(args) -> int:
    reads = _NESS_FLAGS[args.kind]
    others = {name for flags in _NESS_FLAGS.values() for name in flags} - reads.keys()
    unread = sorted(f"--{n.replace('_', '-')}" for n in others if getattr(args, n) is not None)
    if unread:
        raise ParameterError(f"ness --kind {args.kind} does not read {', '.join(unread)}")
    for name, default in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.kind == "lattice":
        for flag, value in (("--inner", args.inner), ("--steps", args.steps)):
            if value is None:
                raise ParameterError(f"ness --kind lattice needs {flag}")
        spec_inner = parse_law(args.inner)
        step = parse_steps(args.steps)
        grid = ness.lattice_ness(step, spec_inner, args.q, args.box)
        _write_grid(os.path.join(args.out, "ness_lattice.csv"), grid)
        payload = {
            "kind": "lattice",
            "steps": args.steps,
            "inner": law_config(spec_inner),
            "q": args.q,
            "box": args.box,
            "mass_in_box": grid.mass_in_box,
            "origin_mass": grid.prob([0] * step.dim),
            "rescale_length": ness.ness_scale(spec_inner, args.q),
        }
        _emit_summary(args, payload)
        return 0
    if (args.y_min is None) != (args.y_max is None):
        raise ParameterError("--y-min and --y-max must be given together")
    if args.y_max is None and args.points is not None:
        raise ParameterError(f"--points ({args.points}) needs --y-min and --y-max")
    points = 201 if args.points is None else args.points
    if points < 1:
        raise ParameterError(f"--points must be >= 1, got {points}")
    y = None
    if args.y_max is not None:
        if not -math.inf < args.y_min < args.y_max < math.inf:
            raise ParameterError(
                f"--y-min ({args.y_min}) must be below --y-max ({args.y_max}), "
                "both finite"
            )
        y = np.linspace(args.y_min, args.y_max, points)
    params = {}
    if args.kind == "one-sided-exp":
        curve = ness.one_sided_exp_curve(args.scale, y=y)
        params["mean_displacement"] = args.scale
    elif args.kind == "laplace":
        curve = ness.laplace_curve(args.scale, y=y)
        params["msd"] = args.scale
    else:
        curve = ness.stable_mixture_curve(args.alpha, args.theta, y=y)
        params.update({"alpha": args.alpha, "theta": args.theta})
    if np.isinf(curve.density).any():
        at = curve.y[np.isinf(curve.density)][0]
        raise ParameterError(f"--y-min/--y-max grid has y = {at:g}, where the density is infinite")
    path = os.path.join(args.out, "ness_curve.csv")
    _write_csv(path, ["y", "density"], [curve.y, curve.density])
    payload = {"kind": args.kind, "trapezoid_mass": curve.trapezoid_mass(), **params}
    _emit_summary(args, payload)
    return 0


def _cmd_mc(args) -> int:
    spec, fields = _stopped_spec(args)
    workers = {} if args.workers is None else {"workers": args.workers}
    cfg = montecarlo.SimConfig(
        seed=args.seed, replicas=args.replicas, horizon=args.horizon, **workers
    )
    try:
        t_obs = INFINITY if args.t_obs in ("inf", "infinity") else int(args.t_obs)
    except ValueError:
        raise ParameterError(f"--t-obs must be an integer or 'inf', got {args.t_obs!r}") from None
    values = montecarlo.sample_stopped_value(spec, cfg, t_obs)
    support, counts = np.unique(values, return_counts=True)
    path = os.path.join(args.out, "mc_histogram.csv")
    _write_csv(path, ["value", "count"], [support, counts])
    payload = {
        **fields,
        "t_obs": "inf" if t_obs == INFINITY else t_obs,
        "seed": args.seed,
        "replicas": args.replicas,
        "mean": float(values.mean()),
        "variance": float(values.var()),
    }
    # an inner law without a column step reads the column off an O(t^3) table
    if t_obs != INFINITY and (t_obs <= 2048 or spec.inner.count_steps(0) is not None):
        exact = stopped.stopped_column(spec, t_obs)
        comp = montecarlo.compare_discrete(values, np.arange(len(exact)), exact)
        # the p-value is NaN, written null, with fewer than two pooled bins
        payload.update(tv_distance=comp.tv, chisq_pvalue=comp.chisq_pvalue)
    _emit_summary(args, payload)
    return 0


_QS_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
_FIGURE_HORIZON = 200
_P0, _Q = 0.7, 0.8


def _stop_grid(value_of):
    """Series over t = 0..200, one column per stopping mass, each read off
    that mass's ``dbp_stops_bernoulli`` summary (fig3, fig6, fig8)."""
    columns = [value_of(_dbp(qs)) for qs in _QS_GRID]
    header = ["t"] + [f"stop_mass_{qs:g}" for qs in _QS_GRID]
    return header, [np.arange(len(columns[0])), *columns]


def _moments_vs_stop(summary_of):
    """Infinite-time moments against the stopping success probability (fig2, fig5)."""
    grid = np.linspace(0.02, 0.98, 49)
    stats = [summary_of(p) for p in grid.tolist()]
    moments = np.array([(s.mean, s.second_moment, s.variance) for s in stats])
    return ["stop_p", "mean_inf", "second_inf", "variance_inf"], [grid, *moments.T]


def _profiles(y, density, label):
    """Stationary densities on the grid y for three scales (fig9, fig10)."""
    scales = (0.5, 1.0, 2.0)
    header = ["y"] + [f"{label}_{a:g}" for a in scales]
    return header, [y] + [density(y, a) for a in scales]


def _dbp(qs, horizon=_FIGURE_HORIZON):
    return stopped.dbp_stops_bernoulli(_P0, _Q, qs, horizon)


#: figure key -> () -> (header, columns) of ``<key>.csv``
_FIGURES = {
    "fig2": lambda: _moments_vs_stop(
        lambda p: stopped.bernoulli_stops_sibuya(0.2, p)
    ),
    "fig3": lambda: _stop_grid(lambda dbp: dbp.mean),
    "fig5": lambda: _moments_vs_stop(
        lambda p: stopped.bernoulli_stops_bernoulli(0.6, p)
    ),
    "fig6": lambda: _stop_grid(lambda dbp: dbp.variance),
    "fig7": lambda: (
        ["t", "lambda_max"], [np.arange(2, 1001), _dbp(0.5, 1000).lambda_max[2:]]
    ),
    "fig8": lambda: _stop_grid(
        lambda dbp: walks.triangular_msd("biased", dbp.mean, dbp.second_moment)
    ),
    "fig9": lambda: _profiles(
        np.linspace(0.0, 10.0, 401), ness.one_sided_exp_density, "scale"
    ),
    "fig10": lambda: _profiles(np.linspace(-8.0, 8.0, 641), ness.laplace_density, "msd"),
}


def _cmd_figures(args) -> int:
    keys = list(_FIGURES) if args.key == "all" else [args.key]
    for key in keys:
        header, columns = _FIGURES[key]()
        _write_csv(os.path.join(args.out, f"{key}.csv"), header, columns)
    _emit_summary(args, {"keys": keys})
    return 0


def _read_config_tokens(path: str) -> list:
    tokens = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParameterError(
                    f"{path}:{line_no}: expected 'key = value', got {raw!r}"
                )
            tokens.append(f"--{key.strip().replace('_', '-')}")
            tokens.append(value.strip())
    return tokens


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="renewalk",
        description="Exact and Monte Carlo laws of stopped renewal processes "
        "and the lattice walks they generate.  --config FILE, anywhere on the "
        "command line, reads 'key = value' lines as options of the subcommand; "
        "explicit options override them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, horizon=False, laws=False):
        """A subcommand with --out and --summary; --horizon with ``horizon``,
        and --horizon, --inner and --stop with ``laws``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if horizon or laws:
            p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
        p.add_argument("--out", default=".")
        p.add_argument("--summary", action="store_true", help="echo the JSON summary")
        if laws:
            p.add_argument("--inner", required=True, help="inner waiting-law config")
            p.add_argument("--stop", required=True, help="stopping waiting-law config")
        return p

    p_renewal = command("renewal", _cmd_renewal, "single renewal process laws", horizon=True)
    p_renewal.add_argument("--law", required=True, help="waiting-law config")

    command("stopped", _cmd_stopped, "stopped-process laws and moments", laws=True)

    p_walk = command("walk", _cmd_walk, "time-changed lattice walk moments", laws=True)
    p_walk.add_argument("--steps", required=True, help="step-law config")
    p_walk.add_argument("--propagator-time", type=int, default=None)
    p_walk.add_argument("--box", type=int, help="with --propagator-time (default 64)")

    p_ness = command("ness", _cmd_ness, "stationary laws of stopped walks")
    p_ness.add_argument(
        "--kind",
        required=True,
        choices=["lattice", "one-sided-exp", "laplace", "stable-mixture"],
    )
    # a flag the chosen kind does not read is an error, so none has a
    # default here; _NESS_FLAGS holds the defaults of the kinds that read them
    p_ness.add_argument("--inner", help="inner waiting-law config (lattice kind)")
    p_ness.add_argument("--steps", help="step-law config (lattice kind)")
    p_ness.add_argument("--q", type=float, help="lattice kind (default 0.99)")
    p_ness.add_argument("--box", type=int, help="lattice kind (default 256)")
    p_ness.add_argument("--scale", type=float,
                        help="mean displacement (one-sided-exp) or msd (laplace), default 1")
    p_ness.add_argument("--alpha", type=float, help="stable-mixture kind (default 2)")
    p_ness.add_argument("--theta", type=float, help="stable-mixture kind (default 0)")
    p_ness.add_argument("--y-min", type=float, help="curve kinds, with --y-max")
    p_ness.add_argument("--y-max", type=float, help="curve kinds, with --y-min")
    p_ness.add_argument("--points", type=int, help="curve kinds (default 201)")

    p_mc = command("mc", _cmd_mc, "Monte Carlo histograms and statistics", laws=True)
    p_mc.add_argument("--seed", type=int, default=12345)
    p_mc.add_argument("--replicas", type=int, default=100_000)
    p_mc.add_argument("--workers", type=int,
                      help="threads (default: the CPUs this process may run on)")
    p_mc.add_argument("--t-obs", default="inf", help="observation time or 'inf'")

    p_fig = command("figures", _cmd_figures, "regenerate figure datasets")
    p_fig.add_argument("key", choices=[*_FIGURES, "all"])
    return parser


def _splice_config(argv: list) -> list:
    """argv with ``--config FILE`` or ``--config=FILE`` replaced by the file's options right
    after the subcommand, so that explicit options override them; one file at most."""
    argv = [part for tok in argv
            for part in (tok.split("=", 1) if tok.startswith("--config=") else [tok])]
    if argv.count("--config") > 1:
        raise ParameterError("--config is repeated; give one file")
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ParameterError("--config needs a file")
    tokens = _read_config_tokens(argv[idx + 1])
    argv = argv[:idx] + argv[idx + 2 :]
    return argv[:1] + tokens + argv[1:]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _splice_config(argv)
    except (OSError, ParameterError) as exc:
        print(f"renewalk: config error: {exc}", file=sys.stderr)
        return 2
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.func(args)
    except _COMPUTE_ERRORS as exc:
        print(f"renewalk: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
