"""Batch command-line front end.

Subcommands: renewal | stopped | walk | ness | mc | figures.  Each writes
figure-ready CSV data plus a machine-readable JSON summary into the
output directory.  Exit codes: 0 success, 1 computation error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import montecarlo, ness, renewal, stopped, walks
from .series import DEFAULT_HORIZON
from .errors import (
    BoxLeakageError,
    HorizonMismatchError,
    InconclusiveRunError,
    ParameterError,
    QuadratureError,
    SingularSeriesError,
)
from .laws import (
    INFINITY,
    DefectiveGeometric,
    Geometric,
    ShiftedPoisson,
    law_config,
    parse_law,
)

SCHEMA_VERSION = 1

_COMPUTE_ERRORS = (
    ParameterError,
    HorizonMismatchError,
    SingularSeriesError,
    BoxLeakageError,
    QuadratureError,
    InconclusiveRunError,
    RuntimeError,
    ValueError,
    OSError,
)


#: rows are formatted in blocks of about this many cells, so a block's
#: Python numbers stay small whatever the column count
_CSV_BLOCK_CELLS = 1 << 13


def _write_csv(path: str, header, columns) -> None:
    """Write equal-length columns under ``header``, one format string per row.

    Integer columns are written as ``%d``, every other column as ``%.12g``.
    """
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    if any(len(c) != rows for c in columns):
        raise ValueError(f"CSV columns for {path} differ in length")
    fmt = ",".join(
        "%d" if np.issubdtype(c.dtype, np.integer) else "%.12g" for c in columns
    ) + "\n"
    block = max(1, _CSV_BLOCK_CELLS // len(columns))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, block):
            cells = zip(*(c[start : start + block].tolist() for c in columns))
            fh.writelines(fmt % row for row in cells)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_state_table(args, table, stem: str) -> None:
    """Rows t, columns n0..nN of ``table.probs[n, t]``; no transposed copy."""
    header = ["t"] + [f"n{n}" for n in range(table.n_max + 1)]
    path = os.path.join(args.out, f"{stem}.csv")
    _write_csv(path, header, [np.arange(table.horizon + 1), *table.probs])


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


def _emit_summary(args, payload: dict, stem: str, echo: bool = False) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    validate_summary(payload)
    _write_json(os.path.join(args.out, f"{stem}.json"), payload)
    if echo:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_renewal(args) -> int:
    law = parse_law(args.law)
    _write_state_table(args, renewal.state_table(law, args.horizon), "renewal_state")
    pmf = law.pmf_vector(max(args.horizon, 1))
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
            "command": "renewal",
            "law": law_config(law),
            "defect_mass": law.defect_mass,
            "classification": label,
            "limit_state": [float(v) for v in masses],
            "horizon": args.horizon,
        },
        "renewal_summary",
        echo=args.summary,
    )
    return 0


def _stop_asymptotics(spec):
    """Closed-form infinite-time block where one exists, else None."""
    stop = spec.stop
    if isinstance(stop, (Geometric, DefectiveGeometric)):
        summary = stopped.geometric_stop_asymptotics(
            spec.inner, stop.q, stop.defect_mass
        )
    elif isinstance(stop, ShiftedPoisson) and isinstance(spec.inner, Geometric):
        summary = stopped.poisson_stop(spec.inner.p, stop.lam)
    else:
        return None
    return {
        "mean_inf": summary.mean,
        "second_inf": summary.second_moment,
        "variance_inf": summary.variance,
        "state_mass_total": summary.state_mass_total,
    }


def _cmd_stopped(args) -> int:
    spec = stopped.StoppedSpec(
        parse_law(args.inner), parse_law(args.stop), args.horizon
    )
    _write_state_table(args, stopped.stopped_state_table(spec), "stopped_state")
    mean = stopped.stopped_moments(spec, 1)
    second = stopped.stopped_moments(spec, 2)
    _write_csv(
        os.path.join(args.out, "stopped_moments.csv"),
        ["t", "mean", "second", "variance"],
        [np.arange(len(mean)), mean, second, second - mean**2],
    )
    payload = {
        "command": "stopped",
        "inner": law_config(spec.inner),
        "stop": law_config(spec.stop),
        "horizon": args.horizon,
        "never_stop_prob": stopped.never_stop_prob(spec),
        "classification": stopped.classify(spec),
        "mean_at_horizon": float(mean[-1]),
        "variance_at_horizon": float(second[-1] - mean[-1] ** 2),
    }
    closed = _stop_asymptotics(spec)
    if closed is not None:
        payload.update(closed)
    _emit_summary(args, payload, "stopped_summary", echo=args.summary)
    return 0


_STEP_KINDS = {
    "line": lambda p=0.5: walks.line_walk(float(p)),
    "line-biased": lambda: walks.line_walk(1.0),
    "hypercubic": lambda d=1: walks.hypercubic_walk(int(float(d))),
    "triangular-biased": lambda: walks.triangular_walk(True),
    "triangular-unbiased": lambda: walks.triangular_walk(False),
}


def parse_steps(text: str) -> walks.StepLaw:
    """Step-law config: kind[:key=value,...], e.g. line:p=0.5 or hypercubic:d=2."""
    kind, _, params_text = text.strip().partition(":")
    kind = kind.strip().lower()
    if kind not in _STEP_KINDS:
        raise ParameterError(
            f"unknown step kind {kind!r}; expected one of {sorted(_STEP_KINDS)}"
        )
    kwargs = {}
    if params_text.strip():
        for item in params_text.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ParameterError(f"malformed step parameter {item!r}")
            kwargs[key.strip()] = value
    return _STEP_KINDS[kind](**kwargs)


def _write_grid(path: str, grid: walks.PropagatorGrid) -> None:
    """Lattice coordinates x0..x{d-1} and the mass at each site of the box."""
    coords = grid.lattice_coordinates().reshape(grid.dim, -1)
    header = [f"x{j}" for j in range(grid.dim)] + ["prob"]
    _write_csv(path, header, [*coords, grid.values.ravel()])


def _cmd_walk(args) -> int:
    spec = stopped.StoppedSpec(
        parse_law(args.inner), parse_law(args.stop), args.horizon
    )
    step = parse_steps(args.steps)
    mean = stopped.stopped_moments(spec, 1)
    second = stopped.stopped_moments(spec, 2)
    moments = walks.walk_moments(step, mean, second)
    header = ["t", "count_mean", "count_second", "msd"]
    columns = [np.arange(len(mean)), mean, second, moments.msd]
    for j in range(step.dim):
        header += [f"mean_x{j}", f"second_x{j}"]
        columns += [moments.mean[:, j], moments.second[:, j]]
    _write_csv(os.path.join(args.out, "walk_moments.csv"), header, columns)
    if args.propagator_time is not None:
        t = args.propagator_time
        if not 0 <= t <= args.horizon:
            raise ParameterError("propagator time must be within the horizon")
        table = stopped.stopped_state_table(spec)
        grid = walks.propagator(step, table.column(t), args.box)
        _write_grid(os.path.join(args.out, f"walk_propagator_t{t}.csv"), grid)
    horizon = args.horizon
    payload = {
        "command": "walk",
        "steps": args.steps,
        "inner": law_config(spec.inner),
        "stop": law_config(spec.stop),
        "horizon": horizon,
        "never_stop_prob": stopped.never_stop_prob(spec),
        "mean_step": [float(v) for v in step.mean_step],
        "step_second_moment": [float(v) for v in step.second_moment],
        "msd_at_horizon": float(moments.msd[-1]),
        "msd_over_t": float(moments.msd[-1] / horizon) if horizon else None,
        "msd_over_t2": float(moments.msd[-1] / horizon**2) if horizon else None,
    }
    _emit_summary(args, payload, "walk_summary", echo=args.summary)
    return 0


def _cmd_ness(args) -> int:
    if args.kind == "lattice":
        spec_inner = parse_law(args.inner)
        step = parse_steps(args.steps)
        grid = ness.lattice_ness(step, spec_inner, args.q, args.box)
        _write_grid(os.path.join(args.out, "ness_lattice.csv"), grid)
        payload = {
            "command": "ness",
            "kind": "lattice",
            "steps": args.steps,
            "inner": law_config(spec_inner),
            "q": args.q,
            "box": args.box,
            "mass_in_box": grid.mass_in_box,
            "origin_mass": grid.prob([0] * step.dim),
            "rescale_length": ness.ness_scale(spec_inner, args.q),
        }
        _emit_summary(args, payload, "ness_summary", echo=args.summary)
        return 0
    if (args.y_min is None) != (args.y_max is None):
        raise ParameterError("--y-min and --y-max must be given together")
    if args.points < 1:
        raise ParameterError(f"--points must be >= 1, got {args.points}")
    y = None
    if args.y_max is not None:
        if not -math.inf < args.y_min < args.y_max < math.inf:
            raise ParameterError(
                f"--y-min ({args.y_min}) must be below --y-max ({args.y_max}), "
                "both finite"
            )
        y = np.linspace(args.y_min, args.y_max, args.points)
    params = {}
    if args.kind == "one-sided-exp":
        curve = ness.one_sided_exp_curve(args.scale, y=y)
        params["mean_displacement"] = args.scale
    elif args.kind == "laplace":
        curve = ness.laplace_curve(args.scale, y=y)
        params["msd"] = args.scale
    elif args.kind == "stable-mixture":
        infinite_at_zero = args.theta == 0.0 and 0.0 < args.alpha <= 1.0
        if infinite_at_zero and y is not None and (y == 0.0).any():
            raise ParameterError(
                f"--y-min/--y-max grid contains y = 0, where the symmetric mixture "
                f"density is infinite for alpha={args.alpha} <= 1"
            )
        curve = ness.stable_mixture_curve(args.alpha, args.theta, y=y)
        params.update({"alpha": args.alpha, "theta": args.theta})
    else:
        raise ParameterError(f"unknown ness kind {args.kind!r}")
    path = os.path.join(args.out, "ness_curve.csv")
    _write_csv(path, ["y", "density"], [curve.y, curve.density])
    payload = {
        "command": "ness",
        "kind": args.kind,
        "trapezoid_mass": curve.trapezoid_mass(),
        **params,
    }
    _emit_summary(args, payload, "ness_summary", echo=args.summary)
    return 0


def _cmd_mc(args) -> int:
    spec = stopped.StoppedSpec(
        parse_law(args.inner), parse_law(args.stop), args.horizon
    )
    cfg = montecarlo.SimConfig(
        seed=args.seed,
        replicas=args.replicas,
        horizon=args.horizon,
        workers=args.workers,
    )
    t_obs = INFINITY if args.t_obs in ("inf", "infinity") else int(args.t_obs)
    values = montecarlo.sample_stopped_value(spec, cfg, t_obs)
    support, counts = np.unique(values, return_counts=True)
    path = os.path.join(args.out, "mc_histogram.csv")
    _write_csv(path, ["value", "count"], [support, counts])
    payload = {
        "command": "mc",
        "inner": law_config(spec.inner),
        "stop": law_config(spec.stop),
        "t_obs": "inf" if t_obs == INFINITY else int(t_obs),
        "seed": args.seed,
        "replicas": args.replicas,
        "horizon": args.horizon,
        "mean": float(values.mean()),
        "variance": float(values.var()),
    }
    if t_obs != INFINITY and t_obs <= 2048:
        spec_t = stopped.StoppedSpec(spec.inner, spec.stop, int(t_obs))
        exact = stopped.stopped_state_table(spec_t).column(int(t_obs))
        comp = montecarlo.compare_discrete(values, np.arange(len(exact)), exact)
        payload["tv_distance"] = comp.tv
        payload["chisq_pvalue"] = comp.chisq_pvalue
    _emit_summary(args, payload, "mc_summary", echo=args.summary)
    return 0


_QS_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
_FIGURE_HORIZON = 200
_P0, _Q = 0.7, 0.8


def _stop_grid(value_of):
    """Series over t = 0..200, one column per stopping mass (fig3, fig6, fig8)."""
    columns = [value_of(qs) for qs in _QS_GRID]
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


def _triangular_msd(qs):
    spec = stopped.StoppedSpec(
        Geometric(_P0), DefectiveGeometric(qs, 1.0 - _Q), _FIGURE_HORIZON
    )
    return walks.triangular_msd(
        "biased", stopped.stopped_moments(spec, 1), stopped.stopped_moments(spec, 2)
    )


#: figure key -> () -> (header, columns) of ``<key>.csv``
_FIGURES = {
    "fig2": lambda: _moments_vs_stop(
        lambda p: stopped.bernoulli_stops_sibuya(0.2, p)
    ),
    "fig3": lambda: _stop_grid(lambda qs: _dbp(qs).mean),
    "fig5": lambda: _moments_vs_stop(
        lambda p: stopped.bernoulli_stops_bernoulli(0.6, p)
    ),
    "fig6": lambda: _stop_grid(lambda qs: _dbp(qs).variance),
    "fig7": lambda: (
        ["t", "lambda_max"], [np.arange(2, 1001), _dbp(0.5, 1000).lambda_max[2:]]
    ),
    "fig8": lambda: _stop_grid(_triangular_msd),
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
    _emit_summary(
        args,
        {"command": "figures", "keys": keys},
        "figures_summary",
        echo=args.summary,
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewalk",
        description="Exact and Monte Carlo laws of stopped renewal processes "
        "and the lattice walks they generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, laws_needed=False):
        p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
        p.add_argument("--out", default=".")
        p.add_argument("--summary", action="store_true", help="echo the JSON summary")
        p.add_argument("--config", help="key = value file supplying these options")
        if laws_needed:
            p.add_argument("--inner", required=True, help="inner waiting-law config")
            p.add_argument("--stop", required=True, help="stopping waiting-law config")

    p_renewal = sub.add_parser("renewal", help="single renewal process laws")
    common(p_renewal)
    p_renewal.add_argument("--law", required=True, help="waiting-law config")
    p_renewal.set_defaults(func=_cmd_renewal)

    p_stopped = sub.add_parser("stopped", help="stopped-process laws and moments")
    common(p_stopped, laws_needed=True)
    p_stopped.set_defaults(func=_cmd_stopped)

    p_walk = sub.add_parser("walk", help="time-changed lattice walk moments")
    common(p_walk, laws_needed=True)
    p_walk.add_argument("--steps", required=True, help="step-law config")
    p_walk.add_argument("--propagator-time", type=int, default=None)
    p_walk.add_argument("--box", type=int, default=64)
    p_walk.set_defaults(func=_cmd_walk)

    p_ness = sub.add_parser("ness", help="stationary laws of stopped walks")
    common(p_ness)
    p_ness.add_argument(
        "--kind",
        required=True,
        choices=["lattice", "one-sided-exp", "laplace", "stable-mixture"],
    )
    p_ness.add_argument("--inner", help="inner waiting-law config (lattice kind)")
    p_ness.add_argument("--steps", help="step-law config (lattice kind)")
    p_ness.add_argument("--q", type=float, default=0.99)
    p_ness.add_argument("--box", type=int, default=256)
    p_ness.add_argument("--scale", type=float, default=1.0,
                        help="mean displacement (one-sided-exp) or msd (laplace)")
    p_ness.add_argument("--alpha", type=float, default=2.0)
    p_ness.add_argument("--theta", type=float, default=0.0)
    p_ness.add_argument("--y-min", type=float, default=None)
    p_ness.add_argument("--y-max", type=float, default=None)
    p_ness.add_argument("--points", type=int, default=201)
    p_ness.set_defaults(func=_cmd_ness)

    p_mc = sub.add_parser("mc", help="Monte Carlo histograms and statistics")
    common(p_mc, laws_needed=True)
    p_mc.add_argument("--seed", type=int, default=12345)
    p_mc.add_argument("--replicas", type=int, default=100_000)
    p_mc.add_argument("--workers", type=int, default=1)
    p_mc.add_argument("--t-obs", default="inf", help="observation time or 'inf'")
    p_mc.set_defaults(func=_cmd_mc)

    p_fig = sub.add_parser("figures", help="regenerate figure datasets")
    common(p_fig)
    p_fig.add_argument("key", choices=[*_FIGURES, "all"])
    p_fig.set_defaults(func=_cmd_figures)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    # a --config FILE anywhere injects its tokens before the explicit options
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            path = argv[idx + 1]
        except IndexError:
            parser.print_usage(sys.stderr)
            return 2
        try:
            tokens = _read_config_tokens(path)
        except (OSError, ParameterError) as exc:
            print(f"renewalk: config error: {exc}", file=sys.stderr)
            return 2
        argv = argv[: idx] + argv[idx + 2 :]
        if not argv:
            parser.print_usage(sys.stderr)
            return 2
        argv = [argv[0]] + tokens + argv[1:]
    try:
        args = parser.parse_args(argv)
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
