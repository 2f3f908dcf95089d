import hashlib
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import traced_peak

from renewalk import cli, renewal, stopped
from renewalk.laws import DefectiveGeometric, Geometric, Sibuya


def run(args):
    return cli.main(list(args))


def test_no_arguments_prints_usage(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_option_is_usage_error():
    assert run(["stopped", "--inner", "geometric:p=0.7", "--whatever"]) == 2


def test_bad_law_is_computation_error(tmp_path, capsys):
    code = run(
        ["stopped", "--inner", "nope:p=0.7", "--stop", "geometric:p=0.2",
         "--out", str(tmp_path)]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_mc_names_a_negative_seed(tmp_path, capsys):
    argv = ["mc", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2",
            "--t-obs", "0", "--replicas", "30", "--seed", "-1", "--out", str(tmp_path)]
    assert run(argv) == 1
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_stopped_summary_contains_limit_mean(tmp_path, capsys):
    code = run(
        ["stopped", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2",
         "--horizon", "64", "--out", str(tmp_path), "--summary"]
    )
    assert code == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["mean_inf"] == pytest.approx(3.5, abs=1e-9)
    payload = json.loads((tmp_path / "stopped_summary.json").read_text())
    assert payload == echoed
    cli.validate_summary(payload)
    assert payload["variance_inf"] == pytest.approx(10.85, abs=1e-9)
    assert (tmp_path / "stopped_state.csv").exists()
    moments = (tmp_path / "stopped_moments.csv").read_text().splitlines()
    assert moments[0] == "t,mean,second,variance"
    assert len(moments) == 66


def test_cached_parser_carries_nothing_to_the_next_call(tmp_path, capsys):
    # main builds its parser once; a flag of one call must not reach the next
    assert cli.build_parser() is cli.build_parser()
    argv = ["stopped", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2",
            "--out", str(tmp_path)]
    assert run([*argv, "--horizon", "8", "--summary"]) == 0
    assert json.loads(capsys.readouterr().out)["horizon"] == 8
    assert run(argv) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads((tmp_path / "stopped_summary.json").read_text())
    assert payload["horizon"] == 512


def test_summary_schema_validation():
    with pytest.raises(ValueError):
        cli.validate_summary({"command": "x"})
    with pytest.raises(ValueError):
        cli.validate_summary({"schema_version": 1})
    cli.validate_summary({"schema_version": 1, "command": "x"})
    with pytest.raises(ValueError, match="summary must be a JSON object"):
        cli.validate_summary([("schema_version", 1), ("command", "x")])
    with pytest.raises(ValueError, match="summary keys must be strings"):
        cli.validate_summary({"schema_version": 1, "command": "x", 2: "y"})


def test_poisson_stop_of_a_geometric_inner_law_has_closed_limits(tmp_path):
    argv = ["stopped", "--inner", "geometric:p=0.7", "--stop", "shifted_poisson:lam=2",
            "--horizon", "16", "--out", str(tmp_path)]
    assert run(argv) == 0
    payload = json.loads((tmp_path / "stopped_summary.json").read_text())
    want = stopped.poisson_stop(0.7, 2.0)
    assert [payload[k] for k in ("mean_inf", "second_inf", "variance_inf")] == [
        want.mean, want.second_moment, want.variance]


def test_stop_without_closed_limits_writes_none(tmp_path):
    argv = ["stopped", "--inner", "geometric:p=0.7", "--stop", "sibuya:mu=0.5",
            "--horizon", "16", "--out", str(tmp_path)]
    assert run(argv) == 0
    payload = json.loads((tmp_path / "stopped_summary.json").read_text())
    assert payload.keys().isdisjoint(
        {"mean_inf", "second_inf", "variance_inf", "state_mass_total"})


@pytest.mark.parametrize("stop", ["geometric:p=1", "defective_geometric:defect=0,p=0.5"])
def test_geometric_stop_at_t1_or_of_mass_0_writes_no_limits(tmp_path, stop):
    # the closed-form limits are 0/0 there: the run used to end in an error
    argv = ["stopped", "--inner", "geometric:p=0.7", "--stop", stop, "--horizon", "16",
            "--out", str(tmp_path)]
    assert run(argv) == 0
    payload = json.loads((tmp_path / "stopped_summary.json").read_text())
    assert payload.keys().isdisjoint(
        {"mean_inf", "second_inf", "variance_inf", "state_mass_total"})


@pytest.mark.parametrize("inner, stop, digest", [
    ("geometric:p=0.7", "defective_geometric:defect=0.5,p=0.035",
     "6ac2a73d69451011f6623097e67229951f72195efaabffe42cccea77962bc023"),
    ("geometric:p=0.6", "shifted_poisson:lam=2",
     "09fa929959991352ec30648ae0b726bdf8e8a9e79ae064153ebd3ebe382c5ecf"),
    ("sibuya:mu=0.5", "sibuya:mu=0.3",
     "585301b67e072e236d20547da5121b0dbc8a9e165006b5e5ac661785be1c8bbe"),
], ids=["geometric-stop", "poisson-stop", "no-closed-form"])
def test_stopped_summary_keeps_its_bytes(tmp_path, inner, stop, digest):
    # one run for each branch of stopped.closed_form_limits
    argv = ["stopped", "--inner", inner, "--stop", stop, "--horizon", "96", "--out", str(tmp_path)]
    assert run(argv) == 0
    data = (tmp_path / "stopped_summary.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_renewal_outputs(tmp_path):
    code = run(
        ["renewal", "--law", "defective_geometric:defect=0.5,p=0.7",
         "--horizon", "32", "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "renewal_summary.json").read_text())
    assert payload["classification"] == "type_I"
    np.testing.assert_allclose(
        payload["limit_state"], 0.5 ** (np.arange(16) + 1), atol=1e-12
    )
    state = (tmp_path / "renewal_state.csv").read_text().splitlines()
    assert state[0].startswith("t,n0,n1")
    assert len(state) == 34


def test_figures_fig6_dataset(tmp_path):
    assert run(["figures", "fig6", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "fig6.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "t", "stop_mass_0", "stop_mass_0.25", "stop_mass_0.5",
        "stop_mass_0.75", "stop_mass_1",
    ]
    assert len(lines) == 202  # t = 0..200
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 200
    # never-stopped column grows linearly, fully stopped column saturates
    assert last[1] == pytest.approx(0.7 * 0.3 * 200, abs=1e-9)
    assert last[5] == pytest.approx(10.85, abs=1e-2)


def test_figures_regeneration_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["figures", "fig6", "--out", str(out1)]) == 0
    assert run(["figures", "fig6", "--out", str(out2)]) == 0
    assert (out1 / "fig6.csv").read_bytes() == (out2 / "fig6.csv").read_bytes()
    summary = json.loads((out1 / "figures_summary.json").read_text())
    assert "seed" not in summary


def test_monte_carlo_flags_belong_to_mc_only(tmp_path):
    law = ["--law", "geometric:p=0.7", "--horizon", "8", "--out", str(tmp_path)]
    for flag in ("--seed", "--replicas", "--workers"):
        assert run(["renewal", *law, flag, "1"]) == 2
    assert run(["figures", "fig9", "--out", str(tmp_path), "--seed", "1"]) == 2


def test_renewal_pmf_export(tmp_path):
    assert run(
        ["renewal", "--law", "sibuya:mu=0.5", "--horizon", "16", "--out", str(tmp_path)]
    ) == 0
    lines = (tmp_path / "law_pmf.csv").read_text().splitlines()
    assert lines[0] == "t,psi"
    assert lines[1] == "0,0"
    assert float(lines[2].split(",")[1]) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "argv,stems",
    [(["renewal", "--law", "sibuya:mu=0.5"],
      ["renewal_state", "law_pmf", "renewal_moments"]),
     (["stopped", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2"],
      ["stopped_state", "stopped_moments"]),
     (["walk", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2",
       "--steps", "hypercubic:d=2", "--propagator-time", "0", "--box", "2"],
      ["walk_moments"])],
    ids=["renewal", "stopped", "walk"],
)
def test_horizon_zero_writes_the_t0_row(tmp_path, argv, stems):
    # T = 0: nothing has happened, so M(0) = 0 with probability 1
    assert run([*argv, "--horizon", "0", "--out", str(tmp_path)]) == 0
    for stem in stems:
        header, *rows = (tmp_path / f"{stem}.csv").read_text().splitlines()
        assert len(rows) == 1 and rows[0].startswith("0,"), stem
    if argv[0] == "walk":
        propagator = (tmp_path / "walk_propagator_t0.csv").read_text()
        assert [line for line in propagator.splitlines() if line.endswith(",1")] == ["0,0,1"]


@pytest.mark.parametrize(
    "argv,named",
    [(["renewal", "--law", "geometric:p=abc"], "parameter p='abc' of law 'geometric'"),
     (["ness", "--kind", "lattice", "--inner", "geometric:p=0.7", "--steps",
       "hypercubic:d=x"], "parameter d='x' of step 'hypercubic'")],
    ids=["law", "step"],
)
def test_non_numeric_config_value_names_key_and_kind(tmp_path, capsys, argv, named):
    assert run([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"renewalk: error: {named} is not a number\n"


def test_figures_all(tmp_path):
    assert run(["figures", "all", "--out", str(tmp_path)]) == 0
    for key in ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"):
        assert (tmp_path / f"{key}.csv").exists()
    fig7 = (tmp_path / "fig7.csv").read_text().splitlines()
    t, lam = fig7[-1].split(",")
    assert t == "1000" and abs(float(lam) - 0.5) < 0.01


def test_mc_outputs_are_byte_identical_across_workers(tmp_path):
    args = ["mc", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2",
            "--t-obs", "20", "--replicas", "40000", "--seed", "77",
            "--horizon", "64"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2), "--workers", "4"]) == 0
    assert (out1 / "mc_histogram.csv").read_bytes() == (
        out2 / "mc_histogram.csv"
    ).read_bytes()
    assert (out1 / "mc_summary.json").read_bytes() == (
        out2 / "mc_summary.json"
    ).read_bytes()
    payload = json.loads((out1 / "mc_summary.json").read_text())
    assert payload["tv_distance"] < 0.02
    cli.validate_summary(payload)


def test_walk_outputs(tmp_path):
    code = run(
        ["walk", "--inner", "geometric:p=0.7", "--stop",
         "defective_geometric:defect=0.5,p=0.2", "--steps", "triangular-biased",
         "--horizon", "128", "--propagator-time", "8", "--box", "12",
         "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "walk_summary.json").read_text())
    assert payload["never_stop_prob"] == pytest.approx(0.5, abs=1e-12)
    assert payload["mean_step"][1] == pytest.approx(np.sqrt(3) / 4, abs=1e-12)
    assert (tmp_path / "walk_moments.csv").exists()
    assert (tmp_path / "walk_propagator_t8.csv").exists()


@pytest.mark.parametrize("command", ["stopped", "walk"])
def test_one_renewal_density_per_run(tmp_path, monkeypatch, command):
    calls = []
    count_moments = renewal.count_moments

    def counted(*args):
        calls.append(args)
        return count_moments(*args)

    monkeypatch.setattr(renewal, "count_moments", counted)
    spec = stopped.StoppedSpec(Geometric(0.7), DefectiveGeometric(0.5, 0.2), 32)
    argv = [command, "--inner", "geometric:p=0.7", "--stop",
            "defective_geometric:defect=0.5,p=0.2", "--horizon", "32",
            "--out", str(tmp_path)]
    assert run(argv + (["--steps", "line:p=0.5"] if command == "walk" else [])) == 0
    assert len(calls) == 1
    name = "stopped_moments.csv" if command == "stopped" else "walk_moments.csv"
    table = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
    for order in (1, 2):
        np.testing.assert_allclose(table[:, order], stopped.stopped_moments(spec, order),
                                   rtol=1e-11)


def test_ness_curve_and_lattice(tmp_path):
    assert run(
        ["ness", "--kind", "laplace", "--scale", "1.0", "--out", str(tmp_path)]
    ) == 0
    payload = json.loads((tmp_path / "ness_summary.json").read_text())
    assert payload["trapezoid_mass"] == pytest.approx(1.0, abs=1e-3)
    assert run(
        ["ness", "--kind", "lattice", "--steps", "line:p=0.5",
         "--inner", "geometric:p=0.7", "--q", "0.8", "--box", "96",
         "--out", str(tmp_path)]
    ) == 0
    payload = json.loads((tmp_path / "ness_summary.json").read_text())
    assert payload["mass_in_box"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "steps",
    ["line:p=0.7", "line-biased", "hypercubic:d=2", "triangular-biased",
     "triangular-unbiased"],
)
def test_ness_lattice_at_default_q_and_box(tmp_path, steps):
    # q = 0.99 and box 256 need a 540-panel torus for the 2-d walks that
    # return, 1080 for line:p=0.7, 1250 for triangular-biased and 2187 for
    # the ballistic line-biased
    argv = ["ness", "--kind", "lattice", "--inner", "geometric:p=0.7",
            "--steps", steps, "--out", str(tmp_path)]
    assert run(argv) == 0
    payload = json.loads((tmp_path / "ness_summary.json").read_text())
    assert (payload["q"], payload["box"]) == (0.99, 256)
    assert 0.97 < payload["mass_in_box"] <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "steps,named",
    [("line:q=0.5", "unknown parameter 'q'"), ("hypercubic:d=2.5", "d=2.5"),
     ("line:p", "malformed step parameter 'p'")],
)
def test_ness_lattice_rejects_bad_step_parameters(tmp_path, capsys, steps, named):
    argv = ["ness", "--kind", "lattice", "--inner", "geometric:p=0.7",
            "--steps", steps, "--out", str(tmp_path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("renewalk: error:") and named in err


@pytest.mark.parametrize("missing", ["--inner", "--steps"])
def test_ness_lattice_names_a_missing_flag(tmp_path, capsys, missing):
    flags = {"--inner": "geometric:p=0.7", "--steps": "line:p=0.5"}
    del flags[missing]
    argv = ["ness", "--kind", "lattice", *next(iter(flags.items())),
            "--out", str(tmp_path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("renewalk: error:") and missing in err
    assert not list(tmp_path.iterdir())


def test_ness_curve_kinds(tmp_path):
    kinds = {
        "laplace": ["--scale", "1.0"],
        "one-sided-exp": ["--scale", "2.0"],
        "stable-mixture": ["--alpha", "1.0", "--theta", "1", "--y-min", "0",
                           "--y-max", "20", "--points", "30"],
    }
    for kind, extra in kinds.items():
        out = tmp_path / kind
        assert run(["ness", "--kind", kind, *extra, "--out", str(out)]) == 0
        payload = json.loads((out / "ness_summary.json").read_text())
        assert payload["kind"] == kind
        lines = (out / "ness_curve.csv").read_text().splitlines()
        assert lines[0] == "y,density" and len(lines) > 1
    assert len(lines) == 31
    # a one-point grid is one density value (its trapezoid mass is 0)
    grid = ["--y-min", "0.5", "--y-max", "6", "--points", "1"]
    assert run(["ness", "--kind", "laplace", *grid, "--out", str(out)]) == 0
    assert len((out / "ness_curve.csv").read_text().splitlines()) == 2
    assert run(["ness", "--kind", "nope", "--out", str(tmp_path)]) == 2


def test_ness_rejects_user_grid_through_infinite_origin(tmp_path, capsys):
    argv = ["ness", "--kind", "stable-mixture", "--alpha", "0.7", "--y-min", "-1",
            "--y-max", "1", "--points", "5", "--out", str(tmp_path)]
    assert run(argv) == 1
    assert "--y-min/--y-max" in capsys.readouterr().err
    assert not (tmp_path / "ness_summary.json").exists()
    # alpha > 1 has a finite density at the origin
    assert run([*argv[:4], "1.5", *argv[5:]]) == 0
    payload = json.loads((tmp_path / "ness_summary.json").read_text())
    assert math.isfinite(payload["trapezoid_mass"])


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "inner = geometric:p=0.7\nstop = geometric:p=0.2\n"
        f"horizon = 32\nout = {tmp_path}\n"
    )
    assert run(["stopped", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "stopped_summary.json").read_text())
    assert payload["horizon"] == 32


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("inner = geometric:p=0.7\nstop = geometric:p=0.2\nwat = 1\n")
    assert run(["stopped", "--config", str(cfg)]) == 2


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a stopped run\n\ninner = geometric:p=0.7\n   \n"
                   f"stop = geometric:p=0.2\n  # horizon = 64\nhorizon = 8\nout = {tmp_path}\n")
    assert run(["stopped", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "stopped_summary.json").read_text())
    assert payload["horizon"] == 8


def test_config_line_without_equals_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a stopped run\ninner = geometric:p=0.7\nhorizon 8\n")
    assert run(["stopped", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("renewalk: config error:") and f"{cfg}:3:" in err
    assert not (tmp_path / "out").exists()


def test_config_file_missing(tmp_path):
    assert run(["stopped", "--config", str(tmp_path / "none.cfg")]) == 2


def test_format_flag_is_rejected(tmp_path):
    # state tables are CSV only; --format is no longer an option
    for fmt in ("json", "csv"):
        code = run(
            ["stopped", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2",
             "--horizon", "8", "--out", str(tmp_path), "--format", fmt]
        )
        assert code == 2
    assert not list(tmp_path.iterdir())


_LAPLACE = ["--kind", "laplace"]


@pytest.mark.parametrize(
    "grid, flag",
    [
        ([*_LAPLACE, "--y-max", "3"], "--y-min"),
        ([*_LAPLACE, "--y-min", "-3"], "--y-max"),
        ([*_LAPLACE, "--y-min", "-3", "--y-max", "3", "--points", "0"], "--points"),
        ([*_LAPLACE, "--y-min", "-3", "--y-max", "3", "--points", "-2"], "--points"),
        ([*_LAPLACE, "--y-min", "3", "--y-max", "3"], "--y-min"),
        ([*_LAPLACE, "--y-min", "4", "--y-max", "3"], "--y-min"),
        ([*_LAPLACE, "--y-min=-inf", "--y-max", "3"], "--y-min"),
        ([*_LAPLACE, "--points", "5"], "--points"),
        # a flag that the chosen kind never reads
        (["--kind", "lattice", "--inner", "geometric:p=0.7", "--steps", "line:p=0.5",
          "--points", "5", "--y-min", "0", "--y-max", "1"],
         "does not read --points, --y-max, --y-min"),
        ([*_LAPLACE, "--inner", "geometric:p=0.7", "--box", "3"],
         "does not read --box, --inner"),
    ],
)
def test_ness_rejects_bad_grid_flags(tmp_path, capsys, grid, flag):
    assert run(["ness", *grid, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("renewalk: error:") and flag in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "kind, scale", [("one-sided-exp", "nan"), ("one-sided-exp", "inf"), ("laplace", "inf")]
)
def test_ness_rejects_non_finite_scale(tmp_path, capsys, kind, scale):
    assert run(["ness", "--kind", kind, "--scale", scale, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("renewalk: error:") and f"got {scale}\n" in err
    assert not list(tmp_path.iterdir())


def test_tabulated_law_rejects_non_finite_entries(tmp_path, capsys):
    argv = ["renewal", "--law", "tabulated:pmf=nan;0.5", "--horizon", "4"]
    assert run([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "renewalk: error: tabulated pmf entries must be finite, got nan\n"
    assert not list(tmp_path.iterdir())


def test_mc_pvalue_without_two_bins_is_null(tmp_path):
    # at t_obs = 0 the whole law is one bin, so no chi-square test exists
    code = run(
        ["mc", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2",
         "--t-obs", "0", "--replicas", "1000", "--horizon", "16", "--out", str(tmp_path)]
    )
    assert code == 0

    def reject(token):  # NaN and Infinity are not JSON
        raise ValueError(f"{token} in mc_summary.json")

    payload = json.loads((tmp_path / "mc_summary.json").read_text(), parse_constant=reject)
    assert payload["chisq_pvalue"] is None
    assert payload["tv_distance"] == 0.0


@pytest.mark.parametrize("inner, checked", [
    ("geometric:p=0.7", True), ("sibuya:mu=0.5", True), ("shifted_poisson:lam=1.5", False)])
def test_mc_checks_past_2048_where_the_inner_count_steps(tmp_path, inner, checked):
    # a column step gives the exact column in O(t) memory; any other inner law
    # would build an O(t^3) table for it, so its check still stops at 2048
    argv = ["mc", "--inner", inner, "--stop", "geometric:p=0.01", "--t-obs", "3000",
            "--horizon", "3000", "--replicas", "2000", "--out", str(tmp_path)]
    assert run(argv) == 0
    payload = json.loads((tmp_path / "mc_summary.json").read_text())
    if checked:
        assert payload["tv_distance"] < 0.2 and payload["chisq_pvalue"] > 1e-6
    else:
        assert payload.keys().isdisjoint({"tv_distance", "chisq_pvalue"})


def _reject_constant(token):  # NaN and Infinity are not JSON
    raise ValueError(f"{token} in a summary")


_GEO = ["--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2"]


@pytest.mark.parametrize(
    "argv",
    [["renewal", "--law", "power_law_bernstein:gamma=0.5,zeta=1.5", "--horizon", "16"],
     ["stopped", "--inner", "geometric:p=0.7", "--stop",
      "defective_geometric:defect=0.5,p=0.035", "--horizon", "16"],
     ["walk", *_GEO, "--steps", "line", "--horizon", "0", "--propagator-time", "0"],
     ["ness", "--kind", "laplace", "--points", "1", "--y-min", "0", "--y-max", "1"],
     ["ness", "--kind", "lattice", "--inner", "geometric:p=0.7", "--steps", "line",
      "--q", "0.8", "--box", "8"],
     ["mc", *_GEO, "--t-obs", "0", "--replicas", "100", "--horizon", "4"],
     ["figures", "fig9"]],
    ids=["renewal", "stopped", "walk", "ness-curve", "ness-lattice", "mc", "figures"],
)
def test_every_summary_is_strict_json(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path), "--summary"]) == 0
    text = (tmp_path / f"{argv[0]}_summary.json").read_text()
    payload = json.loads(text, parse_constant=_reject_constant)
    assert json.loads(capsys.readouterr().out, parse_constant=_reject_constant) == payload
    cli.validate_summary(payload)
    if argv[0] == "stopped":
        # a defective stop leaves the limit moments infinite: written null
        assert [payload[k] for k in ("mean_inf", "second_inf", "variance_inf")] == [None] * 3


@pytest.mark.parametrize(
    "argv",
    [["ness", "--kind", "laplace"], ["figures", "fig2"]], ids=["ness", "figures"],
)
def test_horizon_belongs_to_the_series_commands(tmp_path, argv):
    assert run([*argv, "--horizon", "5", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_config_file_before_the_subcommand(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("inner = geometric:p=0.7\nstop = geometric:p=0.2\nhorizon = 8\n")
    assert run(["--config", str(cfg), "stopped", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "stopped_summary.json").read_text())
    assert payload["horizon"] == 8


def test_config_file_in_the_equals_form(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 8\n")
    assert run(["stopped", *_GEO, "--out", str(tmp_path), f"--config={cfg}"]) == 0
    payload = json.loads((tmp_path / "stopped_summary.json").read_text())
    assert payload["horizon"] == 8


def test_second_config_file_is_usage_error(tmp_path, capsys):
    first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("horizon = 8\n")
    second.write_text("horizon = 16\n")
    argv = ["stopped", *_GEO, "--out", str(tmp_path / "out"),
            "--config", str(first), f"--config={second}"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("renewalk: config error:") and "--config is repeated" in err
    assert not (tmp_path / "out").exists()


def test_config_flag_without_a_file_is_usage_error(tmp_path, capsys):
    assert run(["stopped", *_GEO, "--out", str(tmp_path), "--config"]) == 2
    assert capsys.readouterr().err == "renewalk: config error: --config needs a file\n"
    assert not list(tmp_path.iterdir())


def test_config_abbreviation_is_usage_error(tmp_path, capsys):
    # only the full --config names a file; argparse must not expand --conf
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 8\n")
    assert run(["stopped", *_GEO, "--conf", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "unrecognized arguments: --conf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, bad",
    [(["walk", *_GEO, "--steps", "line", "--horizon", "10", "--propagator-time", "11"],
      "got 11"),
     (["mc", *_GEO, "--replicas", "0"], "got 0"),
     (["mc", *_GEO, "--workers", "0"], "got 0"),
     (["stopped", *_GEO, "--horizon", "-1"], "horizon must be >= 0, got -1"),
     (["mc", *_GEO, "--horizon", "50", "--t-obs", "60"], "horizon=50] or INFINITY, got 60"),
     (["ness", "--kind", "lattice", "--inner", "geometric:p=0.7", "--steps", "line",
       "--q", "1.5"], "got 1.5"),
     (["stopped", "--inner", "power_law_bernstein:gamma=0.3,zeta=1", "--stop",
       "geometric:p=1e-8", "--horizon", "8"], "gf(0.99999999)"),
     (["renewal", "--law", "shifted_poisson:lam=inf", "--horizon", "4"], "got inf")],
    ids=["propagator-time", "replicas", "workers", "horizon", "t-obs", "q",
         "power-law-gf", "poisson-rate"],
)
def test_computation_errors_name_the_bad_value(tmp_path, capsys, argv, bad):
    assert run([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("renewalk: error:") and bad in err
    assert not list(tmp_path.glob("*_summary.json"))


def test_walk_box_needs_propagator_time(tmp_path, capsys):
    # --box sizes only the propagator grid; alone it used to be ignored
    argv = ["walk", *_GEO, "--steps", "line:p=0.5", "--horizon", "8"]
    assert run([*argv, "--box", "8", "--out", str(tmp_path / "box")]) == 1
    err = capsys.readouterr().err
    assert err == "renewalk: error: --box (8) needs --propagator-time\n"
    assert not list((tmp_path / "box").iterdir())
    # with --propagator-time alone the box keeps its half-width of 64
    assert run([*argv, "--propagator-time", "4", "--out", str(tmp_path / "grid")]) == 0
    rows = (tmp_path / "grid" / "walk_propagator_t4.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 64 + 1


def test_mc_t_obs_names_its_flag(tmp_path, capsys):
    code = run(
        ["mc", "--inner", "geometric:p=0.7", "--stop", "geometric:p=0.2",
         "--t-obs", "abc", "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "renewalk: error: --t-obs must be an integer or 'inf', got 'abc'\n"


def _reference_csv(header, columns):
    """Cell-by-cell formatter: integers as str(int), other values as %.12g."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(
            str(int(v)) if isinstance(v, (int, np.integer)) else f"{float(v):.12g}"
            for v in row
        ))
    return "\n".join(lines) + "\n"


def _mixed_table():
    """Header and columns of 81 rows of every kind of cell."""
    rng = np.random.default_rng(4)
    x = np.arange(-40, 41)  # lattice coordinates on both sides of the origin
    values = rng.standard_normal(x.size) * 10.0 ** rng.integers(-320, 300, x.size)
    values[:9] = [5e-324, -1e-310, -0.0, 0.0, 3.0, 1e16, 123456789012.5,
                  np.inf, np.nan]
    counts = rng.integers(0, 2**62, x.size)
    tail = rng.standard_normal(x.size)
    # rows ending in +0 runs of 1, 2, 3 and 5 cells (row 40, the origin, is
    # all zero); -0.0 inside a run (row 23) and at its end (row 22)
    counts[20:30] = 0
    values[20:32] = 0.0
    tail[10:32] = 0.0
    values[40] = counts[40] = tail[40] = 0
    tail[22] = values[23] = -0.0
    return ["x0", "x1", "count", "prob", "tail"], [x, -3 * x[::-1], counts, values, tail]


@pytest.mark.parametrize("block_cells", [cli._CSV_BLOCK_CELLS, 1 << 13, 7])
def test_write_csv_matches_per_cell_formatting(tmp_path, monkeypatch, block_cells):
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", block_cells)
    header, columns = _mixed_table()
    x, _, counts, values, _ = columns
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), header, columns)
    text = path.read_text()
    assert text == _reference_csv(header, columns)
    lines = text.splitlines()
    assert lines[1 + 40] == "0,0,0,0,0"
    assert lines[1 + 21].endswith(",0,0,0")
    assert lines[1 + 31].endswith(f",{counts[31]},0,0")
    assert lines[1 + 22].endswith(",0,0,-0")
    assert lines[1 + 23].endswith(",0,-0,0")
    with pytest.raises(ValueError):
        cli._write_csv(str(path), header, [x, values[:-1]])


# each case puts a block edge where a cell's text could run into its
# neighbour's: between -0.0 and +0.0 (rows 2 and 3), between inf and nan
# (rows 7 and 8), inside the +0 runs with -0.0 (rows 22 and 23) and at the
# all-zero origin row (40); rows 5 and 6 (1e16 and 123456789012.5) alone
# make a block of one row each and a block longer than the table
@pytest.mark.parametrize("block_rows, rows", [
    (cli._CSV_BLOCK_CELLS // 5, slice(None)), (3, slice(None)), (8, slice(None)),
    (22, slice(None)), (23, slice(None)), (40, slice(None)),
    (1, slice(5, 7)), (4, slice(5, 7)),
], ids=["one-block", "edge-at-3", "edge-at-8", "edge-at-22", "edge-at-23", "edge-at-40",
        "rows-5-6-one-a-block", "rows-5-6-in-one-block"])
def test_csv_blocks_are_byte_identical(tmp_path, monkeypatch, block_rows, rows):
    header, columns = _mixed_table()
    columns = [c[rows] for c in columns]
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", 5 * block_rows)
    n = len(columns[0])
    blocks = [part.count(b"\n") for part in cli._format_rows([np.atleast_2d(c) for c in columns])]
    assert blocks == [min(block_rows, n - i) for i in range(0, n, block_rows)]
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), header, columns)
    assert path.read_text() == _reference_csv(header, columns)
    assert os.listdir(tmp_path) == ["table.csv"]  # no temporary file left beside it


# each case cuts the table into ``parts`` row ranges (at ``bounds`` if given,
# else into ranges of equal rows) and formats each range alone, 4 rows to a
# block.  The explicit bounds cut between -0.0 and +0.0 (rows 2 and 3),
# between inf and nan (rows 7 and 8), inside the +0 runs with -0.0 (rows 22
# and 23) and at the all-zero origin row (40); the last leaves a range empty.
# Rows 5 and 6 (1e16 and 123456789012.5) alone make more parts than rows.
@pytest.mark.parametrize("parts, bounds, rows", [
    (1, None, slice(None)), (2, None, slice(None)), (3, None, slice(None)),
    (2, [0, 3, 81], slice(None)), (3, [0, 8, 23, 81], slice(None)),
    (3, [0, 22, 40, 81], slice(None)), (3, [0, 40, 40, 81], slice(None)),
    (3, None, slice(5, 7)),
])
def test_split_csv_is_byte_identical(monkeypatch, parts, bounds, rows):
    header, columns = _mixed_table()
    columns = [c[rows] for c in columns]
    n = len(columns[0])
    if bounds is None:
        bounds = [n * i // parts for i in range(parts + 1)]
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", 20)
    text = b"".join(block for lo, hi in zip(bounds, bounds[1:])
                    for block in cli._format_rows([np.atleast_2d(c[lo:hi]) for c in columns]))
    assert (",".join(header) + text.decode() + "\n") == _reference_csv(header, columns)


def test_csv_of_two_to_the_17_cells_is_written_without_forking(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("the CSV writer forked")

    monkeypatch.setattr(os, "fork", fork)
    rows = 1 << 16
    rng = np.random.default_rng(17)
    header = ["t", "p"]
    columns = [np.arange(rows), rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)]
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), header, columns)
    assert path.read_text() == _reference_csv(header, columns)
    assert os.listdir(tmp_path) == ["table.csv"]


def _integer_table():
    """Header and columns of 60 rows: integer cells at the edges of the word
    tables (0, 1, 9999, 10^4, 10^8 - 1, 10^8, 10^12 and beyond, both signs),
    an unsigned column up to 2^64 - 1, and float columns between them."""
    rng = np.random.default_rng(31)
    edges = [0, 1, -1, 9999, -9999, 10_000, -10_000, 10**8 - 1, -(10**8 - 1), 10**8,
             -(10**8), 10**12, -(10**12), 10**12 + 1, 2**62, 2**63 - 1, -(2**63), 7, 12345]
    signed = np.resize(np.array(edges, dtype=np.int64), 60)
    unsigned = np.resize(np.array([0, 1, 9999, 10**4, 10**8 - 1, 10**8, 10**12, 2**63,
                                   2**64 - 1], dtype=np.uint64), 60)
    magnitudes = (10.0 ** rng.uniform(0, 12, 60)).astype(np.int64)
    mixed = magnitudes * rng.choice([-1, 0, 1], 60)
    floats = rng.standard_normal(60) * 10.0 ** rng.integers(-5, 14, 60)
    floats[::4] = 0.0
    return (["edge", "p", "u", "mixed", "q"],
            [signed, floats, unsigned, mixed, np.round(floats * 1e3)])


@pytest.mark.parametrize("block_cells", [cli._CSV_BLOCK_CELLS, 1 << 13, 7])
def test_integer_cells_match_per_cell_formatting(tmp_path, monkeypatch, block_cells):
    header, columns = _integer_table()
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", block_cells)
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), header, columns)
    assert path.read_text() == _reference_csv(header, columns)


def test_integer_word_table_holds_str_of_each_entry():
    table = cli._int_words()
    assert table.shape == (10_000,)
    assert [w.tobytes().rstrip(b"\0").decode() for w in table] == list(map(str, range(10_000)))


def _assert_cells_formatted(column):
    """``_write_csv`` writes each cell of one column as ``%d`` (integer
    dtype) or ``%.12g``, byte for byte."""
    column = np.asarray(column)
    fmt = "%d" if np.issubdtype(column.dtype, np.integer) else "%.12g"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cells.csv")
        cli._write_csv(path, ["v"], [column])
        with open(path, "rb") as fh:
            data = fh.read()
    assert data.split(b"\n") == [b"v", *((fmt % v).encode() for v in column.tolist()), b""]


def _bits_to_float(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(_bits_to_float)),
                min_size=1, max_size=64))
def test_cell_formatter_matches_python_on_any_double(values):
    # raw 64-bit patterns cover every decade, subnormals and NaN payloads;
    # st.floats adds +-0, +-inf and the float boundaries
    _assert_cells_formatted(np.array(values))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(10**11, 10**12 - 1), st.integers(-335, 296),
                          st.booleans()), min_size=1, max_size=64))
def test_cell_formatter_matches_python_near_rounding_ties(cases):
    # a 12-digit decimal plus half a unit in its last digit: the nearest
    # double is within an ulp of the tie that %.12g must round
    _assert_cells_formatted([float(f"{'-' * neg}{d}5e{e}") for d, e, neg in cases])


def test_cell_formatter_matches_python_around_powers_of_ten():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # the 12-digit roundings just below each power end in ...9995 and ...9999
    below = [p * (1.0 - j * 1e-13) for j in (1, 4, 5, 6, 9)]
    column = np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf), *below])
    specials = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e16, 0.5, 1e-5]
    _assert_cells_formatted(np.concatenate([column, -column, specials]))


def test_integer_cells_match_percent_d():
    v = [10**12 - 1, -(10**12 - 1), 10**12, -(10**12), 2**62, -(2**62), 2**63 - 1,
         -(2**63), 10**11, 0, 1, -1, 7]
    _assert_cells_formatted(np.array(v, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 62.0), st.sampled_from([-1, 1])),
                min_size=1, max_size=64))
def test_integer_cells_match_percent_d_at_any_magnitude(cases):
    # magnitudes log-uniform from 1 to 2^62, across both word tables and the float path
    _assert_cells_formatted(np.array([sign * int(2.0**e) for e, sign in cases], dtype=np.int64))


_STATE_TABLES = [
    pytest.param(["renewal", "--law", "sibuya:mu=0.5"], "renewal_state",
                 lambda t: renewal.state_table(Sibuya(0.5), t), id="renewal-sibuya"),
    pytest.param(["stopped", "--inner", "geometric:p=0.7",
                  "--stop", "defective_geometric:defect=0.5,p=0.035"], "stopped_state",
                 lambda t: stopped.stopped_state_table(stopped.StoppedSpec(
                     Geometric(0.7), DefectiveGeometric(0.5, 0.035), t)),
                 id="stopped-geometric"),
]


def _state_columns(table):
    header = ["t"] + [f"n{n}" for n in range(table.n_max + 1)]
    return header, [np.arange(table.horizon + 1), table.probs]


@pytest.mark.parametrize("argv, stem, table_at", _STATE_TABLES)
def test_state_table_csv_matches_per_cell_formatting(tmp_path, argv, stem, table_at):
    # nonzero cells from 1 down to 6e-232 (Sibuya) and 5e-120 (stopped)
    assert run([*argv, "--horizon", "768", "--out", str(tmp_path)]) == 0
    header, (t, probs) = _state_columns(table_at(768))
    got = (tmp_path / f"{stem}.csv").read_text().split("\n")
    want = _reference_csv(header, [t, *probs]).split("\n")
    # name the first differing line: a diff of two texts of megabytes takes minutes
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, f"line {bad}: {got[bad][:200]!r} != {want[bad][:200]!r}"
    assert len(got) == len(want)


@pytest.mark.parametrize("argv, stem, table_at", _STATE_TABLES)
def test_write_csv_peak_memory_is_under_half_the_table(tmp_path, argv, stem, table_at):
    # rows go out in blocks through one reused buffer: no copy of the table
    table = table_at(768)
    header, columns = _state_columns(table)
    path = str(tmp_path / f"{stem}.csv")
    cli._write_csv(path, header, columns)  # builds the formatter's cached tables
    _, peak = traced_peak(lambda: cli._write_csv(path, header, columns))
    assert peak <= table.probs.nbytes / 2
