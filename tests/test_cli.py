import json
import math

import numpy as np
import pytest

from renewalk import cli


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


def test_summary_schema_validation():
    with pytest.raises(ValueError):
        cli.validate_summary({"command": "x"})
    with pytest.raises(ValueError):
        cli.validate_summary({"schema_version": 1})
    cli.validate_summary({"schema_version": 1, "command": "x"})


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


@pytest.mark.parametrize(
    "grid, flag",
    [
        (["--y-max", "3"], "--y-min"),
        (["--y-min", "-3"], "--y-max"),
        (["--y-min", "-3", "--y-max", "3", "--points", "0"], "--points"),
        (["--y-min", "-3", "--y-max", "3", "--points", "-2"], "--points"),
        (["--y-min", "3", "--y-max", "3"], "--y-min"),
        (["--y-min", "4", "--y-max", "3"], "--y-min"),
        (["--y-min=-inf", "--y-max", "3"], "--y-min"),
    ],
)
def test_ness_rejects_bad_grid_flags(tmp_path, capsys, grid, flag):
    assert run(["ness", "--kind", "laplace", *grid, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("renewalk: error:") and flag in err
    assert not list(tmp_path.iterdir())


def _reference_csv(header, columns):
    """Cell-by-cell formatter: integers as str(int), other values as %.12g."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(
            str(int(v)) if isinstance(v, (int, np.integer)) else f"{float(v):.12g}"
            for v in row
        ))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block_cells", [cli._CSV_BLOCK_CELLS, 7])
def test_write_csv_matches_per_cell_formatting(tmp_path, monkeypatch, block_cells):
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(4)
    x = np.arange(-40, 41)  # lattice coordinates on both sides of the origin
    values = rng.standard_normal(x.size) * 10.0 ** rng.integers(-320, 300, x.size)
    values[:9] = [5e-324, -1e-310, -0.0, 0.0, 3.0, 1e16, 123456789012.5,
                  np.inf, np.nan]
    counts = rng.integers(0, 2**62, x.size)
    header = ["x0", "x1", "prob", "count"]
    columns = [x, -3 * x[::-1], values, counts]
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), header, columns)
    assert path.read_text() == _reference_csv(header, columns)
    with pytest.raises(ValueError):
        cli._write_csv(str(path), header, [x, values[:-1]])
