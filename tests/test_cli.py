"""Scenario files, the runner, and the comparison harness."""

import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitsim import cli, fd_solver
from slitsim.config import (RunSpec, load_config, parse_config,
                            spec_from_dict, spec_to_dict)
from slitsim.core import (MIN_POINTS, SOLVERS, ComplexField, MwlsConfig,
                          ScenarioConfig, UniformGrid, WavePacketParams)
from slitsim.errors import ConfigError

FD_CFG = """\
# one-particle interference, small scale
scenario = tiny_fd
particles = 1
grid.lo = -13
grid.hi = 13
grid.n = 131
t_final = 0.05
n_steps = 100
solver = schrodinger_fd
trajectory.starts = 0.8; -0.8
snapshots = 0.0, 0.025
"""

HYDRO_CFG = """\
scenario = tiny_hydro
field.kind = single_packet
grid.lo = -1
grid.hi = 3
grid.n = 201
t_final = 0.001
n_steps = 100
solver = hydro_lagrange
mwls.neighbors = 12
mwls.order = 5
"""

QP_CFG = """\
scenario = tiny_qp
mode = qp_study
grid.lo = -4
grid.hi = 4
grid.n = 201
solver = hydro_lagrange
mwls.orders = 2, 3
"""


def test_parse_minimal_fd():
    spec = parse_config(FD_CFG)
    cfg = spec.config
    assert cfg.scenario == "tiny_fd"
    assert cfg.solver == "schrodinger_fd"
    assert cfg.grid.n == 131 and cfg.grid.dim == 1
    assert cfg.packet.Y == 1.0 and cfg.packet.sigma0 == 0.2
    assert cfg.trajectory_starts == ((0.8,), (-0.8,))
    assert cfg.snapshot_times == (0.0, 0.025)
    assert cfg.mwls is None
    assert spec.mode == "propagate"


def test_parse_two_particle_starts():
    text = FD_CFG.replace("particles = 1", "particles = 2").replace(
        "trajectory.starts = 0.8; -0.8",
        "trajectory.starts = 1, -0.6; 1, -1.4")
    cfg = parse_config(text).config
    assert cfg.grid.dim == 2
    assert cfg.trajectory_starts == ((1.0, -0.6), (1.0, -1.4))


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as e:
        parse_config("grid.lo = 0\nbogus.key = 1\n")
    assert e.value.line == 2
    assert "bogus.key" in str(e.value)


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigError) as e:
        parse_config("t_final = 1\nt_final = 2\n")
    assert e.value.line == 2


def test_missing_equals_reports_line():
    with pytest.raises(ConfigError) as e:
        parse_config("solver schrodinger_fd\n")
    assert e.value.line == 1


def test_bad_value_reports_line():
    text = FD_CFG.replace("grid.n = 131", "grid.n = many")
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert e.value.line == 6


def test_missing_required_key():
    with pytest.raises(ConfigError):
        parse_config("grid.lo = -1\ngrid.hi = 1\ngrid.n = 21\n"
                     "solver = schrodinger_fd\n")  # no t_final


def test_start_dimension_mismatch():
    text = FD_CFG.replace("trajectory.starts = 0.8; -0.8",
                          "trajectory.starts = 0.8, 0.1")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_unknown_mode_and_solver():
    with pytest.raises(ConfigError):
        parse_config(QP_CFG.replace("mode = qp_study", "mode = dance"))
    with pytest.raises(ConfigError):
        parse_config(FD_CFG.replace("solver = schrodinger_fd",
                                    "solver = magic"))


def test_bundled_scenarios_parse():
    names = cli.bundled_scenarios()
    assert "fig6_one_particle.cfg" in names
    assert "fig2_quantum_potential.cfg" in names
    for name in names:
        spec = load_config(cli.scenario_path(name))
        assert spec.config.solver in ("schrodinger_fd", "hydro_lagrange",
                                      "hydro_euler")


def test_bundled_scenarios_round_trip_through_json():
    for name in cli.bundled_scenarios():
        spec = load_config(cli.scenario_path(name))
        data = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(data) == spec


@st.composite
def _run_specs(draw):
    """Valid RunSpecs: FD and hydro, 1D and 2D, every kind of mwls entry."""
    field_kind = draw(st.sampled_from(("", "single_packet")))
    particles = draw(st.sampled_from((1, 2)))
    dim = 1 if field_kind else particles
    lo = draw(st.floats(-20.0, 0.0))
    hi = draw(st.floats(0.5, 20.0))
    coord = st.floats(lo, hi, exclude_min=True, exclude_max=True)
    mwls = draw(st.one_of(st.none(), st.builds(
        MwlsConfig, n_neighbors=st.integers(6, 40),
        poly_order=st.integers(2, 7),
        weight_width=st.one_of(st.just("auto"), st.floats(1e-3, 10.0)))))
    config = ScenarioConfig(
        packet=WavePacketParams(
            Y=draw(st.floats(0.1, 5.0)), sigma0=draw(st.floats(0.01, 2.0)),
            kx=draw(st.floats(-5.0, 5.0)), particles=particles,
            exchange_sign=draw(st.sampled_from((1, -1)))),
        grid=UniformGrid(lo, hi, draw(st.integers(MIN_POINTS, 400)), dim),
        t_final=draw(st.floats(1e-4, 10.0)),
        n_steps=draw(st.integers(1, 20000)),
        solver=draw(st.sampled_from(SOLVERS)),
        trajectory_starts=tuple(draw(st.lists(
            st.tuples(*[coord] * dim), max_size=4))),
        mwls=mwls,
        snapshot_times=tuple(draw(st.lists(st.floats(0.0, 10.0),
                                           max_size=4))),
        scenario=draw(st.text(max_size=12)),
        field_kind=field_kind)
    return RunSpec(config=config,
                   mode=draw(st.sampled_from(("propagate", "qp_study"))),
                   qp_orders=tuple(draw(st.lists(st.integers(2, 7),
                                                 max_size=4))))


@given(_run_specs())
def test_spec_round_trips_through_a_manifest(spec):
    data = json.loads(json.dumps(spec_to_dict(spec)))
    assert spec_from_dict(data) == spec


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_fd_end_to_end(tmp_path):
    cfg_path = _write(tmp_path, "tiny.cfg", FD_CFG)
    out = str(tmp_path / "runs")
    code = cli.main(["run", cfg_path, "--out", out])
    assert code == 0
    run_dir = os.path.join(out, "tiny_fd")
    for fname in ("manifest.json", "fields.csv", "trajectories.csv",
                  "plot.gp"):
        assert os.path.exists(os.path.join(run_dir, fname))
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["status"] == "Valid"
    assert manifest["errors"]["norm_drift"] <= 1e-6
    assert manifest["errors"]["crossings"]["n_violations"] == 0
    # CSV floats round-trip exactly
    data = np.genfromtxt(os.path.join(run_dir, "fields.csv"),
                         delimiter=",", names=True)
    assert data["t"].min() == 0.0 and data["t"].max() == 0.05


@pytest.mark.parametrize("dim", [1, 2])
def test_snapshot_columns_match_row_by_row_formatting(dim):
    # the row loop the column writer replaced: repr(float(x)) per cell,
    # rows over the grid in C order
    grid = UniformGrid(-1.0, 1.0, MIN_POINTS, dim=dim)
    rng = np.random.default_rng(dim)
    fld = ComplexField(grid, rng.normal(size=grid.shape),
                       rng.normal(size=grid.shape))
    y = grid.axis()
    rows = [tuple(repr(float(c)) for c in
                  (0.25, *y[list(i)], fld.re[i], fld.im[i]))
            for i in np.ndindex(grid.shape)]
    columns = cli._snapshot_columns(0.25, fld, cli._fmt_column(y))
    assert list(zip(*columns)) == rows


@pytest.mark.parametrize("scenario, columns", [
    ("fig6_one_particle", "using 2:3 "),
    ("fig7_ci_reduced", "using 2:3:($4**2+$5**2) "),
])
def test_fd_plot_script_matches_the_grid_dimension(scenario, columns):
    # 2D fields.csv has columns t,y1,y2,re,im: plot the density over
    # (y1, y2), not y1 against y2
    script = cli._plot_script(load_config(cli.scenario_path(scenario)))
    plot = [ln for ln in script.splitlines() if "fields.csv" in ln]
    assert len(plot) == 1 and columns in plot[0]


def test_run_reproducible(tmp_path):
    cfg_path = _write(tmp_path, "tiny.cfg", FD_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", cfg_path, "--out", out1]) == 0
    assert cli.main(["run", cfg_path, "--out", out2]) == 0
    f1 = open(os.path.join(out1, "tiny_fd", "fields.csv")).read()
    f2 = open(os.path.join(out2, "tiny_fd", "fields.csv")).read()
    assert f1 == f2


def test_compare_round_trip(tmp_path, capsys):
    cfg_path = _write(tmp_path, "tiny.cfg", FD_CFG)
    out = str(tmp_path / "runs")
    cli.main(["run", cfg_path, "--out", out])
    manifest = os.path.join(out, "tiny_fd", "manifest.json")
    assert cli.main(["compare", manifest]) == 0
    report = capsys.readouterr().out
    assert "field t=" in report
    assert "trajectory 0" in report
    assert os.path.exists(os.path.join(out, "tiny_fd", "errors.csv"))
    assert os.path.exists(os.path.join(out, "tiny_fd", "report.txt"))


def test_run_hydro_end_to_end(tmp_path):
    cfg_path = _write(tmp_path, "hydro.cfg", HYDRO_CFG)
    out = str(tmp_path / "runs")
    code = cli.main(["run", cfg_path, "--out", out])
    assert code == 0
    run_dir = os.path.join(out, "tiny_hydro")
    assert os.path.exists(os.path.join(run_dir, "diagnostics.csv"))
    assert os.path.exists(os.path.join(run_dir, "trajectories.csv"))
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["errors"]["snapshots"][-1]["max_v_error"] < 1e-3


def test_run_hydro_euler_end_to_end(tmp_path):
    text = (HYDRO_CFG.replace("tiny_hydro", "tiny_euler")
            .replace("hydro_lagrange", "hydro_euler"))
    cfg_path = _write(tmp_path, "euler.cfg", text)
    out = str(tmp_path / "runs")
    assert cli.main(["run", cfg_path, "--out", out]) == 0
    run_dir = os.path.join(out, "tiny_euler")
    assert os.path.exists(os.path.join(run_dir, "diagnostics.csv"))
    # fixed grid points are not Bohmian paths
    assert not os.path.exists(os.path.join(run_dir, "trajectories.csv"))
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["solver"] == "hydro_euler"
    assert manifest["errors"]["snapshots"][-1]["max_v_error"] < 1e-5


def test_run_qp_study(tmp_path):
    cfg_path = _write(tmp_path, "qp.cfg", QP_CFG)
    out = str(tmp_path / "runs")
    assert cli.main(["run", cfg_path, "--out", out]) == 0
    run_dir = os.path.join(out, "tiny_qp")
    data = np.genfromtxt(os.path.join(run_dir, "quantum_potential.csv"),
                         delimiter=",", names=True)
    assert set(data.dtype.names) == {"y", "Q_exact", "Q_order2",
                                     "Q_order3"}
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    orders = manifest["errors"]["orders"]
    assert orders["order2"]["max_error_near_node"] > \
        orders["order2"]["max_error_far_rel"]


def test_env_var_output_override(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path, "tiny.cfg", HYDRO_CFG)
    out = str(tmp_path / "env_out")
    monkeypatch.setenv("SLITSIM_OUT", out)
    assert cli.main(["run", cfg_path]) == 0
    assert os.path.exists(os.path.join(out, "tiny_hydro", "manifest.json"))


def test_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "fig6_one_particle.cfg" in out


def test_unknown_scenario_exits_1(capsys):
    assert cli.main(["run", "no_such_scenario"]) == 1
    assert "error" in capsys.readouterr().err


def test_unstable_step_detected(tmp_path):
    # grossly exceeding the explicit stability limit must not pass silently
    text = (FD_CFG.replace("grid.n = 131", "grid.n = 261")
            .replace("t_final = 0.05", "t_final = 1")
            .replace("n_steps = 100", "n_steps = 20")
            .replace("trajectory.starts = 0.8; -0.8\n", ""))
    cfg_path = _write(tmp_path, "unstable.cfg", text)
    manifest, code = cli.run(cfg_path, out_root=str(tmp_path / "runs"))
    assert code == 2
    assert manifest["status"] == "Degraded"
    assert manifest["errors"]["norm_drift"] > 1e-6


# 1.9 leaves the [-2, 2] grid mid-run; 0.5 stays inside throughout.
# The boundary also pushes the norm drift over the guard: exit 2.
LEFT_GRID_CFG = (
    FD_CFG.replace("grid.lo = -13", "grid.lo = -2")
    .replace("grid.hi = 13", "grid.hi = 2")
    .replace("grid.n = 131", "grid.n = 81")
    .replace("t_final = 0.05", "t_final = 0.1")
    .replace("n_steps = 100", "n_steps = 500")
    .replace("trajectory.starts = 0.8; -0.8", "trajectory.starts = 1.9; 0.5"))


def test_trajectory_leaving_the_grid_is_truncated(tmp_path, capsys):
    cfg_path = _write(tmp_path, "edge.cfg", LEFT_GRID_CFG)
    out = str(tmp_path / "runs")
    assert cli.main(["run", cfg_path, "--out", out]) == 2
    assert "Traceback" not in capsys.readouterr().err
    run_dir = os.path.join(out, "tiny_fd")
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    errors = manifest["errors"]
    assert errors["norm_drift"] > fd_solver.NORM_TOLERANCE
    edge, inner = errors["trajectories"]
    assert 0 < edge["steps_completed"] < 500
    assert edge["left_grid_time"] == pytest.approx(
        edge["steps_completed"] * 2e-4, rel=1e-12)
    assert edge["incursion_time"] is None
    assert edge["max_deviation"] is not None
    assert inner["steps_completed"] == 500
    assert inner["left_grid_time"] is None and inner["incursion_time"] is None
    assert {"fields.csv", "trajectories.csv"} <= set(manifest["files"])
    with open(os.path.join(run_dir, "trajectories.csv")) as fh:
        ids = [line.split(",")[0] for line in fh.readlines()[1:]]
    assert ids.count("0") == edge["steps_completed"] + 1
    assert ids.count("1") == 501


def test_compare_reports_a_truncated_trajectory(tmp_path, capsys):
    cfg_path = _write(tmp_path, "edge.cfg", LEFT_GRID_CFG)
    out = str(tmp_path / "runs")
    assert cli.main(["run", cfg_path, "--out", out]) == 2
    run_dir = os.path.join(out, "tiny_fd")
    manifest_path = os.path.join(run_dir, "manifest.json")
    with open(manifest_path) as fh:
        edge, _ = json.load(fh)["errors"]["trajectories"]
    capsys.readouterr()
    assert cli.main(["compare", manifest_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    edge_line, inner_line = (line for line in lines
                             if line.startswith("trajectory "))
    assert edge_line.startswith("trajectory 0 from [1.9]: max dev ")
    assert (f"truncated: steps_completed = {edge['steps_completed']} of 500"
            f", left_grid_time = {edge['left_grid_time']:.6g}") in edge_line
    assert "incursion_time" not in edge_line
    assert inner_line.startswith("trajectory 1 from [0.5]: max dev ")
    assert "truncated" not in inner_line
    with open(os.path.join(run_dir, "errors.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "quantity,max_error,secondary"
    assert [r.split(",")[0] for r in rows if r.startswith("trajectory_")] \
        == ["trajectory_0", "trajectory_1"]


def test_underdetermined_mwls_is_an_error(tmp_path, capsys):
    text = HYDRO_CFG.replace("mwls.neighbors = 12", "mwls.neighbors = 4")
    cfg_path = _write(tmp_path, "under.cfg", text)
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert "error: 4 neighbors cannot support 6 basis polynomials" in err


@pytest.mark.parametrize("old, new, message", [
    ("mwls.order = 5", "mwls.order = 1", "poly_order must be >= 2"),
    ("mwls.order = 5", "mwls.order = 5\nmwls.width = -1",
     'weight_width must be positive or "auto"'),
    ("mwls.order = 5", "mwls.order = 5\nmwls.width = abc",
     "line 11: bad value for 'mwls.width'"),
    ("grid.n = 201", "grid.n = 201\npacket.sigma0 = -1",
     "sigma0 must be positive"),
    ("grid.n = 201", "grid.n = 201\nexchange_sign = 3",
     "exchange_sign must be +1 or -1"),
    ("grid.hi = 3", "grid.hi = -2", "hi must exceed lo"),
], ids=["order", "negative_width", "text_width", "sigma0", "exchange_sign",
        "interval"])
def test_invalid_config_value_is_an_error(tmp_path, capsys, old, new,
                                          message):
    cfg_path = _write(tmp_path, "bad.cfg", HYDRO_CFG.replace(old, new))
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_compare_missing_manifest_is_an_error(tmp_path, capsys):
    missing = str(tmp_path / "no_run" / "manifest.json")
    assert cli.main(["compare", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.json" in err


def _manifest_text(errors):
    """A manifest of the tiny FD run with the given errors block."""
    return json.dumps({"config": spec_to_dict(parse_config(FD_CFG)),
                       "status": "Valid", "errors": errors})


@pytest.mark.parametrize("text", [
    "not json", '{"config": {}}', "[]", _manifest_text([]),
    _manifest_text({"trajectories": [{"start": [0.8]}]}),
], ids=["not_json", "no_packet", "list", "errors_list", "no_max_deviation"])
def test_compare_unreadable_manifest_is_an_error(tmp_path, capsys, text):
    path = _write(tmp_path, "manifest.json", text)
    assert cli.main(["compare", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a run manifest" in err


def test_masked_and_truncated_starts_are_reported(tmp_path, capsys):
    # 2.3 reaches a masked stencil mid-run; 5.0 is masked from t=0
    text = FD_CFG.replace("trajectory.starts = 0.8; -0.8",
                          "trajectory.starts = 0.8; -0.8; 2.3; 5.0")
    cfg_path = _write(tmp_path, "tiny.cfg", text)
    out = str(tmp_path / "runs")
    assert cli.main(["run", cfg_path, "--out", out]) == 0
    manifest_path = os.path.join(out, "tiny_fd", "manifest.json")
    with open(manifest_path) as fh:
        errors = json.load(fh)["errors"]
    entries = errors["trajectories"]
    assert [e["steps_completed"] for e in entries][:2] == [100, 100]
    assert 0 < entries[2]["steps_completed"] < 100
    assert entries[2]["max_deviation"] is not None
    assert entries[3]["steps_completed"] == 0
    assert entries[3]["incursion_time"] == 0.0
    for key in ("max_deviation", "max_deviation_off_node",
                "max_deviation_in_node"):
        assert entries[3][key] is None
    assert errors["crossings"] == {"n_violations": 0,
                                   "n_trajectories_checked": 2}
    capsys.readouterr()
    assert cli.main(["compare", manifest_path]) == 0
    report = capsys.readouterr().out
    assert "trajectory 3 from [5.0]: not run" in report
    assert "trajectory 2 from [2.3]: max dev" in report


def _flagged_deviation_loop(traj, exact_traj, exact_field):
    """Reference: the density check one recorded time at a time."""
    n = min(len(traj.times), len(exact_traj.times))
    dev = np.linalg.norm(traj.positions[:n] - exact_traj.positions[:n],
                         axis=1)
    flagged = np.array([
        float(np.abs(exact_field.psi(*traj.positions[i], traj.times[i]))
              ** 2) < cli.NODE_FLAG_REL
        * exact_field.peak_density(traj.times[i]) for i in range(n)])
    off, on = dev[~flagged], dev[flagged]
    return {
        "max_deviation": float(dev.max()),
        "max_deviation_off_node": float(off.max()) if len(off) else 0.0,
        "max_deviation_in_node": float(on.max()) if len(on) else 0.0,
        "n_flagged_times": int(flagged.sum()),
    }


def test_flagged_deviation_matches_per_time_loop(one_field):
    from slitsim import analytic, bohm
    from slitsim.core import UniformGrid
    g = UniformGrid(-13.0, 13.0, 131)
    initial = analytic.sample_field(one_field, g, 0.0)
    provider = bohm.FdFieldProvider(initial, 2e-3, 250)
    starts = [(0.1,), (0.4,), (1.0,), (1.7,), (-0.3,)]
    results, _ = bohm.integrate_family(provider, starts)
    n_flagged = 0
    for (traj, _), s in zip(results, starts):
        ex, = analytic.exact_trajectory(one_field, [s], traj.times)
        got = cli._flagged_deviation(traj, ex, one_field)
        assert got == _flagged_deviation_loop(traj, ex, one_field)
        n_flagged += got["n_flagged_times"]
    assert n_flagged > 0      # the check saw node regions
