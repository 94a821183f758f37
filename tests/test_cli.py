"""Scenario files, the runner, and the comparison harness."""

import csv
import hashlib
import json
import os
import platform
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitsim import bohm, cli, fd_solver
from slitsim.config import (RunSpec, load_config, parse_config,
                            spec_from_dict, spec_to_dict)
from slitsim.core import (MIN_POINTS, SOLVERS, ComplexField, MwlsConfig,
                          ScenarioConfig, UniformGrid, WavePacketParams)
from slitsim.errors import ConfigError
from slitsim.mwls import CONDITION_LIMIT, JetOperator

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
    # hydro runs and qp studies are one-dimensional only
    solver = draw(st.sampled_from(SOLVERS if dim == 1 else SOLVERS[:1]))
    mode = draw(st.sampled_from(("propagate", "qp_study") if dim == 1
                                else ("propagate",)))
    t_final = draw(st.floats(1e-4, 10.0))
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
            particles=particles,
            exchange_sign=draw(st.sampled_from((1, -1)))),
        grid=UniformGrid(lo, hi, draw(st.integers(MIN_POINTS, 400)), dim),
        t_final=t_final,
        n_steps=draw(st.integers(1, 20000)),
        solver=solver,
        trajectory_starts=tuple(draw(st.lists(
            st.tuples(*[coord] * dim), max_size=4))),
        mwls=mwls,
        snapshot_times=tuple(draw(st.lists(st.floats(0.0, t_final),
                                           max_size=4))),
        scenario=draw(st.text(max_size=12)),
        field_kind=field_kind)
    return RunSpec(config=config, mode=mode,
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
def test_snapshot_rows_match_row_by_row_formatting(dim):
    # the plain row loop: repr(float(x)) per cell, rows over the grid in
    # C order
    grid = UniformGrid(-1.0, 1.0, MIN_POINTS, dim=dim)
    rng = np.random.default_rng(dim)
    fld = ComplexField(grid, rng.normal(size=grid.shape),
                       rng.normal(size=grid.shape))
    y = grid.axis()
    rows = [tuple(repr(float(c)) for c in
                  (0.25, *y[list(i)], fld.re[i], fld.im[i]))
            for i in np.ndindex(grid.shape)]
    axis = list(cli._fmt_column(y))
    assert list(cli._snapshot_rows(0.25, fld, axis)) == rows


def _symmetric(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return a + a.T


def _diagonal_specials(n):
    a = _symmetric(n, n)
    a[np.diag_indices(4)] = (np.nan, np.inf, -np.inf, 5e-324)
    a[4, 4] = -0.0
    a[0, 1] = a[1, 0] = -np.inf
    return a


@pytest.mark.parametrize("n", [MIN_POINTS, 24])
def test_a_bitwise_symmetric_grid_formats_each_value_once(n):
    a = _diagonal_specials(n)
    got = list(cli._fmt_column(a))
    assert got == list(map(repr, a.ravel().tolist()))
    # the text of a[j, i] is the object made for a[i, j]
    assert all(got[i * n + j] is got[j * n + i]
               for i in range(n) for j in range(i))


def test_a_mirrored_grid_holds_at_most_a_quarter_of_its_text():
    # a reused text is dropped once its row is written: the traced peak
    # is the n x n table of references, n^2/4 strings and a few row
    # lists (formatting every value keeps all n^2 floats instead)
    n = 131
    a = _symmetric(n, 5)
    size = max(map(sys.getsizeof, map(repr, a.ravel().tolist())))
    tracemalloc.start()
    try:
        for _ in cli._fmt_column(a):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.size * 8 + (n * n // 4 + 4 * n) * size


@pytest.mark.parametrize("a", [
    # symmetric under == only: 0.0 and -0.0 at mirrored places
    np.where(np.tri(MIN_POINTS, k=-1, dtype=bool), -0.0, 0.0),
    # off parity by one ulp, and antisymmetric (a fermion snapshot)
    np.where(np.eye(MIN_POINTS, k=3, dtype=bool),
             np.nextafter(_symmetric(MIN_POINTS, 1), np.inf),
             _symmetric(MIN_POINTS, 1)),
    np.triu(_symmetric(MIN_POINTS, 2), 1) - np.triu(
        _symmetric(MIN_POINTS, 2), 1).T,
    # a non-square view
    _symmetric(MIN_POINTS, 3)[:, :5],
], ids=["signed-zeros", "one-ulp", "antisymmetric", "non-square"])
def test_other_arrays_format_every_value(a):
    got = list(cli._fmt_column(a))
    assert got == list(map(repr, a.ravel().tolist()))
    assert len({id(s) for s in got}) == a.size


@pytest.mark.parametrize("dim", [1, 2])
def test_snapshot_rows_of_a_symmetric_field(dim):
    grid = UniformGrid(-1.0, 1.0, MIN_POINTS, dim=dim)
    re, im = _diagonal_specials(MIN_POINTS), _symmetric(MIN_POINTS, 4)
    if dim == 1:
        re, im = np.diag(re).copy(), im[0]
    fld = ComplexField(grid, re, im)
    y = grid.axis()
    rows = [tuple(repr(float(c)) for c in
                  (0.25, *y[list(i)], fld.re[i], fld.im[i]))
            for i in np.ndindex(grid.shape)]
    axis = list(cli._fmt_column(y))
    assert list(cli._snapshot_rows(0.25, fld, axis)) == rows


def test_write_csv_keeps_the_csv_module_bytes(tmp_path):
    # the rows compare writes, and float cells that csv.writer might
    # treat specially; written as a lazy generator
    header = ("quantity", "max_error", "secondary")
    cells = [repr(v) for v in (float("nan"), float("inf"), float("-inf"),
                               -0.0, 5e-324, 1e16, 1e-05)] + ["0", "17"]
    rows = [(status, a, b) for status in ("Valid", "Degraded")
            for a, b in zip(cells, reversed(cells))]
    rows.append(("trajectory_0", "", ""))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    got = tmp_path / "got.csv"
    cli._write_csv(str(got), header, (row for row in rows))
    assert got.read_bytes() == ref.read_bytes()


def test_fields_csv_is_streamed(tmp_path, monkeypatch):
    # from the end of the trajectory pass to the written fields.csv of one
    # 131x131 snapshot, traced memory may rise by less than 2 MiB: rows
    # are formatted as they are written, not held as columns of strings
    text = open(cli.scenario_path("fig7_ci_reduced"), encoding="utf-8").read()
    text = (text.replace("t_final = 1.0", "t_final = 0.0005")
            .replace("n_steps = 4000", "n_steps = 2")
            .replace("snapshots = 1.0", "snapshots = 0.0005"))
    marks = {}
    integrate, write = bohm.integrate_family, cli._write_csv

    def traced_integrate(*args, **kwargs):
        out = integrate(*args, **kwargs)
        tracemalloc.reset_peak()
        marks["start"] = tracemalloc.get_traced_memory()[0]
        return out

    def traced_write(path, header, rows):
        write(path, header, rows)
        if path.endswith("fields.csv"):
            marks["peak"] = tracemalloc.get_traced_memory()[1]

    monkeypatch.setattr(bohm, "integrate_family", traced_integrate)
    monkeypatch.setattr(cli, "_write_csv", traced_write)
    tracemalloc.start()
    try:
        _, code = cli.run(_write(tmp_path, "fig7_cut.cfg", text),
                          out_root=str(tmp_path / "runs"))
    finally:
        tracemalloc.stop()
    assert code == 0
    assert marks["peak"] - marks["start"] < 2 * 2 ** 20


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
    # the field rows are the manifest's, and the manifest alone suffices
    with open(manifest) as fh:
        field = json.load(fh)["errors"]["field"]
    with open(os.path.join(out, "tiny_fd", "errors.csv"), newline="") as fh:
        rows = [r for r in csv.reader(fh) if r[0].startswith("field_")]
    assert len(rows) == 3 and rows == [
        [f"field_{k}", repr(e["max"]), repr(e["rms"])]
        for k, e in field.items()]
    os.remove(os.path.join(out, "tiny_fd", "fields.csv"))
    assert cli.main(["compare", manifest]) == 0
    assert report.endswith(capsys.readouterr().out)


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


@pytest.mark.parametrize("text, label", [(FD_CFG, "tiny_fd"),
                                         (HYDRO_CFG, "tiny_hydro")],
                         ids=["fd", "hydro"])
def test_manifest_records_versions_and_step_count(tmp_path, text, label):
    cfg_path = _write(tmp_path, "run.cfg", text)
    out = str(tmp_path / "runs")
    assert cli.main(["run", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, label, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["n_steps"] == 100
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__}


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


@pytest.mark.parametrize("solver", ["hydro_lagrange", "hydro_euler"])
def test_manifest_records_the_mwls_condition(tmp_path, solver):
    # each snapshot records the worst condition estimate of its operator;
    # at t=0 both viewpoints use the operator of the grid
    text = (HYDRO_CFG.replace("solver = hydro_lagrange", f"solver = {solver}")
            + "snapshots = 0.0, 0.0005, 0.001\n")
    cfg_path = _write(tmp_path, "hydro.cfg", text)
    out = str(tmp_path / "runs")
    assert cli.main(["run", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "tiny_hydro", "manifest.json")) as fh:
        manifest = json.load(fh)
    conds = [s["mwls_max_condition"] for s in manifest["errors"]["snapshots"]]
    cfg = load_config(cfg_path).config
    grid_op = JetOperator(cfg.grid.axis(), cfg.mwls)
    assert len(conds) == 3
    assert conds[0] == float(grid_op.condition_estimates.max())
    assert all(1.0 <= c < CONDITION_LIMIT for c in conds)
    if solver == "hydro_euler":
        assert len(set(conds)) == 1


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
    # the plot loops over the order columns 3 and 4 of the csv
    with open(os.path.join(run_dir, "plot.gp")) as fh:
        assert "for [col=3:4]" in fh.read()


def test_compare_reports_the_qp_orders(tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert cli.main(["run", _write(tmp_path, "qp.cfg", QP_CFG),
                     "--out", out]) == 0
    path = os.path.join(out, "tiny_qp", "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    e2, e3 = manifest["errors"]["orders"].values()
    e3["max_error_near_node"] = None    # as on a grid with no point there
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert cli.main(["compare", path]) == 0
    report = capsys.readouterr().out.splitlines()
    with open(os.path.join(out, "tiny_qp", "errors.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[1:] == [
        f"qp_order2,{e2['max_error']!r},{e2['max_error_near_node']!r}",
        f"qp_order3,{e3['max_error']!r},"]
    assert report[3:] == [
        f"qp order2: max |dQ| = {e2['max_error']:.3e}, near node "
        f"{e2['max_error_near_node']:.3e}",
        f"qp order3: max |dQ| = {e3['max_error']:.3e}, near node n/a"]


def test_qp_study_takes_the_default_mwls_with_any_solver(tmp_path):
    text = QP_CFG.replace("solver = hydro_lagrange", "solver = schrodinger_fd")
    spec = parse_config(text)
    assert spec.config.mwls == MwlsConfig()
    out = str(tmp_path / "runs")
    assert cli.main(["run", _write(tmp_path, "qp.cfg", text),
                     "--out", out]) == 0


@pytest.mark.parametrize("lo, hi, empty", [
    (-0.4, 0.4, "max_error_far_rel"),      # no point with |y| >= 0.5
    (0.6, 4.0, "max_error_near_node"),     # no point with |y| <= 0.2
])
def test_qp_study_reports_null_for_an_empty_region(tmp_path, lo, hi, empty):
    text = (QP_CFG.replace("grid.lo = -4", f"grid.lo = {lo}")
            .replace("grid.hi = 4", f"grid.hi = {hi}")
            .replace("grid.n = 201", "grid.n = 41"))
    cfg_path = _write(tmp_path, "qp.cfg", text)
    out = str(tmp_path / "runs")
    assert cli.main(["run", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "tiny_qp", "manifest.json")) as fh:
        orders = json.load(fh)["errors"]["orders"]
    assert set(orders) == {"order2", "order3"}
    for entry in orders.values():
        assert entry[empty] is None
        assert all(isinstance(v, float) for k, v in entry.items()
                   if k != empty)


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


@pytest.mark.parametrize("text, old, new, message", [
    (HYDRO_CFG, "mwls.order = 5", "mwls.order = 1",
     "poly_order must be >= 2"),
    (HYDRO_CFG, "mwls.order = 5", "mwls.order = 5\nmwls.width = -1",
     'weight_width must be positive or "auto"'),
    (HYDRO_CFG, "mwls.order = 5", "mwls.order = 5\nmwls.width = abc",
     "line 11: bad value for 'mwls.width'"),
    (HYDRO_CFG, "grid.n = 201", "grid.n = 201\npacket.sigma0 = -1",
     "sigma0 must be positive"),
    (HYDRO_CFG, "grid.n = 201", "grid.n = 201\nexchange_sign = 3",
     "exchange_sign must be +1 or -1"),
    (HYDRO_CFG, "grid.hi = 3", "grid.hi = -2", "hi must exceed lo"),
    (FD_CFG, "snapshots = 0.0, 0.025", "snapshots = 0.0, 0.5",
     "snapshot time 0.5 lies outside [0, t_final]"),
    (FD_CFG, "snapshots = 0.0, 0.025", "snapshots = -0.01",
     "snapshot time -0.01 lies outside [0, t_final]"),
    (HYDRO_CFG, "n_steps = 100", "n_steps = 100\nsnapshots = 0.5",
     "snapshot time 0.5 lies outside [0, t_final]"),
    (HYDRO_CFG, "field.kind = single_packet", "particles = 2",
     "hydrodynamic runs are one-dimensional only"),
    (QP_CFG, "solver = hydro_lagrange", "solver = schrodinger_fd\n"
     "particles = 2", "the qp study is one-dimensional only"),
    (QP_CFG, "mwls.orders = 2, 3", "mwls.orders = 1, 3",
     "mwls.orders must be >= 2"),
    (FD_CFG, "grid.n = 131", "grid.n = 131\npacket.kx = 0.1",
     "line 7: unknown key 'packet.kx'"),
    # non-finite values fail the checks instead of running to Degraded
    (FD_CFG, "t_final = 0.05", "t_final = nan",
     "t_final must be positive and finite"),
    (FD_CFG, "t_final = 0.05", "t_final = inf",
     "t_final must be positive and finite"),
    (FD_CFG, "grid.lo = -13", "grid.lo = nan", "grid bounds must be finite"),
    (FD_CFG, "grid.n = 131", "grid.n = 131\npacket.Y = nan",
     "Y must be positive and finite"),
    (FD_CFG, "grid.n = 131", "grid.n = 131\npacket.sigma0 = nan",
     "sigma0 must be positive and finite"),
    (FD_CFG, "particles = 1", "particles = 1\nfield.kind = two_particle",
     "unknown field.kind 'two_particle'"),
    # a width alone still reaches the MWLS checks in an FD run
    (FD_CFG, "grid.n = 131", "grid.n = 131\nmwls.width = abc",
     "line 7: bad value for 'mwls.width'"),
    (FD_CFG, "grid.n = 131", "grid.n = 131\nmwls.width = -1",
     'weight_width must be positive or "auto"'),
], ids=["order", "negative_width", "text_width", "sigma0", "exchange_sign",
        "interval", "late_snapshot", "negative_snapshot",
        "late_hydro_snapshot", "two_particle_hydro", "two_particle_qp",
        "qp_order", "packet_kx", "nan_t_final", "inf_t_final", "nan_grid_lo",
        "nan_packet_Y", "nan_sigma0", "two_particle_kind", "text_width_fd",
        "negative_width_fd"])
def test_invalid_config_value_is_an_error(tmp_path, capsys, text, old, new,
                                          message):
    cfg_path = _write(tmp_path, "bad.cfg", text.replace(old, new))
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


def _manifest_with_kx():
    """A manifest whose packet still records the removed kx."""
    manifest = json.loads(_manifest_text({}))
    manifest["config"]["packet"]["kx"] = 0.1
    return json.dumps(manifest)


@pytest.mark.parametrize("text", [
    "not json", '{"config": {}}', "[]", _manifest_text([]),
    _manifest_text({"trajectories": [{"start": [0.8]}]}),
    _manifest_with_kx(), _manifest_text({"field": {"t=0": {}}}),
], ids=["not_json", "no_packet", "list", "errors_list", "no_max_deviation",
        "packet_kx", "field_no_max"])
def test_compare_unreadable_manifest_is_an_error(tmp_path, capsys, text):
    path = _write(tmp_path, "manifest.json", text)
    assert cli.main(["compare", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a run manifest" in err


def test_masked_and_truncated_starts_are_reported(tmp_path, capsys):
    # 5.0 is masked from t=0, and 2.0 reaches a masked stencil at step
    # 301 of 1e-3. The run is that step rounded up to the next hundred.
    text = FD_CFG.replace("trajectory.starts = 0.8; -0.8",
                          "trajectory.starts = 0.8; -0.8; 2.0; 5.0").replace(
        "t_final = 0.05\nn_steps = 100", "t_final = 0.4\nn_steps = 400")
    cfg_path = _write(tmp_path, "tiny.cfg", text)
    out = str(tmp_path / "runs")
    assert cli.main(["run", cfg_path, "--out", out]) == 0
    manifest_path = os.path.join(out, "tiny_fd", "manifest.json")
    with open(manifest_path) as fh:
        errors = json.load(fh)["errors"]
    entries = errors["trajectories"]
    assert [e["steps_completed"] for e in entries][:2] == [400, 400]
    assert 0 < entries[2]["steps_completed"] < 400
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
    assert "trajectory 2 from [2.0]: max dev" in report


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


def test_flagged_deviation_of_a_cut_path_against_the_full_lattice(
        one_field):
    # a path cut short (an incursion or leaving the grid) is compared
    # with an exact path on the whole lattice over their common times
    from slitsim import analytic
    lattice = np.arange(101) * 1e-2
    full, = analytic.exact_trajectory(one_field, [(0.4,)], lattice)
    got = []
    for n in (60, 1):
        cut = analytic.Trajectory(times=lattice[:n],
                                  positions=full.positions[:n] + 1e-3)
        ex, = analytic.exact_trajectory(one_field, [(0.4,)], cut.times)
        got.append(cli._flagged_deviation(cut, full, one_field))
        assert got[-1] == cli._flagged_deviation(cut, ex, one_field)
    assert got[0]["max_deviation"] == pytest.approx(1e-3)
    assert got[1]["max_deviation"] is None    # a path that never ran


def _pinned_cut(tmp_path, scenario, edits, want):
    """Run a bundled scenario with edits to its text, check the sha256 of
    its CSVs against want and return the manifest."""
    text = open(cli.scenario_path(scenario), encoding="utf-8").read()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg_path = _write(tmp_path, f"{scenario}_cut.cfg", text)
    manifest, code = cli.run(cfg_path, out_root=str(tmp_path / "runs"))
    assert code == 0
    for name, sha in want.items():
        with open(os.path.join(manifest["out_dir"], name), "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        assert got == sha, (
            f"{name} of the {scenario} cut changed (sha256 {got}). If only "
            "numpy or the BLAS library changed, check the new bytes against "
            "the old code on the same numpy/BLAS (git stash the src/ change, "
            "rerun) and re-record the pinned sha256 from that run.")
    return manifest


# sha256 of the CSVs of a 20-step cut of fig6 (all 16 starts, 261
# points): the FD field rows, and the trajectory rows of the
# interpolation and the exact oracle as far as 20 steps let a rounding
# change show. Power-form interpolation moved positions of the full
# fig6 run by up to 1.4e-14 but left these bytes as they were.
FIG6_CUT_SHA256 = {
    "fields.csv":
        "f4588165b5d66614e50cc13ceb57531bac748ba59f71018c0ebc8567de69b824",
    "trajectories.csv":
        "e3b2c8cdc2c841c585a4d536599abdf3d9ec0b7f04ecd89363292414c2fe7b73",
}


def test_fig6_cut_csvs_are_pinned(tmp_path):
    manifest = _pinned_cut(
        tmp_path, "fig6_one_particle",
        [("t_final = 1.0", "t_final = 0.004"),
         ("n_steps = 5000", "n_steps = 20"),
         ("snapshots = 1.0", "snapshots = 0.002")], FIG6_CUT_SHA256)
    assert len(manifest["errors"]["trajectories"]) == 16


# 10-step cuts of fig7_ci_reduced (131x131, two 2D starts, snapshots at
# 0 and the end) and of fig3 (801 Lagrangian points, snapshots at 0 and
# the end): the 2D field rows and the hydro rows, byte for byte.
CUTS_2D_AND_HYDRO = {
    "fig7_ci_reduced": (
        [("t_final = 1.0", "t_final = 0.0025"),
         ("n_steps = 4000", "n_steps = 10"),
         ("snapshots = 1.0", "snapshots = 0.0, 0.0025")],
        {"fields.csv": "b2fb578db9583ae293c51bcb2e06d59b"
                       "738c4c08852004990ff4a6bd81ed6755",
         "trajectories.csv": "c7853aab10368e0f74f9d0ce8912c7b9"
                             "b6841254881093cbc91673bce6f21326"}),
    "fig3_hydro_velocity": (
        [("t_final = 0.01", "t_final = 0.0001"),
         ("n_steps = 1000", "n_steps = 10"),
         ("snapshots = 0, 0.005, 0.01", "snapshots = 0, 0.0001")],
        {"diagnostics.csv": "6c9eb7b6180258be893bbadec47e4bcb"
                            "063c99639149b26445e8f4f1624fe3bd",
         "trajectories.csv": "7ae2fddd9cf2979bc20a9ea8bfd96ba9"
                             "12f10fd5658891994480dacc2421db38"}),
}


@pytest.mark.parametrize("scenario", CUTS_2D_AND_HYDRO)
def test_2d_and_hydro_cut_csvs_are_pinned(tmp_path, scenario):
    _pinned_cut(tmp_path, scenario, *CUTS_2D_AND_HYDRO[scenario])


def test_fd_manifest_records_the_exchange_parity(tmp_path):
    # a 2D boson run differences one axis and transposes (1); losing the
    # exact symmetry would show as 0
    manifest = _pinned_cut(tmp_path, "fig7_ci_reduced",
                           *CUTS_2D_AND_HYDRO["fig7_ci_reduced"])
    assert manifest["exchange_parity"] == 1
    cfg_path = _write(tmp_path, "tiny.cfg", FD_CFG)
    manifest, _ = cli.run(cfg_path, out_root=str(tmp_path / "runs"))
    assert manifest["exchange_parity"] == 0


# The fig7_ci_reduced cut above for two fermions, recorded before the 2D
# stepper and velocity fields took the axis-1 terms from the transposed
# axis-0 ones: antisymmetry keeps every bit too.
FERMION_CUT = (
    CUTS_2D_AND_HYDRO["fig7_ci_reduced"][0]
    + [("exchange_sign = 1", "exchange_sign = -1")],
    {"fields.csv": "018d11424c90f5e78a6d040776685b22"
                   "c3e90f28eb95353329872ad7a52ad0c3",
     "trajectories.csv": "85f88b6507e5fb19b4300e04132fdbe9"
                         "f2df4d9c603df54072b7830b9ffb624c"})


def test_fermion_cut_csvs_are_pinned(tmp_path):
    manifest = _pinned_cut(tmp_path, "fig7_ci_reduced", *FERMION_CUT)
    assert manifest["exchange_parity"] == -1
