"""Scenario runner and comparison harness.

`slitsim run <config>` executes one scenario, writes CSV data files, a
gnuplot script, and a JSON manifest; `slitsim compare <manifest>` rebuilds
the error report against the exact oracle; `slitsim list-scenarios` shows
the bundled scenario files. Exit codes: 0 run Valid, 2 run Degraded,
1 error.
"""

import argparse
import csv
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from . import bohm, fd_solver, hydro_solver
from .analytic import exact_trajectory, field_for, sample_field
from .config import load_config, spec_from_dict, spec_to_dict
from .core import MwlsConfig, norm
from .errors import SlitsimError
from .mwls import JetOperator

#: Density threshold (relative to the instantaneous peak) below which a
#: trajectory point counts as "inside a node region" for error reporting.
#: Much looser than the velocity mask: it flags the stretches where the
#: velocity varies too quickly for any solver to track it closely.
NODE_FLAG_REL = 1e-3


def _fmt(x):
    """Round-trip-exact decimal formatting."""
    return repr(float(x))


def _fmt_column(values):
    """_fmt of each value of a float array, in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _write_csv(path, header, columns):
    """Write equal-length columns of strings under a header row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _extend_columns(columns, parts):
    for col, part in zip(columns, parts):
        col.extend(part)


def _snapshot_columns(t, fld, axis):
    """Columns (t, y[, y2], re, im) of one FD snapshot, rows in C order;
    axis is the grid axis, already formatted."""
    coords = [axis]
    if fld.grid.dim == 2:
        n = fld.grid.n
        coords = [[y for y in axis for _ in range(n)], axis * n]
    return ([[_fmt(t)] * fld.re.size] + coords
            + [_fmt_column(fld.re), _fmt_column(fld.im)])


def _field_errors(fld, exact_field, t):
    coords = fld.grid.meshgrid()
    psi_exact = exact_field.psi(*coords, t)
    err = np.abs(fld.to_complex() - psi_exact)
    return float(err.max()), float(np.sqrt(np.mean(err ** 2)))


def _flagged_deviation(traj, exact_traj, exact_field):
    """Max position deviation, split into off-node and flagged-node parts.

    A trajectory that never left its start (masked at t=0) was not run:
    its three deviations are None rather than a perfect-looking 0.
    """
    n = min(len(traj.times), len(exact_traj.times))
    dev = np.linalg.norm(traj.positions[:n] - exact_traj.positions[:n],
                         axis=1)
    times = traj.times[:n]
    dens = np.abs(exact_field.psi(*traj.positions[:n].T, times)) ** 2
    flagged = dens < NODE_FLAG_REL * exact_field.peak_density(times)
    off = dev[~flagged]
    on = dev[flagged]
    result = {
        "max_deviation": float(dev.max()),
        "max_deviation_off_node": float(off.max()) if len(off) else 0.0,
        "max_deviation_in_node": float(on.max()) if len(on) else 0.0,
        "n_flagged_times": int(flagged.sum()),
    }
    if n < 2:
        result.update(dict.fromkeys(("max_deviation", "max_deviation_off_node",
                                     "max_deviation_in_node")))
    return result


def run_fd(spec, out_dir):
    cfg = spec.config
    exact_field = field_for(cfg.packet, cfg.field_kind)
    initial = sample_field(exact_field, cfg.grid, 0.0)
    norm0 = norm(initial)
    provider = bohm.FdFieldProvider(initial, cfg.dt, cfg.n_steps)

    snap_idx = cfg.snapshot_indices
    results, fields = bohm.integrate_family(
        provider, cfg.trajectory_starts, snapshot_indices=snap_idx)

    files = []
    header = (("t", "y", "re", "im") if cfg.grid.dim == 1
              else ("t", "y1", "y2", "re", "im"))
    columns = [[] for _ in header]
    axis = _fmt_column(cfg.grid.axis())
    field_errors = {}
    for k in snap_idx:
        t = k * cfg.dt
        fld = fields[k]
        _extend_columns(columns, _snapshot_columns(t, fld, axis))
        emax, erms = _field_errors(fld, exact_field, t)
        field_errors[f"t={t:.6g}"] = {"max": emax, "rms": erms}
    path = os.path.join(out_dir, "fields.csv")
    _write_csv(path, header, columns)
    files.append("fields.csv")

    final = fields[cfg.n_steps]
    norm_drift = abs(norm(final) - norm0)

    # One oracle run for every trajectory that completed the lattice; a
    # truncated one is checked on its own recorded times only (a start
    # masked at t=0 would reach a node on the full lattice).
    complete = [j for j, (traj, _) in enumerate(results)
                if traj.stop_reason is None]
    exact = {}
    if complete:
        lattice = results[complete[0]][0].times
        exact = dict(zip(complete, exact_trajectory(
            exact_field, [cfg.trajectory_starts[j] for j in complete],
            lattice)))
    dim = cfg.grid.dim
    traj_columns = [[] for _ in range(2 + 2 * dim)]
    traj_summary = []
    for j, (traj, incursion) in enumerate(results):
        ex = exact[j] if j in exact else exact_trajectory(
            exact_field, [cfg.trajectory_starts[j]], traj.times)[0]
        _extend_columns(traj_columns, (
            [[str(j)] * len(traj.times), _fmt_column(traj.times)]
            + [_fmt_column(traj.positions[:, d]) for d in range(dim)]
            + [_fmt_column(ex.positions[:, d]) for d in range(dim)]))
        entry = {"start": list(cfg.trajectory_starts[j]),
                 "incursion_time": incursion,
                 "left_grid_time": (float(traj.times[-1])
                                    if traj.stop_reason == "left_grid"
                                    else None),
                 "steps_completed": len(traj.times) - 1}
        entry.update(_flagged_deviation(traj, ex, exact_field))
        traj_summary.append(entry)
    if results:
        cols = (("y",) if dim == 1 else ("y1", "y2"))
        header = ("trajectory", "t") + cols + tuple(f"{c}_exact"
                                                    for c in cols)
        path = os.path.join(out_dir, "trajectories.csv")
        _write_csv(path, header, traj_columns)
        files.append("trajectories.csv")

    crossings = None
    if results:
        report = bohm.crossing_report(
            [results[j][0] for j in complete],
            min_separation=cfg.grid.delta / 10.0)
        crossings = {"n_violations": len(report.violations),
                     "n_trajectories_checked": report.n_trajectories}

    status = "Valid" if norm_drift <= fd_solver.NORM_TOLERANCE else "Degraded"
    errors = {
        "norm_drift": norm_drift,
        "field": field_errors,
        "trajectories": traj_summary,
        "crossings": crossings,
    }
    return status, errors, files


def run_hydro(spec, out_dir):
    cfg = spec.config
    exact_field = field_for(cfg.packet, cfg.field_kind)
    snapshots, diags = hydro_solver.propagate_hydro(cfg)

    columns = [[] for _ in range(7)]
    for d in diags:
        n = len(d.y)
        _extend_columns(columns, (
            [[_fmt(d.t)] * n]
            + [_fmt_column(a) for a in (d.y, d.v_num, d.v_exact, d.q_num,
                                        d.q_exact)]
            + [[d.status] * n]))
    path = os.path.join(out_dir, "diagnostics.csv")
    _write_csv(path, ("t", "y", "v_num", "v_exact", "Q_num", "Q_exact",
                      "status"), columns)

    status = "Degraded" if any(d.status == "Degraded" for d in diags) \
        else "Valid"
    errors = {
        "snapshots": [{"t": d.t, "max_v_error": d.max_v_error,
                       "max_q_error": d.max_q_error, "status": d.status}
                      for d in diags],
    }
    # Lagrangian point paths are the Bohmian trajectories
    if cfg.solver == "hydro_lagrange":
        traj_columns = [[] for _ in range(3)]
        point = [str(i) for i in range(len(diags[0].y))]
        for d in diags:
            _extend_columns(traj_columns, (
                point, [_fmt(d.t)] * len(d.y), _fmt_column(d.y)))
        _write_csv(os.path.join(out_dir, "trajectories.csv"),
                   ("point", "t", "y"), traj_columns)
        return status, errors, ["diagnostics.csv", "trajectories.csv"]
    return status, errors, ["diagnostics.csv"]


def run_qp_study(spec, out_dir):
    cfg = spec.config
    orders = spec.qp_orders or (2, 3, 4, 5)
    exact_field = field_for(cfg.packet, cfg.field_kind)
    y = cfg.grid.axis()
    g = exact_field.log_amplitude(y, 0.0)
    q_exact = exact_field.quantum_potential(y, 0.0)

    columns = [y, q_exact]
    names = ["y", "Q_exact"]
    summary = {}
    for order in orders:
        mc = MwlsConfig(n_neighbors=cfg.mwls.n_neighbors, poly_order=order,
                        weight_width=cfg.mwls.weight_width)
        q, _ = hydro_solver.quantum_potential(JetOperator(y, mc), g)
        columns.append(q)
        names.append(f"Q_order{order}")
        err = np.abs(q - q_exact)
        near = np.abs(y) <= 0.2
        far = np.abs(y) >= 0.5
        scale = np.abs(q_exact[far]).max()
        summary[f"order{order}"] = {
            "max_error": float(err.max()),
            "max_error_near_node": float(err[near].max()),
            "max_error_far_rel": float(err[far].max() / scale),
        }

    _write_csv(os.path.join(out_dir, "quantum_potential.csv"), names,
               [_fmt_column(c) for c in columns])
    return "Valid", {"orders": summary}, ["quantum_potential.csv"]


_PLOT_TEMPLATES = {
    "propagate_fd_1d": """\
# gnuplot script: final-time wave function, numeric grid data
set datafile separator ','
set key autotitle columnhead
plot 'fields.csv' using 2:3 with points title 'Re psi (numeric)'
pause -1
""",
    "propagate_fd_2d": """\
# gnuplot script: probability density over (y1, y2), numeric grid data
set datafile separator ','
set key autotitle columnhead
splot 'fields.csv' using 2:3:($4**2+$5**2) \\
      with points title '|psi|^2 (numeric)'
pause -1
""",
    "propagate_hydro": """\
# gnuplot script: velocity and quantum potential vs the exact curves
set datafile separator ','
set key autotitle columnhead
plot 'diagnostics.csv' using 2:3 with points title 'v (hydro)', \\
     'diagnostics.csv' using 2:4 with lines title 'v (exact)'
pause -1
""",
    "qp_study": """\
# gnuplot script: MWLS quantum potential vs exact, by polynomial order
set datafile separator ','
set key autotitle columnhead
plot for [col=3:6] 'quantum_potential.csv' using 1:col with lines, \\
     'quantum_potential.csv' using 1:2 with lines lw 2 title 'exact'
pause -1
""",
}


def _plot_script(spec):
    if spec.mode == "qp_study":
        return _PLOT_TEMPLATES["qp_study"]
    if spec.config.solver == "schrodinger_fd":
        return _PLOT_TEMPLATES[f"propagate_fd_{spec.config.grid.dim}d"]
    return _PLOT_TEMPLATES["propagate_hydro"]


def run(config_path, out_root=None):
    """Execute a scenario file; returns (manifest dict, exit code)."""
    spec = load_config(config_path)
    out_root = out_root or os.environ.get("SLITSIM_OUT") or spec.out_dir
    label = spec.config.scenario or \
        os.path.splitext(os.path.basename(config_path))[0]
    out_dir = os.path.join(out_root, label)
    os.makedirs(out_dir, exist_ok=True)

    start = time.perf_counter()
    if spec.mode == "qp_study":
        status, errors, files = run_qp_study(spec, out_dir)
    elif spec.config.solver == "schrodinger_fd":
        status, errors, files = run_fd(spec, out_dir)
    else:
        status, errors, files = run_hydro(spec, out_dir)
    wall = time.perf_counter() - start

    plot_name = "plot.gp"
    with open(os.path.join(out_dir, plot_name), "w",
              encoding="utf-8") as fh:
        fh.write(_plot_script(spec))

    manifest = {
        "config": spec_to_dict(spec),
        "solver": spec.config.solver,
        "status": status,
        "wall_time_s": wall,
        "errors": errors,
        "files": files + [plot_name],
        "out_dir": out_dir,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest, (0 if status == "Valid" else 2)


def _error_report(errors, n_steps):
    """Report rows and lines for the errors block of a manifest."""
    rows, lines = [], []
    for j, entry in enumerate(errors.get("trajectories") or []):
        if entry["max_deviation"] is None:
            rows.append((f"trajectory_{j}", "", ""))
            lines.append(f"trajectory {j} from {entry['start']}: not run "
                         "(masked at t=0)")
            continue
        rows.append((f"trajectory_{j}", _fmt(entry["max_deviation"]),
                     _fmt(entry["max_deviation_off_node"])))
        line = (f"trajectory {j} from {entry['start']}: max dev "
                f"{entry['max_deviation']:.3e} "
                f"(off-node {entry['max_deviation_off_node']:.3e})")
        steps = entry.get("steps_completed", n_steps)
        if steps < n_steps:
            line += (f"; truncated: steps_completed = {steps} of "
                     f"{n_steps}")
            for key in ("incursion_time", "left_grid_time"):
                if entry.get(key) is not None:
                    line += f", {key} = {entry[key]:.6g}"
        lines.append(line)

    for d in errors.get("snapshots", []):
        rows.append((f"hydro_t={d['t']:.6g}", _fmt(d["max_v_error"]),
                     _fmt(d["max_q_error"])))
        lines.append(f"hydro t={d['t']:.6g}: max |dv| = "
                     f"{d['max_v_error']:.3e}, max |dQ| = "
                     f"{d['max_q_error']:.3e} [{d['status']}]")
    return rows, lines


def compare(manifest_path):
    """Per-snapshot / per-trajectory error report against the exact oracle."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
            cfg = spec_from_dict(manifest["config"]).config
            status, errors = manifest["status"], manifest["errors"]
            error_rows, error_lines = _error_report(errors, cfg.n_steps)
        except (AttributeError, ValueError, KeyError, TypeError) as exc:
            raise SlitsimError(
                f"{manifest_path} is not a run manifest "
                f"({type(exc).__name__}: {exc})") from exc
    out_dir = os.path.dirname(os.path.abspath(manifest_path))
    exact_field = field_for(cfg.packet, cfg.field_kind)

    report_rows = []
    lines = [f"scenario: {cfg.scenario or '(unnamed)'}",
             f"solver: {cfg.solver}", f"status: {status}"]

    fields_path = os.path.join(out_dir, "fields.csv")
    if os.path.exists(fields_path):
        data = np.genfromtxt(fields_path, delimiter=",", names=True)
        for t in np.unique(data["t"]):
            sel = data[data["t"] == t]
            if cfg.grid.dim == 1:
                psi_exact = exact_field.psi(sel["y"], t)
            else:
                psi_exact = exact_field.psi(sel["y1"], sel["y2"], t)
            err = np.abs(sel["re"] + 1j * sel["im"] - psi_exact)
            emax, erms = float(err.max()), float(np.sqrt(np.mean(err ** 2)))
            report_rows.append((f"field_t={t:.6g}", _fmt(emax),
                                _fmt(erms)))
            lines.append(f"field t={t:.6g}: max |dpsi| = {emax:.3e}, "
                         f"rms = {erms:.3e}")
    report_rows += error_rows
    lines += error_lines

    _write_csv(os.path.join(out_dir, "errors.csv"),
               ("quantity", "max_error", "secondary"),
               list(zip(*report_rows)))
    report = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(report)
    return report


def bundled_scenarios():
    """Names of the scenario files shipped with the package."""
    root = resources.files("slitsim").joinpath("scenarios")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))


def scenario_path(name):
    """Filesystem path of a bundled scenario (with or without .cfg)."""
    if not name.endswith(".cfg"):
        name += ".cfg"
    path = resources.files("slitsim").joinpath("scenarios", name)
    if not path.is_file():
        raise SlitsimError(f"no bundled scenario named {name!r}")
    return str(path)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="slitsim",
        description="Two-slit interference: wave functions and Bohmian "
                    "trajectories by rival numerical schemes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("config",
                       help="scenario file path or bundled scenario name")
    p_run.add_argument("--out", default=None,
                       help="output root (default: config out.dir, "
                            "overridden by $SLITSIM_OUT)")

    p_cmp = sub.add_parser("compare", help="error report for a finished run")
    p_cmp.add_argument("manifest", help="path to a run manifest.json")

    sub.add_parser("list-scenarios", help="show bundled scenarios")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = args.config
            if not os.path.exists(config):
                config = scenario_path(config)
            manifest, code = run(config, out_root=args.out)
            print(f"status: {manifest['status']}  "
                  f"wall time: {manifest['wall_time_s']:.2f} s  "
                  f"output: {manifest['out_dir']}")
            return code
        if args.command == "compare":
            print(compare(args.manifest), end="")
            return 0
        for name in bundled_scenarios():
            print(name)
        return 0
    except (SlitsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
