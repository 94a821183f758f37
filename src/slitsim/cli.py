"""Scenario runner and comparison harness.

`slitsim run <config>` executes one scenario, writes CSV data files, a
gnuplot script, and a JSON manifest; `slitsim compare <manifest>` rebuilds
the error report against the exact oracle; `slitsim list-scenarios` shows
the bundled scenario files. Exit codes: 0 run Valid, 2 run Degraded,
1 error.
"""

import argparse
import json
import os
import sys
import time
from importlib import resources
from itertools import chain, islice, repeat

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
    """_fmt of each value of a float array, in C order, formatted lazily
    (a 2D one mirrored where it can be, see _snapshot_rows)."""
    a = np.asarray(values, dtype=float)
    bits = a.view(np.int64)
    if a.ndim < 2 or not np.array_equal(bits, bits.T):
        return map(repr, a.ravel().tolist())
    held = np.empty(a.shape, dtype=object)

    def rows():
        for i, row in enumerate(a):
            text = list(map(repr, row[i:].tolist()))
            yield held[:i, i].tolist()
            held[:i, i] = None
            yield text
            held[i, i + 1:] = text[1:]
    return chain.from_iterable(rows())


def _write_csv(path, header, rows):
    """Write a header row and an iterable of string rows as CSV.

    The bytes are those of the csv module's default (excel) dialect for
    fields that need no quoting, which no field written here does: no
    comma, quote or line break, and no row of one empty field. rows may
    be lazy; they are formatted as they are written, never all at once.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def _snapshot_rows(t, fld, axis):
    """Rows (t, y[, y2], re, im) of one FD snapshot, in C order over the
    grid; axis is the grid axis, already formatted (a list).

    A 2D array equal to its transpose bit for bit (a boson field; -0.0
    is not 0.0 here) is mirrored: a[j, i] takes the text of a[i, j],
    i < j, held until row j is written (n^2/4 strings at most)."""
    coords = (axis,)
    if fld.grid.dim == 2:
        n = len(axis)
        coords = (chain.from_iterable(repeat(y, n) for y in axis),
                  chain.from_iterable(repeat(axis, n)))
    return zip(repeat(_fmt(t)), *coords, _fmt_column(fld.re),
               _fmt_column(fld.im))


def _field_errors(psi, psi_exact):
    err = np.abs(psi - psi_exact)
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
    """FD run: (status, errors, files, entries for the manifest), the
    entries being the exchange parity the solver found (1, -1 or 0)."""
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
    field_errors = {}
    for k in snap_idx:
        t = k * cfg.dt
        emax, erms = _field_errors(
            fields[k].to_complex(),
            exact_field.psi(*cfg.grid.meshgrid(), t))
        field_errors[f"t={t:.6g}"] = {"max": emax, "rms": erms}
    axis = list(_fmt_column(cfg.grid.axis()))
    _write_csv(os.path.join(out_dir, "fields.csv"), header,
               chain.from_iterable(_snapshot_rows(k * cfg.dt, fields[k], axis)
                                   for k in snap_idx))
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
    exacts, traj_summary = [], []
    for j, (traj, incursion) in enumerate(results):
        ex = exact[j] if j in exact else exact_trajectory(
            exact_field, [cfg.trajectory_starts[j]], traj.times)[0]
        exacts.append(ex)
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
        # every trajectory records the times k*dt from k = 0, so each
        # one's times are a prefix of the longest one's
        times = list(_fmt_column(max((traj.times for traj, _ in results),
                                     key=len)))
        _write_csv(os.path.join(out_dir, "trajectories.csv"), header,
                   chain.from_iterable(
                       zip(repeat(str(j)), islice(times, len(traj.times)),
                           *map(_fmt_column, traj.positions.T),
                           *map(_fmt_column, ex.positions.T))
                       for j, ((traj, _), ex) in enumerate(zip(results,
                                                               exacts))))
        files.append("trajectories.csv")

    crossings = None
    if results:
        violations = bohm.crossing_report(
            [results[j][0] for j in complete],
            min_separation=cfg.grid.delta / 10.0)
        crossings = {"n_violations": len(violations),
                     "n_trajectories_checked": len(complete)}

    status = "Valid" if norm_drift <= fd_solver.NORM_TOLERANCE else "Degraded"
    errors = {
        "norm_drift": norm_drift,
        "field": field_errors,
        "trajectories": traj_summary,
        "crossings": crossings,
    }
    return status, errors, files, {
        "exchange_parity": provider.exchange_parity}


def run_hydro(spec, out_dir):
    cfg = spec.config
    _, diags = hydro_solver.propagate_hydro(cfg)

    # t and y are formatted once: trajectories.csv repeats them
    ts = [_fmt(d.t) for d in diags]
    ys = [list(_fmt_column(d.y)) for d in diags]
    _write_csv(os.path.join(out_dir, "diagnostics.csv"),
               ("t", "y", "v_num", "v_exact", "Q_num", "Q_exact", "status"),
               chain.from_iterable(
                   zip(repeat(t), y,
                       *map(_fmt_column, (d.v_num, d.v_exact, d.q_num,
                                          d.q_exact)),
                       repeat(d.status))
                   for t, y, d in zip(ts, ys, diags)))

    status = "Degraded" if any(d.status == "Degraded" for d in diags) \
        else "Valid"
    errors = {
        "snapshots": [{"t": d.t, "max_v_error": d.max_v_error,
                       "max_q_error": d.max_q_error, "status": d.status,
                       "mwls_max_condition": d.mwls_max_condition}
                      for d in diags],
    }
    # Lagrangian point paths are the Bohmian trajectories
    if cfg.solver == "hydro_lagrange":
        point = [str(i) for i in range(len(diags[0].y))]
        _write_csv(os.path.join(out_dir, "trajectories.csv"),
                   ("point", "t", "y"),
                   chain.from_iterable(zip(point, repeat(t), y)
                                       for t, y in zip(ts, ys)))
        return status, errors, ["diagnostics.csv", "trajectories.csv"]
    return status, errors, ["diagnostics.csv"]


def _qp_orders(spec):
    return spec.qp_orders or (2, 3, 4, 5)


def run_qp_study(spec, out_dir):
    """MWLS quantum potential at t=0 for each order, against the exact Q.

    An error entry over a region with no grid point (near the node,
    |y| <= 0.2, or far from it, |y| >= 0.5) is None.
    """
    cfg = spec.config
    exact_field = field_for(cfg.packet, cfg.field_kind)
    y = cfg.grid.axis()
    g = exact_field.log_amplitude(y, 0.0)
    q_exact = exact_field.quantum_potential(y, 0.0)
    near = np.abs(y) <= 0.2
    far = np.abs(y) >= 0.5
    far_scale = np.abs(q_exact[far]).max() if far.any() else None

    columns = [y, q_exact]
    names = ["y", "Q_exact"]
    summary = {}
    for order in _qp_orders(spec):
        mc = MwlsConfig(n_neighbors=cfg.mwls.n_neighbors, poly_order=order,
                        weight_width=cfg.mwls.weight_width)
        q, _ = hydro_solver.quantum_potential(JetOperator(y, mc), g)
        columns.append(q)
        names.append(f"Q_order{order}")
        err = np.abs(q - q_exact)
        summary[f"order{order}"] = {
            "max_error": float(err.max()),
            "max_error_near_node": (float(err[near].max()) if near.any()
                                    else None),
            "max_error_far_rel": (float(err[far].max() / far_scale)
                                  if far.any() else None),
        }

    _write_csv(os.path.join(out_dir, "quantum_potential.csv"), names,
               zip(*map(_fmt_column, columns)))
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
plot for [col=3:{last_col}] 'quantum_potential.csv' using 1:col with lines, \\
     'quantum_potential.csv' using 1:2 with lines lw 2 title 'exact'
pause -1
""",
}


def _plot_script(spec):
    if spec.mode == "qp_study":
        # columns y, Q_exact, then one per order
        return _PLOT_TEMPLATES["qp_study"].format(
            last_col=2 + len(_qp_orders(spec)))
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
    extra = {}      # manifest entries of one kind of run
    if spec.mode == "qp_study":
        status, errors, files = run_qp_study(spec, out_dir)
    elif spec.config.solver == "schrodinger_fd":
        status, errors, files, extra = run_fd(spec, out_dir)
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
        "n_steps": spec.config.n_steps,
        **extra,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__},
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
        # columns t, y[, y2], re, im
        try:
            data = np.loadtxt(fields_path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise SlitsimError(f"{fields_path} is not a fields CSV "
                               f"({type(exc).__name__}: {exc})") from exc
        for t in np.unique(data[:, 0]):
            sel = data[data[:, 0] == t]
            emax, erms = _field_errors(
                sel[:, -2] + 1j * sel[:, -1],
                exact_field.psi(*sel[:, 1:1 + cfg.grid.dim].T, t))
            report_rows.append((f"field_t={t:.6g}", _fmt(emax),
                                _fmt(erms)))
            lines.append(f"field t={t:.6g}: max |dpsi| = {emax:.3e}, "
                         f"rms = {erms:.3e}")
    report_rows += error_rows
    lines += error_lines

    _write_csv(os.path.join(out_dir, "errors.csv"),
               ("quantity", "max_error", "secondary"), report_rows)
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
