"""The benchmark's layer tracer against the package it wraps.

perfbench/child.py in `trace` mode installs perfbench/layer_trace.py,
which replaces package entry points by name (module globals such as
`bohm.interpolate_velocity`, `fd_solver.iterate`, methods such as
`JetOperator.__init__`). A refactor that renames or bypasses one of them
would make a traced run fail or count nothing; these runs catch that.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")

FD1D_CFG = """\
scenario = trace_fd1d
grid.lo = -13
grid.hi = 13
grid.n = 131
t_final = 0.01
n_steps = 20
solver = schrodinger_fd
trajectory.starts = 0.8; -0.8
snapshots = 0.0, 0.005
"""

FD2D_CFG = """\
scenario = trace_fd2d
particles = 2
grid.lo = -4
grid.hi = 4
grid.n = 41
t_final = 0.002
n_steps = 10
solver = schrodinger_fd
trajectory.starts = 1, -0.6; -0.6, 1
"""

HYDRO_CFG = """\
scenario = trace_hydro
field.kind = single_packet
grid.lo = -1
grid.hi = 3
grid.n = 101
t_final = 0.0002
n_steps = 10
solver = hydro_lagrange
"""

FD_LAYERS = ("fd_solver.steps", "bohm.velocity_field_calls",
             "bohm.interpolate_calls", "analytic.exact_trajectory_s")
HYDRO_LAYERS = ("mwls.build_calls", "hydro_solver.steps")


@pytest.mark.parametrize("text, workload, layers", [
    (FD1D_CFG, "fd1d_fan", FD_LAYERS),
    (FD2D_CFG, "fd2d_pair", FD_LAYERS),
    (HYDRO_CFG, "hydro_lagrange", HYDRO_LAYERS),
], ids=["fd1d", "fd2d", "hydro"])
def test_traced_run_counts_every_layer(tmp_path, text, workload, layers):
    cfg = tmp_path / "trace.cfg"
    cfg.write_text(text)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, CHILD, str(cfg), str(tmp_path / "out"), "trace",
         workload], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert "error" not in result, result["error"]
    assert result["exit_code"] in (0, 2)
    counts = result["layers"]
    for name in layers:
        assert counts[name] > 0, name
