"""Seeded scenario files for the benchmark workloads.

Each workload is a bundled scenario cut to a fixed run length. The seed
only changes the `.cfg` text: seed 0 keeps every parameter of the
bundled file apart from the run length, and other seeds jitter the
inputs without changing the amount of work (grid size and spacing, dt,
step count and number of trajectory starts stay the same).
"""

import math
import os
import random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(ROOT, "src", "slitsim", "scenarios")

#: Trajectory-start jitter: +-1/4 of the 0.2 fan spacing, which is also
#: the 2D grid spacing.
START_JITTER = 0.05
#: Hydro grid shift unit (2**-12): the shifted ends stay exact in binary,
#: so the spacing (hi - lo) / (n - 1) is bit-identical to the bundled one.
SHIFT_UNIT = 2.0 ** -12
#: Largest shift in units, just under half the 0.01 hydro grid spacing.
SHIFT_MAX = 20

# name -> (bundled scenario, run length in steps, what the seed jitters)
WORKLOADS = {
    "fd1d_fan": ("fig6_one_particle", 150, "starts"),
    "fd2d_pair": ("fig7_ci_reduced", 100, "starts"),
    "hydro_lagrange": ("fig3_hydro_velocity", 60, "grid"),
}


def _read_pairs(path):
    """Ordered key -> value text of a scenario file, comments dropped."""
    pairs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, value = (part.strip() for part in line.split("=", 1))
                pairs[key] = value
    return pairs


def _floats(text, sep):
    return [float(c) for c in text.split(sep) if c.strip()]


def _steps_to_time(k, dt):
    """k * dt, nudged so that t / k reproduces dt exactly (k > 0)."""
    t = k * dt
    while t / k > dt:
        t = math.nextafter(t, 0.0)
    while t / k < dt:
        t = math.nextafter(t, math.inf)
    return t


def _shorten(pairs, n_steps):
    """Cut the run to n_steps at the bundled dt, snapshots scaled along."""
    old_steps = int(pairs["n_steps"])
    t_final = float(pairs["t_final"])
    dt = t_final / old_steps
    snaps = []
    for t in _floats(pairs.get("snapshots", ""), ","):
        k = int(round(t / dt)) * n_steps // old_steps
        snaps.append(0.0 if k == 0 else _steps_to_time(k, dt))
    pairs["n_steps"] = str(n_steps)
    pairs["t_final"] = repr(_steps_to_time(n_steps, dt))
    if snaps:
        pairs["snapshots"] = ", ".join(repr(t) for t in snaps)


def _jitter_starts(pairs, rng):
    starts = []
    for chunk in pairs["trajectory.starts"].split(";"):
        coords = [c + rng.uniform(-START_JITTER, START_JITTER)
                  for c in _floats(chunk, ",")]
        starts.append(", ".join(repr(c) for c in coords))
    pairs["trajectory.starts"] = "; ".join(starts)


def _shift_grid(pairs, rng):
    shift = rng.choice([k for k in range(-SHIFT_MAX, SHIFT_MAX + 1) if k])
    shift *= SHIFT_UNIT
    for key in ("grid.lo", "grid.hi"):
        pairs[key] = repr(float(pairs[key]) + shift)


def scenario_text(name, seed):
    """Contents of the workload's scenario file for one seed."""
    base, n_steps, jitter = WORKLOADS[name]
    pairs = _read_pairs(os.path.join(SCENARIO_DIR, base + ".cfg"))
    _shorten(pairs, n_steps)
    if seed != 0:
        rng = random.Random(f"{name}:{seed}")
        if jitter == "starts":
            _jitter_starts(pairs, rng)
        else:
            _shift_grid(pairs, rng)
    pairs["scenario"] = name
    lines = [f"# benchmark workload {name}, seed {seed}, from {base}.cfg"]
    lines += [f"{k} = {v}" for k, v in pairs.items()]
    return "\n".join(lines) + "\n"


def write_scenario(name, seed, out_dir):
    """Write the workload's `.cfg` into out_dir and return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_text(name, seed))
    return path
