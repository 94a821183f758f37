"""Spread of a hydro run's final errors under one-ulp input perturbations.

The MWLS hydro solver amplifies rounding: near a wave-function node, two
runs whose arithmetic differs only in the last bit end with visibly
different errors. To tell whether a change to the MWLS arithmetic lost
accuracy or only moved rounding, compare its final errors with this
spread, measured on the code before the change.

Each trial reruns the scenario through `propagate_hydro(cfg, points=...)`
with every initial point moved one ulp up or down at random (seeded);
trial 0 is the unperturbed grid. Prints each trial's final-snapshot
`max_v_error` and `max_q_error`, then their min, median and max.

    python3 tools/rounding_spread.py fig3_hydro_velocity --trials 4
    python3 tools/rounding_spread.py single_packet_control --trials 6
"""

import argparse
import os
import statistics
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from slitsim.cli import scenario_path  # noqa: E402
from slitsim.config import load_config  # noqa: E402
from slitsim.hydro_solver import propagate_hydro  # noqa: E402


def nudged_points(axis, rng):
    """axis with each value moved one ulp toward -inf or +inf at random."""
    toward = np.where(rng.random(len(axis)) < 0.5, -np.inf, np.inf)
    return np.nextafter(axis, toward)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenario",
                        help="bundled hydro scenario name or .cfg path")
    parser.add_argument("--trials", type=int, default=4,
                        help="runs, the unperturbed one included")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    path = (args.scenario if os.path.exists(args.scenario)
            else scenario_path(args.scenario))
    cfg = load_config(path).config
    axis = cfg.grid.axis()
    rng = np.random.default_rng(args.seed)
    results = []
    for trial in range(args.trials):
        points = axis if trial == 0 else nudged_points(axis, rng)
        final = propagate_hydro(cfg, points=points)[1][-1]
        v_err, q_err = final.max_v_error, final.max_q_error
        results.append((v_err, q_err))
        print(f"trial {trial}: max_v_error {v_err:.6g}  "
              f"max_q_error {q_err:.6g}", flush=True)
    for name, column in zip(("max_v_error", "max_q_error"), zip(*results)):
        print(f"{name}: min {min(column):.6g}  "
              f"median {statistics.median(column):.6g}  "
              f"max {max(column):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
