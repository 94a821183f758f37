"""Rounding error of the MWLS jet rows on a hydro scenario's initial grid.

Builds the scenario's `JetOperator` on its grid axis and reads the three
rows of each target (value, d/dy, d2/dy2: the weights of the neighbour
values) through `apply` on unit vectors, which is exact. Two measures
per row, each the maximum over targets:

- error: max_k |row_k - ref_k| / sum_k |ref_k|, where ref is the same fit
  (same neighbours, scaling and Gaussian weights) solved in long double
  by Gaussian elimination without pivoting, which is stable on the
  symmetric positive definite normal matrix;
- reproduction residual: |sum_k row_k - delta| / sum_k |row_k|, with
  delta 1 for the value row and 0 for the derivative rows, which a fit
  reproduces exactly on a constant in exact arithmetic.

    python3 tools/jet_accuracy.py fig3_hydro_velocity
    python3 tools/jet_accuracy.py single_packet_control
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from slitsim.cli import scenario_path  # noqa: E402
from slitsim.config import load_config  # noqa: E402
from slitsim.mwls import JetOperator  # noqa: E402

ROW_NAMES = ("value", "d/dy", "d2/dy2")


def operator_rows(op, n_points):
    """rows[n, s, k]: weight of neighbour k in jet s at target n."""
    idx = op.neighbor_idx
    rows = np.empty((len(idx), 3, idx.shape[1]))
    unit = np.zeros(n_points)
    for j in range(n_points):
        unit[j] = 1.0
        jets = np.array(op.apply(unit))                   # (3, nt)
        unit[j] = 0.0
        tgt, k = np.nonzero(idx == j)
        rows[tgt, :, k] = jets[:, tgt].T
    return rows


def _gauss_solve(gram, rhs):
    """gram^-1 rhs for stacks (nt, m, m) and (nt, m, k), by elimination
    without pivoting and back substitution, in the dtype of the input."""
    a, b = gram.copy(), rhs.copy()
    m = a.shape[1]
    for j in range(m - 1):
        f = a[:, j + 1:, j] / a[:, j, j, None]
        a[:, j + 1:, j:] -= f[:, :, None] * a[:, None, j, j:]
        b[:, j + 1:] -= f[:, :, None] * b[:, None, j]
    for i in range(m - 1, -1, -1):
        b[:, i] -= np.einsum("nj,njk->nk", a[:, i, i + 1:], b[:, i + 1:])
        b[:, i] /= a[:, i, i, None]
    return b


def reference_rows(points, neighbor_idx, config):
    """The jet rows of the same weighted fit at the points themselves,
    in long double."""
    pts = np.asarray(points, dtype=np.longdouble)
    offsets = pts[neighbor_idx] - pts[:, None]            # (nt, nb)
    h = np.abs(offsets).mean(axis=1)
    h[h == 0] = 1
    width = (h[:, None] if config.weight_width == "auto"
             else np.longdouble(config.weight_width))
    sigma = np.exp(offsets ** 2 / (2 * width ** 2))
    powers = np.arange(config.poly_order + 1)
    a_mat = (offsets / h[:, None])[:, :, None] ** powers / sigma[:, :, None]
    gram = np.einsum("nkp,nkq->npq", a_mat, a_mat)
    coef = _gauss_solve(gram, np.swapaxes(a_mat / sigma[:, :, None], 1, 2))
    unscale = h[:, None] ** -np.arange(3)
    unscale[:, 2] *= 2
    return coef[:, :3] * unscale[:, :, None]              # (nt, 3, nb)


def accuracy(points, config):
    """Per row: (error against the long-double fit, reproduction
    residual), each the maximum over targets."""
    op = JetOperator(points, config)
    rows = operator_rows(op, len(points))
    ref = reference_rows(points, op.neighbor_idx, config)
    error = (np.abs(rows - ref).max(axis=2)
             / np.abs(ref).sum(axis=2)).max(axis=0)
    delta = np.array([1.0, 0.0, 0.0])
    residual = (np.abs(rows.sum(axis=2) - delta)
                / np.abs(rows).sum(axis=2)).max(axis=0)
    return [(name, float(e), float(r))
            for name, e, r in zip(ROW_NAMES, error, residual)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenario", nargs="?", default="fig3_hydro_velocity",
                        help="bundled hydro scenario name or .cfg path")
    args = parser.parse_args(argv)

    path = (args.scenario if os.path.exists(args.scenario)
            else scenario_path(args.scenario))
    cfg = load_config(path).config
    points = cfg.grid.axis()
    print(f"{len(points)} targets, order {cfg.mwls.poly_order}, "
          f"{cfg.mwls.n_neighbors} neighbours, width {cfg.mwls.weight_width}")
    print(f"{'row':8s}{'error':>12s}{'residual':>12s}")
    for name, err, res in accuracy(points, cfg.mwls):
        print(f"{name:8s}{err:12.3e}{res:12.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
