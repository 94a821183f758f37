"""Bohmian trajectories from numerically propagated fields.

The velocity field is the phase gradient, computed in the branch-free
form (psi_R grad psi_I - psi_I grad psi_R) / (psi_R^2 + psi_I^2) with the
4th-order first-derivative stencils; points whose density falls below
EPS_NODE times the instantaneous peak are masked as undefined (NaN). The
stencils run only on the block of the grid that holds the unmasked
points, which gives the same numbers as the whole grid. Off-grid
values come from local cubic interpolation, and trajectories are RK4 with
the velocity linearly interpolated in time between adjacent field steps.
A family of trajectories is integrated as one stack: each RK4 stage is
one interpolation call over every live trajectory, and the midpoint
stages, which read the fields at both ends of the time step, set up the
stencils once for the pair.

A trajectory that runs into a masked (near-node) region stops with the
time of incursion instead of continuing on extrapolated velocities; one
that leaves the grid stops with the time it left.
"""

from dataclasses import dataclass

import numpy as np

from . import fd_solver
from .analytic import Trajectory, _stack
from .core import EPS_NODE, MIN_POINTS
from .errors import OutsideGrid


@dataclass(frozen=True)
class VelocityField:
    """Bohmian velocity sampled on the grid at one instant."""

    grid: object
    t: float
    components: tuple      # one array per axis
    mask: np.ndarray       # True where velocity is undefined (near-node)


def velocity_field(field, t=0.0):
    """Velocity at every grid point with near-node points masked."""
    grid = field.grid
    dens = field.re * field.re
    dens += field.im * field.im
    mask = dens < EPS_NODE * dens.max()
    dens[mask] = np.nan         # masked velocities come out NaN
    box = _unmasked_box(mask)
    re, im, dens = field.re[box], field.im[box], dens[box]
    comps = []
    for gr, gi in zip(fd_solver.gradient(re, grid),
                      fd_solver.gradient(im, grid)):
        v = re * gi
        v -= im * gr
        comp = np.full(grid.shape, np.nan)
        np.divide(v, dens, out=comp[box])
        comps.append(comp)
    return VelocityField(grid=grid, t=t, components=tuple(comps), mask=mask)


def _unmasked_box(mask):
    """Slices of the block that holds every unmasked point and the two
    points on each side that its stencils read, at least MIN_POINTS long
    on each axis. Inside the block the stencils see what they see on the
    whole grid; outside it every point is masked."""
    box = []
    for a, n in enumerate(mask.shape):
        others = tuple(b for b in range(mask.ndim) if b != a)
        idx = np.flatnonzero(~mask.all(axis=others))
        lo = min(max(idx[0] - 2, 0), n - MIN_POINTS)
        hi = max(min(idx[-1] + 3, n), lo + MIN_POINTS)
        box.append(slice(lo, hi))
    return tuple(box)


#: For each node j of a 4-point stencil, the other nodes k != j in order.
_OTHERS = np.array([[k for k in range(4) if k != j] for j in range(4)])


def _lagrange_weights(xs, x):
    """Cubic Lagrange basis values l_j(x) on the nodes xs, shape (..., 4).

    l_j = prod_{k != j} (x - x_k) / (x_j - x_k), each factor and product
    a separate elementwise operation taken in k order, so that a point
    gets the same bits alone as in a stack.
    """
    x = np.asarray(x)[..., None]
    r = (x - xs)[..., _OTHERS] / (xs[..., None] - xs[..., _OTHERS])
    return r[..., 0] * r[..., 1] * r[..., 2]


def _lagrange_eval(weights, ys):
    """sum_j ys_j l_j over the last axis, summed in j order."""
    terms = ys * weights
    total = 0.0
    for j in range(4):
        total = total + terms[..., j]
    return total


def _interp_1d_line(values, mask, grid, x):
    """Cubic interpolation along a 1D array with near-node masking.

    Uses the 4 nearest grid points; if the nominal stencil is majority
    masked, or fewer than 4 unmasked points exist among the 6 nearest,
    returns NaN. A minority of masked points is replaced by the nearest
    unmasked ones.
    """
    base = _stencil_base(grid, x)
    idx = np.arange(base, base + 4)
    masked = mask[idx]
    if masked.sum() >= 3:
        return np.nan
    if masked.any():
        lo = max(base - 1, 0)
        hi = min(base + 5, grid.n)
        window = np.arange(lo, hi)
        window = window[~mask[window]]
        if len(window) < 4:
            return np.nan
        coords = grid.lo + window * grid.delta
        order = np.argsort(np.abs(coords - x), kind="stable")[:4]
        idx = np.sort(window[order])
    xs = grid.lo + idx * grid.delta
    return _lagrange_eval(_lagrange_weights(xs, x), values[idx])


def _stencil_base(grid, x):
    """First index of the 4-point stencil around x (array or scalar)."""
    i = np.floor((x - grid.lo) / grid.delta).astype(int)
    return np.minimum(np.maximum(i - 1, 0), grid.n - 4)


def _interp_masked(vf, pt):
    """Velocity at one point whose stencil touches a masked grid point.

    The minority-masked fallback of _interp_1d_line, row by row in 2D;
    NaN where the stencil is majority-masked (a NaN row value carries
    through the column pass).
    """
    grid = vf.grid
    if grid.dim == 1:
        return np.array([
            _interp_1d_line(vf.components[0], vf.mask, grid, pt[0])])

    # 2D: separable pass, rows (axis 0) chosen around y1, each row
    # interpolated along axis 1 with its own mask handling.
    y1, y2 = pt
    base1 = _stencil_base(grid, y1)
    rows = np.arange(base1, base1 + 4)
    if vf.mask[rows].all(axis=1).sum() >= 3:
        return np.full(2, np.nan)
    w1 = _lagrange_weights(grid.lo + rows * grid.delta, y1)
    out = np.empty(2)
    for c, comp in enumerate(vf.components):
        row_vals = np.array([
            _interp_1d_line(comp[r], vf.mask[r], grid, y2) for r in rows])
        out[c] = _lagrange_eval(w1, row_vals)
    return out


def _inside(grid, points):
    """Mask over a (m, dim) stack of the points inside the grid."""
    return np.all((points >= grid.lo) & (points <= grid.hi), axis=1)


def interpolate_velocity(vf, points):
    """Velocity at off-grid points by local cubic interpolation.

    points is a stack of shape (m, dim); the result has shape (m, dim),
    with a NaN row for each point whose stencil is majority-masked.
    Points outside the grid raise OutsideGrid. vf may also be a tuple of
    VelocityFields on one grid: the stencils and weights are then set up
    once, and the result is a tuple with one array per field.
    """
    single = isinstance(vf, VelocityField)
    fields = (vf,) if single else vf
    grid = fields[0].grid
    pts = _stack(points, grid.dim)
    inside = _inside(grid, pts)
    if not inside.all():
        raise OutsideGrid(f"point {pts[~inside][0]} outside the grid")

    # All stencils at once: indices and weights (m, 4) per axis, values
    # (m, 4[, 4]). In 2D the row pass runs along axis 1 for all m x 4
    # rows, then one column pass along axis 0, as in _interp_masked.
    idx = [_stencil_base(grid, pts[:, a])[:, None] + np.arange(4)
           for a in range(grid.dim)]
    w = [_lagrange_weights(grid.lo + i * grid.delta, pts[:, a])
         for a, i in enumerate(idx)]
    block = (idx[0],) if grid.dim == 1 else (idx[0][:, :, None],
                                              idx[1][:, None, :])
    outs = []
    for fld in fields:
        out = np.empty(pts.shape)
        for c, comp in enumerate(fld.components):
            vals = comp[block]
            if grid.dim == 2:
                vals = _lagrange_eval(w[1][:, None, :], vals)
            out[:, c] = _lagrange_eval(w[0], vals)

        touched = fld.mask[block].reshape(len(pts), -1).any(axis=1)
        for i in np.flatnonzero(touched):
            out[i] = _interp_masked(fld, pts[i])
        outs.append(out)
    return outs[0] if single else tuple(outs)


class FdFieldProvider:
    """Velocity fields on the solver's time lattice, computed lazily.

    Steps the finite-difference solver one dt at a time and caches the
    velocity fields at the two most recent lattice times, which is all the
    time-interpolation scheme needs.
    """

    def __init__(self, initial_field, dt, n_steps):
        self.dt = dt
        self.n_steps = n_steps
        self._iter = fd_solver.iterate(initial_field, dt, n_steps)
        self._cache = {0: velocity_field(initial_field, 0.0)}
        self._fields = {0: initial_field}
        self._last = 0

    def field_at(self, k):
        self.at(k)
        return self._fields[k]

    def at(self, k):
        """VelocityField at lattice index k (k*dt)."""
        if k > self.n_steps:
            raise IndexError(f"lattice index {k} beyond the run")
        while self._last < k:
            t, fld = next(self._iter)
            self._last += 1
            self._cache[self._last] = velocity_field(fld, t)
            self._fields[self._last] = fld
            for old in [i for i in self._cache if i < self._last - 1]:
                del self._cache[old]
                del self._fields[old]
        if k not in self._cache:
            raise IndexError(
                f"lattice index {k} no longer cached (monotone access only)")
        return self._cache[k]


def _rk4_stack(r, dt, va, vb):
    """One RK4 step for a stack of points, velocity linear in time.

    Each stage makes one interpolate_velocity call over the points still
    live, for one field or for the pair at the midpoint stages. A point
    whose stencil is majority-masked, or that lies outside the grid, at
    any stage drops out of the later stages.
    Returns (mask over r of the points that completed the step, mask over
    r of the points dropped for leaving the grid, their new positions).
    """
    live = np.ones(len(r), dtype=bool)
    left = np.zeros(len(r), dtype=bool)
    ks = []
    for h, fields in ((None, (va,)), (0.5 * dt, (va, vb)),
                      (0.5 * dt, (va, vb)), (dt, (vb,))):
        p = r if h is None else r + h * ks[-1]
        try:
            vs = interpolate_velocity(fields, p)
        except OutsideGrid:
            inside = _inside(va.grid, p)
            left[np.flatnonzero(live)[~inside]] = True
            live[live] = inside
            r, p = r[inside], p[inside]
            ks = [kv[inside] for kv in ks]
            if not len(r):
                return live, left, r
            vs = interpolate_velocity(fields, p)
        v = vs[0] if len(vs) == 1 else 0.5 * (vs[0] + vs[1])
        ok = ~np.isnan(v).any(axis=1)
        live[live] = ok
        r = r[ok]
        ks = [kv[ok] for kv in ks] + [v[ok]]
        if not len(r):
            return live, left, r
    f1, f2, f3, f4 = ks
    return live, left, r + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)


def integrate_family(provider, starts, provenance="fd",
                     snapshot_indices=()):
    """Integrate several trajectories in one pass over the field lattice.

    RK4 with the velocity at substage times linearly interpolated between
    the two adjacent lattice velocity fields; each stage is one
    interpolation call over every live trajectory.

    Returns (results, fields) where results is a list of
    (Trajectory, incursion_time_or_None) pairs and fields maps each
    requested snapshot index to its ComplexField. A trajectory that runs
    into a masked region or leaves the grid is truncated at the start of
    that step rather than aborting the whole family; its stop_reason says
    which ("incursion" or "left_grid").
    """
    dt = provider.dt
    n = provider.n_steps
    snapshot_indices = set(snapshot_indices)
    fields = {}
    if 0 in snapshot_indices:
        fields[0] = provider.field_at(0)
    last_snapshot = max(snapshot_indices, default=0)

    m = len(starts)
    r = np.array([np.atleast_1d(np.asarray(s, dtype=float)) for s in starts])
    positions = np.empty((m, n + 1) + r.shape[1:])
    positions[:, 0] = r
    steps = np.zeros(m, dtype=int)
    incursion = [None] * m
    stop = [None] * m
    live = np.arange(m)

    for k in range(n):
        if not len(live) and k >= last_snapshot:
            break
        va = provider.at(k)
        vb = provider.at(k + 1)
        if len(live):
            done, left, r_new = _rk4_stack(r[live], dt, va, vb)
            for j in live[left]:
                stop[j] = "left_grid"
            for j in live[~done & ~left]:
                incursion[j] = k * dt
                stop[j] = "incursion"
            live = live[done]
            r[live] = r_new
            positions[live, k + 1] = r_new
            steps[live] = k + 1
        if k + 1 in snapshot_indices:
            fields[k + 1] = provider.field_at(k + 1)

    results = []
    for j in range(m):
        times = np.arange(steps[j] + 1) * dt
        results.append((Trajectory(times=times,
                                   positions=positions[j, :steps[j] + 1],
                                   provenance=provenance,
                                   stop_reason=stop[j]), incursion[j]))
    return results, fields


@dataclass(frozen=True)
class CrossingReport:
    """Order-preservation / coincidence check over a trajectory family."""

    violations: tuple      # (time, index_a, index_b) triples
    n_trajectories: int

    @property
    def ok(self):
        return not self.violations


def crossing_report(trajectories, min_separation=0.0):
    """Check the no-crossing property over a family of trajectories.

    1D: trajectories sorted by initial position must preserve their order
    at every recorded time. 2D: no two trajectories may come within
    min_separation of the same configuration point at the same time.
    """
    if not trajectories:
        return CrossingReport(violations=(), n_trajectories=0)
    t0 = trajectories[0].times
    for tr in trajectories:
        if len(tr.times) != len(t0) or np.any(tr.times != t0):
            raise ValueError("trajectories must share a time lattice")

    violations = []
    if trajectories[0].dim == 1:
        pos = np.stack([tr.positions[:, 0] for tr in trajectories], axis=1)
        order = np.argsort(pos[0], kind="stable")
        pos = pos[:, order]
        for it, t in enumerate(t0):
            bad = np.nonzero(np.diff(pos[it]) <= 0)[0]
            for b in bad:
                violations.append((float(t), int(order[b]),
                                   int(order[b + 1])))
    else:
        n = len(trajectories)
        for it, t in enumerate(t0):
            pts = np.stack([tr.positions[it] for tr in trajectories])
            for a in range(n):
                for b in range(a + 1, n):
                    if np.linalg.norm(pts[a] - pts[b]) <= min_separation:
                        violations.append((float(t), a, b))
    return CrossingReport(violations=tuple(violations),
                          n_trajectories=len(trajectories))
