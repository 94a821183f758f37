"""Bohmian trajectories from numerically propagated fields.

The velocity field is the phase gradient, computed in the branch-free
form (psi_R grad psi_I - psi_I grad psi_R) / (psi_R^2 + psi_I^2) with the
4th-order first-derivative stencils; points whose density falls below
EPS_NODE times the instantaneous peak are masked as undefined (NaN). The
stencils run only on the block of the grid that holds the unmasked
points, which gives the same numbers as the whole grid. For a 2D field
with exchange parity (FdFieldProvider finds it once) they run along
axis 0 only, and the second component is the transposed first. Off-grid
values come from local cubic interpolation, whose nominal stencils take
their nodes and Lagrange denominators from a table built once per grid
(_weight_table). A stencil that touches a masked point is replaced, in
the same batched call, by the 4 nearest unmasked points around it, or
gives NaN where too few are left.
Trajectories are RK4 with the velocity linearly interpolated in time
between adjacent field steps. A family of trajectories is integrated as
one stack in a single pass over the solver's time lattice, holding only
the fields at the two ends of the current step: each RK4 stage is one
interpolation call over every live trajectory, and the midpoint stages,
which read both fields, set up the stencils once for the pair.

A trajectory that runs into a masked (near-node) region stops with the
time of incursion instead of continuing on extrapolated velocities; one
that leaves the grid stops with the time it left. crossing_report lists
the times and pairs at which a family breaks the no-crossing property.
"""

import functools
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


def velocity_field(field, t=0.0, parity=0):
    """Velocity at every grid point with near-node points masked.

    parity s = +-1 is the field's fd_solver.exchange_parity. Only the
    axis-0 gradients are then taken, and the second component is a
    C-contiguous copy of the transposed first: the values of both
    gradients, NaN for NaN, except that a zero velocity may take the
    other sign, which interpolation drops (its sums start from +0).
    """
    grid = field.grid
    dens = field.re * field.re
    dens += field.im * field.im
    mask = dens < EPS_NODE * dens.max()
    dens[mask] = np.nan         # masked velocities come out NaN
    box = _unmasked_box(mask)
    re, im, dens = field.re[box], field.im[box], dens[box]
    axes = (0,) if parity else None
    comps = []
    for gr, gi in zip(fd_solver.gradient(re, grid, axes),
                      fd_solver.gradient(im, grid, axes)):
        v = re * gi
        v -= im * gr
        comp = np.full(grid.shape, np.nan)
        np.divide(v, dens, out=comp[box])
        comps.append(comp)
    if parity:
        comps.append(np.ascontiguousarray(comps[0].T))
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


def _stencil_base(grid, x):
    """First index of the 4-point stencil around x (array or scalar)."""
    i = np.floor((x - grid.lo) / grid.delta).astype(int)
    return np.minimum(np.maximum(i - 1, 0), grid.n - 4)


@functools.lru_cache(maxsize=8)
def _weight_table(grid):
    """Nodes (b, 4) of the nominal stencil at each base index b, and the
    Lagrange denominators (b, 4, 3) x_j - x_k that _lagrange_weights
    forms from them."""
    nodes = grid.lo + (np.arange(grid.n - 3)[:, None]
                       + np.arange(4)) * grid.delta
    den = nodes[:, :, None] - nodes[:, _OTHERS]
    nodes.flags.writeable = den.flags.writeable = False
    return nodes, den


def _nominal_weights(grid, pts):
    """Base index (m, dim) and weights (m, dim, 4) of the nominal stencils
    around a (m, dim) stack: _lagrange_weights on tabulated nodes."""
    base = _stencil_base(grid, pts)
    nodes, den = _weight_table(grid)
    r = ((pts[..., None] - nodes.take(base, axis=0)).take(_OTHERS, axis=-1)
         / den.take(base, axis=0))
    return base, r[..., 0] * r[..., 1] * r[..., 2]


def _stencils(mask, start, x, grid):
    """Stencils along grid lines, shape (m, r, 4), that skip masked points.

    mask is the flat grid mask and start the flat index of the first
    point of the r lines read at each of the m coordinates x (0 in 1D).
    A line keeps its nominal stencil where none of it is masked; else it
    takes the 4 nearest unmasked of the 6 points around x, the lower index
    first at equal distance. ok (m, r) is False where the nominal stencil
    is majority-masked or fewer than 4 are left; such lines keep the
    nominal stencil, so that their weights stay finite.
    """
    win = _stencil_base(grid, x)[:, None, None] + np.arange(-1, 5)
    inside = (win >= 0) & (win < grid.n)
    win = np.clip(win, 0, grid.n - 1)
    free = ~mask[start + win] & inside
    n_free = free[..., 1:5].sum(axis=-1)
    ok = (n_free > 1) & (free.sum(axis=-1) >= 4)
    dist = np.where(free, np.abs(grid.lo + win * grid.delta
                                 - x[:, None, None]), np.inf)
    near = np.sort(np.argsort(dist, axis=-1, kind="stable")[..., :4], axis=-1)
    pick = np.where(((n_free == 4) | ~ok)[..., None], np.arange(1, 5), near)
    return np.take_along_axis(win, pick, axis=-1), ok


def _inside(grid, points):
    """Mask over a (m, dim) stack of the points inside the grid."""
    return np.all((points >= grid.lo) & (points <= grid.hi), axis=1)


def interpolate_velocity(vf, points):
    """Velocity at off-grid points by local cubic interpolation.

    points is a stack of shape (m, dim); the result has shape (m, dim).
    The last axis is interpolated along lines: the grid in 1D, in 2D the
    4 rows of each point's stencil, which a column pass then combines.
    Where a stencil touches a masked point, every line takes its stencil
    from _stencils; an unusable line is NaN and a NaN row carries through
    the column pass. Points outside the grid raise OutsideGrid. vf may
    also be a tuple of VelocityFields on one grid: the nominal stencils
    and weights are then set up once, and the result is a tuple with one
    array per field.
    """
    single = isinstance(vf, VelocityField)
    fields = (vf,) if single else vf
    grid = fields[0].grid
    pts = _stack(points, grid.dim)
    # min/max fail for a NaN too; only then find the first bad point
    if pts.size and not (pts.min() >= grid.lo and pts.max() <= grid.hi):
        inside = _inside(grid, pts)
        raise OutsideGrid(f"point {pts[~inside][0]} outside the grid")

    # stencils (m, 1, 4) along the lines; start: flat index of line starts
    x = pts[:, -1]
    base, w_all = _nominal_weights(grid, pts)
    cols = base[:, -1:, None] + np.arange(4)
    w = w_all[:, -1:]
    start = 0
    if grid.dim == 2:
        w_rows = w_all[:, 0]
        start = (base[:, :1] + np.arange(4))[..., None] * grid.n
    nominal = start + cols
    outs = []
    for fld in fields:
        mask = fld.mask.ravel()
        flat, w_line = nominal, w
        if mask[nominal].any():
            idx, ok = _stencils(mask, start, x, grid)
            flat = start + idx
            w_line = _lagrange_weights(grid.lo + idx * grid.delta, x[:, None])
            w_line[~ok] = np.nan
        out = np.empty(pts.shape)
        for c, comp in enumerate(fld.components):
            vals = _lagrange_eval(w_line, comp.ravel()[flat])
            out[:, c] = (vals[:, 0] if grid.dim == 1
                         else _lagrange_eval(w_rows, vals))
        outs.append(out)
    return outs[0] if single else tuple(outs)


class FdFieldProvider:
    """The solver's time lattice as (ComplexField, VelocityField) pairs.

    Iterating steps the finite-difference solver one dt at a time from
    the initial field and yields the pair at k*dt for k = 0 ... n_steps;
    nothing is kept between steps. exchange_parity, that of the initial
    field, serves every velocity field.
    """

    def __init__(self, initial_field, dt, n_steps):
        self.initial_field = initial_field
        self.dt = dt
        self.n_steps = n_steps
        self.exchange_parity = fd_solver.exchange_parity(initial_field)

    def __iter__(self):
        s = self.exchange_parity
        yield self.initial_field, velocity_field(self.initial_field, 0.0, s)
        for t, fld in fd_solver.iterate(self.initial_field, self.dt,
                                        self.n_steps):
            yield fld, velocity_field(fld, t, s)


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
        if np.isnan(v).any():
            ok = ~np.isnan(v).any(axis=1)
            live[live] = ok
            r, v = r[ok], v[ok]
            ks = [kv[ok] for kv in ks]
            if not len(r):
                return live, left, r
        ks.append(v)
    f1, f2, f3, f4 = ks
    return live, left, r + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)


def integrate_family(provider, starts, snapshot_indices=()):
    """Integrate several trajectories in one pass over the field lattice.

    provider is an iterable of (field, VelocityField) pairs on the time
    lattice k*dt, with attributes dt and n_steps. RK4 with the velocity
    at substage times linearly interpolated between the two adjacent
    lattice velocity fields; each stage is one interpolation call over
    every live trajectory.

    Returns (results, fields) where results is a list of
    (Trajectory, incursion_time_or_None) pairs and fields maps each
    requested snapshot index to its ComplexField. A trajectory that runs
    into a masked region or leaves the grid is truncated at the start of
    that step rather than aborting the whole family; its stop_reason says
    which ("incursion" or "left_grid").
    """
    dt, n = provider.dt, provider.n_steps
    snapshot_indices = set(snapshot_indices)
    lattice = iter(provider)
    field, va = next(lattice)
    fields = {0: field} if 0 in snapshot_indices else {}
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
        field, vb = next(lattice)
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
            fields[k + 1] = field
        va = vb

    results = []
    for j in range(m):
        times = np.arange(steps[j] + 1) * dt
        results.append((Trajectory(times=times,
                                   positions=positions[j, :steps[j] + 1],
                                   stop_reason=stop[j]), incursion[j]))
    return results, fields


def crossing_report(trajectories, min_separation=0.0):
    """Violations of the no-crossing property over a family of trajectories.

    1D: trajectories sorted by initial position must preserve their order
    at every recorded time. 2D: no two trajectories may come within
    min_separation of the same configuration point at the same time.
    Returns a tuple of (time, index_a, index_b) triples, empty if none.
    """
    if not trajectories:
        return ()
    t0 = trajectories[0].times
    for tr in trajectories:
        if len(tr.times) != len(t0) or np.any(tr.times != t0):
            raise ValueError("trajectories must share a time lattice")

    violations = []
    if trajectories[0].dim == 1:
        pos = np.stack([tr.positions[:, 0] for tr in trajectories], axis=1)
        order = np.argsort(pos[0], kind="stable")
        pos = pos[:, order]
        # row-major nonzero walks (time, pair) in the order of a time loop
        its, bad = np.nonzero(np.diff(pos, axis=1) <= 0)
        violations = [(float(t0[it]), int(order[b]), int(order[b + 1]))
                      for it, b in zip(its, bad)]
    else:
        n = len(trajectories)
        for it, t in enumerate(t0):
            pts = np.stack([tr.positions[it] for tr in trajectories])
            for a in range(n):
                for b in range(a + 1, n):
                    if np.linalg.norm(pts[a] - pts[b]) <= min_separation:
                        violations.append((float(t), a, b))
    return tuple(violations)
