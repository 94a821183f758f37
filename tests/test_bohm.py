"""Velocity fields, interpolation, and trajectory integration."""

import numpy as np
import pytest

from slitsim import analytic, bohm, fd_solver
from slitsim.core import EPS_NODE, ComplexField, UniformGrid, WavePacketParams
from slitsim.errors import OutsideGrid

from packet_sums import similarity_position


def _synthetic_vf(grid, func, mask=None):
    y = grid.axis()
    vals = func(y)
    if mask is None:
        mask = np.zeros(grid.n, dtype=bool)
    return bohm.VelocityField(grid=grid, t=0.0, components=(vals,),
                              mask=mask)


def _solo(provider, start):
    """The trajectory of a family of one, which must run to the end."""
    [(traj, incursion)], _ = bohm.integrate_family(provider, [start])
    assert traj.stop_reason is None and incursion is None
    return traj


def _velocity_field_error(one_field, n):
    g = UniformGrid(-13.0, 13.0, n)
    fld = analytic.sample_field(one_field, g, 1.0)
    vf = bohm.velocity_field(fld, 1.0)
    y = g.axis()
    dens = fld.density()
    # central fringes only: the local wavenumber grows linearly with |y|,
    # so the stencil error (~(k*delta)^4) is dominated by the outer tail
    sel = (dens > 1e-3 * dens.max()) & (np.abs(y) <= 4.0)
    v_exact, _ = one_field.velocity_and_potential(y[sel], 1.0)
    return np.abs(vf.components[0][sel] - v_exact).max()


def test_velocity_field_matches_exact(one_field):
    err = _velocity_field_error(one_field, 261)
    assert err < 5e-3
    # and it is the 4th-order stencil floor: halving delta drops it ~16x
    assert err / _velocity_field_error(one_field, 521) > 10.0


def test_real_field_has_zero_velocity():
    g = UniformGrid(-2.0, 2.0, 41)
    y = g.axis()
    fld = ComplexField(grid=g, re=np.exp(-y ** 2), im=np.zeros_like(y))
    vf = bohm.velocity_field(fld)
    assert np.allclose(vf.components[0][~vf.mask], 0.0, atol=1e-12)


def test_velocity_field_odd_symmetry(one_field):
    g = UniformGrid(-13.0, 13.0, 261)
    vf = bohm.velocity_field(analytic.sample_field(one_field, g, 1.0), 1.0)
    v = vf.components[0]
    mid = g.n // 2
    assert v[mid] == pytest.approx(0.0, abs=1e-12)
    ok = ~(vf.mask | vf.mask[::-1])
    assert np.allclose(v[ok], -v[::-1][ok], atol=1e-12)


@pytest.mark.parametrize("grid, t", [
    (UniformGrid(-13.0, 13.0, 261), 0.3),
    (UniformGrid(-1.5, 6.0, 76), 0.05),
    (UniformGrid(-13.0, 13.0, 131, dim=2), 0.05),
    (UniformGrid(-1.5, 6.0, 76, dim=2), 0.05),
], ids=["1d", "1d-edge", "2d", "2d-edge"])
def test_velocity_field_equals_the_whole_grid_formula(grid, t):
    # the stencils run on the block around the unmasked points only (which
    # reaches the lower grid edge in the -edge cases); every point keeps
    # the bits of the formula on the whole grid
    fld = analytic.sample_field(
        analytic.field_for(WavePacketParams(particles=grid.dim)), grid, t)
    dens = fld.density()
    mask = dens < EPS_NODE * dens.max()
    want = [np.where(mask, np.nan,
                     (fld.re * gi - fld.im * gr) / np.where(mask, 1.0, dens))
            for gr, gi in zip(fd_solver.gradient(fld.re, grid),
                              fd_solver.gradient(fld.im, grid))]
    vf = bohm.velocity_field(fld, t)
    assert np.array_equal(vf.mask, mask)
    for got, w in zip(vf.components, want):
        assert np.array_equal(got, w, equal_nan=True)
    block = bohm._unmasked_box(mask)
    assert block[0].stop - block[0].start < grid.n


@pytest.mark.parametrize("sign", [1, -1])
def test_parity_velocity_field_equals_the_general_path(sign):
    # at t = 0 (psi real) and after some steps, with masked tails; a zero
    # velocity may differ in its sign, so values are compared, NaN to NaN
    g = UniformGrid(-13.0, 13.0, 131, dim=2)
    initial = analytic.sample_field(analytic.TwoParticleField(
        WavePacketParams(particles=2, exchange_sign=sign)), g, 0.0)
    provider = bohm.FdFieldProvider(initial, 2.5e-4, 8)
    assert provider.exchange_parity == sign
    for fld, vf in provider:
        want = bohm.velocity_field(fld, vf.t)
        assert vf.mask.any() and np.array_equal(vf.mask, want.mask)
        for got, w in zip(vf.components, want.components):
            assert np.array_equal(got, w, equal_nan=True)
        assert vf.components[1].flags.c_contiguous


def test_interpolation_on_node_matches_grid_value():
    g = UniformGrid(-2.0, 2.0, 41)
    vf = _synthetic_vf(g, lambda y: np.tanh(y))
    y7 = g.axis()[7]
    out = bohm.interpolate_velocity(vf, np.array([[y7]]))
    assert out[0, 0] == pytest.approx(np.tanh(y7), rel=1e-12)


def test_interpolation_cubic_exactness():
    g = UniformGrid(-2.0, 2.0, 41)
    vf = _synthetic_vf(g, lambda y: y ** 3 - 2.0 * y)
    xs = np.random.default_rng(1).uniform(-1.8, 1.8, 50)
    out = bohm.interpolate_velocity(vf, xs[:, None])
    assert np.allclose(out[:, 0], xs ** 3 - 2.0 * xs, rtol=0.0, atol=1e-12)


def test_interpolation_fourth_order():
    def max_err(n):
        g = UniformGrid(-2.0, 2.0, n)
        vf = _synthetic_vf(g, np.sin)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.5, 1.5, 200)
        out = bohm.interpolate_velocity(vf, pts[:, None])
        return np.abs(out[:, 0] - np.sin(pts)).max()

    e1, e2 = max_err(41), max_err(81)
    assert e1 / e2 > 10.0  # ~16 for a 4th-order scheme


def test_interpolation_2d_bicubic_exactness(boson_field):
    g = UniformGrid(-2.0, 2.0, 41, dim=2)
    y1, y2 = g.meshgrid()
    c1 = y1 ** 3 * y2 - y2 ** 2
    c2 = y1 * y2 ** 3 + 1.0
    mask = np.zeros(g.shape, dtype=bool)
    vf = bohm.VelocityField(grid=g, t=0.0, components=(c1, c2), mask=mask)
    pt = np.array([0.37, -1.21])
    out = bohm.interpolate_velocity(vf, pt[None])[0]
    a, b = pt
    assert out[0] == pytest.approx(a ** 3 * b - b ** 2, abs=1e-12)
    assert out[1] == pytest.approx(a * b ** 3 + 1.0, abs=1e-12)


def test_interpolation_skips_minority_masked():
    # a stencil that touches the one masked point gives no velocity,
    # although a finite value is stored there; one clear of it is exact
    g = UniformGrid(-2.0, 2.0, 41)
    mask = np.zeros(41, dtype=bool)
    mask[20] = True
    vf = _synthetic_vf(g, lambda y: y ** 3, mask=mask)
    x = g.axis()[20] + 0.03  # stencil straddles the masked point
    out = bohm.interpolate_velocity(vf, np.array([[x], [x + 0.2]]))
    assert np.isnan(out[0, 0])
    assert out[1, 0] == pytest.approx((x + 0.2) ** 3, abs=1e-12)


def _packet_provider(n=261, dt=1e-3, n_steps=1000):
    fld = analytic.SlitPacketField(WavePacketParams())
    g = UniformGrid(-13.0, 13.0, n)
    initial = analytic.sample_field(fld, g, 0.0)
    return fld, bohm.FdFieldProvider(initial, dt, n_steps)


def test_trajectory_endpoint_similarity():
    fld, provider = _packet_provider(n=521)
    traj = _solo(provider, (1.2,))
    assert traj.positions[-1, 0] == pytest.approx(3.507987240797, abs=1e-3)
    assert len(traj.times) == 1001


def test_symmetry_axis_is_invariant(one_field):
    g = UniformGrid(-13.0, 13.0, 261)
    initial = analytic.sample_field(one_field, g, 0.0)
    provider = bohm.FdFieldProvider(initial, 1e-3, 50)
    traj = _solo(provider, (0.0,))
    assert np.allclose(traj.positions[:, 0], 0.0, atol=1e-12)


def test_reflection_equivariance(one_field):
    g = UniformGrid(-13.0, 13.0, 261)
    initial = analytic.sample_field(one_field, g, 0.0)
    p1 = bohm.FdFieldProvider(initial, 1e-3, 100)
    p2 = bohm.FdFieldProvider(
        ComplexField(grid=g, re=initial.re[::-1].copy(),
                     im=initial.im[::-1].copy()), 1e-3, 100)
    t1 = _solo(p1, (0.8,))
    t2 = _solo(p2, (-0.8,))
    assert np.allclose(t1.positions, -t2.positions, atol=1e-12)


def test_boson_exchange_swap(boson_field):
    g = UniformGrid(-3.0, 3.0, 61, dim=2)
    initial = analytic.sample_field(boson_field, g, 0.0)
    p1 = bohm.FdFieldProvider(initial, 2e-4, 100)
    p2 = bohm.FdFieldProvider(initial, 2e-4, 100)
    t1 = _solo(p1, (1.0, -0.6))
    t2 = _solo(p2, (-0.6, 1.0))
    assert np.allclose(t1.positions, t2.positions[:, ::-1], atol=1e-12)


def test_dt_refinement():
    # endpoint error drops with the step count (until the field error floor)
    fld = analytic.SlitPacketField(WavePacketParams())
    g = UniformGrid(-13.0, 13.0, 261)
    initial = analytic.sample_field(fld, g, 0.0)
    errs = []
    for n_steps in (25, 400):
        provider = bohm.FdFieldProvider(initial, 0.2 / n_steps, n_steps)
        traj = _solo(provider, (1.4,))
        exact = similarity_position(fld, 1.4, 0.2)
        errs.append(abs(traj.positions[-1, 0] - exact))
    assert errs[1] < errs[0]


class _FrozenProvider:
    """Duck-typed provider: one fixed velocity field at every step."""

    def __init__(self, vf, dt, n_steps):
        self._vf = vf
        self.dt = dt
        self.n_steps = n_steps

    def __iter__(self):
        return iter([(None, self._vf)] * (self.n_steps + 1))


def test_family_truncates_on_node_incursion():
    g = UniformGrid(-2.0, 2.0, 41)
    mask = np.zeros(41, dtype=bool)
    mask[35:] = True  # node region at y > 1.5
    vf = _synthetic_vf(g, lambda y: np.ones_like(y), mask=mask)
    provider = _FrozenProvider(vf, dt=0.05, n_steps=40)
    results, _ = bohm.integrate_family(provider, [(-1.0,), (1.2,)])
    (ok_traj, ok_inc), (cut_traj, cut_inc) = results
    assert ok_inc is None or ok_inc > cut_inc
    assert cut_traj.stop_reason == "incursion"
    assert cut_inc is not None
    assert len(cut_traj.times) < 41
    assert cut_traj.positions[-1, 0] < 1.5


def test_integrate_trajectory_reports_incursion_time():
    g = UniformGrid(-2.0, 2.0, 41)
    mask = np.zeros(41, dtype=bool)
    mask[35:] = True
    vf = _synthetic_vf(g, lambda y: np.ones_like(y), mask=mask)
    provider = _FrozenProvider(vf, dt=0.05, n_steps=40)
    [(traj, incursion_t)], _ = bohm.integrate_family(provider, [(1.2,)])
    assert traj.stop_reason == "incursion"
    assert incursion_t is not None
    assert 0.0 <= incursion_t <= 2.0


def test_family_truncates_a_trajectory_that_leaves_the_grid():
    g = UniformGrid(-2.0, 2.0, 41)
    vf = _synthetic_vf(g, lambda y: np.ones_like(y))
    provider = _FrozenProvider(vf, dt=0.05, n_steps=40)
    results, _ = bohm.integrate_family(provider, [(1.0,), (-1.5,)])
    (out_traj, out_inc), (in_traj, in_inc) = results
    assert out_traj.stop_reason == "left_grid" and out_inc is None
    assert 0 < len(out_traj.times) - 1 < 40
    assert out_traj.positions[-1, 0] <= 2.0
    assert in_traj.stop_reason is None and in_inc is None
    [(solo, _)], _ = bohm.integrate_family(provider, [(-1.5,)])
    assert np.array_equal(in_traj.positions, solo.positions)
    with pytest.raises(OutsideGrid):
        bohm.interpolate_velocity(vf, np.array([[2.5]]))


def test_crossing_report_exact_fan(one_field):
    t_grid = np.linspace(0.0, 1.0, 101)
    starts = np.linspace(0.2, 1.8, 10)
    trajs = analytic.exact_trajectory(one_field, starts[:, None], t_grid)
    assert bohm.crossing_report(trajs) == ()


def test_crossing_report_flags_identical_starts(one_field):
    t_grid = np.linspace(0.0, 0.1, 11)
    tr, = analytic.exact_trajectory(one_field, [(0.7,)], t_grid)
    violations = bohm.crossing_report([tr, tr], min_separation=1e-6)
    assert len(violations) == len(t_grid)
    assert all(v[1:] == (0, 1) for v in violations)


def test_crossing_report_lists_violations_by_time_then_pair():
    # initial order 0, 2, 1, 3; at t = 0.5 the sorted pairs (2, 1) and
    # (1, 3) are out of order, at t = 1 the pair (0, 2)
    times = np.array([0.0, 0.5, 1.0, 1.5])
    paths = ([0.0, 0.0, 1.5, 0.0], [2.0, 2.0, 2.0, 2.0],
             [1.0, 2.5, 1.0, 1.0], [3.0, 2.0, 3.0, 3.0])
    trajs = [analytic.Trajectory(times=times, positions=np.array(p)[:, None])
             for p in paths]
    violations = bohm.crossing_report(trajs)
    assert violations == ((0.5, 2, 1), (0.5, 1, 3), (1.0, 0, 2))
    assert all(type(t) is float and type(a) is int and type(b) is int
               for t, a, b in violations)


def test_crossing_report_2d_separation(boson_field):
    t_grid = np.linspace(0.0, 0.05, 6)
    t1, t2 = analytic.exact_trajectory(boson_field, [(1.0, -0.6)] * 2,
                                       t_grid)
    assert bohm.crossing_report([t1, t2], min_separation=1e-3)


# -- batched integration: a stack gives the bits of its members alone ------

FAN_STARTS = tuple((s,) for sign in (+1, -1)
                   for s in sign * np.arange(0.4, 1.81, 0.2))


def _fd_provider(one_field, n=261, dt=2e-4, n_steps=30):
    g = UniformGrid(-13.0, 13.0, n)
    initial = analytic.sample_field(one_field, g, 0.0)
    return lambda: bohm.FdFieldProvider(initial, dt, n_steps)


def test_family_fan_equals_each_start_alone(one_field):
    provider = _fd_provider(one_field)
    family, _ = bohm.integrate_family(provider(), FAN_STARTS)
    for (traj, incursion), s in zip(family, FAN_STARTS):
        [(solo, solo_incursion)], _ = bohm.integrate_family(provider(), [s])
        assert incursion is None and solo_incursion is None
        assert np.array_equal(traj.times, solo.times)
        assert np.array_equal(traj.positions, solo.positions)


def test_family_masked_members_leave_the_others_unchanged(one_field):
    # 131 points, steps of 1e-3: 2.45 is masked from t=0, and 2.0 reaches
    # a masked stencil at step 301. The run is that step rounded up to
    # the next hundred, so the other members go on after the stop.
    provider = _fd_provider(one_field, n=131, dt=1e-3, n_steps=400)
    starts = [(0.8,), (2.0,), (-0.8,), (2.45,), (1.2,)]
    family, _ = bohm.integrate_family(provider(), starts)
    steps = [len(traj.times) - 1 for traj, _ in family]
    assert steps[0] == steps[2] == steps[4] == 400
    assert 0 < steps[1] < 400 and steps[3] == 0
    assert family[1][0].stop_reason == family[3][0].stop_reason == \
        "incursion"
    assert family[3][1] == 0.0
    for (traj, incursion), s in zip(family, starts):
        [(solo, solo_incursion)], _ = bohm.integrate_family(provider(), [s])
        assert incursion == solo_incursion
        assert np.array_equal(traj.times, solo.times)
        assert np.array_equal(traj.positions, solo.positions)


def test_interpolation_2d_stack_equals_single_points():
    g = UniformGrid(-2.0, 2.0, 41, dim=2)
    y1, y2 = g.meshgrid()
    comps = (np.sin(y1) * np.cos(2 * y2), y1 * y2 ** 2)
    mask = np.zeros(g.shape, dtype=bool)
    mask[20, 20] = True           # one masked point
    mask[5:12, 5:12] = True       # a masked block
    vf = bohm.VelocityField(grid=g, t=0.0, components=comps, mask=mask)
    pts = np.array([[0.37, -1.21],
                    [0.03, 0.02],     # stencil touches mask[20, 20]
                    [-1.45, -1.45],   # inside the masked block
                    [1.9, -1.95],     # one-sided stencil at the edges
                    [-0.61, 0.88]])
    out = bohm.interpolate_velocity(vf, pts)
    assert out.shape == (5, 2)
    assert np.isnan(out[2]).all()
    for i in range(5):
        assert np.array_equal(out[i], bohm.interpolate_velocity(
            vf, pts[i:i + 1])[0], equal_nan=True)
    with pytest.raises(ValueError, match="expected a stack"):
        bohm.interpolate_velocity(vf, pts[0])
    # the patch that touches the one masked point gives no velocity
    assert np.isnan(out[1]).all()
    assert np.isfinite(out[[0, 3, 4]]).all()


def test_interpolation_1d_stack_equals_single_points():
    g = UniformGrid(-2.0, 2.0, 41)
    mask = np.zeros(41, dtype=bool)
    mask[20] = True
    mask[30:36] = True
    vf = _synthetic_vf(g, np.sin, mask=mask)
    xs = np.array([-1.93, -0.47, g.axis()[20] + 0.03, 1.22, 1.99])
    out = bohm.interpolate_velocity(vf, xs[:, None])
    assert np.isnan(out[3]).all()
    for i in range(5):
        assert np.array_equal(out[i], bohm.interpolate_velocity(
            vf, xs[i:i + 1, None])[0], equal_nan=True)
    with pytest.raises(ValueError, match="expected a stack"):
        bohm.interpolate_velocity(vf, xs[:1])


def test_interpolation_outside_grid_raises_for_a_stack():
    g = UniformGrid(-2.0, 2.0, 41)
    vf = _synthetic_vf(g, np.sin)
    with pytest.raises(ValueError):
        bohm.interpolate_velocity(vf, np.array([[0.1], [2.5]]))
    with pytest.raises(ValueError):
        bohm.interpolate_velocity(vf, np.array([[0.1], [np.nan]]))


def _zero_vf_2d(grid):
    zero = np.zeros(grid.shape)
    return bohm.VelocityField(grid=grid, t=0.0, components=(zero, zero),
                              mask=np.zeros(grid.shape, dtype=bool))


def test_interpolation_outside_grid_names_the_first_bad_point():
    g = UniformGrid(-2.0, 2.0, 41)
    vf = _synthetic_vf(g, np.sin)
    with pytest.raises(OutsideGrid, match=r"point \[nan\] outside"):
        bohm.interpolate_velocity(vf, np.array([[0.1], [np.nan], [2.5]]))
    with pytest.raises(OutsideGrid, match=r"point \[2.5\] outside"):
        bohm.interpolate_velocity(vf, np.array([[0.1], [2.5], [np.nan]]))
    vf2 = _zero_vf_2d(UniformGrid(-2.0, 2.0, 41, dim=2))
    with pytest.raises(OutsideGrid, match=r"point \[0.1 nan\] outside"):
        bohm.interpolate_velocity(vf2, [[0.1, np.nan], [-2.5, 0.0]])


def test_interpolation_of_an_empty_stack():
    g = UniformGrid(-2.0, 2.0, 41)
    vf = _synthetic_vf(g, np.sin)
    assert bohm.interpolate_velocity(vf, np.empty((0, 1))).shape == (0, 1)
    out = bohm.interpolate_velocity((vf, vf), np.empty((0, 1)))
    assert [o.shape for o in out] == [(0, 1), (0, 1)]
    vf2 = _zero_vf_2d(UniformGrid(-2.0, 2.0, 41, dim=2))
    assert bohm.interpolate_velocity(vf2, np.empty((0, 2))).shape == (0, 2)


def _rounding_bound(n, scale):
    """Largest difference allowed between the power form and the Lagrange
    form of one cubic on a grid of n points with values up to scale: the
    local coordinate u = (x - lo)/delta - b carries a rounding of up to
    about eps * n, and the slope of the cubic in u is a few times scale.
    8 eps * n * scale; the checks below measured at most 1.1 eps * n *
    scale (the weights against the Lagrange products)."""
    return 8 * np.finfo(float).eps * n * scale


def test_cells_reproduce_a_cubic_in_every_cell():
    g = UniformGrid(-2.0, 2.0, 41)
    vf = _synthetic_vf(g, lambda y: y ** 3 - 2.0 * y + 0.5)
    tol = _rounding_bound(g.n, np.abs(vf.components[0]).max())
    c = vf.cells
    assert c.shape == (4, g.n - 3)
    # u over [0, 3] in every cell: the whole range the clamped end cells
    # serve (u in [0, 2] and [1, 3]) and the interior [1, 2]
    u = np.linspace(0.0, 3.0, 31)[:, None]
    y = g.lo + (np.arange(g.n - 3) + u) * g.delta
    got = ((c[3] * u + c[2]) * u + c[1]) * u + c[0]
    assert np.abs(got - (y ** 3 - 2.0 * y + 0.5)).max() <= tol
    # the cells interpolate_velocity picks at lo, hi and every node
    xs = np.concatenate([[g.lo, g.hi], g.axis()])
    out = bohm.interpolate_velocity(vf, xs[:, None])[:, 0]
    assert np.abs(out - (xs ** 3 - 2.0 * xs + 0.5)).max() <= tol


def test_power_form_weights_equal_lagrange_weights():
    g = UniformGrid(-2.0, 2.0, 41, dim=2)
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.uniform(-2.0, 2.0, (500, 2)),
                          [[-2.0, 2.0], [2.0, -2.0]],
                          g.axis()[:, None].repeat(2, axis=1)])
    base, u = bohm._local(g, pts)
    assert u.min() >= 0.0 and u.max() <= 3.0
    nodes = g.lo + (base[..., None] + np.arange(4)) * g.delta
    # l_j = prod_{k != j} (x - x_k) / (x_j - x_k), the reference
    others = np.array([[k for k in range(4) if k != j] for j in range(4)])
    r = ((pts[..., None] - nodes)[..., others]
         / (nodes[..., None] - nodes[..., others]))
    diff = bohm._weights(u) - r[..., 0] * r[..., 1] * r[..., 2]
    assert np.abs(diff).max() <= _rounding_bound(g.n, 1.0)


def _touched(vf, pts):
    """Mask over pts of the points whose stencil (4-point cell in 1D,
    4x4 patch in 2D) holds a masked grid point."""
    grid = vf.grid
    idx = [bohm._local(grid, pts[:, a])[0][:, None] + np.arange(4)
           for a in range(grid.dim)]
    block = vf.mask[idx[0]] if grid.dim == 1 else \
        vf.mask[idx[0][:, :, None], idx[1][:, None, :]]
    return block.reshape(len(pts), -1).any(axis=1)


@pytest.mark.parametrize("dim", [1, 2])
def test_masked_cells_send_only_their_points_to_the_stencils(dim):
    # the masked points hold finite values: the mask alone must select
    # the points that get no velocity
    g = UniformGrid(-2.0, 2.0, 41, dim=dim)
    mask = np.zeros(g.shape, dtype=bool)
    mask[20] = True
    mask[30:36] = True
    comps = tuple(np.sin(y + k) for k, y in enumerate(g.meshgrid()))
    vf = bohm.VelocityField(grid=g, t=0.0, components=comps, mask=mask)
    if dim == 1:
        cell_touched = [mask[b:b + 4].any() for b in range(g.n - 3)]
        assert np.array_equal(np.isnan(vf.cells).all(axis=0),
                              cell_touched)
        assert np.array_equal(np.isnan(vf.cells).any(axis=0),
                              cell_touched)
    pts = np.array([-1.93, -0.47, g.axis()[20] + 0.03, 1.22,
                    1.99])[:, None].repeat(dim, axis=1)
    touched = _touched(vf, pts)
    assert list(touched) == [False, False, True, True, False]
    out = bohm.interpolate_velocity(vf, pts)
    assert np.isnan(out[touched]).all()
    assert np.isfinite(out[~touched]).all()
    # random masks, on-node points and the grid ends
    rng = np.random.default_rng(7)
    n_touched = 0
    for _ in range(20):
        mask = rng.random(g.shape) < rng.choice([0.05, 0.1])
        vf = bohm.VelocityField(grid=g, t=0.0, components=comps, mask=mask)
        pts = rng.uniform(g.lo, g.hi, (40, dim))
        pts[:10] = g.axis()[rng.integers(0, g.n, (10, dim))]
        pts[:2] = [[g.lo] * dim, [g.hi] * dim]
        out = bohm.interpolate_velocity(vf, pts)
        touched = _touched(vf, pts)
        assert np.isnan(out[touched]).all()
        assert np.isfinite(out[~touched]).all()
        n_touched += touched.sum()
    assert 0 < n_touched < 20 * 40


def test_interpolating_a_pair_equals_each_field_alone():
    # the two fields mask different points, so each gives NaN at its
    # own points
    g1 = UniformGrid(-2.0, 2.0, 41)
    mask_a = np.zeros(41, dtype=bool)
    mask_a[20] = True
    mask_b = np.zeros(41, dtype=bool)
    mask_b[[8, 21]] = True
    mask_b[30:36] = True
    pair_1d = (_synthetic_vf(g1, np.sin, mask=mask_a),
               _synthetic_vf(g1, np.cos, mask=mask_b))
    xs = np.array([[-1.93], [-1.21], [0.03], [0.11], [1.22], [1.99]])

    g2 = UniformGrid(-2.0, 2.0, 41, dim=2)
    y1, y2 = g2.meshgrid()
    mask_a = np.zeros(g2.shape, dtype=bool)
    mask_a[20, 20] = True
    mask_b = np.zeros(g2.shape, dtype=bool)
    mask_b[21, 19] = True
    mask_b[5:12, 5:12] = True
    pair_2d = tuple(
        bohm.VelocityField(grid=g2, t=0.0, components=comps, mask=mask)
        for comps, mask in (((np.sin(y1) * np.cos(2 * y2), y1 * y2 ** 2),
                             mask_a),
                            ((y1 - y2 ** 3, np.cos(y1 * y2)), mask_b)))
    pts = np.array([[0.37, -1.21], [0.03, 0.02], [0.13, -0.08],
                    [-1.45, -1.45], [1.9, -1.95]])

    for pair, p in ((pair_1d, xs), (pair_2d, pts)):
        assert all(_touched(vf, p).any() for vf in pair)
        assert not np.array_equal(_touched(pair[0], p), _touched(pair[1], p))
        out = bohm.interpolate_velocity(pair, p)
        assert len(out) == 2
        for vf, o in zip(pair, out):
            assert np.array_equal(o, bohm.interpolate_velocity(vf, p),
                                  equal_nan=True)
    # the block masked only in the second field
    assert np.isnan(out[1][3]).all() and not np.isnan(out[0][3]).any()
