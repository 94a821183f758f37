"""Finite-difference stencils and RK4 stepping."""

import tracemalloc

import numpy as np
import pytest

from slitsim import analytic, fd_solver
from slitsim.core import (MIN_POINTS, ComplexField, ScenarioConfig,
                          UniformGrid, WavePacketParams, norm)
from slitsim.errors import GridTooSmall


def test_second_derivative_exact_on_quartics():
    # 4th-order stencils differentiate polynomials up to degree 5 exactly,
    # including the one-sided boundary rows
    g = UniformGrid(-1.0, 2.0, 31)
    y = g.axis()
    f = y ** 4 - 2.0 * y ** 3 + 0.5 * y
    exact = 12.0 * y ** 2 - 12.0 * y
    assert np.allclose(fd_solver.laplacian(f, g), exact, atol=1e-10)


def test_first_derivative_exact_on_quartics():
    g = UniformGrid(-1.0, 2.0, 31)
    y = g.axis()
    f = y ** 4 + 3.0 * y ** 2 - y
    exact = 4.0 * y ** 3 + 6.0 * y - 1.0
    (df,) = fd_solver.gradient(f, g)
    assert np.allclose(df, exact, atol=1e-9)


def test_laplacian_2d_separable():
    g = UniformGrid(-1.0, 1.0, 25, dim=2)
    y1, y2 = g.meshgrid()
    f = y1 ** 3 * y2 + y2 ** 4
    exact = 6.0 * y1 * y2 + 12.0 * y2 ** 2
    assert np.allclose(fd_solver.laplacian(f, g), exact, atol=1e-9)


def test_gradient_2d_axes():
    g = UniformGrid(-1.0, 1.0, 25, dim=2)
    y1, y2 = g.meshgrid()
    f = y1 ** 2 - 3.0 * y2
    d1, d2 = fd_solver.gradient(f, g)
    assert np.allclose(d1, 2.0 * y1, atol=1e-10)
    assert np.allclose(d2, -3.0, atol=1e-10)


# The stencils written out, as the reference for the kernel: 5-point
# central interior; 6-point rows at indices 0 and 1, mirrored at -1 and -2
# (with a sign flip for the first derivative). Common factors 1/(12 d^2)
# and 1/(12 d).
_EDGE_2ND = ((45.0, -154.0, 214.0, -156.0, 61.0, -10.0),
             (10.0, -15.0, -4.0, 14.0, -6.0, 1.0))
_EDGE_1ST = ((-25.0, 48.0, -36.0, 16.0, -3.0),
             (-3.0, -10.0, 18.0, -6.0, 1.0))


def _written_out(line, second):
    """12 d^2 f'' (second) or 12 d f' along one line, point by point."""
    n = len(line)
    out = np.empty(n)
    for i in range(2, n - 2):
        if second:
            out[i] = (-line[i + 2] + 16.0 * line[i + 1] - 30.0 * line[i]
                      + 16.0 * line[i - 1] - line[i - 2])
        else:
            out[i] = (-line[i + 2] + 8.0 * line[i + 1] - 8.0 * line[i - 1]
                      + line[i - 2])
    edge, sign = (_EDGE_2ND, 1.0) if second else (_EDGE_1ST, -1.0)
    for r in (0, 1):
        out[r] = sum(c * line[k] for k, c in enumerate(edge[r]))
        out[n - 1 - r] = sign * sum(c * line[n - 1 - k]
                                    for k, c in enumerate(edge[r]))
    return out


def _written_out_axes(f, second):
    """_written_out down every column (axis 0) and along every row."""
    down = np.column_stack([_written_out(col, second) for col in f.T])
    along = np.vstack([_written_out(row, second) for row in f])
    return down, along


@pytest.mark.parametrize("n", [MIN_POINTS, 12, 131])
def test_stencils_match_the_written_out_formulas(n):
    g = UniformGrid(-2.0, 3.0, n, dim=2)
    f = np.random.default_rng(n).standard_normal(g.shape)
    down, along = _written_out_axes(f, second=True)
    want = (down + along) / (12.0 * g.delta ** 2)
    got = fd_solver.laplacian(f, g)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    for got, want in zip(fd_solver.gradient(f, g),
                         _written_out_axes(f, second=False)):
        want = want / (12.0 * g.delta)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("rows, cols", [
    (slice(51, 80), slice(50, 81)),
    (slice(51, 51 + MIN_POINTS), slice(50, 50 + MIN_POINTS)),
], ids=["29x31", "min-points"])
def test_stencils_on_a_block_view(rows, cols):
    # velocity_field differentiates a non-contiguous block of the grid;
    # along the last axis the flat strips wrap into the next line, which
    # at MIN_POINTS is most of each line
    g = UniformGrid(-2.0, 3.0, 131, dim=2)
    block = np.random.default_rng(5).standard_normal(g.shape)[rows, cols]
    assert not block.flags.c_contiguous
    dense = np.ascontiguousarray(block)
    got = fd_solver.laplacian(block, g)
    assert np.array_equal(got, fd_solver.laplacian(dense, g))
    down, along = _written_out_axes(dense, second=True)
    want = (down + along) / (12.0 * g.delta ** 2)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    grads = fd_solver.gradient(block, g)
    for got, same, want in zip(grads, fd_solver.gradient(dense, g),
                               _written_out_axes(dense, second=False)):
        assert np.array_equal(got, same)
        want = want / (12.0 * g.delta)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_2d_kernel_allocates_no_grid_sized_copy():
    # the flat views of f and out are views, not copies
    shape, axes = (131, 131), (0, 1)
    rng = np.random.default_rng(3)
    f, base = rng.standard_normal(shape), rng.standard_normal(shape)
    out = np.empty_like(f)
    w = fd_solver._folded(fd_solver._SECOND, 0.5, len(axes))
    work = fd_solver._work_strips(shape, axes)
    fd_solver._apply(w, f, axes, out, work, base=base)    # warm-up
    tracemalloc.start()
    try:
        fd_solver._apply(w, f, axes, out, work, base=base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < f.nbytes


@pytest.mark.parametrize("shape", [(MIN_POINTS, MIN_POINTS - 1),
                                   (MIN_POINTS - 1, MIN_POINTS)])
def test_stencils_reject_a_short_axis(shape):
    g = UniformGrid(-1.0, 1.0, MIN_POINTS, dim=2)
    with pytest.raises(GridTooSmall):
        fd_solver.laplacian(np.zeros(shape), g)
    with pytest.raises(GridTooSmall):
        fd_solver.gradient(np.zeros(shape), g)


def _laplacian_error(n):
    g = UniformGrid(-1.0, 1.0, n)
    y = g.axis()
    f = np.sin(3.0 * y)
    err = np.abs(fd_solver.laplacian(f, g) + 9.0 * np.sin(3.0 * y))
    # interior rows only: the one-sided edge rows are also 4th order but
    # with a different constant, which muddies a two-level order fit
    return err[2:-2].max()


def test_spatial_convergence_order():
    e1, e2 = _laplacian_error(81), _laplacian_error(161)
    order = np.log2(e1 / e2)
    assert order == pytest.approx(4.0, abs=0.2)


def _packet_on(grid, sigma0=0.5):
    """The exact two-slit field at t=0, one particle per grid axis."""
    packet = WavePacketParams(sigma0=sigma0, particles=grid.dim)
    return analytic.sample_field(analytic.field_for(packet), grid, 0.0)


def _final(initial, t_final, n_steps):
    *_, (_, fld) = fd_solver.iterate(initial, t_final / n_steps, n_steps)
    return fld.to_complex()


def test_rk4_temporal_order():
    # the time error of iterate alone: each run against a 400-step run on
    # the same grid, which shares its spatial error
    for grid in (UniformGrid(-6.0, 6.0, 61),
                 UniformGrid(-6.0, 6.0, 41, dim=2)):
        initial = _packet_on(grid)
        ref = _final(initial, 0.2, 400)
        e10, e20 = (np.abs(_final(initial, 0.2, n) - ref).max()
                    for n in (10, 20))
        assert np.log2(e10 / e20) == pytest.approx(4.0, abs=0.2)


def _rhs(re, im, grid):
    """dpsi_R/dt = -(1/2) lap psi_I,  dpsi_I/dt = (1/2) lap psi_R  (V = 0)"""
    return (-0.5 * fd_solver.laplacian(im, grid),
            0.5 * fd_solver.laplacian(re, grid))


def _classic_rk4(re, im, grid, dt, n_steps):
    """Reference: the four-stage RK4 tableau on the stencil rhs."""
    for _ in range(n_steps):
        k1r, k1i = _rhs(re, im, grid)
        k2r, k2i = _rhs(re + 0.5 * dt * k1r, im + 0.5 * dt * k1i, grid)
        k3r, k3i = _rhs(re + 0.5 * dt * k2r, im + 0.5 * dt * k2i, grid)
        k4r, k4i = _rhs(re + dt * k3r, im + dt * k3i, grid)
        re = re + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        im = im + (dt / 6.0) * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
    return re + 1j * im


@pytest.mark.parametrize("grid, dt", [
    (UniformGrid(-13.0, 13.0, 261), 2e-4),
    (UniformGrid(-13.0, 13.0, 131, dim=2), 2.5e-4),
], ids=["1d", "2d"])
def test_iterate_matches_classic_rk4(grid, dt):
    # the same polynomial in another evaluation order (1D: a prebuilt
    # matrix; 2D: Horner on the stencils) agrees to rounding
    initial = _packet_on(grid, sigma0=0.2)
    ref = _classic_rk4(initial.re, initial.im, grid, dt, 200)
    out = _final(initial, 200 * dt, 200)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_step_matrices_do_not_depend_on_the_block_size():
    # 261 = 8 * 32 + 5: the last block is short
    g = UniformGrid(-13.0, 13.0, 261)
    whole = fd_solver._step_matrices(g, 2e-4, block=g.n)
    for block in (32, 7):
        p, q = fd_solver._step_matrices(g, 2e-4, block=block)
        assert np.array_equal(p, whole[0]) and np.array_equal(q, whole[1])


def test_laplacian_linearity(one_field, packet_field):
    g = UniformGrid(-13.0, 13.0, 101)
    a = analytic.sample_field(one_field, g, 0.2)
    b = analytic.sample_field(packet_field, g, 0.2)
    combo = 2 * a.re + b.im
    lap = fd_solver.laplacian(combo, g)
    want = 2 * fd_solver.laplacian(a.re, g) + fd_solver.laplacian(b.im, g)
    assert np.allclose(lap, want, atol=1e-12)


@pytest.mark.parametrize("grid", [UniformGrid(-6.0, 6.0, 61),
                                  UniformGrid(-6.0, 6.0, 41, dim=2)],
                         ids=["1d", "2d"])
def test_yielded_fields_are_not_overwritten(grid):
    # the field provider and the snapshots keep yielded fields while the
    # stepper reuses its work arrays
    initial = _packet_on(grid)
    kept = [(initial, initial.re.copy(), initial.im.copy())]
    for _, fld in fd_solver.iterate(initial, 1e-3, 6):
        kept.append((fld, fld.re.copy(), fld.im.copy()))
    for fld, re, im in kept:
        assert np.array_equal(fld.re, re) and np.array_equal(fld.im, im)


def test_exchange_symmetry_is_exact_in_2d(boson_field):
    # both axes take the same operations, so psi(y1, y2) = psi(y2, y1)
    # holds to the last bit
    g = UniformGrid(-6.0, 6.0, 41, dim=2)
    initial = analytic.sample_field(boson_field, g, 0.0)
    for _, fld in fd_solver.iterate(initial, 1e-3, 5):
        assert np.array_equal(fld.re, fld.re.T)
        assert np.array_equal(fld.im, fld.im.T)


def test_exchange_antisymmetry_is_exact_in_2d(fermion_field):
    # psi(y1, y2) = -psi(y2, y1) to the last bit, so the parity found at
    # the start holds at every step
    g = UniformGrid(-6.0, 6.0, 41, dim=2)
    initial = analytic.sample_field(fermion_field, g, 0.0)
    assert fd_solver.exchange_parity(initial) == -1
    for _, fld in fd_solver.iterate(initial, 1e-3, 5):
        assert np.array_equal(fld.re.T, -fld.re)
        assert np.array_equal(fld.im.T, -fld.im)
        assert fd_solver.exchange_parity(fld) == -1


def _bits(a):
    return a.view(np.uint64)


def _with_parity(rng, shape, s):
    """A random 2D array a with a.T == s a exactly."""
    g = rng.standard_normal(shape)
    return g + g.T if s > 0 else g - g.T


@pytest.mark.parametrize("n", [MIN_POINTS, 41, 131])
@pytest.mark.parametrize("s", [1, -1])
def test_parity_stage_equals_the_two_axis_kernel(n, s):
    # the axis-1 term taken as s A.T has the bits of differencing axis 1
    shape, axes = (n, n), (0, 1)
    rng = np.random.default_rng(n)
    f, base = _with_parity(rng, shape, s), _with_parity(rng, shape, s)
    w = fd_solver._folded(fd_solver._SECOND, -0.37, len(axes))
    work = fd_solver._work_strips(shape, axes)
    want, got = np.empty_like(f), np.empty_like(f)
    fd_solver._apply(w, f, axes, want, work, base=base)
    fd_solver._apply(w, f, axes, got, work, base=base, parity=s)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(got.T, s * got)


@pytest.mark.parametrize("sign", [1, -1])
def test_parity_steps_equal_two_axis_steps(sign):
    # sampled fields, with their underflowed zero tails, stepped both ways
    g = UniformGrid(-13.0, 13.0, 41, dim=2)
    initial = analytic.sample_field(analytic.TwoParticleField(
        WavePacketParams(particles=2, exchange_sign=sign)), g, 0.0)
    general = fd_solver._Rk4(g.shape, (0, 1), g.delta, 2.5e-4)
    parity = fd_solver._Rk4(g.shape, (0, 1), g.delta, 2.5e-4, sign)
    want = got = (initial.re, initial.im)
    for _ in range(20):
        want, got = general.step(*want), parity.step(*got)
        for a, b in zip(got, want):
            assert np.array_equal(_bits(a), _bits(b))


def test_parity_kernel_allocates_no_grid_sized_copy():
    # A.T is read as a strided view, not copied
    shape, axes = (131, 131), (0, 1)
    rng = np.random.default_rng(3)
    f, base = _with_parity(rng, shape, 1), _with_parity(rng, shape, 1)
    out = np.empty_like(f)
    w = fd_solver._folded(fd_solver._SECOND, 0.5, len(axes))
    work = fd_solver._work_strips(shape, axes)
    fd_solver._apply(w, f, axes, out, work, base=base, parity=1)
    tracemalloc.start()
    try:
        fd_solver._apply(w, f, axes, out, work, base=base, parity=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < f.nbytes


def test_a_field_off_parity_takes_the_two_axis_path(monkeypatch, one_field,
                                                   boson_field):
    g = UniformGrid(-6.0, 6.0, 41, dim=2)
    (_, sym), = fd_solver.iterate(analytic.sample_field(boson_field, g, 0.0),
                                  1e-3, 1)
    re = sym.re.copy()
    re[3, 17] = np.nextafter(re[3, 17], np.inf)     # one ulp off
    off = ComplexField(grid=g, re=re, im=sym.im)
    assert fd_solver.exchange_parity(sym) == 1
    assert fd_solver.exchange_parity(off) == 0
    line = UniformGrid(-13.0, 13.0, 61)
    assert fd_solver.exchange_parity(
        analytic.sample_field(one_field, line, 0.0)) == 0
    kernel, parities = fd_solver._apply, []

    def spy(*args):
        parities.append(args[6])
        kernel(*args)
    monkeypatch.setattr(fd_solver, "_apply", spy)
    for fld, want in ((sym, 1), (off, 0)):
        parities.clear()
        for _ in fd_solver.iterate(fld, 1e-3, 2):
            pass
        assert parities == [want] * 16


def test_symmetry_preserved_by_stepping(one_field):
    g = UniformGrid(-13.0, 13.0, 261)
    initial = analytic.sample_field(one_field, g, 0.0)
    for _, fld in fd_solver.iterate(initial, 2e-4, 50):
        pass
    assert np.allclose(fld.re, fld.re[::-1], atol=1e-13)
    assert np.allclose(fld.im, fld.im[::-1], atol=1e-13)


def test_short_run_accuracy_and_norm(one_field):
    g = UniformGrid(-13.0, 13.0, 261)
    initial = analytic.sample_field(one_field, g, 0.0)
    for t_final, final in fd_solver.iterate(initial, 0.1 / 500, 500):
        pass
    assert t_final == pytest.approx(0.1)
    exact = one_field.psi(g.axis(), 0.1)
    # the packets are only ~2 grid points per width before they spread,
    # so early times carry the largest sampling error of the whole run
    assert np.abs(final.to_complex() - exact).max() < 2e-3
    assert abs(norm(final) - 1.0) < 1e-7


def test_snapshot_times(one_field):
    g = UniformGrid(-13.0, 13.0, 101)
    cfg = ScenarioConfig(packet=WavePacketParams(), grid=g, t_final=0.01,
                         n_steps=10, solver="schrodinger_fd",
                         snapshot_times=(0.0, 0.005))
    initial = analytic.sample_field(one_field, g, 0.0)
    wanted = cfg.snapshot_indices
    times = [0.0] if 0 in wanted else []
    for k, (t, _) in enumerate(fd_solver.iterate(initial, cfg.dt,
                                                 cfg.n_steps), start=1):
        if k in wanted:
            times.append(t)
    assert times == pytest.approx([0.0, 0.005, 0.01])
