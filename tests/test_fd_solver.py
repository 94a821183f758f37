"""Finite-difference stencils and RK4 stepping."""

import numpy as np
import pytest

from slitsim import analytic, fd_solver
from slitsim.core import (ComplexField, ScenarioConfig, UniformGrid,
                          WavePacketParams, norm)


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


def _classic_rk4(re, im, grid, dt, n_steps):
    """Reference: the four-stage RK4 tableau on the stencil rhs."""
    for _ in range(n_steps):
        k1r, k1i = fd_solver.rhs(re, im, grid)
        k2r, k2i = fd_solver.rhs(re + 0.5 * dt * k1r, im + 0.5 * dt * k1i,
                                 grid)
        k3r, k3i = fd_solver.rhs(re + 0.5 * dt * k2r, im + 0.5 * dt * k2i,
                                 grid)
        k4r, k4i = fd_solver.rhs(re + dt * k3r, im + dt * k3i, grid)
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
    eye = np.eye(g.n)
    whole = fd_solver._rk4_arrays(eye, np.zeros_like(eye), g, 2e-4)
    for block in (32, 7, g.n):
        p, q = fd_solver._step_matrices(g, 2e-4, block=block)
        assert np.array_equal(p, whole[0]) and np.array_equal(q, whole[1])


def test_rhs_split_form(one_field):
    # dpsi_R/dt = -(1/2) lap psi_I,  dpsi_I/dt = (1/2) lap psi_R  (V = 0)
    g = UniformGrid(-13.0, 13.0, 261)
    fld = analytic.sample_field(one_field, g, 0.3)
    dre, dim_ = fd_solver.rhs(fld.re, fld.im, g)
    assert np.allclose(dre, -0.5 * fd_solver.laplacian(fld.im, g))
    assert np.allclose(dim_, 0.5 * fd_solver.laplacian(fld.re, g))


def test_rhs_linearity(one_field, packet_field):
    g = UniformGrid(-13.0, 13.0, 101)
    a = analytic.sample_field(one_field, g, 0.2)
    b = analytic.sample_field(packet_field, g, 0.2)
    combo = ComplexField(grid=g, re=2 * a.re + b.re, im=2 * a.im + b.im)
    ra, ia = fd_solver.rhs(a.re, a.im, g)
    rb, ib = fd_solver.rhs(b.re, b.im, g)
    rc, ic = fd_solver.rhs(combo.re, combo.im, g)
    assert np.allclose(rc, 2 * ra + rb, atol=1e-12)
    assert np.allclose(ic, 2 * ia + ib, atol=1e-12)


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
