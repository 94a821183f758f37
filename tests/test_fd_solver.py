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


def test_rk4_temporal_order():
    # harmonic-oscillator toy y'' = -y via the same tableau
    def endpoint_error(n_steps):
        re, im = np.array([1.0]), np.array([0.0])
        dt = 1.0 / n_steps
        for _ in range(n_steps):
            # i dpsi/dt = psi  ->  psi(t) = e^{-it} psi(0)
            k = [None] * 4
            s = (re, im)
            def f(r, i):
                return i, -r
            k1 = f(*s)
            k2 = f(re + 0.5 * dt * k1[0], im + 0.5 * dt * k1[1])
            k3 = f(re + 0.5 * dt * k2[0], im + 0.5 * dt * k2[1])
            k4 = f(re + dt * k3[0], im + dt * k3[1])
            re = re + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            im = im + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        return abs(re[0] + 1j * im[0] - np.exp(-1j))

    order = np.log2(endpoint_error(32) / endpoint_error(64))
    assert order == pytest.approx(4.0, abs=0.2)


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
