"""Quantum-hydrodynamic steppers in both viewpoints."""

import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from slitsim import fd_solver, hydro_solver
from slitsim.core import (MwlsConfig, ScenarioConfig, UniformGrid,
                          WavePacketParams)
from slitsim.mwls import JetOperator

from packet_sums import similarity_position


CFG12 = MwlsConfig(n_neighbors=12, poly_order=5)


def _scenario(solver="hydro_lagrange", **overrides):
    base = dict(
        packet=WavePacketParams(),
        grid=UniformGrid(-4.0, 4.0, 201),
        t_final=1e-3,
        n_steps=100,
        solver=solver,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_init_from_exact(packet_field):
    y = np.linspace(0.0, 2.0, 41)
    ens = hydro_solver.init_from_exact(packet_field, y)
    assert np.allclose(ens.g, np.log(np.abs(packet_field.psi(y, 0.0))))
    assert np.allclose(ens.v, 0.0)  # packets are momentum-free at release
    assert ens.t == 0.0
    assert ens.status == hydro_solver.VALID


def test_quantum_potential_from_jets(packet_field):
    y = np.linspace(0.2, 1.8, 81)
    ens = hydro_solver.init_from_exact(packet_field, y)
    op = JetOperator(y, CFG12)
    q, dg = hydro_solver.quantum_potential(op, ens.g)
    assert np.array_equal(dg, op.apply(ens.g)[1])
    _, q_exact = packet_field.velocity_and_potential(y, 0.0)
    assert np.abs(q - q_exact).max() < 1e-6


def test_force_free_fixed_point():
    # linear g: Q = -(1/2) (dg)^2 is constant, so nothing accelerates
    y = np.linspace(-1.0, 1.0, 41)
    ens = hydro_solver.FluidEnsemble(y=y.copy(), v=np.zeros_like(y),
                                     g=0.3 * y + 1.0, t=0.0)
    out = hydro_solver.lagrangian_step(ens, 1e-3, JetOperator(y, CFG12))
    assert np.allclose(out.y, y, atol=1e-12)
    assert np.allclose(out.v, 0.0, atol=1e-9)
    assert np.allclose(out.g, ens.g, atol=1e-9)
    assert out.status == hydro_solver.VALID


def test_lagrangian_bookkeeping():
    # per step, g changes by exactly -(1/2) dt * div v
    y = np.linspace(-1.0, 1.0, 61)
    v = 0.5 * y + 0.1 * y ** 2
    g = -y ** 2
    ens = hydro_solver.FluidEnsemble(y=y.copy(), v=v.copy(), g=g.copy(),
                                     t=0.0)
    dt = 1e-3
    op = JetOperator(y, CFG12)
    out = hydro_solver.lagrangian_step(ens, dt, op)
    _, dv, _ = op.apply(v)
    assert np.allclose(out.g - g, -0.5 * dt * dv, atol=1e-15)
    assert np.allclose(out.y - y, dt * v, atol=1e-15)


def test_eulerian_advective_term():
    # constant g (Q = 0) and v(y) = y: the update reduces to v <- v - dt*v
    y = np.linspace(-1.0, 1.0, 41)
    grid_pts = y.copy()
    ens = hydro_solver.FluidEnsemble(y=grid_pts, v=y.copy(),
                                     g=np.full_like(y, 0.25), t=0.0)
    dt = 2e-3
    out = hydro_solver.eulerian_step(ens, dt, JetOperator(y, CFG12))
    assert np.allclose(out.v, (1.0 - dt) * y, atol=1e-12)
    assert np.allclose(out.g, 0.25 - 0.5 * dt, atol=1e-12)
    assert np.allclose(out.y, y)


def test_engines_agree_on_smooth_data(packet_field):
    # MWLS jets on a uniform grid against the 4th-order FD stencils
    grid = UniformGrid(0.2, 1.8, 161)
    y = grid.axis()
    g = packet_field.log_amplitude(y, 0.0)
    _, d_mwls, l_mwls = JetOperator(y, CFG12).apply(g)
    d_sten = fd_solver.gradient(g, grid)[0]
    l_sten = fd_solver.laplacian(g, grid)
    assert np.abs(d_mwls - d_sten).max() < 1e-6
    assert np.abs(l_mwls - l_sten).max() < 1e-4


def test_crossing_flips_status_degraded():
    # every value stays finite; Euler's points stay on the grid, so the
    # would-be crossing flags only the Lagrangian step
    y = np.linspace(-1.0, 1.0, 41)
    ens = hydro_solver.FluidEnsemble(y=y.copy(), v=-10.0 * y,
                                     g=np.zeros_like(y), t=0.0)
    op = JetOperator(y, CFG12)
    out = hydro_solver.lagrangian_step(ens, 0.2, op)
    assert out.status == hydro_solver.DEGRADED
    euler = hydro_solver.eulerian_step(ens, 0.2, op)
    assert euler.status == hydro_solver.VALID
    assert all(np.isfinite(a).all() for e in (out, euler)
               for a in (e.y, e.v, e.g))


@pytest.mark.parametrize("step, nan_call, bad", [
    ("lagrangian_step", 1, "v"), ("lagrangian_step", 2, "g"),
    ("eulerian_step", 1, "v"), ("eulerian_step", 0, "g")])
def test_non_finite_v_or_g_flips_status_degraded(step, nan_call, bad):
    # a step applies its operator to g, Q and v in turn: a NaN first
    # derivative of Q reaches v alone, of v (Lagrange) or g (Euler) g alone
    calls = []

    def apply(f):
        d = np.zeros_like(f)
        d[5] = np.nan if len(calls) == nan_call else 0.0
        calls.append(f)
        return f, d, np.zeros_like(f)

    y, zero = np.linspace(-1.0, 1.0, 11), np.zeros(11)
    ens = hydro_solver.FluidEnsemble(y=y, v=zero, g=zero, t=0.0)
    out = getattr(hydro_solver, step)(ens, 1e-3, SimpleNamespace(apply=apply))
    assert np.isnan(getattr(out, bad)).any() and np.isfinite(out.y).all()
    assert np.isfinite(getattr(out, {"v": "g", "g": "v"}[bad])).all()
    assert out.status == hydro_solver.DEGRADED


def _nan_step(monkeypatch):
    """Make every Lagrangian step leave a NaN position."""
    step = hydro_solver.lagrangian_step

    def nan_step(ensemble, dt, op):
        out = step(ensemble, dt, op)
        y = out.y.copy()
        y[len(y) // 2] = np.nan
        return hydro_solver.FluidEnsemble(y=y, v=out.v, g=out.g, t=out.t,
                                          status=hydro_solver.DEGRADED)

    monkeypatch.setattr(hydro_solver, "lagrangian_step", nan_step)


def test_non_finite_step_ends_degraded(monkeypatch):
    # a step that leaves a NaN position: the next operator build is
    # IllConditioned, and the run ends in a Degraded snapshot
    _nan_step(monkeypatch)
    cfg = _scenario(grid=UniformGrid(-4.0, 4.0, 101), n_steps=20,
                    t_final=2e-4)
    snaps, diags = hydro_solver.propagate_hydro(cfg)
    assert np.isnan(snaps[-1].y).any()
    assert snaps[-1].status == hydro_solver.DEGRADED
    assert diags[-1].status == hydro_solver.DEGRADED
    assert np.isnan(diags[-1].q_num).all()
    assert diags[-1].mwls_max_condition is None


def test_failed_build_records_its_time_once(monkeypatch):
    # the operator build fails at a snapshot time, after step 1 and at
    # t = 0: that time is recorded once, Degraded, and the run ends
    cfg = _scenario(grid=UniformGrid(-4.0, 4.0, 101), n_steps=20,
                    t_final=2e-4, snapshot_times=(0.0, 1e-5, 2e-4))
    for points, want in ((None, [0.0, 1e-5]), (np.full(12, 0.5), [0.0])):
        with monkeypatch.context() as patch:
            _nan_step(patch)
            snaps, diags = hydro_solver.propagate_hydro(cfg, points=points)
        assert [d.t for d in diags] == [s.t for s in snaps] == want
        assert snaps[-1].status == diags[-1].status == hydro_solver.DEGRADED
        assert diags[-1].mwls_max_condition is None


def test_lagrangian_build_runs_while_the_previous_operator_is_alive(
        monkeypatch):
    # freeing the previous operator before the next build let the
    # allocator return its arrays to the system, and each build fault
    # them in again
    cfg = _scenario(n_steps=20, t_final=2e-4,
                    snapshot_times=(0.0, 1e-4, 2e-4))
    built = []
    alive = []

    def spy(points, config, targets=None):
        alive.append(bool(built) and built[-1]() is not None)
        op = JetOperator(points, config, targets=targets)
        built.append(weakref.ref(op))
        return op

    monkeypatch.setattr(hydro_solver, "JetOperator", spy)
    hydro_solver.propagate_hydro(cfg)
    assert alive == [False] + [True] * 20


def test_single_packet_refinement_ladder(packet_field):
    # no node anywhere: both viewpoints converge to the similarity flow
    errors = []
    for n, steps in ((101, 25), (201, 50), (401, 100)):
        cfg = _scenario(grid=UniformGrid(-1.0, 3.0, n), n_steps=steps,
                        field_kind="single_packet")
        snaps, diags = hydro_solver.propagate_hydro(cfg)
        final = snaps[-1]
        y0 = cfg.grid.axis()
        exact = similarity_position(packet_field, y0, final.t)
        errors.append(np.abs(final.y - exact).max())
        assert final.status == hydro_solver.VALID
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 5e-6


def test_eulerian_single_packet(packet_field):
    cfg = _scenario(solver="hydro_euler", grid=UniformGrid(0.0, 2.0, 201),
                    field_kind="single_packet", n_steps=100)
    snaps, diags = hydro_solver.propagate_hydro(cfg)
    final = diags[-1]
    assert final.status == hydro_solver.VALID
    assert final.max_v_error < 1e-4


def test_node_sensitivity(one_field):
    # fixed cost: the velocity error is always worst near the y=0 node
    cfg = _scenario(grid=UniformGrid(-4.0, 4.0, 401), t_final=1e-3,
                    n_steps=100)
    snaps, diags = hydro_solver.propagate_hydro(cfg)
    d = diags[-1]
    err = np.abs(d.v_num - d.v_exact)
    near_node = np.nanmax(err[np.abs(d.y) < 0.2])
    at_centers = np.nanmax(err[np.abs(np.abs(d.y) - 1.0) < 0.2])
    assert near_node > at_centers


def test_slits_only_demonstration(packet_field):
    # with no points between the slit neighborhoods, no interference
    # structure forms: each group follows its own independent packet
    cfg = _scenario(grid=UniformGrid(-4.0, 4.0, 401), t_final=0.01,
                    n_steps=1000)
    pts = np.concatenate([np.linspace(-1.6, -0.4, 61),
                          np.linspace(0.4, 1.6, 61)])
    snaps, diags = hydro_solver.propagate_hydro(cfg, points=pts)
    final = snaps[-1]
    assert final.status == hydro_solver.VALID
    upper = final.y[final.y > 0]
    exact = similarity_position(packet_field, pts[pts > 0], final.t)
    assert np.abs(upper - exact).max() < 1e-4


@pytest.mark.parametrize("solver", ["hydro_lagrange", "hydro_euler"])
def test_snapshot_times_are_lattice_times(solver):
    # t = k*dt exactly, as on the FD path; summing dt drifts in the last bits
    cfg = _scenario(solver=solver, grid=UniformGrid(-1.0, 3.0, 101),
                    field_kind="single_packet", t_final=3e-4, n_steps=30,
                    snapshot_times=(0.0, 1e-4, 2e-4))
    snaps, diags = hydro_solver.propagate_hydro(cfg)
    want = [k * cfg.dt for k in cfg.snapshot_indices]
    assert [s.t for s in snaps] == want
    assert [d.t for d in diags] == want


def test_propagate_rejects_wrong_solver():
    cfg = _scenario(solver="schrodinger_fd")
    with pytest.raises(ValueError):
        hydro_solver.propagate_hydro(cfg)


def test_propagate_rejects_two_particles():
    with pytest.raises(ValueError, match="one-dimensional only"):
        _scenario(packet=WavePacketParams(particles=2),
                  grid=UniformGrid(-4.0, 4.0, 201, dim=2))
