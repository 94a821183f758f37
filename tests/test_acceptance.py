"""Acceptance gate: the eight headline checks at their stated tolerances.

Each criterion prints a single PASS/FAIL line (run with `pytest -v -s
tests/test_acceptance.py` to see them as they complete). The full-scale
two-particle run takes several minutes and is gated behind SLITSIM_SLOW=1;
the reduced variant below runs unconditionally.

Two criteria are known to fail honestly at the stated scale; the numbers
and the convergence evidence behind that statement are asserted here
as-is rather than loosened. See the repository notes for the analysis.
"""

import os
import time

import numpy as np
import pytest

from slitsim import analytic, bohm, fd_solver, hydro_solver
from slitsim.cli import _flagged_deviation
from slitsim.core import (MwlsConfig, ScenarioConfig, UniformGrid,
                          WavePacketParams, norm)
from slitsim.errors import NodeError
from slitsim.mwls import JetOperator

from packet_sums import similarity_position

RUN_SLOW = bool(os.environ.get("SLITSIM_SLOW"))
slow = pytest.mark.skipif(
    not RUN_SLOW, reason="full-scale run; enable with SLITSIM_SLOW=1")

FAN_STARTS = tuple((s,) for sign in (+1, -1)
                   for s in sign * np.arange(0.4, 1.81, 0.2))


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fig6_run(one_field):
    """One shared full-scale one-particle run (261 points, 5000 steps)."""
    grid = UniformGrid(-13.0, 13.0, 261)
    initial = analytic.sample_field(one_field, grid, 0.0)
    start = time.perf_counter()
    provider = bohm.FdFieldProvider(initial, 1.0 / 5000, 5000)
    results, fields = bohm.integrate_family(provider, FAN_STARTS,
                                            snapshot_indices=(5000,))
    wall = time.perf_counter() - start
    final = fields[5000]

    err = np.abs(final.to_complex() - one_field.psi(grid.axis(), 1.0))
    assert all(incursion is None for _, incursion in results)
    exact = analytic.exact_trajectory(one_field, FAN_STARTS,
                                      results[0][0].times)
    deviations = [float(np.abs(traj.positions - ex.positions).max())
                  for (traj, _), ex in zip(results, exact)]
    violations = bohm.crossing_report([t for t, _ in results],
                                      min_separation=grid.delta / 10.0)
    return {
        "wall": wall,
        "max_err": float(err.max()),
        "rms_err": float(np.sqrt(np.mean(err ** 2))),
        "norm_drift": abs(norm(final) - norm(initial)),
        "deviations": deviations,
        "n_crossings": len(violations),
    }


def test_criterion_1_field_error(fig6_run):
    """One-particle run: field error at t=1 and the runtime budget."""
    r = fig6_run
    detail = (f"max |dpsi| = {r['max_err']:.3e} (<= 1e-3), "
              f"rms = {r['rms_err']:.3e} (<= 1e-4), "
              f"wall {r['wall']:.1f} s (<= 60)")
    ok = r["max_err"] <= 1e-3 and r["rms_err"] <= 1e-4 and r["wall"] <= 60
    # Known honest failure at this resolution, and it is the FD scheme's
    # own error, not the sampling: an exact (FFT, 4x zero-padded)
    # propagator applied to the same 261-point samples is off by 2.2e-15,
    # the FD run by max 5.5e-3, rms 2.5e-3. At 521 points FD still misses
    # both targets (max 1.26e-3 at y = -12.95, next to the open one-sided
    # boundary; rms 2.8e-4); its interior (|y| <= 11) max is 3.8e-4, ~14x
    # below the 261-point error.
    _verdict(1, ok, detail)


def test_criterion_2_norm_conservation(fig6_run):
    drift = fig6_run["norm_drift"]
    _verdict(2, drift <= 1e-6, f"|norm(1) - 1| = {drift:.3e} (<= 1e-6)")


def test_criterion_3_trajectory_fan(fig6_run):
    """16 fan starts (8 per slit): deviation and non-crossing."""
    dev = max(fig6_run["deviations"])
    crossings = fig6_run["n_crossings"]
    detail = (f"max deviation = {dev:.3e} (<= 1e-2), "
              f"crossing violations = {crossings} (= 0)")
    ok = dev <= 1e-2 and crossings == 0
    # Known honest failure at this resolution, and the bound is the
    # first-derivative stencil of velocity_field: the exact field sampled
    # on the same 261 points and run through velocity_field,
    # interpolation and RK4 misses by 1.830e-1 (worst at |y0| >= 1.4),
    # while the exact velocity on those points misses by only 5.147e-3.
    # At 521 points the same fan passes with 7e-3.
    _verdict(3, ok, detail)


def _two_particle_run(n, n_steps, starts, t_final=1.0):
    packet = WavePacketParams(particles=2, exchange_sign=+1)
    field = analytic.TwoParticleField(packet)
    grid = UniformGrid(-13.0, 13.0, n, dim=2)
    initial = analytic.sample_field(field, grid, 0.0)
    start = time.perf_counter()
    provider = bohm.FdFieldProvider(initial, t_final / n_steps, n_steps)
    results, fields = bohm.integrate_family(provider, starts,
                                            snapshot_indices=(n_steps,))
    wall = time.perf_counter() - start
    final = fields[n_steps]
    asym = max(float(np.abs(final.re - final.re.T).max()),
               float(np.abs(final.im - final.im.T).max()))

    exact = analytic.exact_trajectory(
        field, starts, np.arange(n_steps + 1) * provider.dt)
    per_traj = [dict(_flagged_deviation(traj, ex, field), start=s,
                     incursion=incursion)
                for (traj, incursion), ex, s in zip(results, exact, starts)]
    return {"wall": wall, "asymmetry": asym, "trajectories": per_traj}


def test_criterion_4_reduced_two_particle():
    """CI variant: 131 x 131 grid, 4000 steps, both published starts."""
    r = _two_particle_run(131, 4000, ((1.0, -0.6), (1.0, -1.4)))
    detail = (f"exchange asymmetry = {r['asymmetry']:.1e} (<= 1e-12), "
              f"wall {r['wall']:.0f} s (<= 120)")
    _verdict("4 (reduced)",
             r["asymmetry"] <= 1e-12 and r["wall"] <= 120, detail)


@slow
def test_criterion_4_full_two_particle():
    """Full scale: 261 x 261 grid, 15000 steps."""
    r = _two_particle_run(261, 15000, ((1.0, -0.6), (1.0, -1.4)))
    devs = [t["max_deviation_off_node"] for t in r["trajectories"]]
    detail = (f"exchange asymmetry = {r['asymmetry']:.1e} (<= 1e-12), "
              f"off-node deviations = {[f'{d:.3e}' for d in devs]} "
              f"(<= 5e-2), wall {r['wall']:.0f} s (<= 1800)")
    ok = (r["asymmetry"] <= 1e-12 and max(devs) <= 5e-2
          and r["wall"] <= 1800)
    _verdict("4 (full)", ok, detail)


def test_criterion_5_quantum_potential_orders(one_field):
    """MWLS quantum potential on 401 points, 12 neighbors, orders 2-5."""
    y = UniformGrid(-4.0, 4.0, 401).axis()
    g = one_field.log_amplitude(y, 0.0)
    _, q_exact = one_field.velocity_and_potential(y, 0.0)
    near = np.abs(y) <= 0.2
    far = np.abs(y) >= 0.5
    scale = np.abs(q_exact[far]).max()

    near_errs, far_rels = [], []
    for order in (2, 3, 4, 5):
        q, _ = hydro_solver.quantum_potential(
            JetOperator(y, MwlsConfig(n_neighbors=12, poly_order=order)), g)
        err = np.abs(q - q_exact)
        near_errs.append(float(err[near].max()))
        far_rels.append(float(err[far].max() / scale))

    monotone = all(a >= b for a, b in zip(near_errs, near_errs[1:]))
    ratio_ok = all(n >= 10 * f * scale
                   for n, f in zip(near_errs, far_rels))
    far_ok = max(far_rels) <= 0.01
    detail = (f"far rel err <= {max(far_rels):.2e} (<= 1e-2), "
              f"near-node errs {[f'{e:.2f}' for e in near_errs]} "
              f"(monotone, >= 10x far)")
    _verdict(5, far_ok and monotone and ratio_ok, detail)


def test_criterion_6_node_problem_propagation(one_field, packet_field):
    """Hydro breaks down near the node where the fd solver does not."""
    # hydro Lagrangian on the interference field, 801 points, dt = 1e-5
    cfg = ScenarioConfig(
        packet=WavePacketParams(), grid=UniformGrid(-4.0, 4.0, 801),
        t_final=0.01, n_steps=1000, solver="hydro_lagrange",
        mwls=MwlsConfig(n_neighbors=12, poly_order=5))
    snaps, diags = hydro_solver.propagate_hydro(cfg)
    d = diags[-1]
    near = np.abs(d.y) < 0.2
    hydro_err = float(np.nanmax(np.abs(d.v_num - d.v_exact)[near]))

    # fd solver at matched resolution and step count
    initial = analytic.sample_field(one_field, cfg.grid, 0.0)
    for t, fld in fd_solver.iterate(initial, 1e-5, 1000):
        pass
    vf = bohm.velocity_field(fld, t)
    y = cfg.grid.axis()
    sel = near & ~vf.mask
    v_exact, _ = one_field.velocity_and_potential(y[sel], 0.01)
    fd_err = float(np.abs(vf.components[0][sel] - v_exact).max())

    # single-packet control: no node, hydro stays on the similarity flow
    ctl = ScenarioConfig(
        packet=WavePacketParams(), grid=UniformGrid(-1.0, 3.0, 401),
        t_final=0.01, n_steps=1000, solver="hydro_lagrange",
        field_kind="single_packet",
        mwls=MwlsConfig(n_neighbors=12, poly_order=5))
    csnaps, _ = hydro_solver.propagate_hydro(ctl)
    final = csnaps[-1]
    ctl_err = float(np.abs(
        final.y - similarity_position(packet_field, ctl.grid.axis(),
                                      final.t)).max())

    ratio = hydro_err / fd_err
    detail = (f"hydro node err {hydro_err:.2e} vs fd {fd_err:.2e} "
              f"(ratio {ratio:.0f} >= 10), control err {ctl_err:.1e} "
              f"(<= 1e-4)")
    _verdict(6, ratio >= 10.0 and ctl_err <= 1e-4, detail)


def test_criterion_7_order_checks():
    """Measured convergence orders and MWLS polynomial recovery."""
    def lap_err(n):
        g = UniformGrid(-1.0, 1.0, n)
        y = g.axis()
        e = np.abs(fd_solver.laplacian(np.sin(3 * y), g)
                   + 9.0 * np.sin(3 * y))
        return e[2:-2].max()

    space_order = float(np.log2(lap_err(81) / lap_err(161)))

    def rk4_err(n_steps):
        re, im = 1.0, 0.0
        dt = 1.0 / n_steps
        for _ in range(n_steps):
            def f(r, i):
                return i, -r
            k1 = f(re, im)
            k2 = f(re + 0.5 * dt * k1[0], im + 0.5 * dt * k1[1])
            k3 = f(re + 0.5 * dt * k2[0], im + 0.5 * dt * k2[1])
            k4 = f(re + dt * k3[0], im + dt * k3[1])
            re += dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            im += dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        return abs(re + 1j * im - np.exp(-1j))

    time_order = float(np.log2(rk4_err(32) / rk4_err(64)))

    resid = 0.0
    y = np.linspace(-1.0, 1.0, 41)
    rng = np.random.default_rng(0)
    for order in (2, 3, 4, 5):
        coeff = rng.uniform(-1, 1, order + 1)
        vals = np.polynomial.polynomial.polyval(y, coeff)
        cfg = MwlsConfig(n_neighbors=2 * (order + 1), poly_order=order)
        (value,), _, _ = JetOperator(y, cfg, targets=[0.3]).apply(vals)
        resid = max(resid, abs(value - np.polynomial.polynomial
                               .polyval(0.3, coeff)))

    ok = (abs(space_order - 4.0) <= 0.2 and abs(time_order - 4.0) <= 0.2
          and resid <= 1e-10)
    detail = (f"spatial order {space_order:.2f}, temporal order "
              f"{time_order:.2f} (both 4.0 +/- 0.2), MWLS recovery "
              f"residual {resid:.1e} (<= 1e-10)")
    _verdict(7, ok, detail)


def test_criterion_8_property_suite(one_field, boson_field,
                                    fermion_field):
    """Symmetries, nodes, equivariance, non-crossing -- no figure runs."""
    checks = []

    # reflection symmetry survives fd stepping
    g = UniformGrid(-13.0, 13.0, 131)
    for _, fld in fd_solver.iterate(
            analytic.sample_field(one_field, g, 0.0), 5e-4, 40):
        pass
    checks.append(("reflection preserved",
                   np.allclose(fld.re, fld.re[::-1], atol=1e-13)))

    # exchange symmetry survives fd stepping
    g2 = UniformGrid(-3.0, 3.0, 61, dim=2)
    for _, fld2 in fd_solver.iterate(
            analytic.sample_field(boson_field, g2, 0.0), 2e-4, 40):
        pass
    checks.append(("exchange preserved",
                   np.allclose(fld2.re, fld2.re.T, atol=1e-13)))

    # fermion diagonal node
    diag_ok = all(fermion_field.psi(v, v, 0.5) == 0.0
                  for v in (-0.8, 0.0, 1.1))
    try:
        fermion_field.velocity_at([(0.5, 0.5)], 0.5)
        diag_ok = False
    except NodeError:
        pass
    checks.append(("fermion diagonal node", diag_ok))

    # trajectory equivariance under reflection
    initial = analytic.sample_field(one_field, g, 0.0)
    from slitsim.core import ComplexField
    mirrored = ComplexField(grid=g, re=initial.re[::-1].copy(),
                            im=initial.im[::-1].copy())
    [(ta, _)], _ = bohm.integrate_family(
        bohm.FdFieldProvider(initial, 5e-4, 40), [(0.8,)])
    [(tb, _)], _ = bohm.integrate_family(
        bohm.FdFieldProvider(mirrored, 5e-4, 40), [(-0.8,)])
    checks.append(("trajectory equivariance",
                   ta.stop_reason is None and tb.stop_reason is None
                   and np.allclose(ta.positions, -tb.positions, atol=1e-12)))

    # non-crossing of an exact fan
    t_grid = np.linspace(0.0, 1.0, 101)
    fan = analytic.exact_trajectory(
        one_field, np.linspace(0.2, 1.8, 10)[:, None], t_grid)
    checks.append(("non-crossing", bohm.crossing_report(fan) == ()))

    # continuity along the exact flow: d ln rho / dt = -div v
    eps = 1e-5
    cont_ok = True
    for y0, t in ((0.9, 0.5), (1.5, 0.8)):
        v = lambda yy: one_field.velocity_and_potential(yy, t)[0]
        lr = lambda yy, tt: 2.0 * one_field.log_amplitude(yy, tt)
        along = (lr(y0 + eps * v(y0), t + eps)
                 - lr(y0 - eps * v(y0), t - eps)) / (2 * eps)
        div = (v(y0 + eps) - v(y0 - eps)) / (2 * eps)
        cont_ok = cont_ok and abs(along + div) < 5e-4
    checks.append(("continuity along flow", cont_ok))

    failed = [name for name, ok in checks if not ok]
    _verdict(8, not failed,
             f"{len(checks)} property checks, failed: {failed or 'none'}")
