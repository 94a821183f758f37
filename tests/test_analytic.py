"""Exact interference fields, velocities, and trajectories."""

import warnings

import numpy as np
import pytest

from slitsim import analytic
from slitsim.core import EPS_NODE, UniformGrid, WavePacketParams
from slitsim.errors import NodeError
from slitsim.fd_solver import exchange_parity

from packet_sums import psi_grad_lap, similarity_position


def test_complex_width():
    p = WavePacketParams()
    assert analytic.sigma_t(p, 1.0) == pytest.approx(0.2 + 2.5j)
    assert analytic.sigma_t(p, 0.0) == pytest.approx(0.2)


def test_initial_amplitude_prefactor():
    # (2 pi sigma0^2)^{-1/4} for sigma0 = 0.2
    p = WavePacketParams()
    fld = analytic.SlitPacketField(p)
    assert abs(fld.psi(p.Y, 0.0)) == pytest.approx(1.412342522906,
                                                   abs=1e-10)


def test_norm_constants():
    p = WavePacketParams()
    assert analytic.norm_constant_one(p) == pytest.approx(
        0.707105463619, abs=1e-10)
    boson = WavePacketParams(particles=2, exchange_sign=+1)
    fermion = WavePacketParams(particles=2, exchange_sign=-1)
    nb = analytic.norm_constant_two(boson)
    nf = analytic.norm_constant_two(fermion)
    w = np.exp(-p.Y ** 2 / (2 * p.sigma0 ** 2))
    assert nb == pytest.approx((2 + 2 * w ** 2) ** -0.5, rel=1e-12)
    assert nf == pytest.approx((2 - 2 * w ** 2) ** -0.5, rel=1e-12)


def test_quadrature_norm_is_one(one_field, boson_field, fermion_field):
    g = UniformGrid(-13.0, 13.0, 521)
    for t in (0.0, 1.0):
        fld = analytic.sample_field(one_field, g, t)
        assert analytic_norm(fld) == pytest.approx(1.0, abs=1e-6)
    g2 = UniformGrid(-4.0, 4.0, 161, dim=2)
    for fld2 in (boson_field, fermion_field):
        sampled = analytic.sample_field(fld2, g2, 0.0)
        assert analytic_norm(sampled) == pytest.approx(1.0, abs=1e-7)


def analytic_norm(fld):
    from slitsim.core import norm
    return norm(fld)


def _time_residual(fld, args, t, eps=1e-5):
    """|i dpsi/dt + (1/2) lap psi| via a central difference in time."""
    dpsi = (fld.psi(*args, t + eps) - fld.psi(*args, t - eps)) / (2 * eps)
    return abs(1j * dpsi + 0.5 * psi_grad_lap(fld, *args, t)[2])


def test_schrodinger_residual_one_particle(packet_field, one_field):
    rng = np.random.default_rng(7)
    for fld in (packet_field, one_field):
        for _ in range(20):
            y = rng.uniform(-2.0, 2.0)
            t = rng.uniform(0.05, 1.0)
            scale = abs(fld.psi(y, t)) + 1.0
            assert _time_residual(fld, (y,), t) < 1e-6 * scale


def test_schrodinger_residual_two_particle(boson_field, fermion_field):
    rng = np.random.default_rng(11)
    for fld in (boson_field, fermion_field):
        for _ in range(10):
            y1, y2 = rng.uniform(-2.0, 2.0, size=2)
            t = rng.uniform(0.05, 1.0)
            scale = abs(fld.psi(y1, y2, t)) + 1.0
            assert _time_residual(fld, (y1, y2), t) < 1e-6 * scale


def test_reflection_symmetry(one_field):
    y = np.linspace(0.1, 1.8, 25)
    for t in (0.0, 0.5, 1.0):
        assert np.allclose(one_field.psi(y, t), one_field.psi(-y, t))
        v = one_field.velocity(y, t)
        assert np.allclose(v, -one_field.velocity(-y, t))
        assert one_field.velocity(0.0, t) == pytest.approx(0.0, abs=1e-14)


def test_exchange_symmetry(boson_field, fermion_field):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(15, 2))
    for t in (0.0, 0.7):
        for y1, y2 in pts:
            pb = boson_field.psi(y1, y2, t)
            assert pb == pytest.approx(boson_field.psi(y2, y1, t),
                                       rel=1e-12)
            pf = fermion_field.psi(y1, y2, t)
            assert pf == pytest.approx(-fermion_field.psi(y2, y1, t),
                                       rel=1e-12, abs=1e-15)


def test_sampled_two_particle_field_has_exact_exchange_parity(
        boson_field, fermion_field):
    # at t > 0 the packets are complex: psi(y2, y1) = s psi(y1, y2) to the
    # bit only if the exchanged term is the same product on swapped axes
    g = UniformGrid(-6.0, 6.0, 41, dim=2)
    assert exchange_parity(analytic.sample_field(boson_field, g, 0.05)) == 1
    assert exchange_parity(analytic.sample_field(fermion_field, g,
                                                 0.05)) == -1


def test_fermion_diagonal_node(fermion_field):
    for y in (-1.0, 0.0, 0.4, 1.3):
        assert fermion_field.psi(y, y, 0.6) == 0.0
    with pytest.raises(NodeError):
        fermion_field.velocity(0.4, 0.4, 0.6)
    # coth is infinite there: no RuntimeWarning, and a node at a floor of 0
    for y in (np.array([0.4, 1.0]), 0.0):
        with pytest.raises(NodeError):
            fermion_field.velocity(y, y, 0.6, node_floor=0.0)
        with pytest.raises(NodeError):
            fermion_field.quantum_potential(y, y, 0.6)


def test_velocity_matches_phase_gradient(one_field, boson_field):
    # v = d/dy arctan(psi_I / psi_R), checked by finite differences
    eps = 1e-6
    for y, t in ((0.8, 0.5), (1.7, 1.0), (-0.3, 0.9)):
        phase = lambda yy: np.angle(one_field.psi(yy, t))
        v_fd = (phase(y + eps) - phase(y - eps)) / (2 * eps)
        assert one_field.velocity(y, t) == pytest.approx(v_fd, abs=1e-6)
    v1, v2 = boson_field.velocity(0.9, -0.4, 0.8)
    ph = lambda a, b: np.angle(boson_field.psi(a, b, 0.8))
    assert v1 == pytest.approx((ph(0.9 + eps, -0.4) - ph(0.9 - eps, -0.4))
                               / (2 * eps), abs=1e-6)
    assert v2 == pytest.approx((ph(0.9, -0.4 + eps) - ph(0.9, -0.4 - eps))
                               / (2 * eps), abs=1e-6)


def test_packet_velocity_closed_form(packet_field):
    # isolated packet: v = (y - Y) t / (4 sigma0^4 + t^2)
    p = WavePacketParams()
    for y, t in ((1.2, 1.0), (0.5, 0.3), (2.0, 0.8)):
        expected = (y - p.Y) * t / (4 * p.sigma0 ** 4 + t ** 2)
        assert packet_field.velocity(y, t) == pytest.approx(expected,
                                                            rel=1e-10)


def test_quantum_potential_values(packet_field, one_field):
    # isolated packet: Q = 1/(4|s|^2) - (y-Y)^2/(8|s|^4), s = sigma_t
    p = WavePacketParams()
    assert packet_field.quantum_potential(1.0, 0.0) == pytest.approx(6.25)
    s2 = abs(analytic.sigma_t(p, 0.5)) ** 2
    expected = 1 / (4 * s2) - (1.3 - p.Y) ** 2 / (8 * s2 ** 2)
    assert packet_field.quantum_potential(1.3, 0.5) == pytest.approx(
        expected, rel=1e-10)
    # frozen midpoint value of the interference field
    assert one_field.quantum_potential(0.0, 0.0) == pytest.approx(
        -71.875, rel=1e-12)


def test_similarity_trajectory(packet_field):
    # spreading maps y - Y linearly: y(t) = Y + (y0 - Y) |sigma_t|/sigma0
    t_grid = np.linspace(0.0, 1.0, 2001)
    traj, = analytic.exact_trajectory(packet_field, [(1.2,)], t_grid)
    end = traj.positions[-1, 0]
    assert similarity_position(packet_field, 1.2, 1.0) == pytest.approx(
        3.507987240797, abs=1e-9)
    assert end == pytest.approx(3.507987240797, abs=1e-6)


def test_node_guard_in_tails(one_field):
    # closed-form log-amplitude stays finite deep in the Gaussian tails
    g = one_field.log_amplitude(np.array([-5.0, 5.0]), 0.0)
    assert np.all(np.isfinite(g))
    # the velocity's relative node threshold rejects the same points
    with pytest.raises(NodeError):
        one_field.velocity(5.0, 0.0)


def test_overflow_far_out_is_a_node(one_field, fermion_field):
    # |y| = 1e155 overflows (|y| - Y)^2 and (Re D)^2, y1 - y2 = 1e-320
    # overflows coth: NodeError (NaN unguarded), not a RuntimeWarning
    for call in (lambda: one_field.velocity_at([(1e155,)], 0.3),
                 lambda: one_field.velocity(1e155, 0.3),
                 lambda: one_field.log_amplitude(1e155, 0.3),
                 lambda: one_field.quantum_potential(1e155, 0.3),
                 lambda: fermion_field.velocity_at([(1e-320, 0.0)], 0.3)):
        with pytest.raises(NodeError):
            call()
    v, q = one_field.velocity_and_potential(np.array([1e155]), 0.3)
    assert np.isnan(v).all() and np.isnan(q).all()


def test_log_amplitude_where_the_density_underflows(one_field,
                                                    fermion_field):
    # at y = 9 |psi|^2 underflows but psi = 1.9e-174 does not; at y = 12
    # psi is 0 too and g comes from the closed-form density ratio
    y = np.array([9.0, 12.0, 0.5])
    g = one_field.log_amplitude(y, 0.0)
    assert g[0] == np.log(np.abs(one_field.psi(9.0, 0.0)))
    assert g[:2] == pytest.approx([-400.00132576, -756.25132576], abs=1e-8)
    assert g[2] == np.log(np.abs(one_field.psi(0.5, 0.0)))
    with pytest.raises(NodeError):
        one_field.log_amplitude(9.0, 0.0, node_floor=EPS_NODE)
    # the fermion diagonal is a true zero
    with pytest.raises(NodeError):
        fermion_field.log_amplitude(0.4, 0.4, 0.6)


def test_velocity_and_potential_where_the_density_underflows(one_field):
    # |psi|^2 underflows at y = 9 and 12, where the closed forms give
    # v = 0 and finite Q; only a point that is no number gives NaN
    v, q = one_field.velocity_and_potential(np.array([9.0, 12.0, np.nan]),
                                            0.0)
    assert v[:2].tolist() == [0.0, 0.0]
    assert q[:2] == pytest.approx([-4993.75, -9446.875], rel=1e-14)
    assert np.isnan(v[2]) and np.isnan(q[2])


@pytest.mark.parametrize("kind", ["packet", "one", "boson", "fermion"])
def test_velocity_and_potential_match_the_guarded_calls(
        kind, packet_field, one_field, boson_field, fermion_field):
    fld = {"packet": packet_field, "one": one_field, "boson": boson_field,
           "fermion": fermion_field}[kind]
    y = np.linspace(-6.0, 6.0, 13)
    coords = (y,) if fld.dim == 1 else np.meshgrid(y, y, indexing="ij")
    t = 0.7
    v, q = fld.velocity_and_potential(*coords, t)
    v = (v,) if fld.dim == 1 else v
    off = ~np.isnan(q)
    if kind == "fermion":
        # the diagonal y1 = y2 is the only node
        assert np.array_equal(~off, np.eye(len(y), dtype=bool))
        assert all(np.isnan(c[~off]).all() for c in v)
    else:
        assert off.all()
    pts = tuple(c[off] for c in coords)
    want = fld.velocity(*pts, t, node_floor=0.0)
    want = (want,) if fld.dim == 1 else want
    assert all(np.array_equal(c[off], w) for c, w in zip(v, want))
    assert np.array_equal(q[off], fld.quantum_potential(*pts, t))


def test_field_dispatch():
    one = WavePacketParams()
    two = WavePacketParams(particles=2)
    assert isinstance(analytic.field_for(one), analytic.OneParticleField)
    assert isinstance(analytic.field_for(two), analytic.TwoParticleField)
    assert isinstance(analytic.field_for(one, "single_packet"),
                      analytic.SlitPacketField)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        analytic.Trajectory(times=np.array([0.0, 0.0]),
                            positions=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        analytic.Trajectory(times=np.array([0.0, 1.0]),
                            positions=np.zeros(2))
    traj = analytic.Trajectory(times=np.array([0.0, 1.0]),
                               positions=np.zeros((2, 2)))
    assert traj.dim == 2


def test_sample_field_matches_psi(one_field):
    g = UniformGrid(-3.0, 3.0, 61)
    fld = analytic.sample_field(one_field, g, 0.4)
    assert np.allclose(fld.to_complex(), one_field.psi(g.axis(), 0.4))


def test_peak_density_bounds(one_field, boson_field):
    g = UniformGrid(-13.0, 13.0, 521)
    for t in (0.0, 0.5, 1.0):
        dens = np.abs(one_field.psi(g.axis(), t)) ** 2
        assert dens.max() <= one_field.peak_density(t) * (1 + 1e-12)
    y1, y2 = UniformGrid(-4.0, 4.0, 161, dim=2).meshgrid()
    dens2 = np.abs(boson_field.psi(y1, y2, 0.5)) ** 2
    assert dens2.max() <= boson_field.peak_density(0.5) * (1 + 1e-12)


def test_continuity_along_exact_flow(one_field):
    # d/dt ln rho along the flow equals -div v
    eps = 1e-5
    for y, t in ((0.9, 0.5), (1.5, 0.8)):
        v = one_field.velocity(y, t)
        lr = lambda yy, tt: 2.0 * one_field.log_amplitude(yy, tt)
        along = (lr(y + eps * v, t + eps) - lr(y - eps * v, t - eps)) \
            / (2 * eps)
        div = (one_field.velocity(y + eps, t)
               - one_field.velocity(y - eps, t)) / (2 * eps)
        assert along == pytest.approx(-div, abs=5e-4)


# -- batched oracle: a stack of starts gives the bits of each start alone --

def _scalar_rk4(fld, start, t_grid):
    """Reference: one start, velocity evaluated on numpy scalars.

    numpy rounds scalar and vectorised complex products differently (the
    latter may fuse multiply-adds), so this agrees to round-off, not bits.
    """
    r = np.atleast_1d(np.asarray(start, dtype=float))
    positions = [r]
    for k in range(len(t_grid) - 1):
        t0, h = t_grid[k], t_grid[k + 1] - t_grid[k]

        def v(p, t):
            return np.atleast_1d(np.asarray(fld.velocity(*p, t),
                                            dtype=float))
        k1 = v(r, t0)
        k2 = v(r + 0.5 * h * k1, t0 + 0.5 * h)
        k3 = v(r + 0.5 * h * k2, t0 + 0.5 * h)
        k4 = v(r + h * k3, t0 + h)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        positions.append(r)
    return np.array(positions)


FAN = [(s,) for sign in (1, -1) for s in sign * np.arange(0.4, 1.81, 0.2)]


def _velocity_at_rk4(fld, starts, t_grid):
    """Reference: classic RK4 over velocity_at, guarded at every stage.
    Positions of shape (m, nt, dim)."""
    r = np.asarray(starts, dtype=float)
    positions = [r]
    for k in range(len(t_grid) - 1):
        t0, h = t_grid[k], t_grid[k + 1] - t_grid[k]
        k1 = fld.velocity_at(r, t0)
        k2 = fld.velocity_at(r + 0.5 * h * k1, t0 + 0.5 * h)
        k3 = fld.velocity_at(r + 0.5 * h * k2, t0 + 0.5 * h)
        k4 = fld.velocity_at(r + h * k3, t0 + h)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        positions.append(r)
    return np.stack(positions, axis=1)


@pytest.mark.parametrize("which, starts, dt", [
    ("one", FAN, 2e-4),
    ("boson", [(1.0, -0.6), (1.0, -1.4)], 2.5e-4),
    ("fermion", [(1.0, -0.6), (0.3, -1.2)], 2.5e-4),
    ("packet", [(1.2,), (0.9,)], 5e-4),
])
def test_exact_trajectory_stack_equals_each_start(which, starts, dt,
                                                  packet_field, one_field,
                                                  boson_field,
                                                  fermion_field):
    fld = {"packet": packet_field, "one": one_field, "boson": boson_field,
           "fermion": fermion_field}[which]
    t_grid = np.arange(81) * dt
    stack = analytic.exact_trajectory(fld, starts, t_grid)
    assert len(stack) == len(starts)
    # the guard once per step leaves the bits of a guard at every stage
    assert np.array_equal(np.array([traj.positions for traj in stack]),
                          _velocity_at_rk4(fld, starts, t_grid))
    for traj, s in zip(stack, starts):
        alone, = analytic.exact_trajectory(fld, [s], t_grid)
        assert np.array_equal(traj.positions, alone.positions)
        assert np.array_equal(traj.times, alone.times)
        assert np.allclose(traj.positions, _scalar_rk4(fld, s, t_grid),
                           rtol=1e-12, atol=0.0)


# -- the node guard, decided once per RK4 step -----------------------------

@pytest.mark.parametrize("which, starts, t_grid, t_node", [
    # a start in the tail
    ("one", [(0.5,), (5.0,)], np.arange(11) * 2e-4, "0.0"),
    # a start on the fermion diagonal, where coth is infinite
    ("fermion", [(1.0, -0.6), (0.4, 0.4)], np.arange(11) * 2.5e-4, "0.0"),
    # coarse lattices: the start is above the floor, the point of a later
    # stage of the same step is not (stage 3, then stage 4)
    ("one", [(0.5,), (2.4,)], np.arange(4) * 0.1, "0.05"),
    ("one", [(2.3,)], np.arange(4) * 0.15, "0.15"),
    # a start so far out that the rejected stage 1 is clean but stage 2,
    # which moves further out, overflows (|y| - Y)^2
    ("one", [(0.5,), (1.3e154,)], 1.0 + np.arange(3) * 0.1, "1.0"),
], ids=["tail", "diagonal", "stage3", "stage4", "far-tail"])
def test_exact_trajectory_raises_the_per_stage_node_error(
        which, starts, t_grid, t_node, one_field, fermion_field):
    fld = one_field if which == "one" else fermion_field
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NodeError) as want:
            _velocity_at_rk4(fld, starts, t_grid)
        with pytest.raises(NodeError) as got:
            analytic.exact_trajectory(fld, starts, t_grid)
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"velocity undefined at a node (t={t_node})"


def test_velocity_at_shapes(one_field, boson_field):
    assert one_field.velocity_at([(0.7,)], 0.3).shape == (1, 1)
    assert one_field.velocity_at([(0.7,), (0.9,)], 0.3).shape == (2, 1)
    assert boson_field.velocity_at([(0.9, -0.4)], 0.8).shape == (1, 2)
    v = boson_field.velocity_at([(0.9, -0.4), (1.1, -0.2)], 0.8)
    assert v.shape == (2, 2)
    assert np.allclose(v[0], boson_field.velocity(0.9, -0.4, 0.8),
                       rtol=1e-14)
    for bad in ((0.7,), [(0.9, -0.4)]):
        with pytest.raises(ValueError):
            one_field.velocity_at(bad, 0.3)
    with pytest.raises(NodeError):
        one_field.velocity_at([(0.7,), (5.0,)], 0.0)


_Y_SHAPES = {
    "scalar": 0.3,
    "stack": np.linspace(-3.0, 3.0, 41),
    "meshgrid": np.meshgrid(np.linspace(-3.0, 3.0, 9),
                            np.linspace(-2.0, 2.0, 7), indexing="ij")[0],
}


@pytest.mark.parametrize("t", [0.0, 0.37])
@pytest.mark.parametrize("y", _Y_SHAPES.values(), ids=_Y_SHAPES.keys())
def test_one_particle_psi_grad_is_the_two_packets(one_field, y, t):
    # psi is the normalized sum of the two packets, and each packet has
    # the bits of its closed form
    params = one_field.params
    pa = analytic.SlitPacketField(params, analytic.SLIT_A).psi(y, t)
    pb = analytic.SlitPacketField(params, analytic.SLIT_B).psi(y, t)
    p = one_field.psi(y, t)
    assert np.shape(p) == np.shape(y)
    assert np.array_equal(p, one_field.norm_constant * (pa + pb))
    if np.ndim(y):
        # the closed form, one packet at a time, in its own operation order
        s0 = params.sigma0
        st = s0 * (1.0 + 1j * t / (2.0 * s0 ** 2))
        ref = (2.0 * np.pi * st ** 2) ** -0.25 * np.exp(
            -(y - params.Y) ** 2 / (4.0 * s0 * st))
        assert np.array_equal(pa, ref)


@pytest.mark.parametrize("which", ["one", "boson"])
def test_large_stack_equals_short_chunks(which, one_field, boson_field):
    # the default packets are those of fig6 and fig7_ci_reduced. Numpy
    # turns array temporaries of 256 KiB or more into in-place operations,
    # which can swap the operands of a complex multiply; each point must
    # get the same bits in a 20,000-point stack as in a 100-point one.
    fld = {"one": one_field, "boson": boson_field}[which]
    pts = np.random.default_rng(7).uniform(-13.0, 13.0, (fld.dim, 20000))
    t = 0.3
    chunks = [pts[:, i:i + 100] for i in range(0, pts.shape[1], 100)]
    assert np.array_equal(fld.psi(*pts, t),
                          np.concatenate([fld.psi(*c, t) for c in chunks]))
    # the closed-form log-derivatives behind velocity and Q as well
    d, dd, log_ratio = fld._log_derivative(*pts, t, curvature=True)
    parts = [fld._log_derivative(*c, t, curvature=True) for c in chunks]
    assert np.array_equal(log_ratio, np.concatenate([q for *_, q in parts]))
    for i in range(fld.dim):
        assert np.array_equal(d[i], np.concatenate([q[0][i] for q in parts]))
        assert np.array_equal(dd[i],
                              np.concatenate([q[1][i] for q in parts]))


# -- closed-form log-derivatives against the packet sums ------------------

def _packet_sum_reference(fld, pts, t):
    """(psi, |psi|^2, the mask |psi|^2 > 0, v per coordinate and Q on
    that mask) from the packet sums of psi, grad psi and lap psi: the
    velocity as Im(psi* grad psi)/|psi|^2, Q from grad psi/psi and lap
    psi/psi."""
    psi, grads, lap = psi_grad_lap(fld, *pts, t)
    dens = np.abs(psi) ** 2
    ok = dens > 0.0
    p = psi[ok]
    dlogs = [d[ok] / p for d in grads]
    v = [np.imag(np.conj(p) * d[ok]) / dens[ok] for d in grads]
    q = -0.5 * (sum(np.real(d) ** 2 for d in dlogs)
                + np.real(lap[ok] / p - sum(d ** 2 for d in dlogs)))
    return psi, dens, ok, v, q


_SWEEP_1D = (np.linspace(-13.0, 13.0, 26001),)
_SWEEP_2D = tuple(np.meshgrid(np.linspace(-6.0, 6.0, 241),
                              np.linspace(-6.0, 6.0, 241), indexing="ij"))


@pytest.mark.parametrize("t", [0.0, 0.003, 0.01, 0.3, 1.0])
@pytest.mark.parametrize("which", ["packet", "one", "boson", "fermion"])
def test_closed_forms_keep_the_packet_sum_guard(which, t, packet_field,
                                                one_field, boson_field,
                                                fermion_field):
    # the 2D sweep holds the exact diagonal y1 == y2 (241 is odd)
    fld = {"packet": packet_field, "one": one_field, "boson": boson_field,
           "fermion": fermion_field}[which]
    pts = _SWEEP_1D if fld.dim == 1 else _SWEEP_2D
    d, dd, log_ratio = fld._log_derivative(*pts, t, curvature=True)
    psi_ref, dens, ok, v_ref, q_ref = _packet_sum_reference(fld, pts, t)
    old = dens <= EPS_NODE * fld.peak_density(t)
    assert np.array_equal(~analytic._off_node(log_ratio, EPS_NODE), old)
    # at a floor of 0 the closed form never rejects a point the packet sum
    # keeps, except on the fermion diagonal: a true node, where the packet
    # sum leaves a rounding residue of up to 2e-17 for t > 0
    extra = ~analytic._off_node(log_ratio, 0.0) & (dens > 0.0)
    if which == "fermion":
        extra &= pts[0] != pts[1]
    assert not extra.any()
    # velocity and Q where the guard keeps the point; the largest
    # differences measured are 1.6e-14 (1D) and 1.4e-13 (2D) for v, and
    # 8e-14 (1D) and 2.3e-13 (2D) of max(1, |Q|) for Q
    keep = ~old
    tol = 5e-14 if fld.dim == 1 else 5e-13
    for x, ref in zip(d, v_ref):
        assert np.abs(np.imag(x)[keep] - ref[keep[ok]]).max() <= tol
    q = -0.5 * sum(np.real(x) ** 2 + np.real(c) for x, c in zip(d, dd))
    dq = np.abs(q[keep] - q_ref[keep[ok]])
    assert (dq / np.maximum(1.0, np.abs(q_ref[keep[ok]]))).max() <= 1e-12
    # psi itself to round-off, not to the bit: numpy turns unnamed
    # temporaries of 256 KiB or more into in-place operations
    psi = fld.psi(*pts, t)
    assert np.abs(psi_ref - psi).max() <= 1e-15 * np.abs(psi).max()
