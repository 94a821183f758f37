"""Closed-form free-space wave functions and exact Bohmian trajectories.

Everything here is exact (up to round-off) and serves as the oracle
against which the numerical solvers are judged. Only the transverse
(y) dependence is evolved; the longitudinal plane-wave factor
exp(i[kx*x - kx^2 t/2]) decouples and gives the trivial drift
x(t) = x(0) + kx*t.
"""

from dataclasses import dataclass

import numpy as np

from .core import EPS_NODE, ComplexField
from .errors import NodeError

SLIT_A = "A"
SLIT_B = "B"


def sigma_t(params, t):
    """Complex packet width sigma0 * (1 + i t / (2 sigma0^2))."""
    s0 = params.sigma0
    return s0 * (1.0 + 1j * t / (2.0 * s0 ** 2))


def _packets(y, t, *packets, grad=False):
    """The SlitPacketFields' normalized spreading Gaussians, stacked on a
    new first axis, and with grad=True their y-derivatives too.

    (2 pi sigma_t^2)^(-1/4) exp(-(y-c)^2 / (4 sigma0 sigma_t)), principal
    branch of the fourth root. For t >= 0 the argument of sigma_t^2 stays
    in [0, pi), so the principal branch is continuous in t. sigma_t and
    the prefactor are formed once for all the packets.
    """
    y = np.asarray(y, dtype=float)
    s0 = packets[0].params.sigma0
    dy = y - np.array([f.center for f in packets]).reshape(-1, *[1] * y.ndim)
    st = s0 * (1.0 + 1j * t / (2.0 * s0 ** 2))
    # Named operands: numpy reuses an unnamed temporary of 256 KiB or more
    # in place, which can swap a complex multiply's operands (not
    # bit-commutative with FMA) and round a large stack unlike a short one.
    pref = (2.0 * np.pi * st ** 2) ** -0.25
    e = np.exp(-dy ** 2 / (4.0 * s0 * st))
    p = pref * e
    if not grad:
        return p
    slope = -dy / (2.0 * s0 * st)
    return p, slope * p


def _overlap(params):
    """t=0 overlap integral of the two slit packets: exp(-Y^2/(2 sigma0^2))."""
    return np.exp(-params.Y ** 2 / (2.0 * params.sigma0 ** 2))


def norm_constant_one(params):
    """Normalization of the symmetric one-particle superposition."""
    return 1.0 / np.sqrt(2.0 + 2.0 * _overlap(params))


def norm_constant_two(params):
    """Normalization of the (anti)symmetrized two-particle state."""
    w = _overlap(params)
    return 1.0 / np.sqrt(2.0 + 2.0 * params.exchange_sign * w ** 2)


def _stack(points, dim):
    """Configuration points as a float array of shape (m, dim)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected a stack of shape (m, {dim}), "
                         f"got {pts.shape}")
    return pts


class ExactField:
    """Common closed-form machinery: velocity, quantum potential, trajectories.

    Subclasses provide psi / psi_grad / lap as functions of the
    configuration point and time, plus a peak-density bound used for the
    node threshold.
    """

    dim = None

    def psi(self, *args):
        raise NotImplementedError

    def psi_grad(self, *args):
        """(psi, tuple of d(psi)/d(coordinate)) from one packet evaluation."""
        raise NotImplementedError

    def lap(self, *args):
        raise NotImplementedError

    def peak_density(self, t):
        raise NotImplementedError

    # -- derived quantities ------------------------------------------------

    def _node_guard(self, p, t, node_floor, what):
        """Density |p|^2, checked as the node-sensitive quantities need.

        node_floor is relative to the instantaneous peak density; a floor
        of 0 only rejects true zeros (fermion diagonal, underflowed
        tails), which is the right guard for closed-form ratios whose
        tails are exact however small the density gets.
        """
        dens = np.abs(p) ** 2
        if np.any(dens <= node_floor * self.peak_density(t)):
            raise NodeError(f"{what} undefined at a node (t={t})")
        return dens

    def velocity(self, *args, node_floor=EPS_NODE):
        """Bohmian velocity Im(psi* grad psi)/|psi|^2, per coordinate.

        Equivalent to the phase gradient wherever psi != 0, but free of
        arctan branch-cut artifacts. Raises NodeError where the density
        falls below node_floor times the instantaneous peak.
        """
        p, grads = self.psi_grad(*args)
        dens = self._node_guard(p, args[-1], node_floor, "velocity")
        comps = tuple(np.imag(np.conj(p) * d) / dens for d in grads)
        return comps[0] if self.dim == 1 else comps

    def velocity_at(self, points, t):
        """Velocity vectors, shape (m, dim), at a stack of m points.

        Raises NodeError if any point is at a node.
        """
        v = self.velocity(*_stack(points, self.dim).T, t)
        return v[:, None] if self.dim == 1 else np.stack(v, axis=-1)

    def log_amplitude(self, *args, node_floor=0.0):
        """g = ln|psi| (so the probability density is e^{2g})."""
        p = self.psi(*args)
        self._node_guard(p, args[-1], node_floor, "log-amplitude")
        return np.log(np.abs(p))

    def quantum_potential(self, *args, node_floor=0.0):
        """Q = -(1/2)[(grad g)^2 + lap g] with g = ln sqrt(P).

        Derivatives of g are the real parts of the log-derivative of psi:
        grad g = Re(grad psi / psi), lap g = Re(lap psi / psi - (grad psi/psi)^2).
        """
        p, grads = self.psi_grad(*args)
        self._node_guard(p, args[-1], node_floor, "quantum potential")
        dlogs = tuple(d / p for d in grads)
        grad_g_sq = sum(np.real(d) ** 2 for d in dlogs)
        lap_g = np.real(self.lap(*args) / p - sum(d ** 2 for d in dlogs))
        return -0.5 * (grad_g_sq + lap_g)


class SlitPacketField(ExactField):
    """Isolated single-slit Gaussian packet (node-free control case)."""

    dim = 1

    def __init__(self, params, slit=SLIT_A):
        self.params = params
        self.center = params.Y if slit == SLIT_A else -params.Y

    def psi(self, y, t):
        return _packets(y, t, self)[0]

    def psi_grad(self, y, t):
        p, d = _packets(y, t, self, grad=True)
        return p[0], (d[0],)

    def lap(self, y, t):
        y = np.asarray(y, dtype=float)
        st = sigma_t(self.params, t)
        a = 1.0 / (2.0 * self.params.sigma0 * st)
        fac = (a * (y - self.center)) ** 2 - a
        return fac * self.psi(y, t)

    def peak_density(self, t):
        st2 = np.abs(sigma_t(self.params, t)) ** 2
        return (2.0 * np.pi * st2) ** -0.5

    def similarity_position(self, y0, t):
        """Exact Bohmian path: the packet's self-similar spreading flow."""
        s = np.abs(sigma_t(self.params, t)) / self.params.sigma0
        return self.center + (y0 - self.center) * s


class OneParticleField(ExactField):
    """Symmetric superposition of the two slit packets (1D in y)."""

    dim = 1

    def __init__(self, params):
        if params.particles != 1:
            raise ValueError("OneParticleField requires particles=1")
        self.params = params
        self.norm_constant = norm_constant_one(params)
        self._a = SlitPacketField(params, SLIT_A)
        self._b = SlitPacketField(params, SLIT_B)

    def psi(self, y, t):
        return self.norm_constant * (self._a.psi(y, t) + self._b.psi(y, t))

    def psi_grad(self, y, t):
        (pa, pb), (da, db) = _packets(y, t, self._a, self._b, grad=True)
        n = self.norm_constant
        return n * (pa + pb), (n * (da + db),)

    def lap(self, y, t):
        return self.norm_constant * (self._a.lap(y, t) + self._b.lap(y, t))

    def peak_density(self, t):
        # |N(psi_A + psi_B)|^2 <= 4 N^2 max|psi_A|^2
        return 4.0 * self.norm_constant ** 2 * self._a.peak_density(t)


class TwoParticleField(ExactField):
    """(Anti)symmetrized two-particle state on the (y1, y2) plane."""

    dim = 2

    def __init__(self, params):
        if params.particles != 2:
            raise ValueError("TwoParticleField requires particles=2")
        self.params = params
        self.norm_constant = norm_constant_two(params)
        self._a = SlitPacketField(params, SLIT_A)
        self._b = SlitPacketField(params, SLIT_B)

    def psi(self, y1, y2, t):
        s = self.params.exchange_sign
        return self.norm_constant * (
            self._a.psi(y1, t) * self._b.psi(y2, t)
            + s * self._b.psi(y1, t) * self._a.psi(y2, t))

    def psi_grad(self, y1, y2, t):
        s = self.params.exchange_sign
        (a1, b1), (da1, db1) = _packets(y1, t, self._a, self._b, grad=True)
        (a2, b2), (da2, db2) = _packets(y2, t, self._a, self._b, grad=True)
        n = self.norm_constant
        p = n * (a1 * b2 + s * b1 * a2)
        d1 = n * (da1 * b2 + s * db1 * a2)
        d2 = n * (a1 * db2 + s * b1 * da2)
        return p, (d1, d2)

    def lap(self, y1, y2, t):
        s = self.params.exchange_sign
        a1, b1 = self._a.psi(y1, t), self._b.psi(y1, t)
        a2, b2 = self._a.psi(y2, t), self._b.psi(y2, t)
        la1, lb1 = self._a.lap(y1, t), self._b.lap(y1, t)
        la2, lb2 = self._a.lap(y2, t), self._b.lap(y2, t)
        n = self.norm_constant
        return n * (la1 * b2 + a1 * lb2 + s * (lb1 * a2 + b1 * la2))

    def peak_density(self, t):
        return 4.0 * self.norm_constant ** 2 * self._a.peak_density(t) ** 2


def field_for(params, field_kind=""):
    """ExactField matching the packet parameters."""
    if field_kind == "single_packet":
        return SlitPacketField(params)
    if params.particles == 1:
        return OneParticleField(params)
    return TwoParticleField(params)


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped Bohmian path in configuration space."""

    times: np.ndarray          # shape (nt,), strictly increasing
    positions: np.ndarray      # shape (nt, dim)
    #: why an integrated path stopped before the end of its run:
    #: "incursion" (masked near-node stencil), "left_grid", or None
    stop_reason: str | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.positions.ndim != 2 or len(self.positions) != len(self.times):
            raise ValueError("positions must have shape (nt, dim)")

    @property
    def dim(self):
        return self.positions.shape[1]


def exact_trajectory(fld, starts, t_grid):
    """Integrate dr/dt = v_exact(r, t) with classic RK4 on the given times.

    A stack of starts, shape (m, dim), is integrated in one RK4 loop and
    gives a list of m Trajectories, each equal to its start integrated
    alone as a one-row stack.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    r = _stack(starts, fld.dim)
    positions = np.empty((len(r), len(t_grid), fld.dim))
    positions[:, 0] = r
    for k in range(len(t_grid) - 1):
        t0, h = t_grid[k], t_grid[k + 1] - t_grid[k]
        k1 = fld.velocity_at(r, t0)
        k2 = fld.velocity_at(r + 0.5 * h * k1, t0 + 0.5 * h)
        k3 = fld.velocity_at(r + 0.5 * h * k2, t0 + 0.5 * h)
        k4 = fld.velocity_at(r + h * k3, t0 + h)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        positions[:, k + 1] = r
    return [Trajectory(times=t_grid.copy(), positions=p) for p in positions]


def sample_field(fld, grid, t):
    """Evaluate an exact field on a uniform grid as a ComplexField."""
    coords = grid.meshgrid()
    vals = fld.psi(*coords, t)
    return ComplexField(grid=grid, re=np.ascontiguousarray(vals.real),
                        im=np.ascontiguousarray(vals.imag))
