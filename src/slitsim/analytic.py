"""Closed-form free-space wave functions and exact Bohmian trajectories.

Everything here is exact (up to round-off) and serves as the oracle
against which the numerical solvers are judged. Only the transverse
(y) dependence is evolved; the longitudinal plane-wave factor
exp(i[kx*x - kx^2 t/2]) decouples and gives the trivial drift
x(t) = x(0) + kx*t.

The slit packets, centred at c = +Y (slit A) and -Y (slit B), share one
complex width, so every field has a closed-form logarithmic derivative
D = d(ln psi)/dy (Philippidis, Dewdney & Hiley, Nuovo Cimento B 52, 15
(1979)). With alpha = 1/(4 sigma0 sigma_t), k = 2 alpha Y and
sign(x) = copysign(1, x):

- single packet: D = -2 alpha (y - c), and |psi|^2 / peak_density(t)
  = exp(-2 Re(alpha) (y - c)^2);
- one particle, psi ~ exp(-alpha (y^2 + Y^2)) cosh(u) with u = k y:
  D = -2 alpha (y - Y tanh u), and the density ratio is
  exp(-2 Re(alpha) (|y| - Y)^2) / |1 + sign(y) tanh u|^2;
- two particles, psi ~ exp(-alpha (y1^2 + y2^2 + 2 Y^2)) (e^u +- e^-u)
  with u = k (y1 - y2) and T = tanh u (bosons) or coth u (fermions):
  D1 = -2 alpha y1 + k T and D2 = -2 alpha y2 - k T, and the density
  ratio is exp(-2 Re(alpha) [(y1 - sY)^2 + (y2 + sY)^2]) / |1 + sT|^2
  with s = sign(y1 - y2).

Since Re(s u) >= 0, |1 + sT| >= 1: the denominators only grow towards
a node. d(D_i)/d(y_i) = -2 alpha + k^2 (1 - T^2) for both two-packet
fields (-2 alpha for the single packet). The Bohmian velocity is Im D,
and the quantum potential -(1/2) sum_i [(Re D_i)^2 + Re d(D_i)/d(y_i)].
"""

import math
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


def _alpha(params, t):
    """alpha = 1/(4 sigma0 sigma_t) = 1/(4 sigma0^2 + 2i t), so that
    psi_c ~ exp(-alpha (y - c)^2)."""
    return 1.0 / (4.0 * params.sigma0 ** 2 + 2j * t)


def _off_node(log_ratio, node_floor):
    """Where ln(|psi|^2 / peak_density) is above ln(node_floor); False
    where it is NaN. The log form matters at a floor of 0: the ratio
    itself underflows in the tails before |psi|^2 does, so only true zeros
    (the fermion diagonal) count as nodes there."""
    floor = math.log(node_floor) if node_floor > 0 else -math.inf
    return log_ratio > floor


def _node_guard(log_ratio, t, node_floor, what):
    """Raise NodeError unless every point is off the nodes (_off_node).

    node_floor is relative to the instantaneous peak density; a floor of 0
    only rejects true zeros, which is the right guard for closed-form
    ratios whose tails are exact however small the density gets.
    """
    if not _off_node(log_ratio, node_floor).all():
        raise NodeError(f"{what} undefined at a node (t={t})")


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
    configuration point and time, the closed-form log-derivative
    (_log_derivative), plus a peak-density bound used for the node
    threshold.
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

    def _log_derivative(self, *args, curvature=False):
        """(D, log_ratio), or (D, dD, log_ratio) with curvature=True.

        D is the tuple of d(ln psi)/d(coordinate), dD the tuple of
        d(D_i)/d(coordinate i), and log_ratio = ln(|psi|^2 /
        peak_density(t)), all in closed form (module docstring).
        """
        raise NotImplementedError

    # -- derived quantities ------------------------------------------------

    def velocity(self, *args, node_floor=EPS_NODE):
        """Bohmian velocity Im(d ln psi / d coordinate), per coordinate.

        Equivalent to the phase gradient wherever psi != 0, but free of
        arctan branch-cut artifacts. Raises NodeError where the density
        falls below node_floor times the instantaneous peak.
        """
        d, log_ratio = self._log_derivative(*args)
        _node_guard(log_ratio, args[-1], node_floor, "velocity")
        comps = tuple(x.imag for x in d)
        return comps[0] if self.dim == 1 else comps

    def velocity_at(self, points, t):
        """Velocity vectors, shape (m, dim), at a stack of m points.

        Raises NodeError if any point is at a node.
        """
        v = self.velocity(*_stack(points, self.dim).T, t)
        return v[:, None] if self.dim == 1 else np.stack(v, axis=-1)

    def log_amplitude(self, *args, node_floor=0.0):
        """g = ln|psi| (so the probability density is e^{2g}).

        Raises NodeError where |psi|^2 <= node_floor * peak_density(t);
        at a floor of 0, where |psi|^2 underflows.
        """
        p = self.psi(*args)
        t = args[-1]
        if np.any(np.abs(p) ** 2 <= node_floor * self.peak_density(t)):
            raise NodeError(f"log-amplitude undefined at a node (t={t})")
        return np.log(np.abs(p))

    def quantum_potential(self, *args, node_floor=0.0):
        """Q = -(1/2)[(grad g)^2 + lap g] with g = ln sqrt(P).

        Derivatives of g are the real parts of the log-derivative D of psi:
        grad g = Re D, lap g = Re sum_i d(D_i)/d(coordinate i).
        """
        d, dd, log_ratio = self._log_derivative(*args, curvature=True)
        _node_guard(log_ratio, args[-1], node_floor, "quantum potential")
        return -0.5 * sum(np.real(x) ** 2 + np.real(c)
                          for x, c in zip(d, dd))


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

    def _log_derivative(self, y, t, curvature=False):
        a = _alpha(self.params, t)
        dy = np.asarray(y, dtype=float) - self.center
        d = (-2.0 * a * dy,)
        log_ratio = -2.0 * a.real * dy ** 2
        if curvature:
            return d, (-2.0 * a,), log_ratio
        return d, log_ratio

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

    def _log_derivative(self, y, t, curvature=False):
        y = np.asarray(y, dtype=float)
        a, big_y = _alpha(self.params, t), self.params.Y
        k = 2.0 * a * big_y
        big_t = np.tanh(k * y)
        # named operands, as in _packets
        diff = y - big_y * big_t
        d = (-2.0 * a * diff,)
        # |1 + sign*T| = |sign + T|, with sign(+-0) = +-1: np.sign(0) = 0
        # would drop the 1
        log_ratio = (-2.0 * a.real * (np.abs(y) - big_y) ** 2
                     - 2.0 * np.log(np.abs(big_t + np.copysign(1.0, y))))
        if curvature:
            dt_du = 1.0 - big_t * big_t
            return d, (k * k * dt_du - 2.0 * a,), log_ratio
        return d, log_ratio


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

    def _log_derivative(self, y1, y2, t, curvature=False):
        y1, y2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
        a, big_y = _alpha(self.params, t), self.params.Y
        k = 2.0 * a * big_y
        dy = y1 - y2
        # coth is infinite on the fermion diagonal, where the log ratio is
        # -inf and the node guard fires
        with np.errstate(divide="ignore", invalid="ignore"):
            big_t = np.tanh(k * dy)
            if self.params.exchange_sign < 0:
                big_t = 1.0 / big_t
            kt = k * big_t
            d = (-2.0 * a * y1 + kt, -2.0 * a * y2 - kt)
            sy = np.copysign(big_y, dy)     # as in OneParticleField
            log_ratio = (-2.0 * a.real * ((y1 - sy) ** 2 + (y2 + sy) ** 2)
                         - 2.0 * np.log(np.abs(big_t + np.copysign(1.0, dy))))
            if curvature:
                dt_du = 1.0 - big_t * big_t     # named, as in _packets
                dd = k * k * dt_du - 2.0 * a
                return d, (dd, dd), log_ratio
        return d, log_ratio


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
