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

Each field takes two steps: D with the inputs of the density ratio (the
coordinates, T, Re alpha), then the ratio from those inputs; so
exact_trajectory decides its node guard once per RK4 step.
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


def _alpha(params, t):
    """alpha = 1/(4 sigma0 sigma_t) = 1/(4 sigma0^2 + 2i t), so that
    psi_c ~ exp(-alpha (y - c)^2)."""
    return 1.0 / (4.0 * params.sigma0 ** 2 + 2j * t)


def _off_node(log_ratio, floor):
    """Where ln(|psi|^2 / peak_density) is above ln(floor); False where it
    is NaN. The log form matters at a floor of 0: the ratio itself
    underflows in the tails before |psi|^2 does, so only true zeros (the
    fermion diagonal) count as nodes there."""
    return log_ratio > (math.log(floor) if floor > 0 else -math.inf)


def _node_guard(log_ratio, t):
    """Raise NodeError unless every point is above EPS_NODE times the
    instantaneous peak density: the guard of the trajectory calls."""
    if not _off_node(log_ratio, EPS_NODE).all():
        raise NodeError(f"velocity undefined at a node (t={t})")


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

    Subclasses provide psi as a function of the configuration point and
    time, the closed-form log-derivative in two steps (_closed_form, then
    _log_ratio on its ratio inputs), plus a peak-density bound used for
    the node threshold.

    Nodes follow one rule per use. The grid calls, log_amplitude and
    velocity_and_potential, never raise: they give -inf (g) or NaN (v, Q)
    only where the closed-form density is exactly zero. The trajectory
    calls, velocity_at and exact_trajectory, raise NodeError where the
    density falls to EPS_NODE times the instantaneous peak.
    """

    dim = None

    def psi(self, *args):
        raise NotImplementedError

    def peak_density(self, t):
        raise NotImplementedError

    def _closed_form(self, *args, curvature=False):
        """(D, ratio_in), or (D, dD, ratio_in) with curvature=True.

        D is the tuple of d(ln psi)/d(coordinate), dD the tuple of
        d(D_i)/d(coordinate i), ratio_in the inputs of _log_ratio.
        """
        raise NotImplementedError

    def _log_ratio(self, *ratio_in):
        """ln(|psi|^2 / peak_density(t)); Re(alpha), the last input, may
        be an array that broadcasts against the coordinates."""
        raise NotImplementedError

    def _log_derivative(self, *args, curvature=False):
        """(D, log_ratio), or (D, dD, log_ratio) with curvature=True.

        Overflow is quiet: it needs |y| > ~1e154, or coth of a tiny fermion
        y1 - y2, where the log ratio is -inf or NaN, which every node rule
        counts as a node.
        """
        with np.errstate(over="ignore"):
            *d, ratio_in = self._closed_form(*args, curvature=curvature)
            return (*d, self._log_ratio(*ratio_in))

    # -- derived quantities ------------------------------------------------

    def velocity_at(self, points, t):
        """Bohmian velocity vectors Im D, shape (m, dim), at a stack of m
        points; NodeError if any of them is at a node (_node_guard)."""
        with np.errstate(over="ignore"):    # as in _log_derivative
            v, ratio_in = self._vectors(_stack(points, self.dim), t)
            log_ratio = self._log_ratio(*ratio_in)
        _node_guard(log_ratio, t)
        return v

    def _vectors(self, pts, t):
        """Unguarded velocity vectors at pts, shape (m, dim), and the
        points' density-ratio inputs."""
        d, ratio_in = self._closed_form(*pts.T, t)
        v = [x.imag for x in d]
        return (v[0][:, None] if self.dim == 1 else np.stack(v, axis=-1),
                ratio_in)

    def log_amplitude(self, *args):
        """g = ln|psi|, the density being e^{2g}. Where psi underflows to 0,
        g is the closed form (ln(|psi|^2 / peak_density) + ln peak_density)
        / 2: -inf only where the closed-form density is exactly zero."""
        log_ratio = self._log_derivative(*args)[-1]
        with np.errstate(all="ignore"):     # psi overflows to 0 far out
            a = np.abs(self.psi(*args))
            g = np.log(a)
        # [()]: a scalar for scalar coordinates, as np.log gives
        return np.where(a > 0, g, 0.5 * (log_ratio + np.log(
            self.peak_density(args[-1]))))[()]

    def velocity_and_potential(self, *args):
        """Velocity Im D per coordinate and Q = -(1/2)[(grad g)^2 + lap g]
        from one closed-form pass: grad g = Re D, lap g = Re sum_i
        d(D_i)/d(coordinate i). NaN at the nodes: where the closed-form
        density is zero, not where |psi|^2 underflows."""
        d, dd, log_ratio = self._log_derivative(*args, curvature=True)
        ok = _off_node(log_ratio, 0.0)
        v = tuple(np.where(ok, x.imag, np.nan) for x in d)
        with np.errstate(over="ignore"):    # it overflows only where not ok
            q = -0.5 * sum(np.real(x) ** 2 + np.real(c)
                           for x, c in zip(d, dd))
        return (v[0] if self.dim == 1 else v), np.where(ok, q, np.nan)


class SlitPacketField(ExactField):
    """Isolated single-slit Gaussian packet (node-free control case)."""

    dim = 1

    def __init__(self, params, slit=SLIT_A):
        self.params = params
        self.center = params.Y if slit == SLIT_A else -params.Y

    def psi(self, y, t):
        """(2 pi sigma_t^2)^(-1/4) exp(-(y-c)^2 / (4 sigma0 sigma_t)).

        Principal branch of the fourth root: for t >= 0 the argument of
        sigma_t^2 stays in [0, pi), so the branch is continuous in t.
        """
        dy = np.asarray(y, dtype=float) - self.center
        s0, st = self.params.sigma0, sigma_t(self.params, t)
        # Named operands: numpy reuses an unnamed temporary of 256 KiB or
        # more in place, which can swap a complex multiply's operands (not
        # bit-commutative with FMA) and round a large stack unlike a short
        # one.
        pref = (2.0 * np.pi * st ** 2) ** -0.25
        # dy^2 overflows past |dy| ~ 1e154, where the packet is 0
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(-dy ** 2 / (4.0 * s0 * st))
        return pref * e

    def peak_density(self, t):
        st2 = np.abs(sigma_t(self.params, t)) ** 2
        return (2.0 * np.pi * st2) ** -0.5

    def _closed_form(self, y, t, curvature=False):
        a = _alpha(self.params, t)
        dy = np.asarray(y, dtype=float) - self.center
        d = (-2.0 * a * dy,)
        if curvature:
            return d, (-2.0 * a,), (dy, a.real)
        return d, (dy, a.real)

    def _log_ratio(self, dy, re_a):
        return -2.0 * re_a * dy ** 2


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

    def peak_density(self, t):
        # |N(psi_A + psi_B)|^2 <= 4 N^2 max|psi_A|^2
        return 4.0 * self.norm_constant ** 2 * self._a.peak_density(t)

    def _closed_form(self, y, t, curvature=False):
        y = np.asarray(y, dtype=float)
        a, big_y = _alpha(self.params, t), self.params.Y
        k = 2.0 * a * big_y
        big_t = np.tanh(k * y)
        # named operands, as in SlitPacketField.psi
        diff = y - big_y * big_t
        d = (-2.0 * a * diff,)
        if curvature:
            dt_du = 1.0 - big_t * big_t
            return d, (k * k * dt_du - 2.0 * a,), (y, big_t, a.real)
        return d, (y, big_t, a.real)

    def _log_ratio(self, y, big_t, re_a):
        # |1 + sign*T| = |sign + T|, with sign(+-0) = +-1: np.sign(0) = 0
        # would drop the 1
        return (-2.0 * re_a * (np.abs(y) - self.params.Y) ** 2
                - 2.0 * np.log(np.abs(big_t + np.copysign(1.0, y))))


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
        # the same product on swapped coordinates: exact exchange parity
        return self.norm_constant * (
            self._a.psi(y1, t) * self._b.psi(y2, t)
            + s * (self._a.psi(y2, t) * self._b.psi(y1, t)))

    def peak_density(self, t):
        return 4.0 * self.norm_constant ** 2 * self._a.peak_density(t) ** 2

    def _closed_form(self, y1, y2, t, curvature=False):
        y1, y2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
        a = _alpha(self.params, t)
        k = 2.0 * a * self.params.Y
        # coth is infinite on the fermion diagonal, where the log ratio is
        # -inf and the node guard fires
        with np.errstate(divide="ignore", invalid="ignore"):
            big_t = np.tanh(k * (y1 - y2))
            if self.params.exchange_sign < 0:
                big_t = 1.0 / big_t
            kt = k * big_t
            d = (-2.0 * a * y1 + kt, -2.0 * a * y2 - kt)
            if curvature:
                dt_du = 1.0 - big_t * big_t  # named, as in SlitPacketField.psi
                dd = k * k * dt_du - 2.0 * a
                return d, (dd, dd), (y1, y2, big_t, a.real)
        return d, (y1, y2, big_t, a.real)

    def _log_ratio(self, y1, y2, big_t, re_a):
        dy = y1 - y2
        sy = np.copysign(self.params.Y, dy)     # as in OneParticleField
        return (-2.0 * re_a * ((y1 - sy) ** 2 + (y2 + sy) ** 2)
                - 2.0 * np.log(np.abs(big_t + np.copysign(1.0, dy))))


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
    alone as a one-row stack. The stages take D only; the guard of
    velocity_at is decided once per step on the four stages' ratio inputs,
    so positions and NodeError are those of an RK4 over velocity_at.
    Stages after a rejected one may overflow or meet inf or NaN, hence
    the quiet errstate: the guard rejects each such chain.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    r = _stack(starts, fld.dim)
    positions = np.empty((len(r), len(t_grid), fld.dim))
    positions[:, 0] = r
    with np.errstate(all="ignore"):
        for k in range(len(t_grid) - 1):
            t0, h = t_grid[k], t_grid[k + 1] - t_grid[k]
            ts = (t0, t0 + 0.5 * h, t0 + 0.5 * h, t0 + h)
            k1, in1 = fld._vectors(r, ts[0])
            k2, in2 = fld._vectors(r + 0.5 * h * k1, ts[1])
            k3, in3 = fld._vectors(r + 0.5 * h * k2, ts[2])
            k4, in4 = fld._vectors(r + h * k3, ts[3])
            # one row per stage; broadcasting Re(alpha) keeps the bits
            *cols, re_a = map(np.array, zip(in1, in2, in3, in4))
            log_ratio = fld._log_ratio(*cols, re_a[:, None])
            if not _off_node(log_ratio, EPS_NODE).all():
                for t, lr in zip(ts, log_ratio):
                    _node_guard(lr, t)
            r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            positions[:, k + 1] = r
    return [Trajectory(times=t_grid.copy(), positions=p) for p in positions]


def sample_field(fld, grid, t):
    """Evaluate an exact field on a uniform grid as a ComplexField."""
    coords = grid.meshgrid()
    vals = fld.psi(*coords, t)
    return ComplexField(grid=grid, re=np.ascontiguousarray(vals.real),
                        im=np.ascontiguousarray(vals.imag))
