"""Shared grids, scenario parameters, and field containers.

Dimensionless units throughout (hbar = m = 1); no mass or hbar appears in
any API. 2D fields are stored row-major with the first particle coordinate
as the slow axis: ``field.re[i, j]`` is the value at (y1[i], y2[j]).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmall

#: Minimum points per axis: the 6-point boundary stencils occupy the two
#: outermost points on each side and must leave an interior.
MIN_POINTS = 11

#: Relative density threshold below which velocity / quantum potential are
#: treated as undefined (node region). Double-precision noise floor for
#: squared amplitudes.
EPS_NODE = 1e-12


def _positive(x):
    """x > 0 and finite; False for NaN."""
    return math.isfinite(x) and x > 0


@dataclass(frozen=True)
class WavePacketParams:
    """Slit geometry and packet shape.

    Y : half-separation of the slits
    sigma0 : initial packet width
    particles : 1 or 2
    exchange_sign : +1 boson / -1 fermion, meaningful only for particles=2
    """

    Y: float = 1.0
    sigma0: float = 0.2
    particles: int = 1
    exchange_sign: int = +1

    def __post_init__(self):
        if not _positive(self.sigma0):
            raise ValueError("sigma0 must be positive and finite")
        if not _positive(self.Y):
            raise ValueError("Y must be positive and finite")
        if self.particles not in (1, 2):
            raise ValueError("particles must be 1 or 2")
        if self.exchange_sign not in (+1, -1):
            raise ValueError("exchange_sign must be +1 or -1")


@dataclass(frozen=True)
class UniformGrid:
    """Uniform grid on [lo, hi] per axis; square domain in 2D.

    Spacing is identical on both axes in 2D by construction.
    """

    lo: float
    hi: float
    n: int
    dim: int = 1

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("grid bounds must be finite")
        if not self.hi > self.lo:
            raise ValueError("hi must exceed lo")
        if self.n < MIN_POINTS:
            raise GridTooSmall(
                f"need at least {MIN_POINTS} points per axis, got {self.n}")

    @property
    def delta(self):
        return (self.hi - self.lo) / (self.n - 1)

    def axis(self):
        """Coordinates along one axis."""
        return np.linspace(self.lo, self.hi, self.n)

    def meshgrid(self):
        """Coordinate arrays matching the field storage layout.

        1D: (y,) with shape (n,).
        2D: (y1, y2) each of shape (n, n), y1 varying along axis 0.
        """
        ax = self.axis()
        if self.dim == 1:
            return (ax,)
        return np.meshgrid(ax, ax, indexing="ij")

    @property
    def shape(self):
        return (self.n,) * self.dim

    def contains(self, point):
        """True if the configuration-space point lies strictly inside."""
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        if pt.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} coordinates")
        return bool(np.all(pt > self.lo) and np.all(pt < self.hi))


@dataclass(frozen=True)
class ComplexField:
    """Sampled psi = re + i*im on a uniform grid."""

    grid: UniformGrid
    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        shape = self.grid.shape
        if self.re.shape != shape or self.im.shape != shape:
            raise ValueError(
                f"field arrays must have shape {shape}, "
                f"got {self.re.shape} / {self.im.shape}")
        self.re.setflags(write=False)
        self.im.setflags(write=False)

    def density(self):
        """|psi|^2 at every grid point."""
        return self.re ** 2 + self.im ** 2

    def to_complex(self):
        return self.re + 1j * self.im


def norm(fld):
    """Trapezoidal approximation of the integral of |psi|^2 (iterated in 2D)."""
    dens = fld.density()
    d = fld.grid.delta
    if fld.grid.dim == 1:
        return float(np.trapezoid(dens, dx=d))
    return float(np.trapezoid(np.trapezoid(dens, dx=d, axis=1), dx=d))


@dataclass(frozen=True)
class MwlsConfig:
    """Moving-weighted-least-squares fit parameters.

    n_neighbors : points entering each local fit
    poly_order : maximum total degree of the fitted polynomial (>= 2 so the
        Laplacian is representable)
    weight_width : Gaussian weight scale, or "auto" for the mean neighbor
        distance
    """

    n_neighbors: int = 12
    poly_order: int = 5
    weight_width: object = "auto"

    def __post_init__(self):
        if self.poly_order < 2:
            raise ValueError("poly_order must be >= 2")
        if self.weight_width != "auto" and not self.weight_width > 0:
            raise ValueError('weight_width must be positive or "auto"')


SOLVERS = ("schrodinger_fd", "hydro_lagrange", "hydro_euler")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one run."""

    packet: WavePacketParams
    grid: UniformGrid
    t_final: float
    n_steps: int
    solver: str
    trajectory_starts: tuple = ()
    mwls: MwlsConfig = None
    snapshot_times: tuple = ()
    scenario: str = ""
    field_kind: str = ""  # "", "single_packet": override the packet count

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not _positive(self.t_final):
            raise ValueError("t_final must be positive and finite")
        if self.solver != "schrodinger_fd" and self.field_dim != 1:
            raise ValueError("hydrodynamic runs are one-dimensional only")
        for start in self.trajectory_starts:
            if not self.grid.contains(start):
                raise ValueError(
                    f"trajectory start {start} lies outside the grid")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.t_final:
                raise ValueError(
                    f"snapshot time {t} lies outside [0, t_final]")
        if self.solver != "schrodinger_fd" and self.mwls is None:
            object.__setattr__(self, "mwls", MwlsConfig())

    @property
    def field_dim(self):
        """Configuration-space dimension of the field: 1 or 2."""
        return 1 if self.field_kind == "single_packet" else \
            self.packet.particles

    @property
    def dt(self):
        return self.t_final / self.n_steps

    @property
    def snapshot_indices(self):
        """Sorted step indices of the snapshot times (snapped to the step
        lattice) plus the final step."""
        return tuple(sorted({int(round(t / self.dt))
                             for t in self.snapshot_times}
                            | {self.n_steps}))
