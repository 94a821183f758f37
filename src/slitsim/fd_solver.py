"""Direct Schrodinger integration via the real/imaginary split.

    d(psi_R)/dt = -(1/2) lap psi_I
    d(psi_I)/dt = +(1/2) lap psi_R

in free space (no external potential).

Spatial derivatives use 4th-order stencils: the 5-point central formula in
the interior and 6-point one-sided / skewed formulas at the two outermost
points per side (no boundary condition is imposed; the grid is chosen wide
enough that the field is negligible at the edges). Time stepping is
classic RK4 on the coupled 2N-component system.

The system is linear and time-independent, so one RK4 step is exactly the
degree-4 Taylor polynomial of the propagator, psi <- sum_{k<=4} (dt A)^k
psi / k!; it is evaluated in Horner form, u <- psi + c dt A u for c = 1/4,
1/3, 1/2, 1 (Leforestier et al., J. Comput. Phys. 94, 59 (1991)). In 1D
the polynomial is applied once to the identity, and each step is then one
prebuilt real matrix pair: psi <- (P + iQ) psi. 2D keeps the stencils.
"""

import numpy as np

from .core import MIN_POINTS, ComplexField
from .errors import GridTooSmall

# Second-derivative boundary weights, common factor 1/(12 delta^2); the
# interior uses the 5-point central formula, the outermost point the fully
# one-sided 6-point formula, its neighbor the skewed 6-point formula
# (written out in place below).
_C_EDGE = (45.0, -154.0, 214.0, -156.0, 61.0, -10.0)       # at index 0

# First-derivative boundary weights, common factor 1/(12 delta); the
# interior uses the 5-point central formula.
_D_EDGE = (-25.0, 48.0, -36.0, 16.0, -3.0)                 # at index 0
_D_SKEW = (-3.0, -10.0, 18.0, -6.0, 1.0)                   # at index 1


def _check_axis_length(n):
    if n < MIN_POINTS:
        raise GridTooSmall(
            f"stencils need at least {MIN_POINTS} points per axis, got {n}")


def _second_derivative_axis(f, delta, axis=0):
    """4th-order second derivative along one axis of a 1D or 2D array."""
    f = np.moveaxis(f, axis, 0)
    _check_axis_length(f.shape[0])
    out = np.empty_like(f, dtype=float)
    out[2:-2] = (-30.0 * f[2:-2]
                 + 16.0 * (f[3:-1] + f[1:-3])
                 - (f[4:] + f[:-4]))
    out[0] = sum(c * f[k] for k, c in enumerate(_C_EDGE))
    out[1] = (10.0 * f[0] - 15.0 * f[1] - 4.0 * f[2]
              + 14.0 * f[3] - 6.0 * f[4] + f[5])
    out[-1] = sum(c * f[-1 - k] for k, c in enumerate(_C_EDGE))
    out[-2] = (10.0 * f[-1] - 15.0 * f[-2] - 4.0 * f[-3]
               + 14.0 * f[-4] - 6.0 * f[-5] + f[-6])
    out /= 12.0 * delta ** 2
    return np.moveaxis(out, 0, axis)


def _first_derivative_axis(f, delta, axis=0):
    """4th-order first derivative along one axis of a 1D or 2D array."""
    f = np.moveaxis(f, axis, 0)
    _check_axis_length(f.shape[0])
    out = np.empty_like(f, dtype=float)
    out[2:-2] = 8.0 * (f[3:-1] - f[1:-3]) - (f[4:] - f[:-4])
    out[0] = sum(c * f[k] for k, c in enumerate(_D_EDGE))
    out[1] = sum(c * f[k] for k, c in enumerate(_D_SKEW))
    out[-1] = -sum(c * f[-1 - k] for k, c in enumerate(_D_EDGE))
    out[-2] = -sum(c * f[-1 - k] for k, c in enumerate(_D_SKEW))
    out /= 12.0 * delta
    return np.moveaxis(out, 0, axis)


def laplacian(values, grid):
    """4th-order Laplacian; axis by axis on a square 2D grid."""
    f = np.asarray(values, dtype=float)
    out = _second_derivative_axis(f, grid.delta)
    if grid.dim == 2:
        out += _second_derivative_axis(f, grid.delta, axis=1)
    return out


def gradient(values, grid):
    """Tuple of 4th-order first derivatives, one per axis."""
    f = np.asarray(values, dtype=float)
    return tuple(_first_derivative_axis(f, grid.delta, axis=a)
                 for a in range(grid.dim))


def rhs(re, im, grid):
    """Time derivatives (d psi_R/dt, d psi_I/dt) of the split system."""
    return -0.5 * laplacian(im, grid), 0.5 * laplacian(re, grid)


def _rk4_arrays(re, im, grid, dt):
    """One RK4 step, as its Taylor polynomial in Horner form."""
    ur, ui = re, im
    for c in (1.0 / 4.0, 1.0 / 3.0, 1.0 / 2.0, 1.0):
        kr, ki = rhs(ur, ui, grid)
        ur, ui = re + (c * dt) * kr, im + (c * dt) * ki
    return ur, ui


def _step_matrices(grid, dt, block=32):
    """Real and imaginary parts (P, Q) of the 1D one-step matrix.

    The columns are the RK4 step of the identity columns, built a block
    at a time to keep the temporaries small; each column is independent,
    so the result does not depend on the block size.
    """
    n = grid.n
    p, q = np.empty((n, n)), np.empty((n, n))
    for j in range(0, n, block):
        cols = np.eye(n, min(block, n - j), -j)
        p[:, j:j + block], q[:, j:j + block] = _rk4_arrays(
            cols, np.zeros_like(cols), grid, dt)
    return p, q


def iterate(field, dt, n_steps):
    """Yield (t, field) after each of n_steps RK4 steps from t=0 (lazy)."""
    grid = field.grid
    re, im = field.re, field.im
    if grid.dim == 1:
        p, q = _step_matrices(grid, dt)
    for k in range(n_steps):
        if grid.dim == 1:
            re, im = p @ re - q @ im, q @ re + p @ im
        else:
            re, im = _rk4_arrays(re, im, grid, dt)
        yield (k + 1) * dt, ComplexField(grid=grid, re=re, im=im)


#: Largest |norm(t) - norm(0)| of a Valid run; more means the time step is
#: too large for the grid.
NORM_TOLERANCE = 1e-6
