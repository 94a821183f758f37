"""Direct Schrodinger integration via the real/imaginary split.

    d(psi_R)/dt = -(1/2) lap psi_I
    d(psi_I)/dt = +(1/2) lap psi_R

in free space (no external potential).

Spatial derivatives use 4th-order stencils: the 5-point central formula in
the interior and 6-point one-sided / skewed formulas at the two outermost
points per side. No boundary condition is imposed, so the grid must be
wide enough that the field stays small at the edges: on the bundled
one-particle grid [-13, 13], |psi(+-13)| is 7.0e-11 at t = 0.5 but
1.01e-3 at t = 1, 0.19 % of the peak |psi|. Time stepping is classic
RK4 on the coupled 2N-component system.

The system is linear and time-independent, so one RK4 step is exactly the
degree-4 Taylor polynomial of the propagator, psi <- sum_{k<=4} (dt A)^k
psi / k!. It is evaluated in Horner form (Leforestier et al., J. Comput.
Phys. 94, 59 (1991)): with u = psi, for c = 1/4, 1/3, 1/2, 1 in turn,

    u_R <- psi_R - (c dt / 2) lap u_I
    u_I <- psi_I + (c dt / 2) lap u_R

and the last u is the new psi. One stencil kernel, `_apply`, does all the
differencing, in place: out = base + k L f, where L is the integer
stencil of 12 delta^2 d^2/dy^2 (or 12 delta d/dy) summed over the chosen
axes. For a Horner stage k = -+c dt / (24 delta^2) is folded into the
weights, so the stage writes straight into the next stage's arrays with
no separate Laplacian or right-hand side. `_down` differences one axis
on the flat C-ordered arrays: with s the flat stride of the axis, the
interior is two scaled pair sums, f[i+s] + f[i-s] and f[i+2s] + f[i-2s]
(differences for d/dy), each one contiguous strip, and the edge
stencils, one (2 x 6) matmul per side, write rows 0, 1, -2 and -1;
along axis 1 (s = 1) the strips run over the row ends, and the edge
stencils then write those columns. In 2D, out = A + B, the axis-0 and
axis-1 terms, and the centre term of both axes goes on once. Both axes
take the same operations, so an exchange-symmetric field stays exactly
symmetric. A 2D field of two identical particles has exchange parity s
(f.T == s f exactly; +1 bosons, -1 fermions), which iterate finds once,
from the initial field; each stage then takes B = s A.T, the same bits
without differencing axis 1. `gradient` runs the same kernel with the
first-derivative weights. In 1D the polynomial is applied once to the
identity, and each step is one real matrix pair: psi <- (P + iQ) psi.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import MIN_POINTS, ComplexField
from .errors import GridTooSmall

# No module of the package calls laplacian. It stays for the tests and
# for perfbench/layer_trace.py, which wraps it; --trace 1 fails without it.
__all__ = ["NORM_TOLERANCE", "exchange_parity", "gradient", "iterate",
           "laplacian"]

# Integer stencil weights, as ((centre, +-1, +-2) of the 5-point central
# formula, (the 6-point rows at index 0 and at index 1), parity). The
# rows at -1 and -2 mirror those at 0 and 1, times the parity: +1 for the
# second derivative (common factor 1/(12 delta^2)), -1 for the first
# (common factor 1/(12 delta)).
_SECOND = ((-30.0, 16.0, -1.0),
           ((45.0, -154.0, 214.0, -156.0, 61.0, -10.0),     # one-sided
            (10.0, -15.0, -4.0, 14.0, -6.0, 1.0)),          # skewed
           1.0)
_FIRST = ((0.0, 8.0, -1.0),
          ((-25.0, 48.0, -36.0, 16.0, -3.0, 0.0),
           (-3.0, -10.0, 18.0, -6.0, 1.0, 0.0)),
          -1.0)

#: Horner coefficients of the degree-4 Taylor polynomial, in stage order.
_HORNER = (1.0 / 4.0, 1.0 / 3.0, 1.0 / 2.0, 1.0)


class _Weights(NamedTuple):
    """One stencil with its scale folded in (see _folded)."""

    centre: float       # every point, once for all axes
    near: float         # times f[i+1] +- f[i-1]
    far: float          # times f[i+2] +- f[i-2]
    pair: object        # np.add (even derivative) or np.subtract (odd)
    lo: np.ndarray      # (2, 6): rows 0, 1 from f[:6], less the centre
    hi: np.ndarray      # (2, 6): rows -2, -1 from f[-6:], less the centre


def _folded(stencil, scale, n_axes):
    """_Weights of `stencil` times `scale`, summed over `n_axes` axes."""
    (c0, c1, c2), edge, parity = stencil
    lo = np.array(edge)
    lo[[0, 1], [0, 1]] -= c0    # the centre pass adds c0 there
    lo *= scale
    return _Weights(centre=n_axes * c0 * scale, near=c1 * scale,
                    far=c2 * scale,
                    pair=np.add if parity > 0 else np.subtract,
                    lo=lo, hi=parity * lo[::-1, ::-1])


#: The first derivative, times 12 delta.
_D1 = _folded(_FIRST, 1.0, 1)


def _work_strips(shape, axes):
    """The flat work buffers of _apply along `axes` on arrays of at most
    `shape`, each of their size: one for one axis, two for both axes;
    GridTooSmall if an axis is too short for the stencils."""
    for a in axes:
        if shape[a] < MIN_POINTS:
            raise GridTooSmall(f"stencils need at least {MIN_POINTS} points "
                               f"per axis, got {shape[a]}")
    return tuple(np.empty(math.prod(shape)) for _ in axes)


def _down(w, f, out, far, axis=0):
    """out = (stencil w along `axis`)(f), less the centre term.

    f is a C-contiguous 1D or 2D array and out one of its shape (the flat
    views below are not copies); far is a flat work buffer of at least
    f.size; s is the flat stride of the axis (module docstring)."""
    fl, ol = f.reshape(-1, copy=False), out.reshape(-1, copy=False)
    n = fl.size
    s = 1 if axis else n // len(f)
    near, far = ol[2 * s:n - 2 * s], far[:n - 4 * s]
    w.pair(fl[3 * s:n - s], fl[s:n - 3 * s], out=near)
    near *= w.near
    w.pair(fl[4 * s:], fl[:n - 4 * s], out=far)
    far *= w.far
    near += far
    g, o = (f.T, out.T) if axis else (f, out)
    o[:2] = w.lo @ np.ascontiguousarray(g[:6])
    o[-2:] = w.hi @ np.ascontiguousarray(g[-6:])


def _apply(w, f, axes, out, work, base=None, parity=0):
    """out = base + (stencil w along each of `axes`)(f), in place.

    f is 1D or 2D; out has its shape and shares no memory with f or base;
    both are C-contiguous (a caller passes np.empty_like of a contiguous
    array). axes is (0,), or (0, 1) for a 2D f. base None means no base
    term. work is from _work_strips for these axes and this shape or a
    larger one. For axis 0 alone its term goes straight into out; for
    both axes out = A + B (module docstring), B = s A.T for exchange
    parity s = +-1 (f.T == s f exactly). The centre and base terms go on
    last, so a symmetric 2D f gives a symmetric out.
    """
    n = f.size
    if len(axes) == 1:
        _down(w, f, out, work[0])
    else:
        a = work[1][:n].reshape(f.shape)
        _down(w, f, a, work[0])
        if parity:
            (np.subtract if parity < 0 else np.add)(a, a.T, out=out)
        else:
            _down(w, f, out, work[0], 1)
            out += a
    if w.centre:
        out += np.multiply(f, w.centre, out=work[0][:n].reshape(f.shape))
    if base is not None:
        out += base


def laplacian(values, grid):
    """4th-order Laplacian, axis by axis."""
    f = np.ascontiguousarray(values, dtype=float)
    axes = tuple(range(grid.dim))
    out = np.empty_like(f)
    _apply(_folded(_SECOND, 1.0 / (12.0 * grid.delta ** 2), grid.dim), f,
           axes, out, _work_strips(f.shape, axes))
    return out


def gradient(values, grid, axes=None):
    """Tuple of 4th-order first derivatives, one per axis of `axes`
    (default: every axis), each C-contiguous."""
    f = np.ascontiguousarray(values, dtype=float)
    out = []
    for a in range(grid.dim) if axes is None else axes:
        d = np.empty_like(f)
        # one work buffer per axis: freeing two at once made a 261^2 run
        # fault 4x the pages (most likely glibc trimming its heap)
        _down(_D1, f, d, _work_strips(f.shape, (a,))[0], a)
        d /= 12.0 * grid.delta
        out.append(d)
    return tuple(out)


class _Rk4:
    """RK4 steps of the split system on arrays of at most `shape`, with
    the stencils along `axes`; the work buffers serve every step. parity
    is that of the fields stepped (see _apply)."""

    def __init__(self, shape, axes, delta, dt, parity=0):
        self.axes = axes
        self.parity = parity
        h = [0.5 * c * dt / (12.0 * delta ** 2) for c in _HORNER]
        self.stages = [(_folded(_SECOND, -k, len(axes)),
                        _folded(_SECOND, k, len(axes))) for k in h]
        self.work = _work_strips(shape, axes)

    def step(self, re, im):
        """(re, im) one step on, as new arrays."""
        ur, ui = re, im
        for wr, wi in self.stages:
            nr, ni = np.empty_like(re), np.empty_like(im)
            _apply(wr, ui, self.axes, nr, self.work, re, self.parity)
            _apply(wi, ur, self.axes, ni, self.work, im, self.parity)
            ur, ui = nr, ni
        return ur, ui


def _step_matrices(grid, dt, block=32):
    """Real and imaginary parts (P, Q) of the 1D one-step matrix.

    The columns are the RK4 step of the identity columns, built a block
    at a time to keep the temporaries small; each column is independent,
    so the result does not depend on the block size.
    """
    n = grid.n
    p, q = np.empty((n, n)), np.empty((n, n))
    rk4 = _Rk4((n, min(block, n)), (0,), grid.delta, dt)
    for j in range(0, n, block):
        cols = np.eye(n, min(block, n - j), -j)
        p[:, j:j + block], q[:, j:j + block] = rk4.step(
            cols, np.zeros_like(cols))
    return p, q


def exchange_parity(field):
    """s = +1 or -1 if the 2D field has re.T == s re and im.T == s im
    exactly (+0 equal to -0, for an antisymmetric diagonal), else 0;
    0 in 1D. Each RK4 step keeps it."""
    if field.grid.dim != 2:
        return 0
    for s in (1, -1):
        if all(np.array_equal(a.T, a if s > 0 else -a)
               for a in (field.re, field.im)):
            return s
    return 0


def iterate(field, dt, n_steps):
    """Yield (t, field) after each of n_steps RK4 steps from t=0 (lazy).

    Each yielded field owns new arrays. The exchange parity of the
    initial field is found once, and each stage uses it (_apply)."""
    grid = field.grid
    # the 2D stencil kernel needs C-contiguous arrays (see _apply)
    re, im = np.ascontiguousarray(field.re), np.ascontiguousarray(field.im)
    if grid.dim == 1:
        p, q = _step_matrices(grid, dt)
    else:
        rk4 = _Rk4(grid.shape, (0, 1), grid.delta, dt,
                   exchange_parity(field))
    for k in range(n_steps):
        if grid.dim == 1:
            re, im = p @ re - q @ im, q @ re + p @ im
        else:
            re, im = rk4.step(re, im)
        yield (k + 1) * dt, ComplexField(grid=grid, re=re, im=im)


#: Largest |norm(t) - norm(0)| of a Valid run; more means the time step is
#: too large for the grid.
NORM_TOLERANCE = 1e-6
