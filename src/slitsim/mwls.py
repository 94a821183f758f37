"""Moving weighted least squares derivative estimation on 1D point sets.

Each local fit expands the sampled function in powers of (y - y0) up to
the polynomial order, weights the residual at each neighbor by 1/sigma_n
with Gaussian sigma_n, and solves the normal equation A^T A a = A^T b.
The coefficients a_0, a_1 and 2 a_2 are then the fitted value, first and
second derivative.

The neighbors of each target are its n_neighbors nearest points. They
are a window of consecutive points in stable-sorted order, found by
sliding the window from nb points left of the target's sorted position,
O(N * k) for N targets and k neighbors, with no distance matrix. At
equal distance the lower original index wins at the window edge; in a
block of equal coordinates that straddles the edge, the copies nearest
in sorted order are taken.

Internally the offsets are rescaled by the mean neighbor distance before
assembling the basis; this is an exact reparametrization of the same
least-squares problem (coefficients are scaled back) that keeps the normal
matrix well-conditioned at high polynomial order. The conditioning
estimate is taken on the scaled system.

The whole build runs in one layout with the targets last: the
neighbor indices (nb, nt), the weighted basis a[p] = s^p / sigma
(m, nb, nt) for m basis polynomials and scaled offsets s, and the normal
matrix G (m, m, nt), so that each update over all targets at once is one
contiguous row. G is symmetric positive definite, and one Cholesky
factor G = L L^T, computed column by column in numpy over all targets,
serves both the solve (forward and back substitution of a / sigma in
place, one row per update) and the condition estimate, the bound
tr(G) tr(G^-1) with cond2(G) <= tr(G) tr(G^-1) <= m^2 cond2(G);
tr(G^-1) is the squared Frobenius norm of the solution with each
neighbor column multiplied back by its sigma. The estimate is inf at a
point whose normal matrix has a non-finite entry or whose factor meets
a pivot that is not positive; that point is factored as the identity,
so the other points keep their bits. IllConditioned is raised when any
estimate exceeds CONDITION_LIMIT. The bound is at least the exact ratio
lambda_max / lambda_min, so every point whose exact ratio exceeds the
limit is rejected; a point whose exact ratio lies in
(CONDITION_LIMIT / m^2, CONDITION_LIMIT] may be rejected as well.
_solve_normal(gram, rhs, sigma) is the seam between the geometry and
this linear algebra. See Higham, Accuracy and Stability of Numerical
Algorithms, ch. 10, for the Cholesky factorization and its stability.
"""

import numpy as np

from .errors import IllConditioned, TooFewPoints

CONDITION_LIMIT = 1e12


def _monomial_basis(scaled, order, first):
    """basis[p] = first * scaled ** p for p = 0..order, powers first,
    filled by repeated products."""
    basis = np.empty((order + 1,) + np.shape(scaled))
    basis[0] = first
    for p in range(1, order + 1):
        np.multiply(basis[p - 1], scaled, out=basis[p])
    return basis


def _neighbor_sigma(d2, width):
    """Per-neighbor standard errors sigma_n = exp(|r_n - r0|^2 / (2 width^2)).

    d2 holds squared distances, one column per target; width is a number
    or one value per target. Larger sigma means smaller weight, so closer
    points dominate the fit.
    """
    return np.exp(d2 / (2.0 * width ** 2))


def _nearest(pts, tgt, nb):
    """Indices of the nb nearest points of each target, in sorted order.

    Along the stable-sorted points the distance to a target falls, then
    rises, so its nb nearest points are nb consecutive ones. The window
    starts nb points left of the target's searchsorted position, clipped
    to the array, and moves right past each left end that is farther from
    the target than the point just past its right end; at equal distance
    the lower original index wins. It reaches the target's position after
    at most nb moves.
    """
    n = len(pts)
    order = np.argsort(pts, kind="stable")
    xs = pts[order]
    start = np.clip(np.searchsorted(xs, tgt) - nb, 0, n - nb)
    for _ in range(nb):
        # the point just past the window's right end; clipped, and never
        # moved to, where the window already ends the array
        past = np.minimum(start + nb, n - 1)
        left = tgt - xs[start]
        right = xs[past] - tgt
        move = (start + nb < n) & (
            (left > right) | ((left == right) & (order[start] > order[past])))
        if not move.any():
            break
        start += move
    return order[start[:, None] + np.arange(nb)]


def _cholesky(gram):
    """Lower Cholesky factor L of each matrix in gram (m, m, nt), targets
    last, computed column by column over all targets at once; only the
    lower triangle of L is written. Returns (L, failed): failed (nt,)
    marks the targets where a pivot is not positive. From its first such
    pivot on, a failed target is factored as the identity.
    """
    low = np.empty_like(gram)
    failed = np.zeros(gram.shape[-1], dtype=bool)
    for j in range(len(gram)):
        col = gram[j:, j] - np.einsum("ikn,kn->in", low[j:, :j], low[j, :j])
        failed |= ~(col[0] > 0)
        if failed.any():
            col[:, failed] = 0.0
            col[0, failed] = 1.0
        low[j, j] = np.sqrt(col[0])
        low[j + 1:, j] = col[1:] / low[j, j]
    return low, failed


def _substitute(low, x):
    """Overwrite x (m, k, nt) with (L L^T)^-1 x: forward, then back
    substitution, one row of x per update."""
    m = len(low)
    for i in range(m):
        x[i] -= np.einsum("jn,jkn->kn", low[i, :i], x[:i])
        x[i] /= low[i, i]
    for i in range(m - 1, -1, -1):
        x[i] -= np.einsum("jn,jkn->kn", low[i + 1:, i], x[i + 1:])
        x[i] /= low[i, i]
    return x


def _solve_normal(gram, rhs, sigma):
    """Solve map gram^-1 rhs (m, nb, nt) and condition estimates (nt,).

    gram (m, m, nt) is A_w^T A_w and rhs (m, nb, nt) is A_w^T / sigma,
    targets last, with A_w^T the weighted basis (m, nb, nt); rhs is
    overwritten by the solve map. G^-1 = (solve_map sigma)(solve_map
    sigma)^T, so tr(G^-1) is the squared Frobenius norm of solve_map
    sigma. The estimate is the bound tr(G) tr(G^-1), or inf at targets
    whose gram has a non-finite entry or whose factor fails. At a
    target whose gram has a non-finite entry, gram, rhs and sigma are
    overwritten with the identity, zeros and ones, so no NaN or inf
    enters the arithmetic.
    """
    bad = ~np.isfinite(gram).all(axis=(0, 1))
    gram[:, :, bad] = np.eye(len(gram))[:, :, None]
    rhs[:, :, bad] = 0.0
    sigma[:, bad] = 1.0
    low, failed = _cholesky(gram)
    solve_map = _substitute(low, rhs)
    inv_trace = np.einsum("pkn,pkn,kn->n", solve_map, solve_map, sigma ** 2)
    cond = np.trace(gram) * inv_trace
    cond[bad | failed] = np.inf
    return solve_map, cond


class JetOperator:
    """Precomputed per-point linear maps from sample values to jets.

    For a fixed point geometry the normal-equation solve is a linear map;
    assembling it once lets many functions (g, v, Q) be differentiated on
    the same points cheaply, and lets a fixed-grid solver reuse the
    factorization across time steps. Jets at different points are
    independent: the whole construction is batched. points and targets
    are 1D coordinate arrays; jets are taken at the targets, by default
    at the points themselves.

    condition_estimates holds, per target, an upper bound on the 2-norm
    condition of the scaled normal matrix G, tr(G) tr(G^-1), which is at
    most m^2 times the exact ratio lambda_max / lambda_min; it is inf
    where G has a non-finite entry or no Cholesky factor. IllConditioned
    is raised when any estimate exceeds CONDITION_LIMIT.
    """

    def __init__(self, points, config, targets=None):
        pts = np.asarray(points, dtype=float)
        tgt = pts if targets is None else np.asarray(targets, dtype=float)
        if pts.ndim != 1 or tgt.ndim != 1:
            raise ValueError(
                f"points and targets must be 1D coordinate arrays, got "
                f"shapes {pts.shape} and {tgt.shape}")
        m = config.poly_order + 1
        nb = config.n_neighbors
        if len(pts) < nb:
            raise TooFewPoints(
                f"requested {nb} neighbors from {len(pts)} points")
        if nb < m:
            raise TooFewPoints(
                f"{nb} neighbors cannot support {m} basis polynomials")

        # an inf coordinate makes inf - inf and inf / inf here; the NaN
        # reaches the normal matrix, and the point set is IllConditioned
        with np.errstate(invalid="ignore"):
            idx_t = np.ascontiguousarray(_nearest(pts, tgt, nb).T)
            offsets = pts[idx_t] - tgt                       # (nb, nt)
            h = np.abs(offsets).mean(axis=0)
            h[h == 0.0] = 1.0
            width = h if config.weight_width == "auto" else config.weight_width
            sigma = _neighbor_sigma(offsets ** 2, width)
            a_mat = _monomial_basis(offsets / h, m - 1, 1.0 / sigma)
            gram = np.einsum("pkn,qkn->pqn", a_mat, a_mat)  # (m, m, nt)

        # solve_map[s, k, n]: scaled coefficient s from neighbor value k
        solve_map, cond = _solve_normal(
            gram, np.divide(a_mat, sigma, out=a_mat), sigma)
        self.condition_estimates = cond
        if np.any(cond > CONDITION_LIMIT):
            raise IllConditioned(
                f"normal-equation condition estimate {cond.max():.3e} exceeds "
                f"{CONDITION_LIMIT:.1e} at "
                f"{int(np.sum(cond > CONDITION_LIMIT))} point(s)")

        self._idx_t = idx_t
        self.neighbor_idx = idx_t.T
        # value a_0, d/dy a_1 / h and d2/dy2 2 a_2 / h^2: the three rows
        # that apply reads
        unscale = h ** -np.arange(3.0)[:, None]
        unscale[2] *= 2.0
        self._rows = solve_map[:3] * unscale[:, None]        # (3, nb, nt)

    def apply(self, values):
        """Jets for one sampled function: (value, d/dy, d2/dy2) at the
        targets, each of shape (n_targets,)."""
        vals = np.asarray(values, dtype=float)[self._idx_t]
        return tuple(np.einsum("skn,kn->sn", self._rows, vals))
