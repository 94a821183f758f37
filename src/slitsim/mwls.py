"""Moving weighted least squares derivative estimation on point sets.

Each local fit expands the sampled function in monomials of (r - r0),
ordered by total degree then lexicographically, weights the residual at
each neighbor by 1/sigma_n with Gaussian sigma_n, and solves the normal
equation A^T A a = A^T b. The coefficient vector then directly yields the
fitted value (degree-0 term), gradient (degree-1 terms), and Laplacian
(twice the pure degree-2 terms).

The neighbors of each target are its n_neighbors nearest points, ties
going to the lower index. In 1D they come from a window of sorted
positions around the target, O(N * k) for N points and k neighbors; in
2D from the dense N x N distance matrix.

Internally the offsets are rescaled by the mean neighbor distance before
assembling the basis; this is an exact reparametrization of the same
least-squares problem (coefficients are scaled back) that keeps the normal
matrix well-conditioned at high polynomial order. The conditioning
estimate is taken on the scaled system.

The normal matrix G is symmetric positive definite, so one batched
Cholesky factor G = L L^T serves both the solve (forward and back
substitution, elementwise over all targets at once) and the condition
check: cond2(G) <= tr(G) tr(G^-1) <= m^2 cond2(G) for m basis
polynomials, and tr(G^-1) is the squared Frobenius norm of the solution
with each neighbor column multiplied back by its sigma. A point whose
bound is at most half of CONDITION_LIMIT is certified below the limit
(the factor 2 covers rounding in the bound); any other point gets the
exact eigenvalue ratio, so the IllConditioned decisions are those of
the exact ratio at every point. JetOperator.condition_estimates holds
the bound, or the exact ratio where one was taken. A point whose normal
matrix has a non-finite entry gets the estimate inf without a call to
LAPACK, so a non-finite point set is IllConditioned. See Higham,
Accuracy and Stability of Numerical Algorithms, ch. 10, for the
Cholesky factorization and its stability.
"""

from functools import lru_cache

import numpy as np

from .errors import IllConditioned, TooFewPoints

CONDITION_LIMIT = 1e12


def _as_points(points):
    """Point array with shape (n, dim); accepts (n,) as 1D."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


@lru_cache(maxsize=None)
def monomial_exponents(dim, order):
    """Exponent tuples up to total degree `order`, by degree then lexicographic
    (descending power of the first coordinate within a degree)."""
    if dim == 1:
        return tuple((d,) for d in range(order + 1))
    out = []
    for d in range(order + 1):
        for i in range(d, -1, -1):
            out.append((i, d - i))
    return tuple(out)


def _monomial_basis(scaled, exponents):
    """basis[n, k, s]: monomial s of the offsets scaled[n, k] (shape
    (n_targets, n_neighbors, dim)), exponents from monomial_exponents.

    Per-axis powers come from one table filled by repeated products,
    powers[d, n, k, p] = scaled[n, k, d] ** p, and each monomial is the
    product of its per-axis powers in axis order.
    """
    exps = np.asarray(exponents)                              # (m, dim)
    order = int(exps.max())
    axes = np.moveaxis(scaled, 2, 0)                          # (dim, n, k)
    powers = np.empty(axes.shape + (order + 1,))
    powers[..., 0] = 1.0
    for p in range(1, order + 1):
        powers[..., p] = powers[..., p - 1] * axes
    basis = powers[0][..., exps[:, 0]]
    for d in range(1, exps.shape[1]):
        basis *= powers[d][..., exps[:, d]]
    return basis


def _neighbor_sigma(d2, width):
    """Per-neighbor standard errors sigma_n = exp(|r_n - r0|^2 / (2 width^2)).

    d2 holds squared distances, one row per target. Larger sigma means
    smaller weight, so closer points dominate the fit. width="auto" uses
    each target's mean neighbor distance.
    """
    if width == "auto":
        width = np.sqrt(d2).mean(axis=1, keepdims=True)
        width[width == 0.0] = 1.0
    else:
        width = float(width)
    return np.exp(d2 / (2.0 * np.asarray(width) ** 2))


def _dense_nearest(pts, tgt, nb):
    """Indices of the nb nearest points per target, ties to the lower index."""
    dist = np.linalg.norm(tgt[:, None, :] - pts[None, :, :], axis=2)
    return np.argsort(dist, axis=1, kind="stable")[:, :nb]


def _nearest(pts, tgt, nb):
    """_dense_nearest in O(n_targets * nb) for finite 1D points.

    Distances grow monotonically away from a target in sorted order, so
    its nb nearest lie among the nb sorted points on either side of its
    searchsorted position. The candidates are put back in original index
    order and ranked with the same distance formula and stable argsort as
    the dense search, which gives the same picks, ties included, unless a
    point outside the window is no farther than the last pick (a block of
    equal distances crossing the window edge): such targets fall back to
    the dense search.
    """
    n = len(pts)
    if pts.shape[1] != 1 or not (np.isfinite(pts).all()
                                 and np.isfinite(tgt).all()):
        return _dense_nearest(pts, tgt, nb)
    order = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order]
    w = min(2 * nb, n)
    pos = np.searchsorted(xs[:, 0], tgt[:, 0])
    start = np.clip(pos - nb, 0, n - w)
    cand = np.sort(order[start[:, None] + np.arange(w)], axis=1)
    dist = np.linalg.norm(tgt[:, None, :] - pts[cand], axis=2)
    pick = np.argsort(dist, axis=1, kind="stable")[:, :nb]
    idx = np.take_along_axis(cand, pick, axis=1)

    # nearest excluded point on each side; clipped indices are not used
    kth = np.take_along_axis(dist, pick[:, -1:], axis=1)[:, 0]
    left = np.linalg.norm(tgt - xs[np.maximum(start - 1, 0)], axis=1)
    right = np.linalg.norm(tgt - xs[np.minimum(start + w, n - 1)], axis=1)
    tied = (((start > 0) & (left <= kth))
            | ((start + w < n) & (right <= kth)))
    if tied.any():
        idx[tied] = _dense_nearest(pts, tgt[tied], nb)
    return idx


def _condition_ratio(gram):
    """Exact 2-norm condition lambda_max / lambda_min of each symmetric
    matrix in the stack, inf where lambda_min <= 0."""
    evals = np.linalg.eigvalsh(gram)
    with np.errstate(divide="ignore"):
        return np.where(evals[:, 0] > 0,
                        evals[:, -1] / np.maximum(evals[:, 0], 1e-300),
                        np.inf)


def _cholesky_solve(gram, rhs):
    """gram^-1 rhs for a stack of SPD gram (nt, m, m), targets last.

    rhs and the result have shape (m, k, nt). One batched Cholesky factor
    gram = L L^T, then forward and back substitution as elementwise
    updates over all targets at once; in the targets-last layout each
    update is one contiguous x[i] -= L[i, j] * x[j]. Raises LinAlgError
    where a matrix is not positive definite.
    """
    low = np.linalg.cholesky(gram).transpose(1, 2, 0).copy()  # (m, m, nt)
    x = np.array(rhs, order="C")
    m = len(low)
    for i in range(m):
        for j in range(i):
            x[i] -= low[i, j] * x[j]
        x[i] /= low[i, i]
    for i in range(m - 1, -1, -1):
        for j in range(i + 1, m):
            x[i] -= low[j, i] * x[j]
        x[i] /= low[i, i]
    return x


def _solve_normal(gram, rhs, sigma):
    """Solve map gram^-1 rhs as (nt, m, nb) and condition estimates (nt,).

    rhs (m, nb, nt) is A_w^T / sigma, targets last, with A_w the weighted
    basis (nt, nb, m) and gram = A_w^T A_w, so that
    G^-1 = (solve_map sigma)(solve_map sigma)^T and tr(G^-1) is the
    squared Frobenius norm of solve_map sigma. The estimate is the bound
    tr(G) tr(G^-1) where it is at most CONDITION_LIMIT / 2, otherwise the
    exact ratio; inf at points whose gram has a non-finite entry, which
    never reach LAPACK. The solve map is None when any point has a
    non-finite gram or the factorization fails; every estimate is then
    the exact ratio (inf where non-finite).
    """
    cond = np.full(len(gram), np.inf)
    finite = np.isfinite(gram).all(axis=(1, 2))
    solve_map = None
    exact = finite
    if finite.all():
        try:
            x = _cholesky_solve(gram, rhs)
        except np.linalg.LinAlgError:
            pass
        else:
            inv_trace = np.sum((x * sigma.T) ** 2, axis=(0, 1))
            cond = np.trace(gram, axis1=1, axis2=2) * inv_trace
            exact = ~(cond <= CONDITION_LIMIT / 2)
            solve_map = np.ascontiguousarray(x.transpose(2, 0, 1))
    if exact.any():
        cond[exact] = _condition_ratio(gram[exact])
    return solve_map, cond


class JetOperator:
    """Precomputed per-point linear maps from sample values to jets.

    For a fixed point geometry the normal-equation solve is a linear map;
    assembling it once lets many functions (g, v, Q) be differentiated on
    the same points cheaply, and lets a fixed-grid solver reuse the
    factorization across time steps. Jets at different points are
    independent: the whole construction is batched. Jets are taken at
    `targets` (shape (m, dim)), by default at the sample points themselves.

    condition_estimates holds, per target, an upper bound on the 2-norm
    condition of the scaled normal matrix G, tr(G) tr(G^-1), which is at
    most m^2 times the exact ratio lambda_max / lambda_min; where the
    bound exceeds CONDITION_LIMIT / 2 it holds the exact ratio instead.
    """

    def __init__(self, points, config, targets=None):
        pts = _as_points(points)
        n_pts, dim = pts.shape
        tgt = pts if targets is None else _as_points(targets)
        exponents = monomial_exponents(dim, config.poly_order)
        m = len(exponents)
        nb = config.n_neighbors
        if n_pts < nb:
            raise TooFewPoints(
                f"requested {nb} neighbors from {n_pts} points")
        if nb < m:
            raise TooFewPoints(
                f"{nb} neighbors cannot support {m} basis polynomials")

        # an inf coordinate makes inf - inf and inf / inf here; the NaN
        # reaches the normal matrix, and the point set is IllConditioned
        with np.errstate(invalid="ignore"):
            self.neighbor_idx = _nearest(pts, tgt, nb)
            offsets = pts[self.neighbor_idx] - tgt[:, None, :]
            d2 = np.sum(offsets ** 2, axis=2)                # (nt, nb)

            sigma = _neighbor_sigma(d2, config.weight_width)

            h = np.sqrt(d2).mean(axis=1)
            h[h == 0.0] = 1.0
            scaled = offsets / h[:, None, None]
            basis = _monomial_basis(scaled, exponents)       # (nt, nb, m)
            a_mat = basis / sigma[:, :, None]
            gram = np.matmul(np.transpose(a_mat, (0, 2, 1)), a_mat)

        # solve_map[n, s, k]: scaled coefficient s from neighbor value k
        solve_map, cond = _solve_normal(
            gram, (a_mat / sigma[:, :, None]).transpose(2, 1, 0), sigma)
        self.condition_estimates = cond
        if solve_map is None or np.any(cond > CONDITION_LIMIT):
            raise IllConditioned(
                f"normal-equation condition estimate {cond.max():.3e} exceeds "
                f"{CONDITION_LIMIT:.1e} at "
                f"{int(np.sum(cond > CONDITION_LIMIT))} point(s)")

        degrees = np.array([sum(e) for e in exponents], dtype=float)
        unscale = h[:, None] ** -degrees[None, :]
        self._rows = solve_map * unscale[:, :, None]         # (nt, m, nb)
        self._exponents = exponents
        self.dim = dim

    def apply(self, values):
        """Jets for one sampled function: (value, gradient, laplacian) arrays.

        gradient has shape (n_targets, dim).
        """
        vals = np.asarray(values, dtype=float)[self.neighbor_idx]
        coeffs = np.einsum("nsk,nk->ns", self._rows, vals)
        value = coeffs[:, 0]
        grad = np.zeros((len(coeffs), self.dim))
        lap = np.zeros(len(coeffs))
        for s, e in enumerate(self._exponents):
            if sum(e) == 1:
                grad[:, e.index(1)] = coeffs[:, s]
            elif sum(e) == 2 and 2 in e:
                lap += 2.0 * coeffs[:, s]
        return value, grad, lap
