"""Moving weighted least squares fits and derivative jets."""

import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitsim import mwls
from slitsim.cli import scenario_path
from slitsim.config import load_config
from slitsim.core import MwlsConfig
from slitsim.errors import IllConditioned, TooFewPoints


def test_monomial_ordering():
    # basis row p is the p-th power of the scaled offset times the first
    # row
    basis = mwls._monomial_basis(np.array([[2.0, -0.5]]), 3,
                                 np.array([[1.0, 4.0]]))
    assert np.array_equal(basis, [[[1.0, 4.0]], [[2.0, -2.0]],
                                  [[4.0, 1.0]], [[8.0, -0.5]]])


def test_select_neighbors_stable_ties():
    # -1 and 1 are equidistant from the target: the lower index wins
    for pts, want in (([0.0, 1.0, -1.0, 2.0], [0, 1]),
                      ([0.0, -1.0, 1.0, 2.0], [1, 0])):
        idx = mwls._nearest(np.array(pts), np.array([0.0]), 2)
        assert list(idx[0]) == want


def test_points_and_targets_must_be_1d():
    cfg = MwlsConfig(n_neighbors=4, poly_order=2)
    y = np.linspace(-1.0, 1.0, 9)
    for points, targets in ((y[:, None], None), (y, [[0.0]]), (y, 0.0)):
        with pytest.raises(ValueError, match="1D coordinate arrays"):
            mwls.JetOperator(points, cfg, targets=targets)


def _dense_neighbors(pts, tgt, nb):
    """Reference search: full distance rows, stable argsort."""
    dist = np.abs(tgt[:, None] - pts[None, :])
    return np.argsort(dist, axis=1, kind="stable")[:, :nb]


@st.composite
def _lattice_sets(draw):
    """1D points on a small lattice, so that ties and duplicates are
    common (or distinct, to compare index sets); targets are the points
    themselves or a half-step lattice set."""
    scale = draw(st.sampled_from([1.0, 0.1, 0.25]))
    ints = draw(st.lists(st.integers(-8, 8), min_size=3, max_size=40,
                         unique=draw(st.booleans())))
    if draw(st.booleans()):
        ints = sorted(ints)
    pts = np.array(ints, dtype=float) * scale
    targets = None
    if draw(st.booleans()):
        half = draw(st.lists(st.integers(-18, 18), min_size=1, max_size=8))
        targets = np.array(half, dtype=float) * (scale / 2)
    nb = draw(st.integers(3, len(ints)))
    return pts, targets, nb


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lattice_sets())
def test_windowed_neighbors_equal_the_dense_search(case):
    # the picks are the k nearest: their sorted distances are the dense
    # k smallest, and with distinct coordinates (ties broken by index,
    # as in the stable argsort) the same index sets
    pts, targets, nb = case
    tgt = pts if targets is None else targets
    cfg = MwlsConfig(n_neighbors=nb, poly_order=2)
    try:
        idx = mwls.JetOperator(pts, cfg, targets=targets).neighbor_idx
    except IllConditioned:
        # too few distinct coordinates among the picks to fit: check the
        # search the operator runs on its own
        idx = mwls._nearest(pts, tgt, nb)
    dense = _dense_neighbors(pts, tgt, nb)

    def distances(i):
        return np.sort(np.abs(pts[i] - tgt[:, None]), axis=1)

    assert np.array_equal(distances(idx), distances(dense))
    if len(np.unique(pts)) == len(pts):
        assert np.array_equal(np.sort(idx, axis=1), np.sort(dense, axis=1))


def test_duplicate_block_across_the_window_edge():
    # Six copies of -1 and of +1 tie at distance 1 from the target. The
    # window slides right past copies 2 and 3 of -1 (farther than 0 and
    # 0.5), then its left end, copy 4, ties with the first +1, index 8,
    # and the lower index stays: the window keeps the copies of -1
    # nearest in sorted order, where the dense search takes the lowest
    # indices, 0 and 1. Both picks have the same distances.
    pts = np.array([-1.0] * 6 + [0.0, 0.5] + [1.0] * 6)
    op = mwls.JetOperator(pts, MwlsConfig(n_neighbors=4, poly_order=2),
                          targets=[0.0])
    assert list(op.neighbor_idx[0]) == [4, 5, 6, 7]
    assert list(_dense_neighbors(pts, np.array([0.0]), 4)[0]) == [6, 7, 0, 1]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3, 5]))
def test_jets_follow_a_permutation_of_the_points(seed, order):
    # a Lagrangian run whose points crossed hands the next build an
    # unsorted point set: the jets must not depend on the point order
    rng = np.random.default_rng(seed)
    y = np.sort(rng.uniform(-2.0, 2.0, 60))
    f = np.sin(3.0 * y) + 0.1 * y ** 2
    p = rng.permutation(len(y))
    cfg = MwlsConfig(n_neighbors=12, poly_order=order)
    want = mwls.JetOperator(y, cfg).apply(f)
    got = mwls.JetOperator(y[p], cfg).apply(f[p])
    for g, w in zip(got, want):
        assert np.abs(g - w[p]).max() <= 1e-13 * np.abs(w).max()


def test_build_memory_is_linear_in_points():
    # a dense search would hold an 801 x 801 distance matrix (19.6 MiB
    # peak for this build); the windowed one peaks at 1.2 MiB
    y = np.linspace(-4.0, 4.0, 801)
    cfg = MwlsConfig(n_neighbors=12, poly_order=5)
    tracemalloc.start()
    try:
        mwls.JetOperator(y, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


@st.composite
def _polynomial_clouds(draw):
    """Jittered 1D lattice points, off-sample interior targets and the
    coefficients of a random polynomial of degree `order`."""
    order = draw(st.integers(2, 5))
    jitter = draw(st.floats(0.0, 0.45))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    axis = np.linspace(-1.0, 1.0, 4 * (order + 1))
    pts = axis + rng.uniform(-jitter, jitter, axis.shape) * (axis[1] - axis[0])
    targets = rng.uniform(-0.5, 0.5, 5)
    coeff = rng.uniform(-1.0, 1.0, order + 1)
    cfg = MwlsConfig(n_neighbors=2 * (order + 1), poly_order=order)
    return pts, targets, coeff, cfg


def _polynomial_jets(coeff, y):
    """Value, first and second derivative of sum c[i] y^i at y."""
    poly = np.polynomial.polynomial
    return tuple(poly.polyval(y, poly.polyder(coeff, d)) for d in range(3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polynomial_clouds())
def test_jets_reproduce_polynomials_of_the_fit_order(case):
    # a fit of degree `order` is exact on such a polynomial
    pts, targets, coeff, cfg = case
    op = mwls.JetOperator(pts, cfg, targets=targets)
    got = op.apply(_polynomial_jets(coeff, pts)[0])
    for g, want in zip(got, _polynomial_jets(coeff, targets)):
        assert np.abs(g - want).max() <= 1e-8 * np.abs(want).max()


def test_gaussian_weight_ratio():
    # inverse weights sigma_n = exp(+d^2 / (2 w^2)), d^2 = 0 and 3
    sigma = mwls._neighbor_sigma(np.array([[0.0, 3.0]]), 1.0)
    assert sigma[0, 1] / sigma[0, 0] == pytest.approx(np.exp(1.5),
                                                      rel=1e-12)


def test_linear_recovery():
    y = np.linspace(-1.0, 1.0, 15)
    vals = 3.0 + 2.0 * y
    cfg = MwlsConfig(n_neighbors=8, poly_order=2)
    (value,), (grad,), (lap,) = mwls.JetOperator(
        y, cfg, targets=[0.2]).apply(vals)
    assert value == pytest.approx(3.4, rel=1e-12)
    assert grad == pytest.approx(2.0, rel=1e-12)
    assert lap == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_polynomial_exactness_1d(order):
    rng = np.random.default_rng(order)
    coeff = rng.uniform(-1.0, 1.0, size=order + 1)
    y = np.linspace(-1.0, 1.0, 41)
    vals = np.polynomial.polynomial.polyval(y, coeff)
    cfg = MwlsConfig(n_neighbors=2 * (order + 1), poly_order=order)
    (value,), (grad,), (lap,) = mwls.JetOperator(
        y, cfg, targets=[0.3]).apply(vals)
    d = np.polynomial.polynomial.polyder(coeff)
    d2 = np.polynomial.polynomial.polyder(coeff, 2)
    assert value == pytest.approx(
        np.polynomial.polynomial.polyval(0.3, coeff), abs=1e-10)
    assert grad == pytest.approx(
        np.polynomial.polynomial.polyval(0.3, d), abs=1e-10)
    assert lap == pytest.approx(
        np.polynomial.polynomial.polyval(0.3, d2), abs=1e-9)


def test_translation_covariance():
    rng = np.random.default_rng(9)
    y = np.sort(rng.uniform(-1.0, 1.0, 30))
    vals = np.sin(2.0 * y)
    cfg = MwlsConfig(n_neighbors=12, poly_order=4)
    v0, g0, l0 = mwls.JetOperator(y, cfg, targets=[0.1]).apply(vals)
    shift = 17.25
    v1, g1, l1 = mwls.JetOperator(y + shift, cfg,
                                  targets=[0.1 + shift]).apply(vals)
    assert v1[0] == pytest.approx(v0[0], rel=1e-9)
    assert g1[0] == pytest.approx(g0[0], rel=1e-9)
    assert l1[0] == pytest.approx(l0[0], rel=1e-7)


def test_exponential_accuracy():
    # order-5 fit of e^y on a fine grid: laplacian equals the value
    y = np.linspace(-0.5, 0.5, 101)
    vals = np.exp(y)
    cfg = MwlsConfig(n_neighbors=12, poly_order=5)
    (value,), (grad,), (lap,) = mwls.JetOperator(
        y, cfg, targets=[0.0]).apply(vals)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert grad == pytest.approx(1.0, abs=1e-10)
    assert lap == pytest.approx(1.0, abs=1e-8)


def test_determinism():
    rng = np.random.default_rng(2)
    y = np.sort(rng.uniform(-2.0, 2.0, 50))
    vals = np.cos(y)
    cfg = MwlsConfig(n_neighbors=12, poly_order=5)
    op1 = mwls.JetOperator(y, cfg)
    op2 = mwls.JetOperator(y, cfg)
    v1, g1, l1 = op1.apply(vals)
    v2, g2, l2 = op2.apply(vals)
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)
    assert np.array_equal(l1, l2)


def test_operator_matches_pointwise_fit():
    rng = np.random.default_rng(4)
    y = np.sort(rng.uniform(-2.0, 2.0, 40))
    vals = np.tanh(y)
    cfg = MwlsConfig(n_neighbors=12, poly_order=4)
    op = mwls.JetOperator(y, cfg)
    v, g, l = op.apply(vals)
    for i in (0, 13, 39):
        (value,), (grad,), (lap,) = mwls.JetOperator(
            y, cfg, targets=y[i:i + 1]).apply(vals)
        assert v[i] == pytest.approx(value, rel=1e-10, abs=1e-12)
        assert g[i] == pytest.approx(grad, rel=1e-8, abs=1e-10)
        assert l[i] == pytest.approx(lap, rel=1e-7, abs=1e-8)


def test_derivative_rows_annihilate_constants():
    # the d/dy row of each target sums to zero in exact arithmetic; on
    # the fig3 geometry the build leaves 2.8e-14 of the row's absolute
    # sum (an explicit inverse of G leaves 1.8e-13)
    d1 = mwls.JetOperator(*_fig3_points())._rows[1]        # (nb, nt)
    assert np.max(np.abs(d1.sum(axis=0)) / np.abs(d1).sum(axis=0)) <= 5e-14


def test_fixed_width_matches_a_weighted_lstsq_fit():
    # residual k weighted by exp(-d_k^2 / (2 w^2)), unscaled power basis
    y = np.linspace(-2.0, 2.0, 41)
    vals = np.sin(2.0 * y) + 0.3 * y ** 2
    width = 0.3
    cfg = MwlsConfig(n_neighbors=10, poly_order=3, weight_width=width)
    targets = np.array([-2.0, -0.37, 0.0, 1.234, 2.0])
    op = mwls.JetOperator(y, cfg, targets=targets)
    got = np.array(op.apply(vals))
    for n, t in enumerate(targets):
        d = y[op.neighbor_idx[n]] - t
        w = np.exp(-d ** 2 / (2.0 * width ** 2))
        basis = d[:, None] ** np.arange(4.0)
        coef = np.linalg.lstsq(basis * w[:, None],
                               vals[op.neighbor_idx[n]] * w, rcond=None)[0]
        want = np.array([coef[0], coef[1], 2.0 * coef[2]])
        assert np.allclose(got[:, n], want, rtol=1e-9, atol=1e-11)


def test_too_few_points():
    y = np.linspace(0.0, 1.0, 5)
    cfg = MwlsConfig(n_neighbors=12, poly_order=2)
    with pytest.raises(TooFewPoints):
        mwls.JetOperator(y, cfg, targets=[0.5])


def test_ill_conditioned_geometry():
    # all neighbors at the same coordinate: singular normal equations
    y = np.zeros(12)
    cfg = MwlsConfig(n_neighbors=12, poly_order=3, weight_width=1.0)
    with pytest.raises(IllConditioned):
        mwls.JetOperator(y, cfg, targets=[0.0])


def _two_clusters(width):
    """Seven points within `width` of -1 and seven of +1: as the width
    shrinks, a quadratic fit sees two coordinates only."""
    u = np.linspace(-0.5, 0.5, 7)
    return np.concatenate([-1.0 + width * u, 1.0 + width * u])


def test_ill_conditioned_message_carries_the_estimate():
    # tight clusters: a finite estimate (near 9e12) above the limit
    cfg = MwlsConfig(n_neighbors=14, poly_order=2)
    with pytest.raises(IllConditioned) as e:
        mwls.JetOperator(_two_clusters(1e-6), cfg, targets=[0.0])
    estimate = float(re.search(r"estimate (\S+) exceeds", str(e.value))[1])
    assert mwls.CONDITION_LIMIT < estimate < np.inf


def test_condition_estimate_reported():
    y = np.linspace(-1.0, 1.0, 20)
    cfg = MwlsConfig(n_neighbors=10, poly_order=3)
    (cond,) = mwls.JetOperator(y, cfg, targets=[0.0]).condition_estimates
    assert 1.0 <= cond < mwls.CONDITION_LIMIT


def _spy_normal_systems(monkeypatch):
    """Record (gram, rhs, sigma) of every normal-equation solve, targets
    last: (m, m, nt), (m, nb, nt) and (nb, nt)."""
    calls = []
    solve = mwls._solve_normal

    def spy(gram, rhs, sigma):
        calls.append((gram.copy(), rhs.copy(), sigma.copy()))
        return solve(gram, rhs, sigma)

    monkeypatch.setattr(mwls, "_solve_normal", spy)
    return calls


def _eigvalsh_ratio(gram):
    """The exact condition check: lambda_max / lambda_min from eigvalsh,
    for a stack gram (m, m, nt)."""
    evals = np.linalg.eigvalsh(gram.transpose(2, 0, 1))
    with np.errstate(divide="ignore"):
        return np.where(evals[:, 0] > 0,
                        evals[:, -1] / np.maximum(evals[:, 0], 1e-300),
                        np.inf)


def _fig3_points():
    return np.linspace(-4.0, 4.0, 801), MwlsConfig(n_neighbors=12,
                                                    poly_order=5)


def _jittered_1d_points():
    rng = np.random.default_rng(11)
    axis = np.linspace(-1.0, 1.0, 300)
    pts = axis + rng.uniform(-0.45, 0.45, 300) * (axis[1] - axis[0])
    return pts, MwlsConfig(n_neighbors=20, poly_order=3)


@pytest.mark.parametrize("case", [_fig3_points, _jittered_1d_points])
def test_cholesky_solve_matches_lapack_solve(case, monkeypatch):
    calls = _spy_normal_systems(monkeypatch)
    mwls.JetOperator(*case())
    ((gram, rhs, sigma),) = calls
    want = np.linalg.solve(gram.transpose(2, 0, 1), rhs.transpose(2, 0, 1))
    got, _ = mwls._solve_normal(gram, rhs, sigma)
    err = np.abs(got.transpose(2, 0, 1) - want).max(axis=(1, 2))
    assert np.all(err <= 1e-9 * np.abs(want).max(axis=(1, 2)))


@pytest.mark.parametrize("case", [_fig3_points, _jittered_1d_points])
def test_condition_estimate_bounds_the_exact_ratio(case, monkeypatch):
    # cond <= tr(G) tr(G^-1) <= m^2 cond, up to rounding in both sides
    calls = _spy_normal_systems(monkeypatch)
    pts, cfg = case()
    op = mwls.JetOperator(pts, cfg)
    exact = _eigvalsh_ratio(calls[0][0])
    m = cfg.poly_order + 1
    est = op.condition_estimates
    assert np.all(exact <= est * (1 + 1e-6))
    assert np.all(est <= m ** 2 * exact * (1 + 1e-6))


def test_ill_conditioned_decisions_follow_the_bound(monkeypatch):
    # two clusters whose exact condition (near 0.9 / width^2) crosses
    # the limit, with a fine sweep where the bound and the exact ratio
    # straddle it: the bound decides, so every point whose exact ratio
    # exceeds the limit is rejected, and so are some below it
    targets = np.linspace(-0.5, 0.5, 5)
    cfg = MwlsConfig(n_neighbors=14, poly_order=2)
    calls = _spy_normal_systems(monkeypatch)
    outcomes = set()
    for width in np.concatenate([np.geomspace(1e-1, 1e-7, 25),
                                 np.geomspace(4e-6, 2.5e-6, 12)]):
        try:
            mwls.JetOperator(_two_clusters(width), cfg, targets=targets)
            message = None
        except IllConditioned as e:
            message = str(e)
        gram, rhs, sigma = calls[-1]
        _, est = mwls._solve_normal(gram, rhs, sigma)
        exact = _eigvalsh_ratio(gram)
        assert np.all(exact <= est * (1 + 1e-6))
        over = est > mwls.CONDITION_LIMIT
        if over.any():
            assert message == (
                f"normal-equation condition estimate {est.max():.3e} "
                f"exceeds {mwls.CONDITION_LIMIT:.1e} at "
                f"{int(over.sum())} point(s)")
            outcomes.add("raised" if np.any(exact > mwls.CONDITION_LIMIT)
                         else "raised below the exact limit")
        else:
            assert message is None
            assert np.all(exact <= mwls.CONDITION_LIMIT)
            outcomes.add("passed")
    assert outcomes == {"raised", "passed", "raised below the exact limit"}


def test_singular_gram_fails_cholesky_and_is_ill_conditioned(monkeypatch):
    # coincident points: rank-one normal matrix, no Cholesky factor
    calls = _spy_normal_systems(monkeypatch)
    with pytest.raises(IllConditioned, match="estimate inf"):
        mwls.JetOperator(np.zeros(12), MwlsConfig(n_neighbors=12,
                                                  poly_order=3),
                         targets=[0.0])
    ((gram, _, _),) = calls
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram.transpose(2, 0, 1))
    _, failed = mwls._cholesky(gram)
    assert failed.tolist() == [True]
    # beside a failed target, a sound one keeps the bits of its own factor
    b = np.random.default_rng(5).standard_normal((4, 7))
    sound = (b @ b.T)[:, :, None]
    low, failed = mwls._cholesky(np.concatenate([gram, sound], axis=2))
    assert failed.tolist() == [True, False]
    assert np.array_equal(np.tril(low[:, :, 1]),
                          np.tril(mwls._cholesky(sound)[0][:, :, 0]))


@pytest.mark.parametrize("name", ["fig3_hydro_velocity",
                                  "single_packet_control",
                                  "fig2_quantum_potential"])
def test_bundled_estimates_stay_below_the_decision_band(name):
    # the bound can reject a point whose exact ratio lies in
    # (CONDITION_LIMIT / m^2, CONDITION_LIMIT]; each bundled t = 0
    # operator's bound stays below that band, so no bundled run meets it
    spec = load_config(scenario_path(name))
    cfg = spec.config
    for order in spec.qp_orders or (cfg.mwls.poly_order,):
        op = mwls.JetOperator(cfg.grid.axis(),
                              replace(cfg.mwls, poly_order=order))
        m = order + 1
        assert op.condition_estimates.max() < mwls.CONDITION_LIMIT / m ** 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_point_is_ill_conditioned(bad):
    # the decision comes from the normal matrix, with no numpy warning on
    # the way (inf - inf and inf / inf in the neighbour geometry)
    y = np.linspace(-4.0, 4.0, 101)
    y[40] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditioned) as info:
            mwls.JetOperator(y, MwlsConfig(n_neighbors=12, poly_order=5))
    assert str(info.value) == ("normal-equation condition estimate inf "
                               "exceeds 1.0e+12 at 1 point(s)")
