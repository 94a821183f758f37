"""Moving weighted least squares fits and derivative jets."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitsim import mwls
from slitsim.core import MwlsConfig
from slitsim.errors import IllConditioned, TooFewPoints


def test_monomial_ordering():
    assert mwls.monomial_exponents(1, 3) == ((0,), (1,), (2,), (3,))
    assert mwls.monomial_exponents(2, 2) == (
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_select_neighbors_stable_ties():
    pts = np.array([[0.0], [1.0], [-1.0], [2.0]])
    cfg = MwlsConfig(n_neighbors=3, poly_order=2)
    op = mwls.JetOperator(pts, cfg, targets=np.array([[0.0]]))
    # equidistant points break ties by index
    assert list(op.neighbor_idx[0]) == [0, 1, 2]


def _dense_neighbors(pts, tgt, nb):
    """Reference search: full distance rows, stable argsort."""
    dist = np.linalg.norm(tgt[:, None, :] - pts[None, :, :], axis=2)
    return np.argsort(dist, axis=1, kind="stable")[:, :nb]


@st.composite
def _lattice_sets(draw):
    """1D points on a small lattice, so that ties and duplicates are
    common; targets are the points themselves or a half-step lattice set."""
    scale = draw(st.sampled_from([1.0, 0.1, 0.25]))
    ints = draw(st.lists(st.integers(-8, 8), min_size=3, max_size=40))
    if draw(st.booleans()):
        ints = sorted(ints)
    pts = np.array(ints, dtype=float)[:, None] * scale
    targets = None
    if draw(st.booleans()):
        half = draw(st.lists(st.integers(-18, 18), min_size=1, max_size=8))
        targets = np.array(half, dtype=float)[:, None] * (scale / 2)
    nb = draw(st.integers(3, len(ints)))
    return pts, targets, nb


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lattice_sets())
def test_windowed_neighbors_equal_the_dense_search(case):
    pts, targets, nb = case
    tgt = pts if targets is None else targets
    cfg = MwlsConfig(n_neighbors=nb, poly_order=2)
    try:
        idx = mwls.JetOperator(pts, cfg, targets=targets).neighbor_idx
    except IllConditioned:
        # too few distinct coordinates among the picks to fit: check the
        # search the operator runs on its own
        idx = mwls._nearest(pts, tgt, nb)
    assert np.array_equal(idx, _dense_neighbors(pts, tgt, nb))


def test_duplicate_block_across_the_window_edge(monkeypatch):
    # Six copies of -1 and of +1 tie at distance 1 from the target. The
    # sorted window holds only the last four copies of -1, but the dense
    # search takes the lowest indices, 0 and 1: the fallback must run.
    pts = np.array([-1.0] * 6 + [0.0, 0.5] + [1.0] * 6)[:, None]
    tgt = np.array([[0.0]])
    fallback = []
    dense = mwls._dense_nearest
    monkeypatch.setattr(mwls, "_dense_nearest",
                        lambda p, t, nb: fallback.append(len(t))
                        or dense(p, t, nb))
    op = mwls.JetOperator(pts, MwlsConfig(n_neighbors=4, poly_order=2),
                          targets=tgt)
    assert fallback == [1]
    assert list(op.neighbor_idx[0]) == [6, 7, 0, 1]
    assert np.array_equal(op.neighbor_idx, _dense_neighbors(pts, tgt, 4))


def test_build_memory_is_linear_in_points():
    # the dense search alone held an 801 x 801 distance matrix (19.6 MiB
    # peak for this build); the windowed one stays near 3 MiB
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
    """Jittered lattice points (1D, or a 2D cloud), interior targets and
    the coefficients c[i, j] of x^i y^j for a random polynomial of total
    degree `order` (c has one column in 1D)."""
    dim = draw(st.sampled_from([1, 2]))
    order = draw(st.integers(2, 5))
    jitter = draw(st.floats(0.0, 0.45))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if dim == 1:
        axis = np.linspace(-1.0, 1.0, 4 * (order + 1))
        pts = axis[:, None]
        nb = 2 * (order + 1)
        coeff = rng.uniform(-1.0, 1.0, (order + 1, 1))
    else:
        axis = np.linspace(-1.0, 1.0, 12)
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"),
                       axis=-1).reshape(-1, 2)
        nb = (order + 1) * (order + 2)
        i, j = np.indices((order + 1, order + 1))
        coeff = np.where(i + j <= order,
                         rng.uniform(-1.0, 1.0, (order + 1, order + 1)), 0.0)
    pts = pts + rng.uniform(-jitter, jitter, pts.shape) * (axis[1] - axis[0])
    targets = rng.uniform(-0.5, 0.5, (5, dim))
    return pts, targets, coeff, MwlsConfig(n_neighbors=nb, poly_order=order)


def _polynomial_jets(coeff, pts):
    """Value, gradient and Laplacian of sum c[i, j] x^i y^j at pts."""
    poly = np.polynomial.polynomial
    dim = pts.shape[1]
    x = pts[:, 0]
    y = pts[:, 1] if dim == 2 else np.zeros_like(x)
    value = poly.polyval2d(x, y, coeff)
    grad = np.stack([poly.polyval2d(x, y, poly.polyder(coeff, axis=a))
                     for a in range(dim)], axis=1)
    lap = sum(poly.polyval2d(x, y, poly.polyder(coeff, 2, axis=a))
              for a in range(dim))
    return value, grad, lap


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polynomial_clouds())
def test_jets_reproduce_polynomials_of_the_fit_order(case):
    # a fit of total degree `order` is exact on such a polynomial; the
    # mixed x^i y^j terms catch a basis that pairs per-axis powers wrongly
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
    y = np.linspace(-1.0, 1.0, 15).reshape(-1, 1)
    vals = 3.0 + 2.0 * y[:, 0]
    cfg = MwlsConfig(n_neighbors=8, poly_order=2)
    (value,), (grad,), (lap,) = mwls.JetOperator(
        y, cfg, targets=[[0.2]]).apply(vals)
    assert value == pytest.approx(3.4, rel=1e-12)
    assert grad[0] == pytest.approx(2.0, rel=1e-12)
    assert lap == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_polynomial_exactness_1d(order):
    rng = np.random.default_rng(order)
    coeff = rng.uniform(-1.0, 1.0, size=order + 1)
    y = np.linspace(-1.0, 1.0, 41).reshape(-1, 1)
    vals = np.polynomial.polynomial.polyval(y[:, 0], coeff)
    cfg = MwlsConfig(n_neighbors=2 * (order + 1), poly_order=order)
    (value,), (grad,), (lap,) = mwls.JetOperator(
        y, cfg, targets=[[0.3]]).apply(vals)
    d = np.polynomial.polynomial.polyder(coeff)
    d2 = np.polynomial.polynomial.polyder(coeff, 2)
    assert value == pytest.approx(
        np.polynomial.polynomial.polyval(0.3, coeff), abs=1e-10)
    assert grad[0] == pytest.approx(
        np.polynomial.polynomial.polyval(0.3, d), abs=1e-10)
    assert lap == pytest.approx(
        np.polynomial.polynomial.polyval(0.3, d2), abs=1e-9)


def test_polynomial_exactness_2d():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=(60, 2))
    x, y = pts[:, 0], pts[:, 1]
    vals = 1.0 + x - 2.0 * y + 0.5 * x * y + x ** 2 - y ** 2 + x ** 2 * y
    cfg = MwlsConfig(n_neighbors=25, poly_order=3)
    a, b = 0.1, -0.2
    (value,), (grad,), (lap,) = mwls.JetOperator(
        pts, cfg, targets=[[a, b]]).apply(vals)
    assert value == pytest.approx(
        1 + a - 2 * b + 0.5 * a * b + a ** 2 - b ** 2 + a ** 2 * b,
        abs=1e-9)
    assert grad[0] == pytest.approx(
        1 + 0.5 * b + 2 * a + 2 * a * b, abs=1e-9)
    assert grad[1] == pytest.approx(
        -2 + 0.5 * a - 2 * b + a ** 2, abs=1e-9)
    assert lap == pytest.approx(2 + 2 * b - 2, abs=1e-8)


def test_translation_covariance():
    rng = np.random.default_rng(9)
    y = np.sort(rng.uniform(-1.0, 1.0, 30)).reshape(-1, 1)
    vals = np.sin(2.0 * y[:, 0])
    cfg = MwlsConfig(n_neighbors=12, poly_order=4)
    v0, g0, l0 = mwls.JetOperator(y, cfg, targets=[[0.1]]).apply(vals)
    shift = 17.25
    v1, g1, l1 = mwls.JetOperator(y + shift, cfg,
                                  targets=[[0.1 + shift]]).apply(vals)
    assert v1[0] == pytest.approx(v0[0], rel=1e-9)
    assert g1[0, 0] == pytest.approx(g0[0, 0], rel=1e-9)
    assert l1[0] == pytest.approx(l0[0], rel=1e-7)


def test_exponential_accuracy():
    # order-5 fit of e^y on a fine grid: laplacian equals the value
    y = np.linspace(-0.5, 0.5, 101).reshape(-1, 1)
    vals = np.exp(y[:, 0])
    cfg = MwlsConfig(n_neighbors=12, poly_order=5)
    (value,), (grad,), (lap,) = mwls.JetOperator(
        y, cfg, targets=[[0.0]]).apply(vals)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert grad[0] == pytest.approx(1.0, abs=1e-10)
    assert lap == pytest.approx(1.0, abs=1e-8)


def test_determinism():
    rng = np.random.default_rng(2)
    y = np.sort(rng.uniform(-2.0, 2.0, 50)).reshape(-1, 1)
    vals = np.cos(y[:, 0])
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
    y = np.sort(rng.uniform(-2.0, 2.0, 40)).reshape(-1, 1)
    vals = np.tanh(y[:, 0])
    cfg = MwlsConfig(n_neighbors=12, poly_order=4)
    op = mwls.JetOperator(y, cfg)
    v, g, l = op.apply(vals)
    for i in (0, 13, 39):
        (value,), (grad,), (lap,) = mwls.JetOperator(
            y, cfg, targets=y[i:i + 1]).apply(vals)
        assert v[i] == pytest.approx(value, rel=1e-10, abs=1e-12)
        assert g[i, 0] == pytest.approx(grad[0], rel=1e-8, abs=1e-10)
        assert l[i] == pytest.approx(lap, rel=1e-7, abs=1e-8)


def test_too_few_points():
    y = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
    cfg = MwlsConfig(n_neighbors=12, poly_order=2)
    with pytest.raises(TooFewPoints):
        mwls.JetOperator(y, cfg, targets=[[0.5]])


def test_ill_conditioned_geometry():
    # all neighbors at the same coordinate: singular normal equations
    y = np.zeros((12, 1))
    cfg = MwlsConfig(n_neighbors=12, poly_order=3, weight_width=1.0)
    with pytest.raises(IllConditioned):
        mwls.JetOperator(y, cfg, targets=[[0.0]])


def test_ill_conditioned_message_carries_the_estimate():
    # nearly collinear 2D points: a finite estimate far above the limit
    x = np.linspace(-1.0, 1.0, 15)
    pts = np.column_stack([x, 1e-4 * np.sin(7.0 * x)])
    cfg = MwlsConfig(n_neighbors=15, poly_order=2)
    with pytest.raises(IllConditioned) as e:
        mwls.JetOperator(pts, cfg, targets=np.zeros((1, 2)))
    estimate = float(re.search(r"estimate (\S+) exceeds", str(e.value))[1])
    assert mwls.CONDITION_LIMIT < estimate < np.inf


def test_condition_estimate_reported():
    y = np.linspace(-1.0, 1.0, 20).reshape(-1, 1)
    cfg = MwlsConfig(n_neighbors=10, poly_order=3)
    (cond,) = mwls.JetOperator(y, cfg, targets=[[0.0]]).condition_estimates
    assert 1.0 <= cond < mwls.CONDITION_LIMIT


def _spy_normal_systems(monkeypatch):
    """Record (gram, rhs, sigma) of every normal-equation solve."""
    calls = []
    solve = mwls._solve_normal

    def spy(gram, rhs, sigma):
        calls.append((gram.copy(), rhs.copy(), sigma.copy()))
        return solve(gram, rhs, sigma)

    monkeypatch.setattr(mwls, "_solve_normal", spy)
    return calls


def _eigvalsh_ratio(gram):
    """The exact condition check: lambda_max / lambda_min from eigvalsh."""
    evals = np.linalg.eigvalsh(gram)
    with np.errstate(divide="ignore"):
        return np.where(evals[:, 0] > 0,
                        evals[:, -1] / np.maximum(evals[:, 0], 1e-300),
                        np.inf)


def _fig3_points():
    return np.linspace(-4.0, 4.0, 801), MwlsConfig(n_neighbors=12,
                                                    poly_order=5)


def _random_2d_points():
    rng = np.random.default_rng(11)
    return (rng.uniform(-1.0, 1.0, (300, 2)),
            MwlsConfig(n_neighbors=20, poly_order=3))


@pytest.mark.parametrize("case", [_fig3_points, _random_2d_points])
def test_cholesky_solve_matches_lapack_solve(case, monkeypatch):
    calls = _spy_normal_systems(monkeypatch)
    mwls.JetOperator(*case())
    ((gram, rhs, sigma),) = calls
    got, _ = mwls._solve_normal(gram, rhs, sigma)
    want = np.linalg.solve(gram, np.transpose(rhs, (2, 0, 1)))
    err = np.abs(got - want).max(axis=(1, 2))
    assert np.all(err <= 1e-9 * np.abs(want).max(axis=(1, 2)))


@pytest.mark.parametrize("case", [_fig3_points, _random_2d_points])
def test_condition_estimate_bounds_the_exact_ratio(case, monkeypatch):
    # cond <= tr(G) tr(G^-1) <= m^2 cond, up to rounding in both sides
    calls = _spy_normal_systems(monkeypatch)
    op = mwls.JetOperator(*case())
    exact = _eigvalsh_ratio(calls[0][0])
    m = len(op._exponents)
    est = op.condition_estimates
    assert np.all(exact <= est * (1 + 1e-6))
    assert np.all(est <= m ** 2 * exact * (1 + 1e-6))


def test_ill_conditioned_decisions_equal_the_exact_check(monkeypatch):
    # nearly collinear 2D points whose exact condition crosses the limit,
    # with a fine sweep where the bound and the exact ratio straddle it
    x = np.linspace(-1.0, 1.0, 15)
    targets = np.column_stack([np.linspace(-0.5, 0.5, 5), np.zeros(5)])
    cfg = MwlsConfig(n_neighbors=15, poly_order=2)
    calls = _spy_normal_systems(monkeypatch)
    outcomes = set()
    for amp in np.concatenate([np.geomspace(1e-1, 1e-7, 25),
                               np.geomspace(2.5e-3, 1e-3, 12)]):
        pts = np.column_stack([x, amp * np.sin(7.0 * x)])
        try:
            op = mwls.JetOperator(pts, cfg, targets=targets)
            message = None
        except IllConditioned as e:
            message = str(e)
        exact = _eigvalsh_ratio(calls[-1][0])
        over = exact > mwls.CONDITION_LIMIT
        outcomes.add("raised" if message else "passed")
        if over.any():
            assert message == (
                f"normal-equation condition estimate {exact.max():.3e} "
                f"exceeds {mwls.CONDITION_LIMIT:.1e} at "
                f"{int(over.sum())} point(s)")
        else:
            assert message is None
            est = op.condition_estimates
            assert np.all(est >= exact * (1 - 1e-6))
            if np.any(est == exact):
                outcomes.add("passed on the exact ratio")
    assert outcomes == {"raised", "passed", "passed on the exact ratio"}


def test_singular_gram_fails_cholesky_and_is_ill_conditioned(monkeypatch):
    # coincident points: rank-one normal matrix, no Cholesky factor
    calls = _spy_normal_systems(monkeypatch)
    with pytest.raises(IllConditioned, match="estimate inf"):
        mwls.JetOperator(np.zeros(12), MwlsConfig(n_neighbors=12,
                                                  poly_order=3),
                         targets=[[0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(calls[0][0])


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
