"""The exact vertex quantile regression of ``PinballQuantileFit``, checked
against HiGHS on the pinball LP it replaced:

    min tau 1'u + (1 - tau) 1'v  subject to  X beta + u - v = y,  u, v >= 0.

The losses must agree on every design. Fitted values (and, on a full-rank
design, coefficients) must agree wherever HiGHS's vertex is the unique
optimum: where it is not, as for an even count of tied y at the median, every
point of the optimal face is a right answer and only the loss can be compared.
"""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds.datagen import DgpSpec, generate, registry
from msmbounds.nuisance import PinballQuantileFit, _poly_design, _quantile_vertex

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
TAUS = (0.25, 1 / 3, 0.4, 0.5, 0.6, 2 / 3, 0.75)


def _highs_quantile(design, y, tau):
    """The pinball LP as ``PinballQuantileFit`` built it for ``linprog``."""
    n, p = design.shape
    cost = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    eye = scipy.sparse.eye(n, format="csc")
    a_eq = scipy.sparse.hstack([scipy.sparse.csc_matrix(design), eye, -eye], format="csc")
    res = scipy.optimize.linprog(cost, A_eq=a_eq, b_eq=y,
                                 bounds=[(None, None)] * p + [(0, None)] * (2 * n),
                                 method="highs")
    assert res.success, res.message
    return res.x[:p]


def _loss(design, y, beta, tau):
    r = y - design @ beta
    return float(np.sum(np.where(r > 0, tau * r, (tau - 1.0) * r)))


def _unique_optimum(design, y, fitted, tau):
    """Whether the fit is a vertex of the full-rank ``design`` through exactly p
    rows whose duals lie strictly inside (tau - 1, tau): then no other fit
    attains its loss."""
    p = design.shape[1]
    r = y - fitted
    order = np.argsort(np.abs(r), kind="stable")
    basis = order[:p]
    if np.abs(r[order[p:]]).min(initial=np.inf) <= 1e-9 * max(1.0, np.abs(y).max()):
        return False
    if np.linalg.cond(design[basis]) > 1e10:
        return False
    a = np.where(r > 0, tau, tau - 1.0)
    a[basis] = 0.0
    d = -np.linalg.solve(design[basis].T, design.T @ a)
    return bool(np.all((d > tau - 1.0 + 1e-9) & (d < tau - 1e-9)))


def _check_against_highs(a, x, y, degree, tau):
    fit = PinballQuantileFit(a, x, y, degree)
    design = _poly_design(a, x, degree)
    coef, ref = fit.coef(tau), _highs_quantile(design, y, tau)
    assert _loss(design, y, coef, tau) == pytest.approx(
        _loss(design, y, ref, tau), rel=1e-12, abs=1e-12 * np.abs(y).sum())
    # the columns outside the span of those before them (a**2 is not, for binary a)
    r_diag = np.abs(np.linalg.qr(design, mode="r").diagonal())
    cols = np.flatnonzero(r_diag > 1e-9 * np.linalg.norm(design, axis=0)[:r_diag.size])
    unique = _unique_optimum(design[:, cols], y, design @ ref, tau)
    if unique:
        np.testing.assert_allclose(design @ coef, design @ ref, rtol=0,
                                   atol=1e-9 * max(1.0, np.abs(y).max()))
        if cols.size == design.shape[1]:
            np.testing.assert_allclose(coef, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())
    return unique


@pytest.mark.parametrize("name", registry())
def test_vertex_matches_highs_on_every_generator(name):
    unique = []
    for seed in (0, 1):
        data = generate(DgpSpec(name, seed=seed), 150)
        # panel data: the last period's treatment and the stacked covariates
        a = data.a if data.a.ndim == 1 else data.a[:, -1]
        x = data.x.reshape(data.n, -1)
        for degree in (1, 2, 3):
            for tau in TAUS:
                unique.append(_check_against_highs(a, x, data.y, degree, tau))
    if name != "discrete-cells":
        # continuous designs: HiGHS's vertex is the unique optimum throughout
        assert all(unique)


@st.composite
def degenerate_designs(draw):
    """Small designs where ties and degeneracy are the rule: binary or few-level
    a (binary a at degree 2 has a**2 == a), few-level x, and y on a noiseless
    line, on three tied values or on a 0.5 grid, with rows duplicated."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a_kind = draw(st.sampled_from(["binary", "levels", "continuous"]))
    if a_kind == "binary":
        a = rng.integers(0, 2, n).astype(float)
    elif a_kind == "levels":
        a = rng.integers(-1, 3, n).astype(float)
    else:
        a = np.round(rng.standard_normal(n), 2)
    x = rng.integers(0, 3, (n, 1)).astype(float)
    y_kind = draw(st.sampled_from(["line", "tied", "grid"]))
    if y_kind == "line":
        y = 2.0 + a - 0.5 * x[:, 0]
    elif y_kind == "tied":
        y = rng.integers(0, 3, n).astype(float)
    else:
        y = np.round(2.0 * rng.standard_normal(n)) / 2.0
    if draw(st.booleans()):
        rows = rng.integers(0, n, n)
        a, x, y = a[rows], x[rows], y[rows]
    return a, x, y, draw(st.integers(1, 3)), draw(st.sampled_from(TAUS))


@PROPERTY
@given(degenerate_designs())
def test_vertex_matches_highs_on_degenerate_designs(case):
    _check_against_highs(*case)


def test_collinear_column_gets_zero():
    # binary a at degree 2: a**2 == a, so the a**2 column is fit at 0 and the
    # fitted values are those of the degree-1 fit
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, 60).astype(float)
    x = rng.standard_normal((60, 1))
    y = 1.0 + 2.0 * a + x[:, 0] + rng.standard_normal(60)
    for tau in (0.25, 0.5, 0.75):
        coef = PinballQuantileFit(a, x, y, degree=2).coef(tau)
        assert coef[2] == 0.0
        np.testing.assert_allclose(coef[[0, 1, 3]], PinballQuantileFit(a, x, y).coef(tau),
                                   rtol=1e-12, atol=1e-12)


def test_vertex_interpolates_p_rows():
    rng = np.random.default_rng(4)
    design = _poly_design(rng.standard_normal(50), rng.standard_normal((50, 2)), 1)
    y = rng.standard_normal(50)
    for tau in TAUS:
        beta = _quantile_vertex(design, y, tau)
        assert np.sum(np.abs(y - design @ beta) <= 1e-12) == design.shape[1]
