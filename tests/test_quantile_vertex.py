"""The exact vertex quantile regression of ``PinballQuantileFit``, checked
against HiGHS on the pinball LP it replaced:

    min tau 1'u + (1 - tau) 1'v  subject to  X beta + u - v = y,  u, v >= 0.

The losses must agree on every design. Fitted values (and, on a full-rank
design, coefficients) must agree wherever HiGHS's vertex is the unique
optimum: where it is not, as for an even count of tied y at the median, every
point of the optimal face is a right answer and only the loss can be compared.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds import nuisance
from msmbounds.datagen import DgpSpec, generate, registry
from msmbounds.errors import DataError, SingularDesign
from msmbounds.nuisance import (
    PinballQuantileFit,
    _poly_design,
    _Rows,
    _quantile_vertex,
    _sorted_quantile,
)

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
    fit = PinballQuantileFit(_Rows(a, x), y, degree)
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
        coef = PinballQuantileFit(_Rows(a, x), y, degree=2).coef(tau)
        assert coef[2] == 0.0
        np.testing.assert_allclose(coef[[0, 1, 3]], PinballQuantileFit(_Rows(a, x), y).coef(tau),
                                   rtol=1e-12, atol=1e-12)


def test_vertex_interpolates_p_rows():
    rng = np.random.default_rng(4)
    design = _poly_design(rng.standard_normal(50), rng.standard_normal((50, 2)), 1)
    y = rng.standard_normal(50)
    for tau in TAUS:
        beta = _quantile_vertex(design, y, tau)
        assert np.sum(np.abs(y - design @ beta) <= 1e-12) == design.shape[1]


# The fit before the tau-free work was shared: ``_independent_columns``, the
# least-squares start, the quantile of the unsorted residuals, the row norms and
# the zero tolerance all recomputed at every tau, and a start basis that projects
# every remaining row at each pick. ``PinballQuantileFit.coef`` must match it bit
# for bit.

def _reference_nonsingular_rows(design, order):
    p = design.shape[1]
    rows = np.asarray(order)
    basis, picked = np.empty((0, p)), []
    while len(picked) < p:
        cand = design[rows]
        resid = cand - (cand @ basis.T) @ basis
        norms = np.linalg.norm(resid, axis=1)
        ok = np.flatnonzero(norms > 1e-9 * np.linalg.norm(cand, axis=1))
        if ok.size == 0:
            raise SingularDesign("quantile design has no nonsingular row basis")
        j = ok[0]
        picked.append(rows[j])
        basis = np.vstack([basis, resid[j] / norms[j]])
        rows = rows[j + 1:]
    return np.array(picked)


def _reference_vertex_residuals(design, y, basis):
    beta = np.linalg.solve(design[basis], y[basis])
    r = y - design @ beta
    r[basis] = 0.0
    r[np.abs(r) <= 1e-12 * np.abs(y).max()] = 0.0
    return beta, r


def _reference_quantile_vertex(design, y, tau):
    p = design.shape[1]
    ls = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ ls
    start = np.argsort(np.abs(resid - np.quantile(resid, tau)), kind="stable")
    basis = _reference_nonsingular_rows(design, start)
    beta, r = _reference_vertex_residuals(design, y, basis)
    above = r > 0
    bland = False
    norms = np.linalg.norm(design, axis=1)
    while True:
        inv = np.linalg.inv(design[basis])
        a = np.where(above, tau, tau - 1.0)
        a[basis] = 0.0
        u = inv.T @ (design.T @ a)
        slopes = np.concatenate([(1.0 - tau) - u, tau + u])
        descent = np.flatnonzero(slopes < -1e-10)
        if not descent.size:
            return beta
        if bland:
            edge = descent[np.argmin(basis[descent % p])]
        else:
            edge = descent[np.argmin(slopes[descent])]
        k = edge % p
        step = inv[:, k] if edge < p else -inv[:, k]
        z = design @ step
        z[np.abs(z) <= 1e-10 * norms * np.linalg.norm(step)] = 0.0
        z[basis] = 0.0
        kinks = np.flatnonzero(np.where(above, z > 0, z < 0))
        t = np.maximum(r[kinks] / z[kinks], 0.0)
        at = np.lexsort((kinks, t))
        rising = slopes[edge] + np.cumsum(np.abs(z[kinks[at]]))
        if not rising.size or rising[-1] < 0:
            raise SingularDesign(f"quantile loss is unbounded at tau={tau}")
        stop = 0 if bland else int(np.argmax(rising >= 0))
        above[kinks[at[:stop]]] ^= True
        above[basis[k]] = edge >= p
        basis[k] = kinks[at[stop]]
        bland = t[at[stop]] == 0.0
        beta, r = _reference_vertex_residuals(design, y, basis)
        above = np.where(r != 0, r > 0, above)


def _reference_coef(design, y, tau):
    keep = []
    for j in range(design.shape[1]):
        if np.linalg.matrix_rank(design[:, keep + [j]]) > len(keep):
            keep.append(j)
    coef = np.zeros(design.shape[1])
    coef[keep] = _reference_quantile_vertex(design[:, keep], y, tau)
    return coef


@st.composite
def shared_setup_designs(draw):
    """Designs from n = p to 400 rows: binary a (at degree 2, a**2 == a), few-level
    or continuous a, one or two covariates, and y on a noiseless line, tied,
    rounded to a 0.5 grid or continuous. A noiseless line has every residual 0,
    and the descent then takes thousands of degenerate pivots at n = 255 (seconds
    per tau), so lines stop at n = 40."""
    degree = draw(st.integers(1, 3))
    width = draw(st.integers(1, 2))
    y_kind = draw(st.sampled_from(["line", "tied", "rounded", "continuous"]))
    n = draw(st.integers(degree + 1 + width, 40 if y_kind == "line" else 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a_kind = draw(st.sampled_from(["binary", "levels", "continuous"]))
    if a_kind == "binary":
        a = rng.integers(0, 2, n).astype(float)
    elif a_kind == "levels":
        a = rng.integers(-1, 3, n).astype(float)
    else:
        a = rng.standard_normal(n)
    x = rng.standard_normal((n, width))
    if draw(st.booleans()):
        x = np.round(x)
    if y_kind == "line":
        y = 2.0 + a - 0.5 * x[:, 0]
    elif y_kind == "tied":
        y = rng.integers(0, 3, n).astype(float)
    elif y_kind == "rounded":
        y = np.round(2.0 * (a + rng.standard_normal(n))) / 2.0
    else:
        y = a + x[:, 0] + rng.standard_normal(n)
    return a, x, y, degree


@PROPERTY
@given(shared_setup_designs())
def test_shared_setup_matches_the_per_tau_reference_bit_for_bit(case):
    a, x, y, degree = case
    fit = PinballQuantileFit(_Rows(a, x), y, degree)
    design = _poly_design(a, x, degree)
    for tau in TAUS:
        try:
            # the fit solves at its cache key, tau rounded to 12 decimals
            want = _reference_coef(design, y, round(tau, 12))
        except SingularDesign:
            with pytest.raises(SingularDesign):
                fit.coef(tau)
            continue
        assert fit.coef(tau).tobytes() == want.tobytes(), tau


def test_tau_free_work_runs_once_per_fit_and_not_before_the_first():
    rng = np.random.default_rng(5)
    a, x = rng.standard_normal(80), rng.standard_normal((80, 1))
    y = a + x[:, 0] + rng.standard_normal(80)
    with mock.patch.object(nuisance, "_independent_columns",
                           wraps=nuisance._independent_columns) as columns, \
            mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        fit = PinballQuantileFit(_Rows(a, x), y)
        assert columns.call_count == lstsq.call_count == 0
        for tau in TAUS:
            fit.coef(tau)
        assert columns.call_count == lstsq.call_count == 1
        PinballQuantileFit(_Rows(a, x), y).coef(0.5)
        assert columns.call_count == lstsq.call_count == 2


@pytest.mark.parametrize("column,value", [("y", np.inf), ("y", -np.inf), ("y", np.nan),
                                          ("a", np.nan)], ids=["+inf-y", "-inf-y", "nan-y", "nan-a"])
def test_non_finite_data_is_a_data_error_before_the_walk(column, value):
    # +inf in y made the zero tolerance inf and the walk cycle, -inf did not end
    # either, NaN in y gave finite coefficients and NaN in a an untyped LinAlgError
    rng = np.random.default_rng(6)
    a, x = rng.standard_normal(50), rng.standard_normal((50, 1))
    y = a + x[:, 0] + rng.standard_normal(50)
    {"a": a, "y": y}[column][7] = value
    counts = "1 non-finite in y, 0 in the design" if column == "y" else \
        "0 non-finite in y, 1 in the design"
    with mock.patch.object(nuisance, "_independent_columns",
                           wraps=nuisance._independent_columns) as columns, \
            mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        fit = PinballQuantileFit(_Rows(a, x), y)
        with pytest.raises(DataError, match=counts):
            fit.coef(0.5)
    assert columns.call_count == lstsq.call_count == 0


@st.composite
def sorted_samples(draw):
    """Sorted samples of n from 1 to 500 (some with n - 1 a power of two, where
    a virtual index k + 1/2 is exact), continuous, tied or of +-0.0 and +-1, and a
    tau among k / (n - 1), (k + 1/2) / (n - 1) and uniform draws in [0, 1]."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 500))
    else:
        n = 2 ** draw(st.integers(0, 8)) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "tied", "signed-zeros", "wide"]))
    if kind == "continuous":
        values = rng.standard_normal(n)
    elif kind == "tied":
        values = rng.integers(-2, 3, n).astype(float)
    elif kind == "signed-zeros":
        values = rng.choice([-0.0, 0.0, -1.0, 1.0], n)
    else:
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    k = draw(st.integers(0, n - 1))
    tau_kind = draw(st.sampled_from(["point", "half", "uniform"]))
    if n == 1 or tau_kind == "uniform":
        tau = draw(st.floats(0.0, 1.0))
    elif tau_kind == "point":
        tau = k / (n - 1)
    else:
        tau = min((k + 0.5) / (n - 1), 1.0)
    return np.sort(values), tau


@PROPERTY
@given(sorted_samples())
def test_start_quantile_is_np_quantile_bit_for_bit(case):
    ordered, tau = case
    got = np.float64(_sorted_quantile(ordered, tau))
    assert got.tobytes() == np.quantile(ordered, tau).tobytes(), (ordered.size, tau)
