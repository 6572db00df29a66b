"""One moment core: ``msm.weighted_fit`` returns (beta, M), and every leverage,
derivative and sandwich takes M from ``msm._moment_matrix``; ``fit_msm``
and a linear model's pair-moment sides form no M beyond the one they need.

The references below are the routes the core replaced, kept as they were:
a linear fit that returned its Gram matrix beside the public fit, a public
``moment_matrix`` that rebuilt the features, and a leverage that built M
itself from optional (beta, v, h, m) arguments. The core must match them bit
for bit, because numpy rounds A^T A from one buffer (syrk) unlike the general
product, and the homotopy's traces and the CLI outputs rest on these bits.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds.errors import NoConvergence, SingularMoment
from msmbounds import msm
from msmbounds.gamma import _derivative, _leverage
from msmbounds.msm import (
    _moment_matrix,
    _pair_moment_sides,
    _solve,
    custom_msm,
    fit_msm,
    pair_moment_fit,
    polynomial_msm,
    sandwich_variance,
    solve_moment,
    weighted_fit,
)

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _basis(a):
    return np.column_stack([np.ones(a.size), a])


# g(a; beta) = beta_0 + exp(beta_1 a / 4) on the moment features [1, a]
CURVED = custom_msm(
    dim=2,
    curve=lambda a, b: b[0] + np.exp(b[1] * a / 4),
    gradient=lambda a, b: np.column_stack([np.ones(a.size), a / 4 * np.exp(b[1] * a / 4)]),
    moment_features=_basis,
    name="curved",
)
MODELS = {**{f"poly{d}": polynomial_msm(d) for d in range(4)}, "curved": CURVED}


def _reference_linear_fit(h, y, w):
    hw = h * w[:, None]
    gram = hw.T @ h / y.size
    return _solve(gram, hw.T @ y / y.size, "moment matrix"), gram


def _reference_moment_matrix(model, a, w, beta=None):
    h = model.features(a)
    if model.linear:
        grad = model.basis_matrix(a)
    else:
        grad = model.grad(a, beta)
    w = np.asarray(w, dtype=float).ravel()
    return (h * w[:, None]).T @ grad / w.size


def _reference_weighted_fit(model, a, y, w):
    h = model.features(a)
    if model.linear:
        return _reference_linear_fit(h, y, w)
    hw = h * w[:, None]
    beta = solve_moment(model, a, hw.T @ y / y.size, w, None, 100, h)
    return beta, _reference_moment_matrix(model, a, w, beta)


def _reference_leverage(model, a, w, coord, beta=None, v=None, h=None, m=None):
    if h is None:
        h = model.features(a)
    if m is None:
        grad = h if model.linear else model.grad(a, beta)
        vw = w if v is None else v * w
        m = (h * vw[:, None]).T @ grad / h.shape[0]
    e = np.zeros(model.dim)
    e[coord] = 1.0
    return h @ _solve(m.T, e, "coordinate leverage matrix")


def _reference_derivative(model, a, y, w, coord, beta, v=None):
    h = model.features(a)
    c = _reference_leverage(model, a, w, coord, beta, v, h) * w
    g = h @ beta if model.linear else model.predict(a, beta)
    return c, g, c * (y - g)


def _reference_sandwich(model, a, y, w, beta):
    h = model.features(a)
    resid = y - model.predict(a, beta)
    scores = h * (w * resid)[:, None]
    centered = scores - scores.mean(axis=0)
    s = centered.T @ centered / scores.shape[0]
    m = _reference_moment_matrix(model, a, w, beta)
    minv_s = _solve(m, s, "sandwich bread")
    return _solve(m, minv_s.T, "sandwich bread").T


@st.composite
def cases(draw):
    """A model, n from dim + 1 to 400, doses and outcomes from a drawn seed, and
    weights w and v that are all ones, tied on three levels or continuous."""
    name = draw(st.sampled_from(sorted(MODELS)))
    model = MODELS[name]
    n = draw(st.integers(model.dim + 1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal(n)
    y = 1.0 + a + rng.standard_normal(n)

    def weights(kind):
        if kind == "ones":
            return np.ones(n)
        if kind == "tied":
            return rng.choice([0.5, 1.0, 2.0], n)
        return rng.uniform(0.3, 3.0, n)

    w = weights(draw(st.sampled_from(["ones", "tied", "continuous"])))
    v = weights(draw(st.sampled_from(["ones", "tied", "continuous"])))
    return model, a, y, w, v, draw(st.integers(0, model.dim - 1))


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@PROPERTY
@given(cases())
def test_moment_core_matches_the_routes_it_replaced(case):
    model, a, y, w, v, coord = case
    try:
        want_beta, want_m = _reference_weighted_fit(model, a, y, w)
    except (SingularMoment, NoConvergence) as exc:
        with pytest.raises(type(exc)):
            weighted_fit(model, a, y, w)
        return
    h = model.features(a)
    for fit in (weighted_fit(model, a, y, w), weighted_fit(model, a, y, w, h=h)):
        _same_bits(fit[0], want_beta)
        _same_bits(fit[1], want_m)
    beta, m = weighted_fit(model, a, y, w, h=h)
    _same_bits(_moment_matrix(model, a, h, w, beta), _reference_moment_matrix(model, a, w, beta))
    # the leverage and derivative at the fit's weights, from the fit's M, and at
    # the reweighted w v, from M built there, as the homotopy's steps take them
    at_v = _moment_matrix(model, a, h, w * v, beta)
    for v_ref, m_core in ((None, m), (v, at_v)):
        try:
            want_c = _reference_leverage(model, a, w, coord, beta, v_ref)
        except SingularMoment:
            with pytest.raises(SingularMoment):
                _leverage(h, m_core, coord)
            continue
        _same_bits(_leverage(h, m_core, coord), want_c)
        for got, want in zip(_derivative(model, a, h, y, w, coord, beta, m_core),
                             _reference_derivative(model, a, y, w, coord, beta, v_ref)):
            _same_bits(got, want)
    try:
        want_cov = _reference_sandwich(model, a, y, w, beta)
    except SingularMoment:
        with pytest.raises(SingularMoment):
            sandwich_variance(model, a, y, w, beta)
        return
    _same_bits(sandwich_variance(model, a, y, w, beta), want_cov)


def _counting_moment_matrix(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _moment_matrix(*args, **kwargs)

    monkeypatch.setattr(msm, "_moment_matrix", counted)
    return calls


def _line_data(n=150, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    return a, 1.0 + a + rng.standard_normal(n), rng.uniform(0.3, 3.0, n)


@pytest.mark.parametrize("name", ["poly1", "poly2", "curved"])
def test_fit_msm_takes_the_sandwich_bread_from_its_fit(monkeypatch, name):
    # the fit's M is the bread, so fit_msm forms no M beyond the fit's own:
    # one for a linear model, one per Newton step plus one otherwise
    model = MODELS[name]
    a, y, w = _line_data()
    calls = _counting_moment_matrix(monkeypatch)
    beta = weighted_fit(model, a, y, w)[0]
    fit_calls = len(calls)
    calls.clear()
    estimate = fit_msm(SimpleNamespace(a=a, y=y), model, weights=w)
    assert len(calls) == fit_calls
    if model.linear:
        assert fit_calls == 1
    _same_bits(estimate.beta, beta)
    _same_bits(estimate.covariance, _reference_sandwich(model, a, y, w, beta))


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_linear_pair_moment_sides_form_one_moment_matrix(monkeypatch, degree):
    # M (w = 1) is free of beta for a linear model: one per call serves both
    # sides' solves and breads, bit for bit the per-side solve and bread
    model = polynomial_msm(degree)
    a, y, w = _line_data(n=80)
    h = model.features(a)
    phis = [(np.column_stack([w * y, w]), np.column_stack([np.ones(a.size), sign * y]))
            for sign in (-1.0, 1.0)]

    def per_side(target):
        beta = solve_moment(model, a, target, h=h)
        return beta, model.predict(a, beta), _reference_moment_matrix(model, a, np.ones(a.size))

    want = [pair_moment_fit(h, phi, per_side) for phi in phis]
    calls = _counting_moment_matrix(monkeypatch)
    got = _pair_moment_sides(model, a, iter(phis))
    assert len(calls) == 1
    for (beta, cov), (want_beta, want_cov) in zip(got, want, strict=True):
        _same_bits(beta, want_beta)
        _same_bits(cov, want_cov)
