"""One moment core: ``msm.weighted_fit`` returns (beta, M), and every leverage,
derivative and sandwich takes M from ``msm._moment_matrix``.

The references below are the routes the core replaced, kept as they were:
a linear fit that returned its Gram matrix beside the public fit, a public
``moment_matrix`` that rebuilt the features, and a leverage that built M
itself from optional (beta, v, h, m) arguments. The core must match them bit
for bit, because numpy rounds A^T A from one buffer (syrk) unlike the general
product, and the homotopy's traces and the CLI outputs rest on these bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds.errors import NoConvergence, SingularMoment
from msmbounds.gamma import _derivative, _leverage
from msmbounds.msm import (
    _moment_matrix,
    _solve,
    custom_msm,
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
