"""Panel pipelines: path models, product weights, single-period reduction."""

import numpy as np
import pytest

from msmbounds.data import PanelDataset
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import ConfigError
from msmbounds.gamma import (
    GammaSpec,
    local_beta_bounds,
    marginal_quantile_beta_bounds,
    marginal_quantile_grid_bounds,
)
from msmbounds.homotopy import homotopy_bounds
from msmbounds.msm import fit_msm, linear_msm
from msmbounds.nuisance import NuisanceConfig, SelfFit, fixed_weight_nuisances
from msmbounds.panel import (
    PanelMsmModel,
    cumulative_panel_msm,
    custom_panel_msm,
    panel_weights,
)


def _single_period(seed=0, n=60):
    """Panel with T = 1 plus its static view, sharing arrays."""
    data = generate(DgpSpec("gauss-line", seed=seed), n)
    panel = PanelDataset(range(n), data.x[:, None, :], data.a[:, None], data.y)
    return panel, panel.to_static()


def test_cumulative_model_basis():
    model = cumulative_panel_msm()
    a2d = np.array([[1.0, 2.0], [0.0, 3.0]])
    np.testing.assert_allclose(model.basis_matrix(a2d),
                               [[1.0, 3.0], [1.0, 3.0]])
    np.testing.assert_allclose(model.predict(a2d, [1.0, 2.0]), [7.0, 7.0])
    np.testing.assert_allclose(model.grad(a2d, [1.0, 2.0]),
                               model.basis_matrix(a2d))
    assert model.linear


def test_custom_model_requires_callables():
    with pytest.raises(ConfigError):
        custom_panel_msm(2)
    model = custom_panel_msm(1, basis=lambda a2d: a2d.sum(axis=1, keepdims=True))
    np.testing.assert_allclose(model.predict([[2.0, 3.0]], [2.0]), [10.0])


def test_custom_model_basis_must_be_the_moment_features():
    total = lambda a2d: a2d.sum(axis=1, keepdims=True)
    with pytest.raises(ValueError, match="drop basis"):
        custom_panel_msm(1, basis=total, moment_features=lambda a2d: total(a2d) ** 3)


def test_one_dim_treatment_coerced():
    model = cumulative_panel_msm()
    # a 1-d treatment vector is treated as one period
    np.testing.assert_allclose(model.basis_matrix(np.array([2.0, 5.0])),
                               [[1.0, 2.0], [1.0, 5.0]])


def test_no_basis_raises():
    model = PanelMsmModel(
        dim=1,
        curve=lambda a2d, beta: np.full(a2d.shape[0], beta[0]),
        gradient=lambda a2d, beta: np.ones((a2d.shape[0], 1)),
        moment_features=lambda a2d: np.ones((a2d.shape[0], 1)),
    )
    assert not model.linear
    with pytest.raises(ValueError):
        model.basis_matrix(np.array([[1.0]]))


def test_features_of_the_wrong_width_raise():
    model = custom_panel_msm(2, basis=lambda a2d: a2d.sum(axis=1, keepdims=True))
    with pytest.raises(ValueError, match="wrong width"):
        model.features(np.array([[1.0, 2.0]]))


def test_panel_weights_requires_panel():
    data = generate(DgpSpec("gauss-line", seed=0), 30)
    with pytest.raises(TypeError):
        panel_weights(data)


def test_panel_weights_positive_finite():
    panel = generate(DgpSpec("panel-mix", seed=3), 50)
    w = panel_weights(panel)
    assert w.shape == (50,)
    assert np.all(np.isfinite(w)) and np.all(w > 0)


def test_single_period_weights_match_static():
    panel, static = _single_period(seed=1)
    w_panel = panel_weights(panel)
    w_static = SelfFit(static).weights
    np.testing.assert_allclose(w_panel, w_static, atol=1e-10)


def test_single_period_unstabilized_weights_match_static():
    panel, static = _single_period(seed=1)
    config = NuisanceConfig(weight_flavor="unstabilized")
    w_panel = panel_weights(panel, config)
    np.testing.assert_allclose(w_panel, SelfFit(static, config).weights, atol=1e-10)
    assert not np.allclose(w_panel, panel_weights(panel))


def test_single_period_fit_matches_static():
    panel, static = _single_period(seed=2)
    w = panel_weights(panel)
    est_panel = fit_msm(panel, cumulative_panel_msm(), weights=w)
    est_static = fit_msm(static, linear_msm(), weights=w)
    np.testing.assert_allclose(est_panel.beta, est_static.beta, atol=1e-10)


def test_single_period_traces_match_static():
    panel, static = _single_period(seed=3)
    w = panel_weights(panel)
    grid = [1.0, 1.5, 2.0]
    trace = homotopy_bounds(panel, cumulative_panel_msm(), grid=grid,
                            coord=1, weights=w)
    static_trace = homotopy_bounds(static, linear_msm(), grid=grid,
                                   coord=1, weights=w)
    np.testing.assert_allclose(trace.lower, static_trace.lower, atol=1e-10)
    np.testing.assert_allclose(trace.upper, static_trace.upper, atol=1e-10)

    shim = fixed_weight_nuisances(static, w)
    panel_shim = fixed_weight_nuisances(panel, w)
    mq = marginal_quantile_grid_bounds(panel, cumulative_panel_msm(), panel_shim,
                                       grid, 1)
    for j, g in enumerate(grid):
        lo, hi = marginal_quantile_beta_bounds(static, linear_msm(), shim,
                                               GammaSpec(g), 1)
        np.testing.assert_allclose([mq.lower[j], mq.upper[j]], [lo, hi],
                                   atol=1e-10)
        loc = local_beta_bounds(panel, cumulative_panel_msm(), panel_shim,
                                GammaSpec(g), 1)
        lo, hi = local_beta_bounds(static, linear_msm(), shim, GammaSpec(g), 1)
        np.testing.assert_allclose(loc, [lo, hi], atol=1e-10)


def test_noiseless_cumulative_recovery():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(40, 2))
    y = 1.0 + 2.0 * a.sum(axis=1)
    panel = PanelDataset(range(40), None, a, y)
    est = fit_msm(panel, cumulative_panel_msm(), weights=np.ones(40))
    np.testing.assert_allclose(est.beta, [1.0, 2.0], atol=1e-8)


def test_panel_bounds_bracket_point_and_widen():
    panel = generate(DgpSpec("panel-mix", seed=5), 80)
    w = panel_weights(panel)
    model = cumulative_panel_msm()
    point = fit_msm(panel, model, weights=w).beta[1]
    trace = marginal_quantile_grid_bounds(panel, model, fixed_weight_nuisances(panel, w),
                                          [1.0, 1.3, 1.8], 1)
    assert trace.lower[0] == pytest.approx(point, abs=1e-8)
    assert trace.upper[0] == pytest.approx(point, abs=1e-8)
    assert np.all(np.diff(trace.upper) >= -1e-10)
    assert np.all(np.diff(trace.lower) <= 1e-10)
    assert np.all(trace.lower <= point + 1e-10)
    assert np.all(trace.upper >= point - 1e-10)

