"""Subset-confounding bounds: endpoints, calibration, mixing identities."""

import numpy as np
import pytest

from msmbounds._ranks import select_bottom_mask, select_top_mask
from msmbounds.data import Dataset, PanelDataset
from msmbounds.datagen import DgpSpec, generate, registry
from msmbounds.gamma import (
    GammaSpec,
    fit_parametric_bounds,
    marginal_quantile_beta_bounds,
    marginal_quantile_grid_bounds,
)
from msmbounds.msm import (
    PairKernel,
    fit_msm,
    intercept_msm,
    linear_msm,
    polynomial_msm,
    solve_moment,
    u_statistic,
)
from msmbounds.nuisance import CrossFit, NuisanceConfig, SelfFit
from msmbounds.outcome import DeltaSpec, outcome_nonlinear_grid_bounds
from msmbounds.subset import (
    EpsilonSpec,
    _lambda_masks,
    _select_counts,
    subset_independent_bounds,
    subset_linear_beta_bounds,
    subset_outcome_beta_bounds,
    subset_parametric_bounds,
    subset_theta_bounds,
)


def _setup(seed=0, n=100):
    data = generate(DgpSpec("confounded-line", seed=seed), n)
    return data, SelfFit(data)


def test_epsilon_spec_validation():
    with pytest.raises(ValueError):
        EpsilonSpec(-0.1, GammaSpec(2.0))
    with pytest.raises(ValueError):
        EpsilonSpec(1.1, GammaSpec(2.0))
    with pytest.raises(TypeError):
        EpsilonSpec(0.5, "gamma")


def test_inner_model_type_dispatch():
    data, nuis = _setup(n=40)
    with pytest.raises(TypeError):
        subset_theta_bounds(data, nuis, EpsilonSpec(0.5, DeltaSpec(1.0)), 0.0)
    with pytest.raises(TypeError):
        subset_parametric_bounds(data, linear_msm(), nuis,
                                 EpsilonSpec(0.5, DeltaSpec(1.0)))
    with pytest.raises(TypeError):
        subset_outcome_beta_bounds(data, linear_msm(), nuis,
                                   EpsilonSpec(0.5, GammaSpec(2.0)), 0)


def test_lambda_masks_calibrated_within_one_unit():
    rng = np.random.default_rng(2)
    for n in (10, 37, 100):
        r = rng.standard_normal(n)
        for eps in (0.1, 0.25, 0.5, 0.9):
            lam_low, lam_high = _lambda_masks(r, r, eps)
            assert abs(lam_low.sum() - eps * n) <= 1.0
            assert abs(lam_high.sum() - eps * n) <= 1.0
            # the lower mask grabs small r, the upper grabs large r
            if 0 < lam_low.sum() < n:
                assert r[lam_low].max() <= r[~lam_low].min() + 1e-12
                assert r[lam_high].min() >= r[~lam_high].max() - 1e-12


def test_lambda_masks_nest_in_epsilon():
    rng = np.random.default_rng(3)
    r = rng.standard_normal(50)
    prev_low = prev_high = None
    for eps in (0.0, 0.1, 0.25, 0.5, 1.0):
        lam_low, lam_high = _lambda_masks(r, r, eps)
        if prev_low is not None:
            assert np.all(lam_low[prev_low])
            assert np.all(lam_high[prev_high])
        prev_low, prev_high = lam_low, lam_high


def test_theta_bounds_collapse_and_bracket():
    data, nuis = _setup()
    eps0 = EpsilonSpec(0.0, GammaSpec(3.0))
    lo, hi = subset_theta_bounds(data, nuis, eps0, 0.5)
    center = nuis.mu_at_units(0.5).mean()
    assert lo == pytest.approx(center, abs=1e-12)
    assert hi == pytest.approx(center, abs=1e-12)
    eps = EpsilonSpec(0.4, GammaSpec(3.0))
    lo, hi = subset_theta_bounds(data, nuis, eps, 0.5)
    assert lo <= center <= hi


def test_parametric_epsilon_zero_equals_unconfounded_dr_fit():
    data, nuis = _setup(seed=4)
    model = linear_msm()
    low_est, high_est = subset_parametric_bounds(
        data, model, nuis, EpsilonSpec(0.0, GammaSpec(2.5))
    )
    np.testing.assert_allclose(low_est.beta, high_est.beta, atol=1e-10)
    g_low, g_high = fit_parametric_bounds(data, model, nuis, GammaSpec(1.0))
    np.testing.assert_allclose(low_est.beta, g_low.beta, atol=1e-8)


def test_parametric_epsilon_one_equals_full_propensity_bounds():
    data, nuis = _setup(seed=5, n=80)
    model = linear_msm()
    spec = GammaSpec(2.0)
    s_low, s_high = subset_parametric_bounds(data, model, nuis,
                                             EpsilonSpec(1.0, spec))
    g_low, g_high = fit_parametric_bounds(data, model, nuis, spec)
    np.testing.assert_allclose(s_low.beta, g_low.beta, atol=1e-8)
    np.testing.assert_allclose(s_high.beta, g_high.beta, atol=1e-8)


def test_widths_monotone_in_epsilon():
    # scalar interval widths only: the two coordinates of a multivariate
    # fit pair are boundary points of a region, not per-coordinate intervals
    data, nuis = _setup(seed=6, n=80)
    inner = GammaSpec(2.0)
    th_w, lb_w, pi_w = [], [], []
    for eps in (0.0, 0.1, 0.25, 0.5, 1.0):
        es = EpsilonSpec(eps, inner)
        tl, tu = subset_theta_bounds(data, nuis, es, 0.5)
        th_w.append(tu - tl)
        ll, lh = subset_linear_beta_bounds(data, linear_msm(), nuis, es, 1)
        lb_w.append(lh - ll)
        pl, ph = subset_parametric_bounds(data, intercept_msm(), nuis, es)
        pi_w.append(ph.beta[0] - pl.beta[0])
    for widths in (th_w, lb_w, pi_w):
        assert all(w2 >= w1 - 1e-10 for w1, w2 in zip(widths, widths[1:]))
        assert widths[0] == pytest.approx(0.0, abs=1e-10)
        assert widths[-1] > 0.1


def test_linear_beta_bounds_bracket_and_collapse():
    data, nuis = _setup(seed=7, n=60)
    model = linear_msm()
    lo0, hi0 = subset_linear_beta_bounds(data, model, nuis,
                                         EpsilonSpec(0.0, GammaSpec(3.0)), 1)
    assert lo0 == pytest.approx(hi0, abs=1e-10)
    lo, hi = subset_linear_beta_bounds(data, model, nuis,
                                       EpsilonSpec(0.5, GammaSpec(3.0)), 1)
    assert lo <= lo0 + 1e-10 and hi >= hi0 - 1e-10


def test_independent_subset_is_shrunk_marginal_rule():
    # (1-eps) + eps*v mixes the rank-rule bound with the point estimate
    data, nuis = _setup(seed=8, n=90)
    model = intercept_msm()
    eps = 0.5
    grid = [1.0, 1.5, 2.0, 3.0]
    trace = subset_independent_bounds(data, model, nuis, grid, 0, eps)
    point = fit_msm(data, model, weights=nuis.weights).beta[0]
    for j, g in enumerate(grid):
        lo, hi = marginal_quantile_beta_bounds(data, model, nuis, GammaSpec(g), 0)
        assert trace.upper[j] == pytest.approx((1 - eps) * point + eps * hi,
                                               abs=1e-10)
        assert trace.lower[j] == pytest.approx((1 - eps) * point + eps * lo,
                                               abs=1e-10)
    with pytest.raises(ValueError):
        subset_independent_bounds(data, model, nuis, [1.5, 2.0], 0, eps)


def test_subset_outcome_width_formula():
    data, nuis = _setup(seed=9, n=70)
    model = linear_msm()
    eps, delta = 0.3, 0.8
    lo, hi = subset_outcome_beta_bounds(data, model, nuis,
                                        EpsilonSpec(eps, DeltaSpec(delta)), 1)
    b = model.basis_matrix(data.a)
    w = nuis.weights
    omega = (b * w[:, None]).T @ b / data.n
    f = b @ np.linalg.solve(omega.T, [0.0, 1.0])
    assert hi - lo == pytest.approx(2 * eps * delta * np.mean(np.abs(f)),
                                    abs=1e-10)
    lo0, hi0 = subset_outcome_beta_bounds(data, model, nuis,
                                          EpsilonSpec(0.0, DeltaSpec(delta)), 1)
    point = fit_msm(data, model, weights=w).beta[1]
    assert lo0 == pytest.approx(point, abs=1e-10)
    assert hi0 == pytest.approx(point, abs=1e-10)


_STATIC_GENERATORS = [name for name in registry()
                      if not isinstance(generate(DgpSpec(name), 8), PanelDataset)]


@pytest.mark.parametrize("folds", [None, 3], ids=["selffit", "crossfit3"])
@pytest.mark.parametrize("name", _STATIC_GENERATORS)
def test_outcome_nonlinear_grid_is_subset_outcome_at_epsilon_one(name, folds):
    # both routes take their band from one shift-band core: the nonlinear-grid
    # route at delta is the subset-outcome bounds at epsilon = 1, bit for bit,
    # and both are the closed form center +/- delta mean_n|c|
    data = generate(DgpSpec(name, seed=0), 200)
    nuis = SelfFit(data) if folds is None else CrossFit(data, NuisanceConfig(folds=folds))
    w = nuis.weights
    delta = 0.7
    for degree in (1, 2, 3):
        model = polynomial_msm(degree)
        h = model.features(data.a)
        gram = (h * w[:, None]).T @ h / data.n
        center = np.linalg.solve(gram, h.T @ (w * nuis.mu_units) / data.n)
        for coord in range(model.dim):
            grid = outcome_nonlinear_grid_bounds(data, model, nuis, DeltaSpec(delta), coord)
            subset = subset_outcome_beta_bounds(
                data, model, nuis, EpsilonSpec(1.0, DeltaSpec(delta)), coord)
            assert grid == subset
            c = h @ np.linalg.solve(gram.T, np.eye(model.dim)[coord])
            half = delta * np.mean(np.abs(c))
            np.testing.assert_allclose(
                grid, [center[coord] - half, center[coord] + half], rtol=1e-12, atol=0)


def _reference_subset_parametric(data, model, nuisances, eps):
    """The subset fits built as a row-wise U-statistic of h(a_i) f(Z_i, Z_j)
    followed by one moment solve per side."""
    gamma = eps.inner.gamma
    h = model.features(data.a)
    w = nuisances.weights
    mu_own = nuisances.mu_units
    low_count, high_count = _select_counts(data.n, eps.epsilon)
    betas = []
    for side, select, count in (("lower", select_bottom_mask, low_count),
                                ("upper", select_top_mask, high_count)):
        s = nuisances.s_units(gamma, side)
        kappa_own = nuisances.kappa_units(gamma, side)
        dr_base = w * (data.y - mu_own)
        delta_term = w * ((s - kappa_own) - (data.y - mu_own))

        def row(i, side=side, select=select, count=count,
                dr_base=dr_base, delta_term=delta_term):
            mu_row = nuisances.mu_row(i)
            r_row = nuisances.kappa_row(gamma, side, i) - mu_row
            lam_row = select(r_row, count)
            vals = dr_base[i] + mu_row + lam_row[i] * delta_term[i] + lam_row * r_row
            return h[i][None, :] * vals[:, None]

        target = u_statistic(PairKernel(data.n, model.dim, row))
        betas.append(solve_moment(model, data.a, target))
    return betas


@pytest.mark.parametrize("folds", [1, 2])
@pytest.mark.parametrize("epsilon", [0.25, 1.0])
@pytest.mark.parametrize("make_model", [intercept_msm, linear_msm])
def test_parametric_bounds_match_row_wise_reference(folds, epsilon, make_model):
    data = generate(DgpSpec("confounded-line", seed=11), 60)
    nuis = SelfFit(data) if folds == 1 else CrossFit(data, NuisanceConfig(folds=2), seed=3)
    model = make_model()
    eps = EpsilonSpec(epsilon, GammaSpec(2.0))
    got = subset_parametric_bounds(data, model, nuis, eps)
    for est, want in zip(got, _reference_subset_parametric(data, model, nuis, eps)):
        assert est.beta.tobytes() == want.tobytes()
        assert est.covariance is None


def _tied_cells():
    cells = generate(DgpSpec("discrete-cells", seed=2))
    data = Dataset(cells.x, cells.a, np.round(cells.y))
    return data, SelfFit(data, NuisanceConfig(propensity_method="discrete",
                                              quantile_method="empirical"))


@pytest.mark.parametrize("setup", [lambda: _setup(seed=8, n=150), _tied_cells])
def test_independent_subset_at_epsilon_one_is_the_marginal_rule(setup):
    data, nuis = setup()
    grid = [1.0, 1.1, 1.5, 2.0, 3.0, 4.0]
    for model in (intercept_msm(), linear_msm()):
        coord = model.dim - 1
        got = subset_independent_bounds(data, model, nuis, grid, coord, 1.0)
        want = marginal_quantile_grid_bounds(data, model, nuis, grid, coord)
        assert got.lower.tobytes() == want.lower.tobytes()
        assert got.upper.tobytes() == want.upper.tobytes()
