"""Propensity-model (density-ratio) bounds: closed forms, kernels, rank rules."""

import numpy as np
import pytest

from msmbounds.data import Dataset
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import ConfigError
from msmbounds.gamma import (
    GammaSpec,
    bound_kernel,
    conditional_outcome_bounds,
    conditional_quantile_beta_bounds,
    fit_parametric_bounds,
    linear_curve_bounds,
    local_beta_bounds,
    marginal_quantile_beta_bounds,
)
from msmbounds.homotopy import homotopy_bounds
from msmbounds.msm import fit_msm, intercept_msm, linear_msm, u_statistic, PairKernel
from msmbounds.nuisance import NuisanceConfig, SelfFit, fixed_weight_nuisances
from msmbounds.oracles import oracle_conditional_box_mean, oracle_linear_box_mean
from msmbounds.outcome import DeltaSpec, outcome_beta_bounds_linear, outcome_curve_bounds


def _data(seed=0, n=120):
    return generate(DgpSpec("gauss-line", seed=seed), n)


def test_gamma_spec_validation_and_levels():
    with pytest.raises(ValueError):
        GammaSpec(0.9)
    spec = GammaSpec(3.0)
    assert spec.tau_low == pytest.approx(0.25)
    assert spec.tau_high == pytest.approx(0.75)
    assert spec.edge_low == pytest.approx(1 / 3)
    assert spec.edge_high == 3.0


def test_collapse_at_gamma_one():
    data = _data()
    nuis = SelfFit(data)
    model = linear_msm()
    spec = GammaSpec(1.0)
    point = fit_msm(data, model, weights=nuis.weights).beta
    lo, hi = marginal_quantile_beta_bounds(data, model, nuis, spec, 1)
    assert lo == pytest.approx(hi, abs=1e-10)
    assert lo == pytest.approx(point[1], abs=1e-8)
    lo, hi = conditional_quantile_beta_bounds(data, model, nuis, spec, 1)
    assert lo == pytest.approx(hi, abs=1e-10) and lo == pytest.approx(point[1], abs=1e-8)
    lo, hi = local_beta_bounds(data, model, nuis, spec, 1)
    assert lo == pytest.approx(hi, abs=1e-10) and lo == pytest.approx(point[1], abs=1e-8)
    low_est, high_est = fit_parametric_bounds(data, model, nuis, spec)
    np.testing.assert_allclose(low_est.beta, high_est.beta, atol=1e-8)
    g_lo, g_hi, _ = linear_curve_bounds(data, model, nuis, spec, 0.5)
    assert g_lo == pytest.approx(g_hi, abs=1e-8)


def test_marginal_rank_rule_exact_at_integral_levels():
    # n * tau_u = 6 * 2/3 = 4 is integral, so the plug-in is the LP vertex
    y = np.array([0.3, -1.2, 2.0, 0.7, -0.4, 1.1])
    data = Dataset(None, np.arange(6.0), y)
    nuis = fixed_weight_nuisances(data, np.ones(6))
    lo, hi = marginal_quantile_beta_bounds(data, intercept_msm(), nuis,
                                           GammaSpec(2.0), 0)
    assert hi == pytest.approx(oracle_linear_box_mean(y, 2.0, "max").value, abs=1e-10)
    assert lo == pytest.approx(oracle_linear_box_mean(y, 2.0, "min").value, abs=1e-10)


def test_marginal_rank_rule_within_one_atom_of_lp():
    # the plug-in is an LP vertex with its fractional coordinate clamped to
    # the box floor, so it sits within one atom's worth of the LP optimum
    rng = np.random.default_rng(21)
    for n in (7, 11, 23):
        for gamma in (1.5, 2.0, 3.0):
            y = rng.standard_normal(n)
            data = Dataset(None, np.arange(float(n)), y)
            nuis = fixed_weight_nuisances(data, np.ones(n))
            lo, hi = marginal_quantile_beta_bounds(data, intercept_msm(), nuis,
                                                   GammaSpec(gamma), 0)
            lp_hi = oracle_linear_box_mean(y, gamma, "max").value
            lp_lo = oracle_linear_box_mean(y, gamma, "min").value
            slack = (gamma - 1 / gamma) * np.max(np.abs(y)) / n
            assert lo <= hi
            assert abs(hi - lp_hi) <= slack + 1e-12
            assert abs(lo - lp_lo) <= slack + 1e-12


def test_marginal_rank_rule_certificates():
    data = _data(n=40)
    nuis = SelfFit(data)
    spec = GammaSpec(2.5)
    lo, hi, (v_lo, v_hi) = marginal_quantile_beta_bounds(
        data, linear_msm(), nuis, spec, 1, return_v=True
    )
    for v in (v_lo, v_hi):
        assert np.all((v == 2.5) | (v == 1 / 2.5))
        assert abs(v.mean() - 1.0) <= 2 * (2.5 - 1 / 2.5) / 40


def test_conditional_rank_rule_matches_cell_oracle():
    # 4 cells of size 3 and gamma = 2: per-cell n_c * tau_u = 2 is integral
    rng = np.random.default_rng(5)
    a = np.repeat([0.0, 1.0], 6)
    x = np.tile(np.repeat([0.0, 1.0], 3), 2)
    y = rng.standard_normal(12)
    data = Dataset(x[:, None], a, y)
    config = NuisanceConfig(propensity_method="discrete",
                            quantile_method="empirical")
    nuis = SelfFit(data, config)
    spec = GammaSpec(2.0)
    lo, hi = conditional_quantile_beta_bounds(data, intercept_msm(), nuis, spec, 0)

    # rebuild f with the same weights, then ask the cell oracle
    w = nuis.weights
    f = w * y / w.mean()
    cells = []
    for key in sorted({(ai, xi) for ai, xi in zip(a, x)}):
        idx = [i for i in range(12) if (a[i], x[i]) == key]
        cells.append({"values": f[idx], "weight": len(idx) / 12})
    assert hi == pytest.approx(
        oracle_conditional_box_mean(cells, 2.0, "max").value, abs=1e-10
    )
    assert lo == pytest.approx(
        oracle_conditional_box_mean(cells, 2.0, "min").value, abs=1e-10
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_conditional_quantile_sides_do_not_cross():
    # pinball quantiles: each side thresholds at its own fitted quantile and
    # neither is rescaled to mean(v) = 1 per cell, so lower > upper here
    data = generate(DgpSpec("confounded-line", seed=0), 200)
    lo, hi = conditional_quantile_beta_bounds(data, linear_msm(), SelfFit(data),
                                              GammaSpec(1.25), 1)
    assert lo <= hi


def test_conditional_outcome_bounds_cell_plugin():
    # two cells; gamma=2 with cells of size 3 puts quantiles on atoms
    a = np.repeat([0.0, 1.0], 3)
    y = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
    data = Dataset(None, a, y)
    low, high = conditional_outcome_bounds(data, GammaSpec(2.0))
    assert np.all(low <= high + 1e-12)
    # within a cell every unit reports the same bounds
    assert len(set(np.round(high[:3], 12))) == 1
    assert len(set(np.round(high[3:], 12))) == 1
    # cell means must bracket the plain mean
    assert low[0] <= y[:3].mean() <= high[0]
    with pytest.raises(ValueError):
        conditional_outcome_bounds(data, GammaSpec(2.0), probe_a=[0.5])


def test_conditional_outcome_bounds_fitted_path():
    data = _data(n=100)
    nuis = SelfFit(data)
    low, high = conditional_outcome_bounds(data, GammaSpec(2.0), nuisances=nuis)
    assert low.shape == (100,) and np.all(low <= high + 1e-12)
    plow, phigh = conditional_outcome_bounds(
        data, GammaSpec(2.0), nuisances=nuis, probe_a=[0.0, 1.0],
        probe_x=np.zeros((2, 0))
    )
    assert plow.shape == (2,) and np.all(plow <= phigh + 1e-12)


def test_bound_kernel_rows_match_formula():
    data = _data(n=30)
    nuis = SelfFit(data)
    spec = GammaSpec(1.8)
    kernel = bound_kernel(data, nuis, spec, "upper")
    w = nuis.weights
    s = nuis.s_units(1.8, "upper")
    kap = nuis.kappa_units(1.8, "upper")
    for i in (0, 7, 29):
        expect = w[i] * (s[i] - kap[i]) + nuis.kappa_row(1.8, "upper", i)
        np.testing.assert_allclose(kernel.row(i)[:, 0], expect, atol=1e-12)


def test_parametric_bounds_bracket_and_widen():
    data = _data(n=150)
    nuis = SelfFit(data)
    model = intercept_msm()
    widths = []
    for gamma in (1.0, 1.5, 2.0, 3.0):
        low_est, high_est = fit_parametric_bounds(data, model, nuis,
                                                  GammaSpec(gamma))
        assert low_est.beta[0] <= high_est.beta[0] + 1e-10
        assert low_est.covariance[0, 0] >= 0
        widths.append(high_est.beta[0] - low_est.beta[0])
    assert widths[0] == pytest.approx(0.0, abs=1e-8)
    assert widths == sorted(widths)


def test_parametric_intercept_matches_direct_u_statistic():
    data = _data(n=25)
    nuis = SelfFit(data)
    spec = GammaSpec(2.0)
    low_est, high_est = fit_parametric_bounds(data, intercept_msm(), nuis, spec)
    # independent O(n^2) evaluation of the pair target for the upper side
    w = nuis.weights
    s = nuis.s_units(2.0, "upper")
    kap = nuis.kappa_units(2.0, "upper")
    n = data.n
    total = 0.0
    for i in range(n):
        row = w[i] * (s[i] - kap[i]) + nuis.kappa_row(2.0, "upper", i)
        total += row.sum() - row[i]
    assert high_est.beta[0] == pytest.approx(total / (n * (n - 1)), abs=1e-10)


def test_linear_curve_bounds_match_direct_enumeration():
    data = _data(n=20)
    nuis = SelfFit(data)
    spec = GammaSpec(2.0)
    model = linear_msm()
    a0 = 0.7
    g_lo, g_hi, (var_lo, var_hi) = linear_curve_bounds(data, model, nuis, spec, a0)
    assert g_lo <= g_hi
    assert var_lo >= 0 and var_hi >= 0

    b = model.basis_matrix(data.a)
    n = data.n
    q = b.T @ b / n
    b0 = model.basis_matrix(np.array([a0]))[0]
    t = b @ np.linalg.solve(q, b0)
    w = nuis.weights
    values = {}
    for which in ("lower", "upper"):
        target = np.zeros(2)
        for i in range(n):
            if which == "upper":
                side = "upper" if t[i] >= 0 else "lower"
            else:
                side = "lower" if t[i] >= 0 else "upper"
            s = nuis.s_units(2.0, side)
            kap = nuis.kappa_units(2.0, side)
            row = w[i] * (s[i] - kap[i]) + nuis.kappa_row(2.0, side, i)
            target += b[i] * (row.sum() - row[i])
        target /= n * (n - 1)
        values[which] = float(b0 @ np.linalg.solve(q, target))
    lo_ref, hi_ref = sorted([values["lower"], values["upper"]])
    assert g_lo == pytest.approx(lo_ref, abs=1e-10)
    assert g_hi == pytest.approx(hi_ref, abs=1e-10)


@pytest.mark.parametrize("bounds,spec", [
    (linear_curve_bounds, GammaSpec(2.0)),
    (outcome_curve_bounds, DeltaSpec(0.5)),
    (outcome_beta_bounds_linear, DeltaSpec(0.5)),
], ids=["linear_curve_bounds", "outcome_curve_bounds", "outcome_beta_bounds_linear"])
def test_linear_curve_bounds_requires_linear_model(bounds, spec):
    data = _data(n=30)
    nuis = SelfFit(data)
    from msmbounds.msm import custom_msm

    nl = custom_msm(
        dim=1,
        curve=lambda a, b: np.exp(b[0] * a),
        gradient=lambda a, b: (a * np.exp(b[0] * a))[:, None],
        moment_features=lambda a: a[:, None],
    )
    with pytest.raises(ValueError):
        bounds(data, nl, nuis, spec, 0)


def test_local_bounds_hand_formula():
    data = _data(n=60)
    nuis = SelfFit(data)
    spec = GammaSpec(1.5)
    lo, hi = local_beta_bounds(data, intercept_msm(), nuis, spec, 0)
    w = nuis.weights
    center = np.sum(w * data.y) / np.sum(w)
    d = w * (data.y - center) / w.mean()
    spread = np.log(1.5) * np.mean(np.abs(d))
    assert lo == pytest.approx(center - spread, abs=1e-10)
    assert hi == pytest.approx(center + spread, abs=1e-10)


def test_marginal_bounds_nest_in_gamma_at_integral_levels():
    # at integral levels the plug-in equals the LP optimum, which nests
    y = np.random.default_rng(33).standard_normal(12)
    data = Dataset(None, np.arange(12.0), y)
    nuis = fixed_weight_nuisances(data, np.ones(12))
    intervals = []
    for gamma in (1.0, 2.0, 3.0, 5.0):  # 12*tau_u = 6, 8, 9, 10: all integral
        lo, hi = marginal_quantile_beta_bounds(data, intercept_msm(), nuis,
                                               GammaSpec(gamma), 0)
        intervals.append((lo, hi))
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert lo2 <= lo1 + 1e-12 and hi2 >= hi1 - 1e-12


def test_empirical_conditional_rule_rejects_one_unit_cells():
    # continuous data: every (a, x) cell holds one unit, so the per-cell rank
    # rule has no gamma atom to place and would give lower = upper = point / gamma
    data = _data(seed=1, n=100)
    nuis = SelfFit(data, NuisanceConfig(quantile_method="empirical"))
    for gamma in (1.0, 1.5):
        with pytest.raises(ConfigError, match="more than one unit"):
            conditional_quantile_beta_bounds(data, linear_msm(), nuis, GammaSpec(gamma), 1)
    for flavor in ("exact", "linearized"):
        with pytest.raises(ConfigError, match="more than one unit"):
            homotopy_bounds(data, linear_msm(), nuisances=nuis, grid=[1.0, 1.5],
                            flavor=flavor, constraint="conditional", coord=1)
