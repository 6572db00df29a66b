"""Nuisance fitters: exact recovery, quantile conventions, fold hygiene."""

from unittest import mock

import numpy as np
import pytest

from msmbounds import nuisance
from msmbounds.data import Dataset
from msmbounds.errors import (
    BadTau,
    ConfigError,
    DataError,
    DegenerateVariance,
    TooManyLevels,
)
from msmbounds.gamma import GammaSpec, conditional_quantile_beta_bounds, fit_parametric_bounds
from msmbounds.msm import intercept_msm, linear_msm
from msmbounds.nuisance import (
    CrossFit,
    DiscretePropensity,
    EmpiricalQuantileFit,
    GaussianPropensity,
    KernelOutcomeFit,
    LinearOutcomeFit,
    NuisanceConfig,
    PinballQuantileFit,
    SelfFit,
    cell_labels,
    clipped_pseudo_outcome,
    fixed_weight_nuisances,
    fit_outcome,
    fit_propensity,
)


def _noisy_linear(seed=0, n=200):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    a = 0.5 * x[:, 0] + rng.standard_normal(n)
    y = 1.0 + 2.0 * a - 3.0 * x[:, 0] + 0.3 * rng.standard_normal(n)
    return Dataset(x, a, y)


def test_config_validation():
    with pytest.raises(ConfigError):
        NuisanceConfig(outcome_method="spline")
    with pytest.raises(ConfigError):
        NuisanceConfig(folds=1)
    with pytest.raises(ConfigError):
        NuisanceConfig(propensity_clip=0.0)
    with pytest.raises(ConfigError):
        NuisanceConfig(weight_flavor="raw")


def test_linear_outcome_exact_on_noiseless_data():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 2))
    a = rng.standard_normal(50)
    y = 2.0 - 1.5 * a + 0.5 * a ** 2 + x @ [1.0, -2.0]
    fit = LinearOutcomeFit(nuisance._Rows(a, x), y, degree=2)
    np.testing.assert_allclose(fit(nuisance._Rows(a, x)), y, atol=1e-9)
    a2 = rng.standard_normal(10)
    x2 = rng.standard_normal((10, 2))
    expected = 2.0 - 1.5 * a2 + 0.5 * a2 ** 2 + x2 @ [1.0, -2.0]
    np.testing.assert_allclose(fit(nuisance._Rows(a2, x2)), expected, atol=1e-9)


def test_kernel_outcome_interpolates_smoothly():
    rng = np.random.default_rng(2)
    a = rng.uniform(-2, 2, 300)
    y = np.sin(a)
    fit = fit_outcome(Dataset(None, a, y), NuisanceConfig(outcome_method="kernel"))
    probe = np.linspace(-1.5, 1.5, 20)
    np.testing.assert_allclose(fit(nuisance._Rows(probe, np.zeros((20, 0)))), np.sin(probe), atol=0.1)


def test_gaussian_propensity_recovers_mean_model():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4000, 1))
    a = 1.0 + 2.0 * x[:, 0] + rng.standard_normal(4000)
    p = GaussianPropensity(a, x)
    np.testing.assert_allclose(p.coef, [1.0, 2.0], atol=0.1)
    assert p.sigma2 == pytest.approx(1.0, abs=0.1)
    dens = p.conditional_density(a[:5], x[:5])
    assert np.all(dens > 0) and np.all(dens <= 1 / np.sqrt(2 * np.pi * p.sigma2) + 1e-12)


def test_gaussian_propensity_degenerate_treatment():
    with pytest.raises(DegenerateVariance):
        GaussianPropensity(np.ones(20), np.zeros((20, 0)))


def test_discrete_propensity_no_covariates_is_frequency():
    a = np.array([0.0, 0.0, 1.0, 2.0, 2.0, 2.0])
    p = DiscretePropensity(a, np.zeros((6, 0)))
    np.testing.assert_allclose(p.marginal_density([0.0, 1.0, 2.0]),
                               [2 / 6, 1 / 6, 3 / 6])
    np.testing.assert_allclose(p.conditional_density(a, np.zeros((6, 0))),
                               p.marginal_density(a))
    with pytest.raises(ValueError):
        p.conditional_density([0.5], np.zeros((1, 0)))


def test_discrete_propensity_learns_covariate_tilt():
    rng = np.random.default_rng(4)
    n = 4000
    x = rng.integers(0, 2, n).astype(float)
    probs = np.where(x[:, None] == 1, [0.1, 0.9], [0.6, 0.4])
    a = (rng.random(n) > probs[:, 0]).astype(float)
    p = DiscretePropensity(a, x[:, None])
    est1 = p.conditional_density(np.ones(1), np.ones((1, 1)))[0]
    est0 = p.conditional_density(np.ones(1), np.zeros((1, 1)))[0]
    assert est1 == pytest.approx(0.9, abs=0.05)
    assert est0 == pytest.approx(0.4, abs=0.05)


def test_discrete_propensity_level_cap():
    with pytest.raises(TooManyLevels):
        DiscretePropensity(np.arange(25.0), np.zeros((25, 0)))


def test_pinball_quantiles_exact_on_noiseless_line():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(80)
    y = 2.0 + 1.5 * a
    fit = PinballQuantileFit(nuisance._Rows(a, np.zeros((80, 0))), y)
    for tau in (0.2, 0.5, 0.8):
        np.testing.assert_allclose(fit.evaluate_many([tau], nuisance._Rows(a, np.zeros((80, 0))))[:, 0], y,
                                   atol=1e-6)


def test_pinball_quantiles_never_cross():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(120)
    y = a + rng.standard_normal(120) * (1 + a ** 2)
    fit = PinballQuantileFit(nuisance._Rows(a, np.zeros((120, 0))), y)
    taus = [0.9, 0.1, 0.5]
    q = fit.evaluate_many(taus, nuisance._Rows(a, np.zeros((120, 0))))
    assert np.all(q[:, 1] <= q[:, 2] + 1e-12)
    assert np.all(q[:, 2] <= q[:, 0] + 1e-12)


def test_pinball_rejects_bad_tau():
    fit = PinballQuantileFit(nuisance._Rows([0.0, 1.0], np.zeros((2, 0))), [0.0, 1.0])
    with pytest.raises(BadTau):
        fit.evaluate_many([0.0], nuisance._Rows([0.0], np.zeros((1, 0))))
    with pytest.raises(BadTau):
        fit.evaluate_many([1.0], nuisance._Rows([0.0], np.zeros((1, 0))))


def test_empirical_quantiles_per_cell():
    a = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    y = np.array([1.0, 2.0, 3.0, 10.0, 20.0])
    fit = EmpiricalQuantileFit(nuisance._Rows(a, np.zeros((5, 0))), y)
    # type-1: ceil(3*.5)=2nd smallest in cell a=0; ceil(2*.5)=1st in cell a=1
    assert fit.evaluate_many([0.5], nuisance._Rows([0.0], np.zeros((1, 0))))[0, 0] == 2.0
    assert fit.evaluate_many([0.5], nuisance._Rows([1.0], np.zeros((1, 0))))[0, 0] == 10.0
    # unseen cell falls back to the pooled sample
    assert fit.evaluate_many([0.5], nuisance._Rows([7.0], np.zeros((1, 0))))[0, 0] == 3.0


# each fit's training entry, by the name its message gives, and whether it reads y
TRAINING_ENTRIES = {
    "linear outcome fit": (lambda rows, y: LinearOutcomeFit(rows, y), True),
    "kernel outcome fit": (lambda rows, y: KernelOutcomeFit(rows, y), True),
    "pinball quantile fit": (lambda rows, y: PinballQuantileFit(rows, y).coef(0.5), True),
    "empirical quantile fit": (lambda rows, y: EmpiricalQuantileFit(rows, y), True),
    "gaussian propensity fit": (lambda rows, y: GaussianPropensity(rows.a, rows.x), False),
    "discrete propensity fit": (lambda rows, y: DiscretePropensity(rows.a, rows.x), False),
}
NON_FINITE = {"+inf-y": ("y", np.inf), "-inf-y": ("y", -np.inf), "nan-y": ("y", np.nan),
              "nan-a": ("a", np.nan), "+inf-a": ("a", np.inf)}


@pytest.mark.parametrize("fit,entry", [
    pytest.param(fit, entry, id=f"{fit}-{entry}")
    for fit, (_, reads_y) in sorted(TRAINING_ENTRIES.items()) for entry in NON_FINITE
    # a propensity reads a as its response and no y
    if reads_y or NON_FINITE[entry][0] == "a"])
def test_non_finite_training_data_is_a_data_error(fit, entry):
    # NaN in y gave NaN fits, and NaN or inf in a NaN fits or an untyped
    # LinAlgError from the least squares
    train, reads_y = TRAINING_ENTRIES[fit]
    column, value = NON_FINITE[entry]
    rng = np.random.default_rng(6)
    a, x = rng.standard_normal(50), rng.standard_normal((50, 1))
    y = a + x[:, 0] + rng.standard_normal(50)
    {"a": a, "y": y}[column][7] = value
    if not reads_y:
        counts = "1 non-finite in a, 0 in the design"
    elif column == "y":
        counts = "1 non-finite in y, 0 in the design"
    else:
        counts = "0 non-finite in y, 1 in the design"
    with pytest.raises(DataError, match=f"{fit} needs finite data: {counts}"):
        train(nuisance._Rows(a, x), y)

def test_group_cells_partitions():
    a = np.array([0.0, 1.0, 0.0, 1.0])
    x = np.array([[0.0], [0.0], [1.0], [0.0]])
    labels = cell_labels(a, x)
    assert np.unique(labels).size == 3
    sizes = sorted(np.bincount(labels).tolist())
    assert sizes == [1, 1, 2]


def test_clipped_pseudo_outcome_hand_values():
    y = np.array([3.0, 0.0])
    q_high = np.array([1.0, 1.0])
    q_low = np.array([-1.0, -1.0])
    up = clipped_pseudo_outcome(y, q_low, q_high, 2.0, "upper")
    # overshoot (3-1) doubled, undershoot (0-1) halved
    np.testing.assert_allclose(up, [5.0, 0.5])
    lo = clipped_pseudo_outcome(y, q_low, q_high, 2.0, "lower")
    # pivot at q_low = -1: both overshoot, so both residuals halve
    np.testing.assert_allclose(lo, [1.0, -0.5])
    below = clipped_pseudo_outcome(np.array([-3.0]), q_low[:1], q_high[:1],
                                   2.0, "lower")
    # undershoot (-3 - (-1)) doubled
    np.testing.assert_allclose(below, [-5.0])
    with pytest.raises(ValueError):
        clipped_pseudo_outcome(y, q_low, q_high, 2.0, "sideways")


def test_crossfit_no_training_leakage():
    data = _noisy_linear()
    cf = CrossFit(data, NuisanceConfig(folds=3), seed=9)
    for i in range(data.n):
        assert i not in cf.bundle_for(i).train_idx


def test_selffit_trains_on_the_dataset_without_a_copy(monkeypatch):
    data = _noisy_linear(n=60)
    monkeypatch.setattr(Dataset, "take", lambda *args: pytest.fail("copied the dataset"))
    cf = SelfFit(data)
    train = cf.bundles[0].train
    assert train.a is data.a and train.x is data.x and train.y is data.y
    np.testing.assert_array_equal(cf.bundles[0].train_idx, np.arange(data.n))


@pytest.mark.parametrize("folds", [1, 3])
def test_quantile_units_evaluates_each_bundle_once(monkeypatch, folds):
    data = _noisy_linear(n=60)
    cf = SelfFit(data) if folds == 1 else CrossFit(data, NuisanceConfig(folds=folds), seed=2)
    want_low, want_high = np.empty(data.n), np.empty(data.n)
    for b, units in zip(cf.bundles, cf._scored):
        want_low[units], want_high[units] = b.quantile_pair(
            1.7, nuisance._Rows(data.a[units], data.x[units]))
    calls = []
    quantile_pair = type(cf.bundles[0]).quantile_pair
    monkeypatch.setattr(type(cf.bundles[0]), "quantile_pair",
                        lambda b, *args: calls.append(b) or quantile_pair(b, *args))
    q_low, q_high = cf.quantile_units(1.7)
    assert len(calls) == folds
    assert q_low.tobytes() == want_low.tobytes()
    assert q_high.tobytes() == want_high.tobytes()


def test_each_fold_builds_its_designs_once():
    data = _noisy_linear(n=120)
    with mock.patch.object(nuisance, "_poly_design", wraps=nuisance._poly_design) as designs, \
            mock.patch.object(nuisance._Bundle, "quantile_pair", autospec=True,
                              side_effect=nuisance._Bundle.quantile_pair) as pairs:
        cf = CrossFit(data, NuisanceConfig(folds=2), seed=4)
        for gamma in (1.0, 1.5, 2.0, 3.0):
            fit_parametric_bounds(data, linear_msm(), cf, GammaSpec(gamma))
    # a propensity fit and its densities per bundle (4), one training design per
    # bundle and one scored design per fold (4), and [1, X] (1); this was 78
    assert designs.call_count <= 12
    at_training_rows = [(id(bundle), gamma) for bundle, gamma, rows
                        in (call.args for call in pairs.call_args_list) if rows is bundle.train]
    assert sorted(at_training_rows) == sorted(
        (id(bundle), gamma) for bundle in cf.bundles for gamma in (1.5, 2.0, 3.0))


def test_crossfit_weights_flavors():
    data = _noisy_linear()
    stab = CrossFit(data, NuisanceConfig(weight_flavor="stabilized"), seed=0)
    unstab = CrossFit(data, NuisanceConfig(weight_flavor="unstabilized"), seed=0)
    # same folds, so stabilized = marginal density * unstabilized, unit by unit
    marg = np.empty(data.n)
    for f in range(2):
        m = stab.assignment.members(f)
        marg[m] = stab.bundles[f].propensity.marginal_density(data.a[m])
    np.testing.assert_allclose(stab.weights, marg * unstab.weights, rtol=1e-10)
    assert np.all(stab.weights > 0)


def test_selffit_matches_full_sample_fits():
    data = _noisy_linear()
    sf = SelfFit(data)
    assert sf.in_sample
    full = LinearOutcomeFit(nuisance._Rows(data.a, data.x), data.y)
    np.testing.assert_allclose(sf.mu_units, full(nuisance._Rows(data.a, data.x)), atol=1e-12)
    w = GaussianPropensity(data.a, data.x)
    expect = w.marginal_density(data.a) / w.conditional_density(data.a, data.x)
    np.testing.assert_allclose(sf.weights, expect, atol=1e-12)


def test_quantile_and_kappa_caches():
    data = _noisy_linear(n=60)
    cf = SelfFit(data)
    q1 = cf.quantile_units(2.0)
    q2 = cf.quantile_units(2.0)
    assert q1[0] is q2[0]
    k1 = cf.kappa_units(2.0, "upper")
    k2 = cf.kappa_units(2.0, "upper")
    assert k1 is k2
    assert not np.array_equal(k1, cf.kappa_units(2.0, "lower"))


def test_kappa_row_and_at_units_shapes():
    data = _noisy_linear(n=40)
    cf = CrossFit(data, seed=1)
    assert cf.kappa_row(1.5, "upper", 3).shape == (40,)
    assert cf.kappa_at_units(1.5, "lower", 0.7).shape == (40,)
    assert cf.mu_row(0).shape == (40,)
    assert cf.mu_at_units(0.0).shape == (40,)


def test_fixed_weight_adapter():
    data = _noisy_linear(n=30)
    fixed = fixed_weight_nuisances(data, np.ones(30))
    np.testing.assert_array_equal(fixed.weights, np.ones(30))
    with pytest.raises(ConfigError):
        fixed.mu_units
    with pytest.raises(ConfigError):
        fixed_weight_nuisances(data, np.ones(29))


def test_fit_propensity_dispatch():
    data = _noisy_linear(n=50)
    assert fit_propensity(data).kind == "continuous"
    disc = Dataset(None, np.tile([0.0, 1.0], 10), np.arange(20.0))
    assert fit_propensity(disc, NuisanceConfig(propensity_method="discrete")).kind == "discrete"


def test_fixed_weight_adapter_rejects_fitted_pieces():
    data = _noisy_linear(n=30)
    fixed = fixed_weight_nuisances(data, np.ones(30))
    for call in (
        lambda: fixed.quantile_units(2.0),
        lambda: fixed.s_units(2.0, "upper"),
        lambda: fixed.kappa_units(2.0, "upper"),
        lambda: fixed.kappa_row(2.0, "lower", 0),
        lambda: fixed.kappa_at_units(2.0, "lower", 0.5),
        lambda: fixed.bundles,
        lambda: fixed.mu_at_units(0.5),
        lambda: fixed.additive_parts(),
        lambda: fixed.additive_parts(2.0, "upper"),
        lambda: conditional_quantile_beta_bounds(
            data, intercept_msm(), fixed, GammaSpec(2.0), 0),
    ):
        with pytest.raises(ConfigError):
            call()
