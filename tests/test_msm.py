"""Weighted moment fitting and U-statistic machinery."""

import numpy as np
import pytest

from msmbounds.data import Dataset
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import ConfigError, NoConvergence, SingularMoment
from msmbounds.gamma import GammaSpec, fit_parametric_bounds, local_beta_bounds
from msmbounds.homotopy import homotopy_bounds
from msmbounds.msm import (
    MsmModel,
    PairKernel,
    custom_msm,
    fit_msm,
    intercept_msm,
    linear_msm,
    polynomial_msm,
    sandwich_variance,
    u_projection_variance,
    u_statistic,
    u_statistic_with_variance,
    weighted_fit,
)
from msmbounds.nuisance import SelfFit, fixed_weight_nuisances
from msmbounds.outcome import DeltaSpec, outcome_parametric_bounds
from msmbounds.panel import custom_panel_msm
from msmbounds.subset import EpsilonSpec, subset_parametric_bounds


def _dataset(seed=0, n=150):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    y = 1.0 + 3.0 * a + rng.standard_normal(n)
    return Dataset(None, a, y)


def test_intercept_fit_is_weighted_mean():
    data = _dataset()
    w = np.linspace(0.5, 2.0, data.n)
    est = fit_msm(data, intercept_msm(), weights=w)
    assert est.beta[0] == pytest.approx(np.sum(w * data.y) / np.sum(w), abs=1e-12)


def test_linear_fit_matches_weighted_least_squares():
    data = _dataset()
    w = np.linspace(0.5, 2.0, data.n)
    est = fit_msm(data, linear_msm(), weights=w)
    B = np.column_stack([np.ones(data.n), data.a])
    sw = np.sqrt(w)
    ref = np.linalg.lstsq(B * sw[:, None], data.y * sw, rcond=None)[0]
    np.testing.assert_allclose(est.beta, ref, atol=1e-10)


def test_nonlinear_fit_agrees_with_linear_route():
    # an exponential-curve model that happens to be fit at its linear point
    data = _dataset()
    w = np.ones(data.n)
    lin = fit_msm(data, linear_msm(), weights=w)
    basis = lambda a: np.column_stack([np.ones(a.size), a])
    curved = custom_msm(
        dim=2,
        curve=lambda a, b: b[0] + b[1] * a,
        gradient=lambda a, b: basis(a),
        moment_features=basis,
        name="pseudo-linear",
    )
    assert not curved.linear
    est = fit_msm(data, curved, weights=w)
    np.testing.assert_allclose(est.beta, lin.beta, atol=1e-8)


def test_nonlinear_fit_genuinely_curved():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 2.0, 400)
    y = np.exp(0.7 * a) + 0.05 * rng.standard_normal(400)
    model = custom_msm(
        dim=1,
        curve=lambda av, b: np.exp(b[0] * av),
        gradient=lambda av, b: (av * np.exp(b[0] * av))[:, None],
        moment_features=lambda av: av[:, None],
        name="exp",
    )
    est = fit_msm(Dataset(None, a, y), model, weights=np.ones(400),
                  beta0=[0.5])
    assert est.beta[0] == pytest.approx(0.7, abs=0.02)


def test_newton_reports_failure():
    # moment has no root: g ranges over (0, inf) but the target mean is negative
    data = Dataset(None, [0.5, 1.0, 1.5, 2.0], [-3.0, -4.0, -2.0, -5.0])
    model = custom_msm(
        dim=1,
        curve=lambda a, b: np.exp(b[0] * a),
        gradient=lambda a, b: (a * np.exp(b[0] * a))[:, None],
        moment_features=lambda a: np.ones((a.size, 1)),
        name="exp",
    )
    with pytest.raises(NoConvergence):
        fit_msm(data, model, weights=np.ones(4), max_iter=12)


def test_fit_requires_weights_or_nuisances():
    with pytest.raises(ValueError):
        fit_msm(_dataset(), linear_msm())


def test_moment_matrix_and_singular_design():
    data = _dataset(n=50)
    m = weighted_fit(linear_msm(), data.a, data.y, np.ones(50))[1]
    B = np.column_stack([np.ones(50), data.a])
    np.testing.assert_allclose(m, B.T @ B / 50, atol=1e-12)
    with pytest.raises(SingularMoment):
        # a constant dose makes the basis [1, a] rank one
        weighted_fit(linear_msm(), np.zeros(10), np.zeros(10), np.ones(10))


def test_polynomial_degree_validation():
    with pytest.raises(ValueError):
        polynomial_msm(-1)
    model = polynomial_msm(2)
    np.testing.assert_allclose(model.basis_matrix([2.0]), [[1.0, 2.0, 4.0]])


def test_sandwich_variance_intercept_hand_value():
    # intercept model, unit weights: score is y - mean(y), M = 1, so the
    # sandwich is just the ddof-0 variance of y
    data = _dataset(n=80)
    est = fit_msm(data, intercept_msm(), weights=np.ones(80))
    v = sandwich_variance(intercept_msm(), data.a, data.y, np.ones(80), est.beta)
    assert v[0, 0] == pytest.approx(np.var(data.y), rel=1e-10)


def test_sandwich_variance_covers_slope():
    # sqrt(n)(beta1_hat - 3) should match its asymptotic variance over reps
    reps, n = 300, 200
    slopes = np.empty(reps)
    vars_ = np.empty(reps)
    for r in range(reps):
        data = _dataset(seed=r, n=n)
        est = fit_msm(data, linear_msm(), weights=np.ones(n))
        slopes[r] = est.beta[1]
        vars_[r] = est.covariance[1, 1]
    emp = np.var(np.sqrt(n) * (slopes - 3.0))
    assert emp == pytest.approx(vars_.mean(), rel=0.25)


def _hand_kernel():
    # f(z_i, z_j) = z_i * z_j^2 on z = (1, 2, 3): asymmetric on purpose
    z = np.array([1.0, 2.0, 3.0])

    def row(i):
        return (z[i] * z ** 2)[:, None]

    return z, PairKernel(3, 1, row)


def test_u_statistic_hand_value():
    z, kernel = _hand_kernel()
    # ordered pairs (i != j): sum z_i z_j^2 = sum_i z_i (S2 - z_i^2), S2 = 14
    total = sum(zi * (14.0 - zi ** 2) for zi in z)
    assert u_statistic(kernel)[0] == pytest.approx(total / 6.0, abs=1e-12)


def test_u_projection_symmetrizes():
    z, kernel = _hand_kernel()
    h1 = [
        np.mean([
            0.5 * (z[i] * z[j] ** 2 + z[j] * z[i] ** 2)
            for j in range(3)
            if j != i
        ])
        for i in range(3)
    ]
    np.testing.assert_allclose(h1, [4.5, 9.0, 10.5], atol=1e-12)
    # 4 Cov(h1) of the symmetrized projection, ddof 0: 4 * 6.5
    assert u_projection_variance(kernel)[0, 0] == pytest.approx(26.0, abs=1e-12)


def test_u_statistic_with_variance_consistent():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(40)

    def row(i):
        return np.column_stack([z[i] + z, z[i] * z])

    kernel = PairKernel(40, 2, row)
    val, cov = u_statistic_with_variance(kernel)
    np.testing.assert_allclose(val, u_statistic(kernel), atol=1e-14)
    np.testing.assert_allclose(cov, u_projection_variance(kernel), atol=1e-14)
    assert cov.shape == (2, 2)
    assert np.all(np.linalg.eigvalsh(cov) > -1e-12)


def test_u_statistic_needs_two_units():
    kernel = PairKernel(1, 1, lambda i: np.zeros((1, 1)))
    with pytest.raises(ValueError):
        u_statistic(kernel)


def test_pair_kernel_row_shape_guard():
    kernel = PairKernel(3, 1, lambda i: np.zeros((2, 1)))
    with pytest.raises(ValueError):
        kernel.row(0)


def test_u_statistic_mean_kernel_reduces_to_sample_means():
    # f(z_i, z_j) = (z_i + z_j) / 2 averages to the sample mean exactly
    rng = np.random.default_rng(12)
    z = rng.standard_normal(25)
    kernel = PairKernel(25, 1, lambda i: (0.5 * (z[i] + z))[:, None])
    assert u_statistic(kernel)[0] == pytest.approx(z.mean(), abs=1e-12)


def test_basis_must_be_the_moment_features():
    # every linear routine solves the basis moments, so a basis model whose
    # moment features differ would disagree with its own sandwich variance
    basis = lambda a: np.column_stack([np.ones(a.size), a])
    with pytest.raises(ValueError, match="drop basis"):
        custom_msm(
            dim=2,
            curve=lambda a, b: basis(a) @ b,
            gradient=lambda a, b: basis(a),
            moment_features=lambda a: np.column_stack([np.ones(a.size), a ** 3]),
            basis=basis,
        )
    assert custom_msm(2, lambda a, b: basis(a) @ b, lambda a, b: basis(a),
                      basis, basis=basis).linear


def _line_basis(a):
    return np.column_stack([np.ones(a.size), a])


@pytest.mark.parametrize("build", [
    lambda: custom_msm(2, None, None, None),
    lambda: custom_msm(2, lambda a, b: b[0] + b[1] * a, None, _line_basis),
    lambda: MsmModel(2),
    lambda: MsmModel(2, moment_features=_line_basis),
    lambda: custom_panel_msm(2),
], ids=["custom-none", "custom-no-gradient", "model-none", "model-features-only", "panel-none"])
def test_a_model_without_a_basis_or_its_callables_fails_at_construction(build):
    # it used to build, and the first fit failed with "'NoneType' object is not callable"
    with pytest.raises(ConfigError, match="needs a basis or all of curve, gradient and "
                                          "moment_features"):
        build()


def test_a_linear_model_is_its_basis():
    # curve, gradient and moment features come from the basis when not given
    data = _dataset(3, 60)
    model = MsmModel(2, basis=_line_basis)
    beta = np.array([0.5, -2.0])
    assert model.linear and model.moment_features is _line_basis
    np.testing.assert_array_equal(model.predict(data.a, beta), _line_basis(data.a) @ beta)
    np.testing.assert_array_equal(model.grad(data.a, beta), _line_basis(data.a))
    np.testing.assert_array_equal(model.basis_matrix(data.a), model.features(data.a))
    ones = np.ones(data.n)
    assert (fit_msm(data, model, weights=ones).beta.tobytes()
            == fit_msm(data, linear_msm(), weights=ones).beta.tobytes())


def _pseudo_linear():
    """A line with no basis, so every solve runs the Newton path."""
    basis = lambda a: np.column_stack([np.ones(a.size), a])
    return custom_msm(
        dim=2,
        curve=lambda a, b: b[0] + b[1] * a,
        gradient=lambda a, b: basis(a),
        moment_features=basis,
        name="pseudo-linear",
    )


def _parametric(routine):
    spec, fn = {
        "propensity": (GammaSpec(1.5), fit_parametric_bounds),
        "outcome": (DeltaSpec(0.4), outcome_parametric_bounds),
        "subset": (EpsilonSpec(0.3, GammaSpec(1.5)), subset_parametric_bounds),
    }[routine]
    return lambda data, model, nuis: [e.beta for e in fn(data, model, nuis, spec)]


def _homotopy(data, model, nuis):
    trace = homotopy_bounds(data, model, nuis, grid=[1.0, 1.5, 2.0], coord=1)
    return [trace.lower, trace.upper]


@pytest.mark.parametrize(
    "run",
    [_parametric("propensity"), _parametric("outcome"), _parametric("subset"),
     _homotopy],
    ids=["fit_parametric_bounds", "outcome_parametric_bounds",
         "subset_parametric_bounds", "homotopy_bounds"],
)
def test_newton_route_matches_closed_form(run):
    data = generate(DgpSpec("confounded-line", seed=4), 120)
    nuis = SelfFit(data)
    model = _pseudo_linear()
    assert not model.linear
    for newton, closed in zip(run(data, model, nuis), run(data, linear_msm(), nuis)):
        np.testing.assert_allclose(newton, closed, rtol=0, atol=1e-8)


def _no_root_data():
    # exp(beta a) > 0 cannot match a negative weighted outcome mean
    return Dataset(None, [0.5, 1.0, 1.5, 2.0], [-3.0, -4.0, -2.0, -5.0])


def _exp_model():
    return custom_msm(
        dim=1,
        curve=lambda a, b: np.exp(b[0] * a),
        gradient=lambda a, b: (a * np.exp(b[0] * a))[:, None],
        moment_features=lambda a: np.ones((a.size, 1)),
        name="exp",
    )


def _local(data, model):
    local_beta_bounds(data, model, fixed_weight_nuisances(data, np.ones(data.n)),
                      GammaSpec(2.0), 0)


def _homotopy_point(data, model):
    homotopy_bounds(data, model, weights=np.ones(data.n), grid=[1.0, 2.0])


@pytest.mark.parametrize("run", [_local, _homotopy_point],
                         ids=["local_beta_bounds", "homotopy_bounds"])
def test_newton_failure_is_typed_through_callers(run):
    with pytest.raises(NoConvergence):
        run(_no_root_data(), _exp_model())
