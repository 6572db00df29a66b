"""Pair moments: beta and covariance against a row-wise two-pass reference, for
the one-pass row kernel and the additive factor sums alike."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds import datagen
from msmbounds.data import Dataset
from msmbounds.datagen import DgpSpec, generate
from msmbounds.gamma import GammaSpec, fit_parametric_bounds, linear_curve_bounds
from msmbounds.msm import (
    PairKernel,
    _factor_sums,
    _pair_sums,
    pair_moment_fit,
    polynomial_msm,
    solve_moment,
    u_projection_variance,
    u_statistic,
)
from msmbounds.nuisance import CrossFit, NuisanceConfig, SelfFit
from msmbounds.outcome import (
    DeltaSpec,
    outcome_beta_bounds_linear,
    outcome_curve_bounds,
    outcome_parametric_bounds,
)

N = 48
GAMMA = 2.0
DELTA = 0.5
A0 = 0.5
STATIC = [
    name for name in datagen.registry()
    if isinstance(generate(DgpSpec(name, seed=0), 8), Dataset)
]


def _two_pass(h, phi_row, solve):
    """Reference: U_n[h phi] for the target, then a second walk over the
    residual kernel M^-1 h_i (phi_ij - g_i) for the covariance."""
    n, dim = h.shape
    target = u_statistic(PairKernel(n, dim, lambda i: h[i][None, :] * phi_row(i)[:, None]))
    beta, fitted, bread = solve(target)
    minv_h = np.linalg.solve(bread, h.T).T

    def resid_row(i):
        return minv_h[i][None, :] * (phi_row(i) - fitted[i])[:, None]

    return beta, u_projection_variance(PairKernel(n, dim, resid_row))


def _model_solve(model, a, h):
    def solve(target):
        beta = solve_moment(model, a, target)
        return beta, model.predict(a, beta), h.T @ model.basis_matrix(a) / a.size

    return solve


def _gram_solve(b):
    q_mat = b.T @ b / b.shape[0]

    def solve(target):
        beta = np.linalg.solve(q_mat, target)
        return beta, b @ beta, q_mat

    return solve


def _gamma_phi(nuis, side):
    base = nuis.weights * (nuis.s_units(GAMMA, side) - nuis.kappa_units(GAMMA, side))
    return lambda i: base[i] + nuis.kappa_row(GAMMA, side, i)


def _outcome_phi(data, nuis, shift):
    base = nuis.weights * (data.y - nuis.mu_units)
    return lambda i: base[i] + nuis.mu_row(i) + shift[i]


def _leverage_sign(b, b0):
    return b @ np.linalg.solve(b.T @ b / b.shape[0], b0)


FOLDS = {"self": 2, "crossfit": 2, "crossfit5": 5}


def _nuisances(data, fit, method):
    config = NuisanceConfig(outcome_method=method, folds=FOLDS[fit])
    if fit == "self":
        return SelfFit(data, config)
    return CrossFit(data, config, seed=1)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("method", ["linear", "kernel"])
@pytest.mark.parametrize("fit", sorted(FOLDS))
@pytest.mark.parametrize("dgp", STATIC)
def test_one_pass_matches_two_pass_reference(dgp, fit, method, degree):
    data = generate(DgpSpec(dgp, seed=3), N)
    nuis = _nuisances(data, fit, method)
    model = polynomial_msm(degree)
    a = data.a
    h = model.features(a)
    b = model.basis_matrix(a)
    b0 = model.basis_matrix(np.array([A0]))[0]
    # the additive path sums in another order than the row kernel, and a solve's
    # forward error grows with the condition number of the bread (5.1e6 for
    # the quadratic on hidden-dose, whose doses lie in [2, 2.5])
    rtol = max(1e-10, 4 * np.finfo(float).eps * np.linalg.cond(h.T @ b / data.n))

    def _close(got, want):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    # fit_parametric_bounds: lower then upper side of the propensity kernel
    estimates = fit_parametric_bounds(data, model, nuis, GammaSpec(GAMMA))
    for est, side in zip(estimates, ("lower", "upper")):
        beta, cov = _two_pass(h, _gamma_phi(nuis, side), _model_solve(model, a, h))
        _close(est.beta, beta)
        _close(est.covariance, cov)

    # linear_curve_bounds: each unit takes the side its leverage sign picks
    pos = _leverage_sign(b, b0) >= 0.0
    phi = {side: _gamma_phi(nuis, side) for side in ("lower", "upper")}
    values = []
    for same, other in (("lower", "upper"), ("upper", "lower")):
        row = lambda i, s=same, o=other: phi[s if pos[i] else o](i)
        beta, cov = _two_pass(b, row, _gram_solve(b))
        values.append((b0 @ beta, b0 @ cov @ b0))
    values.sort(key=lambda v: v[0])
    low, high, (var_low, var_high) = linear_curve_bounds(data, model, nuis, GammaSpec(GAMMA), A0)
    _close([low, high, var_low, var_high], [values[0][0], values[1][0], values[0][1], values[1][1]])

    # outcome_curve_bounds: the shift follows the leverage sign at a0
    signs = np.sign(_leverage_sign(b, b0))
    want = []
    for sgn in (-1.0, 1.0):
        beta, cov = _two_pass(b, _outcome_phi(data, nuis, sgn * DELTA * signs), _gram_solve(b))
        want.append((b0 @ beta, b0 @ cov @ b0))
    low, high, (var_low, var_high) = outcome_curve_bounds(data, model, nuis, DeltaSpec(DELTA), A0)
    _close([low, high, var_low, var_high], [want[0][0], want[1][0], want[0][1], want[1][1]])

    # outcome_parametric_bounds: a constant shift of -delta, then +delta
    estimates = outcome_parametric_bounds(data, model, nuis, DeltaSpec(DELTA))
    for est, sgn in zip(estimates, (-1.0, 1.0)):
        shift = np.full(data.n, sgn * DELTA)
        beta, cov = _two_pass(h, _outcome_phi(data, nuis, shift), _model_solve(model, a, h))
        _close(est.beta, beta)
        _close(est.covariance, cov)


def test_pair_moment_fit_hand_kernel():
    # phi(z_i, z_j) = z_i z_j^2, h = 1, g = beta: the target is the
    # U-statistic and the covariance that of the kernel phi - beta
    z = np.array([1.0, 2.0, 3.0])
    h = np.ones((3, 1))

    def solve(target):
        return target, np.full(3, target[0]), np.eye(1)

    beta, cov = pair_moment_fit(h, lambda i: z[i] * z ** 2, solve)
    kernel = PairKernel(3, 1, lambda i: (z[i] * z ** 2)[:, None])
    assert beta[0] == pytest.approx(u_statistic(kernel)[0], abs=1e-12)
    # subtracting a constant leaves the projection covariance unchanged
    assert cov[0, 0] == pytest.approx(26.0, abs=1e-12)


def _counted(nuis, name):
    calls = []
    original = getattr(nuis, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    setattr(nuis, name, counted)
    return calls


def _row_counts(fit, method):
    """(kappa_row calls, mu_row calls) of each pair-moment routine, and n."""
    data = generate(DgpSpec("confounded-line", seed=2), 40)
    nuis = _nuisances(data, fit, method)
    model = polynomial_msm(1)
    kappa_calls = _counted(nuis, "kappa_row")
    mu_calls = _counted(nuis, "mu_row")
    routines = [
        lambda: fit_parametric_bounds(data, model, nuis, GammaSpec(GAMMA)),
        lambda: linear_curve_bounds(data, model, nuis, GammaSpec(GAMMA), A0),
        lambda: outcome_curve_bounds(data, model, nuis, DeltaSpec(DELTA), A0),
        lambda: outcome_beta_bounds_linear(data, model, nuis, DeltaSpec(DELTA), 1),
        lambda: outcome_parametric_bounds(data, model, nuis, DeltaSpec(DELTA)),
    ]
    counts = []
    for run in routines:
        kappa_calls.clear()
        mu_calls.clear()
        run()
        counts.append((list(kappa_calls), list(mu_calls)))
    return counts, data.n


@pytest.mark.parametrize("fit", ["self", "crossfit"])
def test_one_kernel_pass_per_side(fit):
    # the Nadaraya-Watson regression is not additive, so its kernels walk rows
    counts, n = _row_counts(fit, "kernel")
    # two propensity routines read kappa-hat rows, three outcome ones mu-hat rows
    for (kappa_calls, mu_calls), reads in zip(counts, ["kappa"] * 2 + ["mu"] * 3):
        calls = kappa_calls if reads == "kappa" else mu_calls
        # every row of each side's kernel is evaluated exactly once
        assert len(calls) == 2 * n
        assert sorted(c[-1] for c in calls) == sorted(2 * list(range(n)))
        assert len(kappa_calls) + len(mu_calls) == 2 * n


@pytest.mark.parametrize("fit", ["self", "crossfit"])
def test_linear_outcome_reads_no_kernel_row(fit):
    counts, _ = _row_counts(fit, "linear")
    assert counts == [([], [])] * 5


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 9), r=st.integers(1, 4), dim=st.integers(1, 3), seed=st.integers(0, 9))
def test_factor_sums_match_the_row_pass(n, r, dim, seed):
    rng = np.random.default_rng(seed)
    left, right = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    h = rng.standard_normal((n, dim))
    kernel = PairKernel(n, dim, lambda i: h[i][None, :] * (right @ left[i])[:, None])
    if n < 2:
        with pytest.raises(ValueError, match="need at least two units"):
            _pair_sums(kernel)
        with pytest.raises(ValueError, match="need at least two units"):
            _factor_sums(h, left, right)
        return
    for got, want in zip(_factor_sums(h, left, right), _pair_sums(kernel), strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
