"""Bounds under the outcome sensitivity model (shift parameter delta).

The confounded dose-response differs from the observed-regression curve by
at most delta at every treatment level. Linear targets shift by exactly
delta times a sign pattern, so bounds are doubly-robust fits of shifted
pair kernels; nonlinear targets get an outer-box grid search over the
reachable moment perturbations.
"""

import dataclasses
import itertools
import warnings

import numpy as np
import scipy.optimize

from .errors import GridFailure, NoConvergence, SingularMoment
from .msm import _linear_functional_fits, _pair_moment_sides, solve_moment
from .nuisance import _pair_phi
from .results import BetaEstimate


@dataclasses.dataclass(frozen=True)
class DeltaSpec:
    """Outcome-shift sensitivity parameter; delta = 0 means no confounding."""

    delta: float = 0.0

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")


def _shifted_phi(data, nuisances, shift):
    """The kernel phi_ij = w_i (y_i - mu_ii) + shift_i + mu(a_i, X_j), as
    ``nuisance._pair_phi`` gives it: factors when mu-hat is additive."""
    return _pair_phi(nuisances, nuisances.weights * (data.y - nuisances.mu_units) + shift)


def _linear_shift_bounds(data, model, nuisances, spec, direction):
    """Bounds on direction^T beta for the least-squares projection.

    The shift enters as +/- delta times the sign of the leverage
    direction^T Q^-1 b(A_i).
    """
    def shifted(lev):
        signs = np.sign(lev)
        return [_shifted_phi(data, nuisances, sgn * spec.delta * signs) for sgn in (-1.0, 1.0)]

    (low, var_low), (high, var_high) = _linear_functional_fits(
        model, data.a, direction, shifted)
    return low, high, (var_low, var_high)


def outcome_curve_bounds(data, model, nuisances, spec, a0):
    """Pointwise curve bounds at a0: (lower, upper, (var_lower, var_upper)).

    The width is exactly 2 delta mean_n|b(a0)^T Q^-1 b(A)| because both
    sides share Q-hat and the shift flips sign with the leverage.
    """
    b0 = model.basis_matrix(np.array([float(a0)]))[0]
    return _linear_shift_bounds(data, model, nuisances, spec, b0)


def outcome_beta_bounds_linear(data, model, nuisances, spec, coord):
    """Coordinate bounds for a linear model: (lower, upper)."""
    e = np.zeros(model.dim)
    e[coord] = 1.0
    low, high, _ = _linear_shift_bounds(data, model, nuisances, spec, e)
    return low, high


def outcome_parametric_bounds(data, model, nuisances, spec):
    """Working-model fits under a constant +/-delta outcome shift.

    Solves U_n[h(A_1)(f_mu +/- delta - g(A_1; beta))] = 0; weakly inside
    the per-direction linear bounds whenever the sign split is non-constant.
    """
    phis = (_shifted_phi(data, nuisances, np.full(data.n, sgn * spec.delta))
            for sgn in (-1.0, 1.0))
    low, high = (BetaEstimate(beta=beta, covariance=cov)
                 for beta, cov in _pair_moment_sides(model, data.a, phis))
    return low, high


def _feasible_lp(h, t, delta):
    """Is t in the zonotope {mean_n[h_i xi_i] : |xi_i| <= delta}? LP feasibility."""
    n, k = h.shape
    res = scipy.optimize.linprog(
        np.zeros(n),
        A_eq=h.T / n,
        b_eq=t,
        bounds=[(-delta, delta)] * n,
        method="highs",
    )
    return bool(res.success)


def outcome_nonlinear_grid_bounds(
    data, model, nuisances, spec, coord, grid_res=7, lp_filter=False
):
    """Coordinate bounds for a generic model via a grid over moment shifts.

    The reachable shift set is outer-bounded by the per-axis box
    [-delta mean|h_l|, +delta mean|h_l|]; each grid node t solves
    mean_n[h w (mu-hat - g(beta))] = t. ``lp_filter`` drops nodes outside
    the exact reachable zonotope, tightening the conservative box.
    """
    if model.dim > 4:
        raise ValueError("grid search supports at most 4 moment coordinates")
    if grid_res < 2 and spec.delta > 0:
        raise ValueError("grid_res must be >= 2")
    h = model.features(data.a)
    w = nuisances.weights
    mu = nuisances.mu_units
    base_target = h.T @ (w * mu) / data.n

    if spec.delta == 0.0:
        beta = solve_moment(model, data.a, base_target, w)
        val = float(beta[coord])
        return val, val

    half = spec.delta * np.mean(np.abs(h), axis=0)
    axes = [np.linspace(-half[l], half[l], grid_res) for l in range(model.dim)]
    lo = np.inf
    hi = -np.inf
    failures = []
    beta_warm = None
    for node in itertools.product(*axes):
        t = np.asarray(node)
        if lp_filter and not _feasible_lp(h, t, spec.delta):
            continue
        try:
            beta = solve_moment(model, data.a, base_target + t, w, beta_warm)
        except (NoConvergence, SingularMoment):
            failures.append(tuple(float(v) for v in t))
            continue
        beta_warm = beta
        val = float(beta[coord])
        lo = min(lo, val)
        hi = max(hi, val)
    if not np.isfinite(lo):
        raise GridFailure(f"no grid node solvable ({len(failures)} failures)")
    if failures:
        warnings.warn(
            f"{len(failures)} grid nodes skipped as unsolvable", RuntimeWarning
        )
    return lo, hi
