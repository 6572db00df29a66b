"""Bounds under the outcome sensitivity model (shift parameter delta).

The confounded dose-response differs from the observed-regression curve by
at most delta at every treatment level. Linear targets shift by exactly
delta times a sign pattern, so bounds are doubly-robust fits of shifted
pair kernels. A coordinate of any model moves with the fitted moment, which
a shift can push anywhere in the zonotope {mean_n[h_i xi_i] : |xi_i| <=
delta}; ``_shift_band`` takes its extremes, in closed form for a linear
model and by a support-point iteration otherwise. The outcome
``nonlinear-grid`` route and the subset-outcome bounds both call it.
"""

import dataclasses

import numpy as np

from .gamma import _leverage
from .msm import (
    _linear_functional_fits, _moment_matrix, _pair_moment_sides, _solve, solve_moment,
)
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


def _shift_band(model, a, w, fitted, radius, coord):
    """(lower, upper) extremes of beta[coord] over the fits
    mean_n[h w g(beta)] = mean_n[h w fitted] + t, t in radius Z.

    Z = {mean_n[h_i xi_i] : |xi_i| <= 1} is a zonotope whose extreme point
    in direction u is mean_n[h sign(h^T u)]. A linear model moves beta[coord]
    by mean_n[c xi] with c = ``gamma._leverage``, so its band is the closed
    form center +/- radius mean_n|c|. Any other model runs a support-point
    iteration per side: refit at t, take u = J^-T (+/- e) with
    J = mean_n[h w grad g(beta)^T], so that h^T u is +/- the leverage c at
    beta, move t to radius mean_n[h sign(h^T u)], and stop when a sign
    pattern repeats, keeping the most extreme value seen. A failed refit
    raises the solver's own error.
    """
    h = model.features(a)
    n = h.shape[0]
    target = h.T @ (w * fitted) / n
    if model.linear:
        # solve_moment's closed form, on the M the leverage takes too
        m = _moment_matrix(model, a, h, w)
        center = float(_solve(m, target, "moment matrix")[coord])
        half = float(radius * np.mean(np.abs(_leverage(h, m, coord))))
        return center - half, center + half
    start = solve_moment(model, a, target, w, h=h)
    ends = []
    for side in (-1.0, 1.0):
        beta, best, seen = start, side * start[coord], set()
        while True:
            signs = np.sign(side * _leverage(h, _moment_matrix(model, a, h, w, beta), coord))
            if signs.tobytes() in seen:
                break
            seen.add(signs.tobytes())
            beta = solve_moment(model, a, target + radius * (h.T @ signs) / n, w, beta, h=h)
            best = max(best, side * beta[coord])
        ends.append(float(side * best))
    return ends[0], ends[1]


def outcome_nonlinear_grid_bounds(data, model, nuisances, spec, coord):
    """Coordinate bounds for any model under the outcome shift: (lower, upper).

    The fitted moment mean_n[h w mu-hat] moves by any t in delta Z, the
    reachable shifts; ``_shift_band`` gives the extremes, exact for a linear
    model and a support point of the iteration otherwise.
    """
    return _shift_band(model, data.a, nuisances.weights, nuisances.mu_units,
                       spec.delta, coord)
