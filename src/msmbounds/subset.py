"""Bounds when only a fraction epsilon of the population is confounded.

Units in the confounded subset get the inner sensitivity model (the
density-ratio box for a GammaSpec inner model, the shift for a DeltaSpec);
the rest are exchangeable. The adversarial subset of mass epsilon is found
per treatment level by thresholding the conditional slack
r(a, x) = kappa(a, x) - mu(a, x) at its empirical epsilon-quantile, with
ranks breaking ties, so the selected fraction is epsilon within 1/n.
"""

import dataclasses

import numpy as np

from ._ranks import ceil_count, select_bottom_mask, select_top_mask
from .gamma import GammaSpec, _gamma_grid, _leverage, _rank_rule_grid
from .msm import _moment_matrix, _pair_moment_sides
from .outcome import DeltaSpec, _shift_band
from .results import BetaEstimate


@dataclasses.dataclass(frozen=True)
class EpsilonSpec:
    """Confounded-fraction parameter plus the inner sensitivity model."""

    epsilon: float
    inner: object  # GammaSpec or DeltaSpec

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not isinstance(self.inner, (GammaSpec, DeltaSpec)):
            raise TypeError("inner must be a GammaSpec or DeltaSpec")


def _select_counts(n, epsilon):
    """How many units the epsilon-quantile thresholds admit on each side."""
    low_count = ceil_count(n, epsilon) if epsilon > 0 else 0
    high_count = n - ceil_count(n, 1.0 - epsilon) if epsilon > 0 else 0
    return low_count, high_count


def _lambda_masks(r_low, r_high, epsilon):
    """Indicator of the adversarial subset for each side.

    Lower side admits r_low at or below its epsilon-quantile; upper side
    admits r_high strictly above its (1-epsilon)-quantile. Selections are
    rank-based (ties toward the lower index) so they nest as epsilon grows.
    """
    n = r_low.size
    low_count, high_count = _select_counts(n, epsilon)
    return select_bottom_mask(r_low, low_count), select_top_mask(r_high, high_count)


def subset_theta_bounds(data, nuisances, eps, a0):
    """Bounds on the confounded mean outcome at treatment a0: (theta_l, theta_u).

    theta_j(a0) = mean_n[mu-hat(a0, X)] + mean_n[lambda_j r_j(a0, X)], the
    adversarial subset taking its conditional bound and everyone else the
    observed regression.
    """
    if not isinstance(eps.inner, GammaSpec):
        raise TypeError("subset_theta_bounds needs a GammaSpec inner model")
    gamma = eps.inner.gamma
    mu = nuisances.mu_at_units(a0)
    r_low = nuisances.kappa_at_units(gamma, "lower", a0) - mu
    r_high = nuisances.kappa_at_units(gamma, "upper", a0) - mu
    lam_low, lam_high = _lambda_masks(r_low, r_high, eps.epsilon)
    center = float(mu.mean())
    theta_low = center + float(np.mean(np.where(lam_low, r_low, 0.0)))
    theta_high = center + float(np.mean(np.where(lam_high, r_high, 0.0)))
    return min(theta_low, theta_high), max(theta_low, theta_high)


def _subset_phi_row(data, nuisances, eps, side):
    """Row function i -> f_side(Z_i, Z_j) over j for the parametric bounds.

    f = f_mu + lambda(a_i, x_i) w_i[(s_i - kappa_ii) - (y_i - mu_ii)]
          + lambda(a_i, x_j) [kappa(a_i, x_j) - mu(a_i, x_j)],
    which is the doubly-robust kernel when nothing is selected and the
    full propensity-bound kernel when everything is.
    """
    gamma = eps.inner.gamma
    w = nuisances.weights
    y = data.y
    mu_own = nuisances.mu_units
    s = nuisances.s_units(gamma, side)
    kappa_own = nuisances.kappa_units(gamma, side)
    dr_base = w * (y - mu_own)
    delta_term = w * ((s - kappa_own) - (y - mu_own))
    low_count, high_count = _select_counts(data.n, eps.epsilon)

    def row(i):
        mu_row = nuisances.mu_row(i)
        kappa_row = nuisances.kappa_row(gamma, side, i)
        r_row = kappa_row - mu_row
        if side == "lower":
            lam_row = select_bottom_mask(r_row, low_count)
        else:
            lam_row = select_top_mask(r_row, high_count)
        return dr_base[i] + mu_row + lam_row[i] * delta_term[i] + lam_row * r_row

    return row


def subset_parametric_bounds(data, model, nuisances, eps):
    """Working-model fits bracketing the curve under subset confounding.

    Point bounds only (no asymptotic covariance); pair with subsample CIs.
    """
    if not isinstance(eps.inner, GammaSpec):
        raise TypeError("subset_parametric_bounds needs a GammaSpec inner model")
    phi_rows = (_subset_phi_row(data, nuisances, eps, side) for side in ("lower", "upper"))
    low, high = (BetaEstimate(beta=beta, covariance=None)
                 for beta, _ in _pair_moment_sides(model, data.a, phi_rows))
    return low, high


def subset_linear_beta_bounds(data, model, nuisances, eps, coord):
    """Per-atom min/max plug-in bounds for a linear-fit coordinate.

    low = mean_n[min(c_i theta_l(a_i), c_i theta_u(a_i))] and high the
    mirror, with c_i = e^T M^-1 b(a_i) and M the weighted basis Gram.
    """
    if not model.linear:
        raise ValueError("subset_linear_beta_bounds needs a linear model")
    if not isinstance(eps.inner, GammaSpec):
        raise TypeError("subset_linear_beta_bounds needs a GammaSpec inner model")
    h = model.features(data.a)
    c = _leverage(h, _moment_matrix(model, data.a, h, nuisances.weights), coord)
    lows = np.empty(data.n)
    highs = np.empty(data.n)
    for i in range(data.n):
        th_low, th_high = subset_theta_bounds(data, nuisances, eps, data.a[i])
        lows[i] = min(c[i] * th_low, c[i] * th_high)
        highs[i] = max(c[i] * th_low, c[i] * th_high)
    return float(lows.mean()), float(highs.mean())


def subset_independent_bounds(data, model, nuisances, grid, coord, epsilon):
    """Marginal-constraint coordinate bounds when confounding hits an
    independent random subset: the confounding weight v is replaced by
    (1 - epsilon) + epsilon v, shrinking the box toward one. v follows the
    marginal rank rule of ``gamma._rank_rule_grid``.
    """
    trace = _rank_rule_grid(data, model, nuisances.weights, nuisances, _gamma_grid(grid),
                            coord, "marginal", epsilon=epsilon)
    trace.diagnostics = {"constraint": "marginal", "independent_subset": epsilon}
    return trace


def subset_outcome_beta_bounds(data, model, nuisances, eps, coord):
    """Coordinate bounds when the subset's outcome regression shifts by delta.

    beta* mixes the observed outcome with the regression fit in proportion
    (1 - epsilon, epsilon), and the fitted moment moves by epsilon delta
    times the reachable shifts of ``outcome._shift_band``: the half-width is
    epsilon delta mean_n|f(A)| with f the coordinate row of the
    weighted-Gram inverse applied to b.
    """
    if not model.linear:
        raise ValueError("subset_outcome_beta_bounds needs a linear model")
    if not isinstance(eps.inner, DeltaSpec):
        raise TypeError("subset_outcome_beta_bounds needs a DeltaSpec inner model")
    mixed_y = (1.0 - eps.epsilon) * data.y + eps.epsilon * nuisances.mu_units
    return _shift_band(model, data.a, nuisances.weights, mixed_y,
                       eps.epsilon * eps.inner.delta, coord)
