"""Bounds under the propensity sensitivity model (density-ratio parameter gamma).

The confounding weight v lives in the box [1/gamma, gamma] with either a
marginal mean-one constraint (checked against the whole sample) or a
conditional one (mean one within every (a, x) cell). This module holds the
closed-form and pair-kernel routines: per-cell conditional-mean bounds,
the doubly-robust pair kernel, parametric-curve bound fitting with
U-statistic covariance, linear-curve bounds with the sign split, the two
quantile-rule bounds for a coordinate of a fit, and the small-gamma local
expansion.

Every propensity coordinate bound here and in ``homotopy`` reweights one
per-unit derivative, built on ``_leverage``, and places its weights by one
rule: ``_ranks.rank_mask`` under the marginal constraint and
``_conditional_mask`` under the conditional one. Every linearized bound takes
its values from one grid core, ``_rank_rule_grid``. The (a, x) cells are one
label per unit (``nuisance.cell_labels``), so every per-cell rule is a sort
or a ``bincount`` over that array.
"""

import dataclasses

import numpy as np

from ._ranks import _levels, cell_rank_mask, rank_mask, rank_sums
from .errors import ConfigError
from .msm import (
    PairKernel,
    _linear_functional_fits,
    _moment_matrix,
    _pair_moment_sides,
    _solve,
    weighted_fit,
)
from .nuisance import (
    EmpiricalQuantileFit, _pair_phi, _Rows, cell_labels, clipped_pseudo_outcome,
)
from .results import BetaEstimate, HomotopyTrace


@dataclasses.dataclass(frozen=True)
class GammaSpec:
    """Density-ratio sensitivity parameter; gamma = 1 means no confounding."""

    gamma: float = 1.0

    def __post_init__(self):
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")

    @property
    def tau_low(self):
        return 1.0 / (1.0 + self.gamma)

    @property
    def tau_high(self):
        return self.gamma / (1.0 + self.gamma)

    @property
    def edge_low(self):
        return 1.0 / self.gamma

    @property
    def edge_high(self):
        return self.gamma


def _gamma_grid(grid):
    """The grid as a float array; it must start at gamma = 1 and rise strictly."""
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0 or abs(grid[0] - 1.0) > 1e-12:
        raise ValueError("grid must start at gamma = 1")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def conditional_outcome_bounds(data, spec, nuisances=None, probe_a=None, probe_x=None):
    """Bounds on the confounded conditional mean E[Y v | A = a, X = x].

    Without nuisances: exact per-cell plug-in on the sample's (a, x) cells,
    returned per unit (equals the cell LP vertex at integral quantile
    atoms). With nuisances: the fitted clipped-outcome regressions,
    evaluated at the units (out of fold) or at explicit probe points
    (bundle-ensemble average). Returns (lower, upper) arrays.
    """
    if nuisances is None:
        if probe_a is not None or probe_x is not None:
            raise ValueError("cell plug-in path evaluates at the sample units only")
        rows = _Rows(data.a, data.x)
        q_low, q_high = EmpiricalQuantileFit(rows, data.y).evaluate_many(
            [spec.tau_low, spec.tau_high], rows).T
        labels = cell_labels(data.a, data.x)
        sizes = np.bincount(labels)
        low, high = (
            np.bincount(labels, clipped_pseudo_outcome(data.y, q_low, q_high, spec.gamma, side))
            / sizes
            for side in ("lower", "upper"))
        return low[labels], high[labels]
    if probe_a is None:
        low = nuisances.kappa_units(spec.gamma, "lower")
        high = nuisances.kappa_units(spec.gamma, "upper")
    else:
        low = nuisances.kappa_at(spec.gamma, "lower", probe_a, probe_x)
        high = nuisances.kappa_at(spec.gamma, "upper", probe_a, probe_x)
    return np.minimum(low, high), np.maximum(low, high)


def _phi(nuisances, gamma, side):
    """The kernel phi_ij = w_i (s_i - kappa(a_i, x_i)) + kappa(a_i, X_j), as
    ``nuisance._pair_phi`` gives it: factors when kappa-hat is additive."""
    base = nuisances.weights * (nuisances.s_units(gamma, side)
                                - nuisances.kappa_units(gamma, side))
    return _pair_phi(nuisances, base, gamma, side)


def bound_kernel(data, nuisances, spec, side):
    """Doubly-robust pair kernel for one side of the propensity bounds.

    f(Z_i, Z_j) = w_i (s_i - kappa(a_i, x_i)) + kappa(a_i, x_j), with every
    hat-quantity for slot one taken from unit i's out-of-fold bundle.
    """
    phi = _phi(nuisances, spec.gamma, side)
    if isinstance(phi, tuple):
        left, right = phi
        phi = lambda i: right @ left[i]
    return PairKernel(data.n, 1, phi)


def fit_parametric_bounds(data, model, nuisances, spec):
    """Lower and upper working-model fits bracketing the confounded curve.

    Each side solves the pair moment U_n[h(A_1)(phi-hat - g(A_1; beta))] = 0
    and carries the U-statistic projection covariance.
    """
    phis = (_phi(nuisances, spec.gamma, side) for side in ("lower", "upper"))
    low, high = (BetaEstimate(beta=beta, covariance=cov)
                 for beta, cov in _pair_moment_sides(model, data.a, phis))
    return low, high


def _split(pos, phi_pos, phi_neg):
    """The pair kernel whose row i is phi_pos's where pos[i] and phi_neg's elsewhere;
    factor pairs share R, so only the rows of L are picked."""
    if isinstance(phi_pos, tuple):
        return np.where(pos[:, None], phi_pos[0], phi_neg[0]), phi_pos[1]
    return lambda i: phi_pos(i) if pos[i] else phi_neg(i)


def linear_curve_bounds(data, model, nuisances, spec, a0):
    """Pointwise bounds on a linear curve at a0 with the per-unit sign split.

    Units where b(a0)^T Q^-1 b(A_i) is nonnegative take the same-side
    kernel; the rest take the opposite side. Returns
    (lower, upper, (var_lower, var_upper)) with variances on the sqrt(n)
    scale for the curve value at a0.
    """
    b0 = model.basis_matrix(np.array([float(a0)]))[0]
    phi = {side: _phi(nuisances, spec.gamma, side) for side in ("lower", "upper")}

    def mixed(lev):
        pos = lev >= 0.0
        return [_split(pos, phi["lower"], phi["upper"]), _split(pos, phi["upper"], phi["lower"])]

    results = _linear_functional_fits(model, data.a, b0, mixed)
    (g_low, var_low), (g_high, var_high) = sorted(results, key=lambda r: r[0])
    return g_low, g_high, (var_low, var_high)


def _leverage(h, m, coord):
    """c_i = e^T M^-1 h_i for the features ``h`` and the moment matrix ``m``
    (``msm._moment_matrix``). Times w_i it is unit i's leverage on the
    coordinate (see ``_derivative``)."""
    e = np.zeros(m.shape[0])
    e[coord] = 1.0
    return h @ _solve(m.T, e, "coordinate leverage matrix")


def _derivative(model, a, h, y, w, coord, beta, m):
    """(c w, g, d): the leverage times w, the fit g(a; beta) and d = c w (y - g).

    d_i is the derivative of the coordinate bound in unit i's confounding
    weight v, the one per-unit derivative of every propensity coordinate
    bound; linearized it is c_i w_i y_i. ``h`` is ``model.features(a)``, so a
    linear model's fit is h @ beta, and ``m`` is the moment matrix at beta
    and the weights v w, which a refit at those weights returns with beta.
    """
    c = _leverage(h, m, coord) * w
    g = h @ beta if model.linear else model.predict(a, beta)
    return c, g, c * (y - g)


def _cells(data, nuisances):
    """The (a, x) cell label of each unit under empirical quantiles; None under fitted ones.

    Raises ``ConfigError`` when every cell holds one unit, as on continuous
    data: the per-cell rank rule would then put 1/gamma on every unit.
    """
    if getattr(nuisances.config, "quantile_method", "pinball") != "empirical":
        return None
    cells = cell_labels(data.a, data.x)
    if cells.max() + 1 == data.n:
        raise ConfigError(
            "empirical quantiles need (a, x) cells with more than one unit, and every "
            "cell of this data holds one; use quantile_method 'pinball' on continuous data"
        )
    return cells


def _conditional_mask(cells, nuisances, d, c, g, gamma, upper):
    """Units at the high weight under the conditional (per-cell) mean-one constraint.

    With ``cells`` (labels from ``_cells``) this is the marginal rank rule on
    d inside each (a, x) cell. Otherwise d = c (y - g) is compared with its
    fitted conditional quantile c (q_y - g), the Y-quantile level flipped
    where c < 0: strictly above for the upper side, at or below for the
    lower. g is None for the linearized d = c y.
    """
    if cells is not None:
        return cell_rank_mask(d, cells, gamma, upper)
    q_low_y, q_high_y = nuisances.quantile_units(gamma)
    q_y = np.where((c >= 0) == upper, q_high_y, q_low_y)
    q_d = c * q_y if g is None else c * (q_y - g)
    return d > q_d if upper else d <= q_d


def _coordinate_transfer(data, model, w, coord):
    """T_i = c_i w_i, the per-unit leverage of Y_i on the coordinate, and the offset
    beta[coord] - mean(T g) at the point fit of the linearized value offset + mean(T Y v),
    which is 0 for a linear model, whose M needs no fit."""
    h = model.features(data.a)
    if model.linear:
        return _leverage(h, _moment_matrix(model, data.a, h, w), coord) * w, 0.0
    beta, m = weighted_fit(model, data.a, data.y, w, h=h)
    t = _leverage(h, m, coord) * w
    return t, float(beta[coord] - np.mean(t * model.predict(data.a, beta)))


def _weights(mask, gamma, epsilon):
    """v = gamma on ``mask`` and 1/gamma elsewhere, shrunk to (1 - epsilon) + epsilon v."""
    v = _levels(mask, (1.0 / gamma, gamma))
    return v if epsilon == 1.0 else (1.0 - epsilon) + epsilon * v


def _rank_rule_grid(data, model, w, nuisances, grid, coord, constraint, keep_weights=False,
                    epsilon=1.0):
    """Linearized coordinate bounds at every gamma of ``grid`` by the closed-form rank rule.

    f_i = T_i Y_i depends on neither gamma nor v, so it is built once. At each
    gamma, v is gamma on the units of ``_ranks.rank_mask`` (marginal
    constraint) or of ``_conditional_mask`` (conditional) and 1/gamma
    elsewhere, shrunk to (1 - epsilon) + epsilon v when ``epsilon`` != 1, and
    the bound is offset + mean(f v). Under the marginal constraint that mean
    is mean(f)/gamma + (gamma - 1/gamma) S/n, S the ``_ranks.rank_sums`` of
    f (one sort), and the masks are built only for ``keep_weights``, which
    keeps each v in the trace.
    """
    cells = _cells(data, nuisances) if constraint == "conditional" else None
    t, offset = _coordinate_transfer(data, model, np.asarray(w, dtype=float).ravel(), coord)
    f = t * data.y
    if constraint == "marginal":
        mean_f = np.mean(f)
        values = [[mean_f / gamma + (gamma - 1.0 / gamma) * total / f.size for total in sums]
                  for gamma, sums in zip(grid, rank_sums(f, grid))]
        if epsilon != 1.0:
            values = [[(1.0 - epsilon) * mean_f + epsilon * side for side in sides]
                      for sides in values]
        masks = ([rank_mask(f, gamma, upper) for upper in (False, True)]
                 for gamma in grid) if keep_weights else []
    else:
        empty = np.zeros(f.size, dtype=bool)
        masks = ([_conditional_mask(cells, nuisances, f, t, None, gamma, upper) if gamma > 1
                  else empty for upper in (False, True)] for gamma in grid)
        values = []
    v_lower, v_upper = [], []
    for gamma, sides in zip(grid, masks):
        weights = [_weights(mask, gamma, epsilon) for mask in sides]
        if constraint != "marginal":
            values.append([np.mean(f * v) for v in weights])
        if keep_weights:
            v_lower.append(weights[0])
            v_upper.append(weights[1])
    lower, upper = ([float(offset + sides[k]) for sides in values] for k in (0, 1))
    return HomotopyTrace(grid, lower, upper, f"beta[{coord}]",
                         v_lower=v_lower if keep_weights else None,
                         v_upper=v_upper if keep_weights else None)


def marginal_quantile_grid_bounds(data, model, nuisances, grid, coord, keep_weights=False):
    """Coordinate bounds under the marginal mean-one constraint at every gamma of
    ``grid``: ``_rank_rule_grid``, where v puts gamma on the ranks of f strictly
    above ceil(n tau_high) for the upper bound and mirrors for the lower."""
    trace = _rank_rule_grid(
        data, model, nuisances.weights, nuisances, grid, coord, "marginal", keep_weights)
    trace.diagnostics = {"method": "marginal-quantile", "constraint": "marginal"}
    return trace


def marginal_quantile_beta_bounds(data, model, nuisances, spec, coord, return_v=False):
    """Coordinate bounds under the marginal mean-one constraint (rank rule):
    ``marginal_quantile_grid_bounds`` at the one gamma of ``spec``."""
    trace = marginal_quantile_grid_bounds(
        data, model, nuisances, [spec.gamma], coord, keep_weights=return_v)
    low, high = float(trace.lower[0]), float(trace.upper[0])
    if return_v:
        return low, high, (trace.v_lower[0], trace.v_upper[0])
    return low, high


def conditional_quantile_beta_bounds(data, model, nuisances, spec, coord):
    """Coordinate bounds under the conditional (per-cell) mean-one constraint:
    ``_rank_rule_grid`` at the one gamma of ``spec``, where v follows
    ``_conditional_mask`` on the linearized derivative f_i = T_i Y_i."""
    trace = _rank_rule_grid(
        data, model, nuisances.weights, nuisances, [spec.gamma], coord, "conditional")
    return float(trace.lower[0]), float(trace.upper[0])


def local_beta_bounds(data, model, nuisances, spec, coord):
    """First-order expansion around gamma = 1: beta-hat +/- log(gamma) mean|d|.

    d_i = c_i w_i (y_i - g_i) is the coordinate projection of the
    moment-equation derivative in the direction of unit i's confounding
    weight, at v identically one.
    """
    w = nuisances.weights
    h = model.features(data.a)
    beta, m = weighted_fit(model, data.a, data.y, w, h=h)
    d = _derivative(model, data.a, h, data.y, w, coord, beta, m)[2]
    center = float(beta[coord])
    spread = float(np.log(spec.gamma) * np.mean(np.abs(d)))
    return center - spread, center + spread
