"""Time-varying treatments: path-level working models and product weights.

Per-step treatment models are pooled across time with zero-padded
fixed-width history features (plus a step index when T > 1, so a single
period reduces exactly to the static machinery). One confounding weight
applies per unit trajectory, which lets every marginal-constraint routine
run unchanged on (trajectory features, product weight, outcome) triples:
``fit_msm`` and ``homotopy_bounds`` take the weights directly, and the
closed-form routines take them through ``nuisance.fixed_weight_nuisances``.
"""

import dataclasses

import numpy as np

from .data import PanelDataset
from .errors import ConfigError
from .msm import MsmModel
from .nuisance import DiscretePropensity, GaussianPropensity, NuisanceConfig


@dataclasses.dataclass(frozen=True)
class PanelMsmModel(MsmModel):
    """Working model over whole treatment paths a_1..a_T.

    Callables receive the (n, T) treatment array, a 1-d array being one
    period; everything else is ``MsmModel``, so a linear panel model is its
    path-level basis.
    """

    name: str = "panel-custom"

    def _coerce(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        return a


def cumulative_panel_msm():
    """g(a_1..a_T; beta) = beta_0 + beta_1 * sum_s a_s."""
    return PanelMsmModel(
        dim=2,
        basis=lambda a2d: np.column_stack([np.ones(a2d.shape[0]), a2d.sum(axis=1)]),
        name="panel-cumulative",
    )


def custom_panel_msm(dim, basis=None, curve=None, gradient=None,
                     moment_features=None, name="panel-custom"):
    """Wrap user path-level feature callables into a panel model: a path basis,
    or all of curve, gradient and moment_features."""
    return PanelMsmModel(dim, curve, gradient, moment_features, basis, name)


def _step_features(panel, s, include_covariates):
    """Pooled design row block for step s (0-based): history of treatments,
    optionally covariate history, zero-padded to fixed width, plus the step
    index when T > 1."""
    n, t_len, d = panel.x.shape
    cols = []
    a_hist = np.zeros((n, t_len - 1))
    if s > 0:
        a_hist[:, :s] = panel.a[:, :s]
    if t_len > 1:
        cols.append(a_hist)
    if include_covariates:
        x_hist = np.zeros((n, t_len * d))
        if d:
            x_hist[:, : (s + 1) * d] = panel.x[:, : s + 1, :].reshape(n, (s + 1) * d)
        cols.append(x_hist)
    if t_len > 1:
        cols.append(np.full((n, 1), float(s + 1)))
    if not cols:
        return np.zeros((n, 0))
    return np.hstack(cols)


def panel_weights(panel, config=None):
    """Per-unit product weight: prod_s pi(a_s | past a) / pi(a_s | past a, x).

    Numerator and denominator are each one pooled fit over all (unit, step)
    rows; the unstabilized flavor has numerator 1 and fits none. T = 1
    reduces exactly to the static weight of the same flavor.
    """
    if not isinstance(panel, PanelDataset):
        raise TypeError("panel_weights needs a PanelDataset")
    config = config or NuisanceConfig()
    n, t_len = panel.a.shape
    stabilized = config.weight_flavor == "stabilized"

    targets = np.concatenate([panel.a[:, s] for s in range(t_len)])
    fitter = (
        GaussianPropensity
        if config.propensity_method == "gaussian"
        else DiscretePropensity
    )

    def pooled_fit(include_covariates):
        feats = np.vstack([_step_features(panel, s, include_covariates) for s in range(t_len)])
        return fitter(targets, feats, clip=config.propensity_clip)

    num_fit = pooled_fit(False) if stabilized else None
    den_fit = pooled_fit(True)

    weights = np.ones(n)
    for s in range(t_len):
        a_s = panel.a[:, s]
        num = 1.0
        if stabilized:
            num = num_fit.conditional_density(a_s, _step_features(panel, s, False))
        den = den_fit.conditional_density(a_s, _step_features(panel, s, True))
        weights *= num / den
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ConfigError("panel weights must be positive and finite")
    return weights
