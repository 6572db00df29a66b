"""Bounds and confidence intervals for weighted dose-response models
under unmeasured confounding.

The package estimates marginal structural models by inverse probability
weighting and reports how the fitted coefficients and dose-response
curves move under three sensitivity models: a bound gamma on the
propensity density ratio, a bound delta on the outcome-regression shift,
and a contaminated-subset fraction epsilon.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    FoldAssignment,
    PanelDataset,
    load_csv,
    load_panel_csv,
    save_csv,
    split_folds,
)
from .datagen import DgpSpec, generate, registry
from .gamma import (
    GammaSpec,
    bound_kernel,
    conditional_outcome_bounds,
    conditional_quantile_beta_bounds,
    fit_parametric_bounds,
    linear_curve_bounds,
    local_beta_bounds,
    marginal_quantile_beta_bounds,
    marginal_quantile_grid_bounds,
)
from .homotopy import coordinate_ascent_bounds, homotopy_bounds
from .inference import HulcSpec, hulc_ci, wald_ci
from .msm import (
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
)
from .nuisance import (
    CrossFit,
    NuisanceConfig,
    SelfFit,
    fit_outcome,
    fit_propensity,
    fit_quantile,
    fixed_weight_nuisances,
)
from .oracles import (
    OracleResult,
    oracle_conditional_box_mean,
    oracle_exhaustive_beta_bound,
    oracle_linear_box_mean,
)
from .outcome import (
    DeltaSpec,
    outcome_beta_bounds_linear,
    outcome_curve_bounds,
    outcome_nonlinear_grid_bounds,
    outcome_parametric_bounds,
)
from .panel import (
    PanelMsmModel,
    cumulative_panel_msm,
    custom_panel_msm,
    panel_weights,
)
from .results import BetaEstimate, ConfidenceInterval, HomotopyTrace
from .subset import (
    EpsilonSpec,
    subset_independent_bounds,
    subset_linear_beta_bounds,
    subset_outcome_beta_bounds,
    subset_parametric_bounds,
    subset_theta_bounds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
