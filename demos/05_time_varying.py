"""Time-varying treatments: each unit receives a dose at every period,
covariates respond to past doses, and the target is an MSM in the
cumulative dose.  Weights become products of per-period density ratios,
and every static bound method then applies unchanged to the weighted
moment problem.

Run:  python3 demos/05_time_varying.py
"""

import numpy as np

from msmbounds.data import PanelDataset
from msmbounds.datagen import DgpSpec, generate
from msmbounds.gamma import marginal_quantile_grid_bounds
from msmbounds.msm import fit_msm, polynomial_msm
from msmbounds.nuisance import SelfFit, fixed_weight_nuisances
from msmbounds.panel import cumulative_panel_msm, panel_weights

panel = generate(DgpSpec("panel-mix", seed=12, params={"T": 3}), 500)
print(f"panel: n = {panel.n}, T = {panel.T} periods "
      f"(true cumulative-dose effect is 1.5)")

w = panel_weights(panel)
print(f"stabilized product weights: mean {w.mean():.3f}, "
      f"max {w.max():.2f}, min {w.min():.3f}\n")

model = cumulative_panel_msm()
est = fit_msm(panel, model, weights=w)
print(f"weighted cumulative-dose fit: intercept {est.beta[0]:.3f}, "
      f"slope {est.beta[1]:.3f}")

grid = [1.0, 1.25, 1.5, 2.0]
trace = marginal_quantile_grid_bounds(panel, model, fixed_weight_nuisances(panel, w),
                                      grid, 1)
print("\nslope bounds when each period's density ratio may drift by gamma:")
for g, lo, hi in zip(trace.grid, trace.lower, trace.upper):
    print(f"  gamma {g:4.2f}: [{lo:6.3f}, {hi:6.3f}]")

# single-period panels are just static problems in disguise
data = generate(DgpSpec("gauss-line", seed=0), 200)
single = PanelDataset(range(200), None, data.a[:, None], data.y)
w1 = panel_weights(single)
static_fit = fit_msm(data, polynomial_msm(1), weights=SelfFit(data).weights)
panel_fit = fit_msm(single, model, weights=w1)
gap = np.max(np.abs(static_fit.beta - panel_fit.beta))
print(f"\nT = 1 sanity check: panel fit matches the static fit to {gap:.1e}")
