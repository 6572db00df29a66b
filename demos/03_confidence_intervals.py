"""Bounds are estimated from data, so they need confidence intervals of
their own.  Two routes are shown here:

  * Wald intervals from the pairwise-kernel variance that the parametric
    bound fits carry with them, and
  * HulC intervals, which split the sample into a few blocks, recompute
    the bound on each, and take the block extremes.  No variance estimate
    or tuning parameter is involved, which is convenient exactly when the
    bound estimator sits at a non-smooth vertex.

Run:  python3 demos/03_confidence_intervals.py
"""

from msmbounds.datagen import DgpSpec, generate
from msmbounds.gamma import GammaSpec, fit_parametric_bounds
from msmbounds.inference import HulcSpec, hulc_ci, wald_ci
from msmbounds.msm import polynomial_msm
from msmbounds.nuisance import SelfFit

data = generate(DgpSpec("confounded-line", seed=21), 600)
model = polynomial_msm(1)
spec = GammaSpec(1.5)

# the two fits bound a region; sort by the slope coordinate to report it
est_low, est_high = fit_parametric_bounds(data, model, SelfFit(data), spec)
(b_lo, v_lo), (b_hi, v_hi) = sorted(
    (float(e.beta[1]), float(e.covariance[1, 1]))
    for e in (est_low, est_high)
)
print(f"slope bound estimates at gamma = {spec.gamma}:")
print(f"  lower {b_lo:.4f}, upper {b_hi:.4f}\n")

ci_lo = wald_ci(b_lo, v_lo, data.n)
ci_hi = wald_ci(b_hi, v_hi, data.n)
print("Wald 95% intervals from the pairwise-kernel sandwich variance:")
print(f"  lower bound: [{ci_lo.low:.4f}, {ci_lo.high:.4f}]")
print(f"  upper bound: [{ci_hi.low:.4f}, {ci_hi.high:.4f}]")
print(f"  outer band for the target: [{ci_lo.low:.4f}, {ci_hi.high:.4f}]\n")


def lower_slope(d):
    lo, hi = fit_parametric_bounds(d, model, SelfFit(d), spec)
    return min(lo.beta[1], hi.beta[1])


def upper_slope(d):
    lo, hi = fit_parametric_bounds(d, model, SelfFit(d), spec)
    return max(lo.beta[1], hi.beta[1])


hulc_lo = hulc_ci(data, lower_slope, HulcSpec(alpha=0.05, seed=1))
hulc_hi = hulc_ci(data, upper_slope, HulcSpec(alpha=0.05, seed=1))
print("HulC 95% intervals (block extremes, no variance estimate):")
print(f"  lower bound: [{hulc_lo.low:.4f}, {hulc_lo.high:.4f}]")
print(f"  upper bound: [{hulc_hi.low:.4f}, {hulc_hi.high:.4f}]")
print(f"  outer band for the target: [{hulc_lo.low:.4f}, {hulc_hi.high:.4f}]")
print("\nHulC costs one bound fit per block (6 blocks at the 95% level).")
print("Its intervals are typically a little wider than Wald but stay")
print("honest when the estimator is a max or min of fitted quantities.")
