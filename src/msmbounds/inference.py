"""Confidence intervals: subsample extremes (HulC) and Wald intervals.

HulC needs no variance estimate: split the sample into B disjoint random
subsamples, run the estimator on each, and take the min and max. B is the
smallest integer with 2^-B+1 <= alpha, so alpha = 0.05 gives B = 6.
"""

import dataclasses
import math
import statistics

import numpy as np

from .errors import NegativeVariance, SubsampleTooSmall
from .results import BoundCurve, ConfidenceInterval


@dataclasses.dataclass(frozen=True)
class HulcSpec:
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def n_subsamples(self):
        return int(math.ceil(math.log(2.0 / self.alpha) / math.log(2.0) - 1e-12))


def subsample_partition(n, b, seed):
    """Disjoint exhaustive random split into b blocks; remainder round-robin."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base = n // b
    extra = n % b
    blocks = []
    start = 0
    for i in range(b):
        size = base + (1 if i < extra else 0)
        blocks.append(np.sort(perm[start:start + size]))
        start += size
    return blocks

def hulc_ci(data, estimator, spec=None):
    """Subsample-extremes interval for a scalar estimator of the data.

    ``estimator`` maps a dataset to a real; it may declare ``min_n`` (an
    attribute) as the smallest sample it can handle.
    """
    spec = spec or HulcSpec()
    b = spec.n_subsamples
    min_n = getattr(estimator, "min_n", 2)
    if data.n // b < min_n:
        raise SubsampleTooSmall(
            f"{data.n} units across {b} subsamples leaves fewer than {min_n} each"
        )
    values = [float(estimator(data.take(idx))) for idx in
              subsample_partition(data.n, b, spec.seed)]
    return ConfidenceInterval(
        low=min(values), high=max(values), method="hulc", level=1.0 - spec.alpha
    )


def wald_ci(estimate, variance, n, alpha=0.05):
    """estimate +/- z sqrt(variance / n); variance on the sqrt(n) scale."""
    if variance < 0:
        raise NegativeVariance(f"variance {variance} is negative")
    # Wichura's AS241 in the standard library: within a few eps of the exact
    # quantile, as scipy.stats.norm.ppf is, without scipy.stats' 17 MB import
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    half = z * math.sqrt(variance / n)
    return ConfidenceInterval(
        low=float(estimate) - half, high=float(estimate) + half,
        method="wald", level=1.0 - alpha,
    )


def band_over_grid(grid, lower, upper, target, cis_lower=None, cis_upper=None,
                   metadata=None):
    """Assemble pointwise bound estimates and CIs into one curve object.

    ``cis_lower``/``cis_upper`` are per-grid-point ConfidenceIntervals for
    the lower and upper bound estimates; the band keeps the outer edges.
    """
    ci_lo = None
    ci_hi = None
    if cis_lower is not None:
        if cis_upper is None:
            cis_upper = cis_lower
        ci_lo = np.asarray([c.low for c in cis_lower], dtype=float)
        ci_hi = np.asarray([c.high for c in cis_upper], dtype=float)
    return BoundCurve(
        grid=np.asarray(grid, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        target=target,
        ci_lower=ci_lo,
        ci_upper=ci_hi,
        metadata=metadata or {},
    )
