"""Confidence intervals: subsample extremes (HulC) and Wald intervals.

HulC needs no variance estimate: split the sample into B disjoint random
subsamples, run the estimator on each, and take the min and max. B is the
smallest integer with 2^-B+1 <= alpha, so alpha = 0.05 gives B = 6. Each
subsample must hold at least 4 units: a block reruns the estimator with its
nuisance fits, and the outcome regression of the default model, on
[1, a, x], has 3 coefficients; 4 is the smallest block that leaves it a
residual.
"""

import dataclasses
import math
import statistics

import numpy as np

from .errors import NegativeVariance, NumericalError, SubsampleTooSmall
from .results import ConfidenceInterval

_MIN_BLOCK = 4


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
    """Disjoint exhaustive random split into b sorted blocks; the first n % b hold one more."""
    return [np.sort(part) for part in np.array_split(np.random.default_rng(seed).permutation(n), b)]


def _blocks(n, spec):
    """The HulC blocks of n units under ``spec``; each must hold ``_MIN_BLOCK`` units."""
    b = spec.n_subsamples
    if n // b < _MIN_BLOCK:
        raise SubsampleTooSmall(
            f"hulc needs at least {_MIN_BLOCK * b} units for {b} subsamples, have {n}")
    return subsample_partition(n, b, spec.seed)


def _extremes(data, compute, blocks):
    """Elementwise (min of the lows, max of the highs) of ``compute`` over the blocks.

    compute(subsample) -> (low, high), two scalars or two arrays of one shape.
    """
    lows, highs = zip(*(compute(data.take(idx)) for idx in blocks))
    return np.min(lows, axis=0), np.max(highs, axis=0)


def hulc_ci(data, estimator, spec=None):
    """Subsample-extremes interval for a scalar estimator of the data."""
    spec = spec or HulcSpec()
    low, high = _extremes(data, lambda sub: (float(estimator(sub)),) * 2, _blocks(data.n, spec))
    return ConfidenceInterval(
        low=float(low), high=float(high), method="hulc", level=1.0 - spec.alpha
    )


def wald_ci(estimate, variance, n, alpha=0.05):
    """estimate +/- z sqrt(variance / n); variance on the sqrt(n) scale."""
    if variance < 0:
        raise NegativeVariance(f"variance {variance} is negative")
    if math.isnan(estimate) or math.isnan(variance):
        raise NumericalError(f"no wald interval around {estimate} with variance {variance}")
    # Wichura's AS241 in the standard library: within a few eps of the exact
    # quantile, as scipy.stats.norm.ppf is, without scipy.stats' 17 MB import
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    half = z * math.sqrt(variance / n)
    return ConfidenceInterval(
        low=float(estimate) - half, high=float(estimate) + half,
        method="wald", level=1.0 - alpha,
    )
