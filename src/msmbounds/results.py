"""Result containers shared across estimation modules."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVariance


@dataclass(frozen=True)
class BetaEstimate:
    """Fitted model coefficients.

    ``covariance`` is the asymptotic covariance of sqrt(n)*(beta_hat - beta);
    consumers divide by n when building intervals. It may be None for
    point-only fits.
    """

    beta: np.ndarray
    covariance: np.ndarray | None = None

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=float)
            if cov.shape != (beta.size, beta.size):
                raise ValueError("covariance shape mismatch")
            if not np.allclose(cov, cov.T, atol=1e-8):
                # a shape is the caller's error; an asymmetric estimate is the fit's
                raise DegenerateVariance("covariance must be symmetric")
            object.__setattr__(self, "covariance", cov)

    @property
    def k(self):
        return self.beta.size


@dataclass(frozen=True)
class ConfidenceInterval:
    low: float
    high: float
    method: str  # "hulc" | "wald"
    level: float

    def __post_init__(self):
        if not self.low <= self.high:
            raise ValueError("interval endpoints out of order")


@dataclass
class HomotopyTrace:
    """Per-grid-point bound values plus optional confounding-weight snapshots."""

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    target: str
    valid: np.ndarray | None = None  # per-point flag; False marks failed refits
    v_lower: list | None = None  # per-point weight vectors (optional)
    v_upper: list | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.valid is None:
            self.valid = np.ones(self.grid.shape, dtype=bool)
        if not np.all(np.diff(self.grid) > 0) and self.grid.size > 1:
            raise ValueError("grid must be strictly increasing")
