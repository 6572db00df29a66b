"""Nuisance estimation: outcome regression, propensity, quantiles, cross-fitting.

All fitters are deterministic given the training rows. The cross-fitting
wrapper hands every unit an evaluator trained on the other folds, and the
per-(gamma, side) clipped-outcome regressions are cached so a whole gamma
grid reuses one set of fold fits.

Discrete-support (a, x) cells are one integer label per row (``cell_labels``),
and the empirical quantiles index into y sorted by (cell, y).
"""

import dataclasses
import math

import numpy as np
import scipy.optimize
import scipy.sparse

from .data import FoldAssignment, split_folds
from .errors import (
    BadTau,
    ConfigError,
    DegenerateVariance,
    SingularDesign,
    TooManyLevels,
)

PROPENSITY_CLIP = 1e-3
_VAR_FLOOR = 1e-12


def _gamma_key(value):
    """The cache key of a knob value (gamma, or a quantile level): rounded to 12 decimals."""
    return round(float(value), 12)


@dataclasses.dataclass(frozen=True)
class NuisanceConfig:
    """Choices for every nuisance fit; the defaults match the reference setups."""

    outcome_method: str = "linear"
    outcome_degree: int = 1
    bandwidth_scale: float = 1.0
    propensity_method: str = "gaussian"
    propensity_clip: float = PROPENSITY_CLIP
    quantile_method: str = "pinball"
    quantile_degree: int = 1
    weight_flavor: str = "stabilized"
    folds: int = 2

    def __post_init__(self):
        if self.outcome_method not in ("linear", "kernel"):
            raise ConfigError(f"unknown outcome_method {self.outcome_method!r}")
        if self.propensity_method not in ("gaussian", "discrete"):
            raise ConfigError(f"unknown propensity_method {self.propensity_method!r}")
        if self.quantile_method not in ("pinball", "empirical"):
            raise ConfigError(f"unknown quantile_method {self.quantile_method!r}")
        if self.weight_flavor not in ("stabilized", "unstabilized"):
            raise ConfigError(f"unknown weight_flavor {self.weight_flavor!r}")
        if self.outcome_degree < 1:
            raise ConfigError("outcome_degree must be >= 1")
        if self.quantile_degree < 1:
            raise ConfigError("quantile_degree must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if not 0 < self.propensity_clip < 1:
            raise ConfigError("propensity_clip must be in (0, 1)")


def _poly_design(a, x, degree):
    """The design [1, a, ..., a^degree, x], a 1-d x taken as one column."""
    a = np.asarray(a, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return np.column_stack([np.ones_like(a), *(a ** p for p in range(1, degree + 1)), *x.T])


def _lstsq(design, y):
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        # rank deficiency is tolerated (min-norm solution); a zero design is not
        if not np.any(design):
            raise SingularDesign("design matrix is identically zero")
    return coef


class LinearOutcomeFit:
    """Polynomial-in-treatment, linear-in-covariates least squares regression."""

    def __init__(self, a, x, y, degree=1):
        self.degree = int(degree)
        design = _poly_design(a, x, self.degree)
        self.coef = _lstsq(design, np.asarray(y, dtype=float).ravel())

    def __call__(self, a, x):
        return _poly_design(a, x, self.degree) @ self.coef

    def additive_parts(self, a):
        """(g, c) with fit(a_i, x) = g_i + x^T c: the treatment part of the design
        at each a_i times its coefficients, and the covariate coefficients."""
        k = self.degree + 1
        return _poly_design(a, np.empty((len(a), 0)), self.degree) @ self.coef[:k], self.coef[k:]


class KernelOutcomeFit:
    """Nadaraya-Watson regression with a Gaussian product kernel."""

    def __init__(self, a, x, y, bandwidth_scale=1.0):
        self.train = _poly_design(a, x, 1)[:, 1:]
        self.y = np.asarray(y, dtype=float).ravel()
        n = self.train.shape[0]
        sd = self.train.std(axis=0)
        sd = np.where(sd < 1e-12, 1.0, sd)
        self.bandwidth = 1.06 * sd * n ** (-0.2) * float(bandwidth_scale)

    def __call__(self, a, x):
        probe = _poly_design(a, x, 1)[:, 1:]
        out = np.empty(probe.shape[0])
        for start in range(0, probe.shape[0], 512):
            block = probe[start:start + 512]
            z = (block[:, None, :] - self.train[None, :, :]) / self.bandwidth
            logk = -0.5 * np.sum(z * z, axis=2)
            logk -= logk.max(axis=1, keepdims=True)
            k = np.exp(logk)
            out[start:start + block.shape[0]] = (k @ self.y) / k.sum(axis=1)
        return out


class GaussianPropensity:
    """Homoscedastic Gaussian treatment model: A | X ~ N(coef . [1, X], sigma2).

    The marginal density uses a Gaussian with the sample mean and variance
    of A, so stabilized weights stay in the same model family.
    """

    kind = "continuous"

    def __init__(self, a, x, clip=PROPENSITY_CLIP):
        a = np.asarray(a, dtype=float).ravel()
        design = _poly_design(a, x, 0)
        self.coef = _lstsq(design, a)
        resid = a - design @ self.coef
        self.sigma2 = float(np.mean(resid ** 2))
        if self.sigma2 < _VAR_FLOOR:
            raise DegenerateVariance(
                f"residual variance {self.sigma2:.3e} below {_VAR_FLOOR:.0e}"
            )
        self.marg_mean = float(a.mean())
        self.marg_var = float(a.var())
        if self.marg_var < _VAR_FLOOR:
            raise DegenerateVariance("treatment variance is numerically zero")
        self.clip = float(clip)

    def conditional_density(self, a, x):
        a = np.asarray(a, dtype=float).ravel()
        dens = np.exp(-0.5 * (a - _poly_design(a, x, 0) @ self.coef) ** 2 / self.sigma2)
        dens /= math.sqrt(2.0 * math.pi * self.sigma2)
        return np.maximum(dens, self.clip)

    def marginal_density(self, a):
        a = np.asarray(a, dtype=float).ravel()
        dens = np.exp(-0.5 * (a - self.marg_mean) ** 2 / self.marg_var)
        dens /= math.sqrt(2.0 * math.pi * self.marg_var)
        return np.maximum(dens, self.clip)


def _logistic_probs(z, theta):
    # theta: (levels-1, p); level 0 is the reference
    logits = z @ theta.T
    logits = np.column_stack([np.zeros(z.shape[0]), logits])
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def _fit_multinomial_logistic(z, labels, levels):
    n, p = z.shape
    k = levels - 1
    theta = np.zeros((k, p))
    onehot = np.zeros((n, levels))
    onehot[np.arange(n), labels] = 1.0
    for _ in range(60):
        probs = _logistic_probs(z, theta)
        grad = np.empty((k, p))
        for l in range(k):
            grad[l] = z.T @ (onehot[:, l + 1] - probs[:, l + 1])
        gflat = grad.ravel()
        if np.max(np.abs(gflat)) < 1e-10 * max(n, 1):
            break
        hess = np.zeros((k * p, k * p))
        for l in range(k):
            for m in range(k):
                wlm = probs[:, l + 1] * ((1.0 if l == m else 0.0) - probs[:, m + 1])
                hess[l * p:(l + 1) * p, m * p:(m + 1) * p] = (z * wlm[:, None]).T @ z
        hess += 1e-8 * np.eye(k * p)
        try:
            step = np.linalg.solve(hess, gflat)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, gflat, rcond=None)[0]
        # cap the step so separable data cannot run off to infinity
        norm = np.max(np.abs(step))
        if norm > 10.0:
            step *= 10.0 / norm
        theta += step.reshape(k, p)
    return theta


class DiscretePropensity:
    """Multinomial logistic treatment model for a finite treatment support."""

    kind = "discrete"
    MAX_LEVELS = 20

    def __init__(self, a, x, clip=PROPENSITY_CLIP):
        a = np.asarray(a, dtype=float).ravel()
        self.levels = np.unique(a)
        if self.levels.size > self.MAX_LEVELS:
            raise TooManyLevels(
                f"{self.levels.size} treatment levels exceed {self.MAX_LEVELS}"
            )
        labels = np.searchsorted(self.levels, a)
        self.marg = np.bincount(labels, minlength=self.levels.size) / a.size
        z = _poly_design(a, x, 0)
        self.theta = (_fit_multinomial_logistic(z, labels, self.levels.size)
                      if z.shape[1] > 1 else None)
        self.clip = float(clip)

    def _label_of(self, a):
        a = np.asarray(a, dtype=float).ravel()
        idx = np.searchsorted(self.levels, a)
        idx = np.clip(idx, 0, self.levels.size - 1)
        left = np.clip(idx - 1, 0, self.levels.size - 1)
        take_left = np.abs(self.levels[left] - a) < np.abs(self.levels[idx] - a)
        idx = np.where(take_left, left, idx)
        if np.any(np.abs(self.levels[idx] - a) > 1e-9):
            raise ValueError("treatment value outside the fitted support")
        return idx

    def conditional_density(self, a, x):
        lab = self._label_of(a)
        if self.theta is None:
            probs = np.tile(self.marg, (lab.size, 1))
        else:
            probs = _logistic_probs(_poly_design(a, x, 0), self.theta)
        return np.maximum(probs[np.arange(lab.size), lab], self.clip)

    def marginal_density(self, a):
        lab = self._label_of(a)
        return np.maximum(self.marg[lab], self.clip)


def _uncrossed(raw, taus):
    """Quantiles with one column per tau, sorted across the tau axis so they never cross."""
    order = np.argsort(np.asarray(taus, dtype=float), kind="stable")
    out = np.empty_like(raw)
    out[:, order] = np.sort(raw[:, order], axis=1)
    return out


class PinballQuantileFit:
    """Linear-in-features conditional quantiles fit by pinball-loss LP.

    Fits are cached per tau; joint evaluation sorts across the tau axis so
    requested quantile curves never cross.
    """

    def __init__(self, a, x, y, degree=1):
        self.degree = int(degree)
        self._design = _poly_design(a, x, self.degree)
        self._y = np.asarray(y, dtype=float).ravel()
        self._coefs = {}

    def _fit_one(self, tau):
        if not 0.0 < tau < 1.0:
            raise BadTau(f"tau must be in (0, 1), got {tau}")
        n, p = self._design.shape
        cost = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
        eye = scipy.sparse.eye(n, format="csc")
        a_eq = scipy.sparse.hstack(
            [scipy.sparse.csc_matrix(self._design), eye, -eye], format="csc"
        )
        bounds = [(None, None)] * p + [(0, None)] * (2 * n)
        res = scipy.optimize.linprog(
            cost, A_eq=a_eq, b_eq=self._y, bounds=bounds, method="highs"
        )
        if not res.success:
            raise SingularDesign(f"quantile LP failed at tau={tau}: {res.message}")
        return res.x[:p]

    def coef(self, tau):
        key = _gamma_key(tau)
        if key not in self._coefs:
            self._coefs[key] = self._fit_one(key)
        return self._coefs[key]

    def evaluate_many(self, taus, a, x):
        """Quantiles at each tau for each (a, x) row, sorted so they never cross."""
        design = _poly_design(a, x, self.degree)
        return _uncrossed(np.column_stack([design @ self.coef(t) for t in taus]), taus)

    def evaluate(self, tau, a, x):
        return self.evaluate_many([tau], a, x)[:, 0]


def _cell_rows(a, x):
    """The (a, x) rows, rounded to 9 decimals: the degree-1 design without its intercept."""
    return np.round(_poly_design(a, x, 1)[:, 1:], 9)


def _row_labels(rows):
    """One integer label per distinct row, in the rows' lexicographic order: each
    column's ``np.unique`` codes folded in and re-uniqued, so labels stay below n^2."""
    labels = np.zeros(rows.shape[0], dtype=np.int64)
    for column in rows.T:
        values, codes = np.unique(column, return_inverse=True)
        labels = np.unique(labels * values.size + codes, return_inverse=True)[1]
    return labels


def cell_labels(a, x):
    """The (a, x) cell of each row: one integer label per distinct value combination."""
    return _row_labels(_cell_rows(a, x))


class EmpiricalQuantileFit:
    """Per-(a, x)-cell type-1 empirical quantiles for discrete-support data.

    y is kept sorted by (cell, y), then the pooled sample as one more cell
    for probe rows in a cell that no training row has.
    """

    def __init__(self, a, x, y):
        y = np.asarray(y, dtype=float).ravel()
        rows = _cell_rows(a, x)
        labels = _row_labels(rows)
        self._keys = rows[np.unique(labels, return_index=True)[1]]
        self._sorted = np.concatenate([y[np.lexsort((y, labels))], np.sort(y)])
        self._sizes = np.append(np.bincount(labels), y.size)
        self._starts = np.cumsum(self._sizes) - self._sizes

    def evaluate_many(self, taus, a, x):
        k = len(self._keys)
        rows = np.concatenate([self._keys, _cell_rows(a, x)])
        joint = _row_labels(rows)
        cell_of_joint = np.full(joint.max() + 1, k)
        cell_of_joint[joint[:k]] = np.arange(k)
        cell = cell_of_joint[joint[k:]]
        n, start = self._sizes[cell], self._starts[cell]
        out = np.empty((cell.size, len(taus)))
        for j, tau in enumerate(taus):
            if not 0.0 < tau < 1.0:
                raise BadTau(f"tau must be in (0, 1), got {tau}")
            idx = np.maximum(np.ceil(n * tau - 1e-12).astype(int), 1) - 1
            out[:, j] = self._sorted[start + idx]
        return _uncrossed(out, taus)

    def evaluate(self, tau, a, x):
        return self.evaluate_many([tau], a, x)[:, 0]


def _outcome_fit(a, x, y, config):
    """The configured regression of y on (a, x): least squares or Nadaraya-Watson."""
    if config.outcome_method == "linear":
        return LinearOutcomeFit(a, x, y, degree=config.outcome_degree)
    return KernelOutcomeFit(a, x, y, bandwidth_scale=config.bandwidth_scale)


def fit_outcome(data, config=None):
    """Fit the conditional-mean regression E[Y | A, X] on a dataset."""
    return _outcome_fit(data.a, data.x, data.y, config or NuisanceConfig())


def fit_propensity(data, config=None):
    """Fit the treatment model (conditional and marginal densities)."""
    config = config or NuisanceConfig()
    if config.propensity_method == "gaussian":
        return GaussianPropensity(data.a, data.x, clip=config.propensity_clip)
    return DiscretePropensity(data.a, data.x, clip=config.propensity_clip)


def fit_quantile(data, config=None):
    """Fit the conditional-quantile model for Y | A, X."""
    config = config or NuisanceConfig()
    if config.quantile_method == "pinball":
        return PinballQuantileFit(data.a, data.x, data.y, degree=config.quantile_degree)
    return EmpiricalQuantileFit(data.a, data.x, data.y)


def clipped_pseudo_outcome(y, q_low, q_high, gamma, side):
    """Pseudo-outcome s(Z): the quantile plus the over/undershoot scaled by the box edge.

    side "upper": pivot at the tau_u = gamma/(1+gamma) quantile, overshoot
    times gamma, undershoot times 1/gamma. side "lower" mirrors it at tau_l.
    """
    y = np.asarray(y, dtype=float).ravel()
    if side == "upper":
        q = np.asarray(q_high, dtype=float).ravel()
    elif side == "lower":
        q = np.asarray(q_low, dtype=float).ravel()
    else:
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    resid = y - q
    if side == "upper":
        scale = np.where(resid > 0, gamma, 1.0 / gamma)
    else:
        scale = np.where(resid > 0, 1.0 / gamma, gamma)
    return q + resid * scale


class _Bundle:
    """Nuisance fits trained on one training subset, evaluated anywhere."""

    def __init__(self, data, train_idx, config):
        self.config = config
        self.train_idx = np.asarray(train_idx)
        sub = data.take(self.train_idx)
        self._train_data = sub
        self.outcome = fit_outcome(sub, config)
        self.propensity = fit_propensity(sub, config)
        self.quantile = fit_quantile(sub, config)
        self._kappa = {}

    def weight(self, a, x):
        cond = self.propensity.conditional_density(a, x)
        if self.config.weight_flavor == "stabilized":
            return self.propensity.marginal_density(a) / cond
        return 1.0 / cond

    def quantile_pair(self, gamma, a, x):
        tau_l = 1.0 / (1.0 + gamma)
        tau_u = gamma / (1.0 + gamma)
        q = self.quantile.evaluate_many([tau_l, tau_u], a, x)
        return q[:, 0], q[:, 1]

    def regression(self, gamma=None, side=None):
        """The outcome regression mu-hat, or with (gamma, side) kappa-hat: the
        regression of the clipped pseudo-outcome on (A, X), cached per (gamma, side)."""
        if gamma is None:
            return self.outcome
        key = (_gamma_key(gamma), side)
        if key not in self._kappa:
            sub = self._train_data
            q_low, q_high = self.quantile_pair(gamma, sub.a, sub.x)
            s = clipped_pseudo_outcome(sub.y, q_low, q_high, gamma, side)
            self._kappa[key] = _outcome_fit(sub.a, sub.x, s, self.config)
        return self._kappa[key]


class CrossFit:
    """Out-of-fold nuisance evaluations: the nuisance protocol of the estimators.

    Unit i is always scored by the bundle trained on the folds that exclude
    i, and a pair-kernel row (a_i, X_j) by unit i's bundle. Who reads what:

    - ``weights``: every estimator;
    - ``quantile_units(gamma)``: the conditional weight rule of ``gamma``;
    - ``s_units``, ``kappa_units`` and ``kappa_row``: the propensity and
      subset-propensity pair kernels; ``kappa_at``, the bundle average at
      probe points: ``gamma.conditional_outcome_bounds``;
    - ``mu_units`` and ``mu_row``: the outcome and subset-propensity pair
      kernels and the outcome-shift subset bounds; ``mu_at_units`` and
      ``kappa_at_units``: the subset theta bounds;
    - ``additive_parts(gamma, side)``, optional: (g, c) per unit with unit
      i's regression at (a_i, X_j) equal to g_i + X_j^T c_i (mu-hat without
      arguments, kappa-hat with them), or None. ``_pair_phi`` builds the
      propensity and outcome pair kernels from it as factors, whose sums
      ``msm.pair_moment_fit`` takes in O(n); only when it is None
      (``outcome_method`` "kernel") do those kernels read ``kappa_row`` and
      ``mu_row``. The subset kernel always reads the rows.

    mu-hat and kappa-hat are ``_Bundle.regression``, read at each unit's own
    point by ``_own`` and along a row by ``_row``. ``_FixedNuisances`` is the
    weights-only implementation.
    """

    def __init__(self, data, config=None, seed=0):
        self.data = data
        self.config = config or NuisanceConfig()
        splits = self._splits(seed)
        self.bundles = [_Bundle(data, train, self.config) for train, _ in splits]
        self._scored = [units for _, units in splits]
        fold_of_unit = np.empty(data.n, dtype=int)
        for f, units in enumerate(self._scored):
            fold_of_unit[units] = f
        self.assignment = FoldAssignment(fold_of_unit, len(splits))
        self._cache = {}

    def _splits(self, seed):
        """(train, scored) unit indices per bundle: each fold is scored by
        the bundle trained on the other folds."""
        folds = split_folds(self.data.n, self.config.folds, seed)
        return [(folds.complement(f), folds.members(f)) for f in range(folds.k)]

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def bundle_for(self, i):
        return self.bundles[self.assignment.fold_of_unit[i]]

    def _per_unit(self, fn):
        if len(self.bundles) == 1:
            # one bundle scores every unit, in index order
            return fn(self.bundles[0], self._scored[0])
        out = np.empty(self.data.n)
        for bundle, units in zip(self.bundles, self._scored):
            out[units] = fn(bundle, units)
        return out

    def _own(self, gamma=None, side=None, a0=None):
        """A regression at each unit's (a_i, x_i), or (a0, x_i), from its own bundle."""
        def evaluate(bundle, units):
            a = self.data.a[units] if a0 is None else np.full(units.size, float(a0))
            return bundle.regression(gamma, side)(a, self.data.x[units])

        return self._per_unit(evaluate)

    def _row(self, i, gamma=None, side=None):
        """A regression at (a_i, X_j) for all j, from unit i's bundle."""
        fit = self.bundle_for(i).regression(gamma, side)
        return fit(np.full(self.data.n, self.data.a[i]), self.data.x)

    @property
    def weights(self):
        return self._cached("weights", lambda: self._per_unit(
            lambda b, m: b.weight(self.data.a[m], self.data.x[m])))

    @property
    def mu_units(self):
        return self._cached("mu", self._own)

    def mu_row(self, i):
        """mu-hat(a_i, X_j) for all j, using unit i's out-of-fold bundle."""
        return self._row(i)

    def mu_at_units(self, a0):
        """mu-hat(a0, X_i) for every unit i, each scored by its own bundle."""
        return self._own(a0=a0)

    def quantile_units(self, gamma):
        """(q_low, q_high) at each unit's own (a_i, x_i), out of fold."""
        def compute():
            pairs = {
                b: b.quantile_pair(gamma, self.data.a[m], self.data.x[m])
                for b, m in zip(self.bundles, self._scored)
            }
            return tuple(self._per_unit(lambda b, m, k=k: pairs[b][k]) for k in (0, 1))

        return self._cached(("quantile", _gamma_key(gamma)), compute)

    def s_units(self, gamma, side):
        return self._cached(("s", _gamma_key(gamma), side), lambda: clipped_pseudo_outcome(
            self.data.y, *self.quantile_units(gamma), gamma, side))

    def kappa_units(self, gamma, side):
        """kappa-hat at each unit's own (a_i, x_i), out of fold."""
        return self._cached(("kappa", _gamma_key(gamma), side), lambda: self._own(gamma, side))

    def kappa_row(self, gamma, side, i):
        """kappa-hat(a_i, X_j) for all j, using unit i's bundle."""
        return self._row(i, gamma, side)

    def kappa_at_units(self, gamma, side, a0):
        """kappa-hat(a0, X_i) for every unit, each scored by its own bundle."""
        return self._own(gamma, side, a0)

    def kappa_at(self, gamma, side, a, x):
        """kappa-hat at probe points (a, x): the average over the bundles."""
        return np.mean([b.regression(gamma, side)(a, x) for b in self.bundles], axis=0)

    def additive_parts(self, gamma=None, side=None):
        """(g, c) per unit with unit i's regression at (a_i, X_j) equal to
        g_i + X_j^T c_i: mu-hat, or with (gamma, side) kappa-hat. None when the
        outcome method is not additive in x ("kernel")."""
        if self.config.outcome_method != "linear":
            return None

        def compute():
            g = np.empty(self.data.n)
            c = np.empty(self.data.x.shape)
            for bundle, units in zip(self.bundles, self._scored):
                g[units], c[units] = bundle.regression(gamma, side).additive_parts(
                    self.data.a[units])
            return g, c

        key = None if gamma is None else _gamma_key(gamma)
        return self._cached(("additive", key, side), compute)


class SelfFit(CrossFit):
    """Single in-sample bundle exposed through the CrossFit interface.

    Used by demos and oracle comparisons where plug-in identities matter
    more than sample splitting; flagged so callers can surface it.
    """

    in_sample = True

    def __init__(self, data, config=None):
        # no seed: nothing is split at random
        super().__init__(data, config)

    def _splits(self, seed):
        units = np.arange(self.data.n)
        return [(units, units)]


def crossfit(data, config=None, seed=0):
    """Split the data into folds and train one nuisance bundle per held-out fold."""
    return CrossFit(data, config=config, seed=seed)


def stabilized_weights(data, config=None, seed=0, crossfit_obj=None):
    """Per-unit density-ratio weights, out of fold unless a SelfFit is passed."""
    cf = crossfit_obj if crossfit_obj is not None else CrossFit(data, config, seed)
    return cf.weights


class _FixedNuisances:
    """The weights-only implementation of the ``CrossFit`` protocol: externally
    supplied weights. Everything that needs a fitted outcome, quantile or
    pseudo-outcome model raises ConfigError.
    """

    in_sample = True
    config = None

    def __init__(self, data, weights):
        self.data = data
        self.weights = np.array(weights, dtype=float)
        if self.weights.shape != (data.n,):
            raise ConfigError("weights must have one entry per unit")

    def _unfitted(self, *args):
        raise ConfigError("fixed weights carry no outcome, quantile or pseudo-outcome fits")

    mu_row = mu_at_units = quantile_units = s_units = _unfitted
    kappa_units = kappa_row = kappa_at_units = kappa_at = additive_parts = _unfitted
    mu_units = bundles = property(_unfitted)


def _pair_phi(nuisances, u, gamma=None, side=None):
    """The pair kernel phi_ij = u_i + unit i's regression at (a_i, X_j): mu-hat, or
    with (gamma, side) kappa-hat.

    With ``additive_parts`` (g, c) it is the factor pair (L, R), phi_ij = L_i^T R_j,
    with L = [u + g, c] and R = [1, X]; otherwise the row function i -> phi_i.
    """
    parts = nuisances.additive_parts(gamma, side)
    if parts is None:
        if gamma is None:
            return lambda i: u[i] + nuisances.mu_row(i)
        return lambda i: u[i] + nuisances.kappa_row(gamma, side, i)
    g, c = parts
    return np.column_stack([u + g, c]), _poly_design(nuisances.data.a, nuisances.data.x, 0)


def fixed_weight_nuisances(data, weights):
    """Adapter exposing externally supplied weights through the CrossFit surface."""
    return _FixedNuisances(data, weights)
