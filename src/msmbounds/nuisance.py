"""Nuisance estimation: outcome regression, propensity, quantiles, cross-fitting.

All fitters are deterministic given the training rows. The cross-fitting
wrapper hands every unit an evaluator trained on the other folds, and the
per-(gamma, side) clipped-outcome regressions are cached so a whole gamma
grid reuses one set of fold fits. Every outcome and quantile fit trains on
``_Rows`` and evaluates at ``_Rows``, so a bundle's training rows and a
fold's scored rows each build their design once. Each fit checks at its
training entry that its data are finite (``_require_finite``).

Discrete-support (a, x) cells are one integer label per row (``cell_labels``),
and the empirical quantiles index into y sorted by (cell, y).
"""

import dataclasses
import math

import numpy as np

from .data import split_folds
from .errors import (
    BadTau,
    ConfigError,
    DataError,
    DegenerateVariance,
    SingularDesign,
    TooManyLevels,
    UnseenLevel,
)
from .msm import _poly_design

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


class _Rows:
    """(a, x) rows, with y for training rows, and their ``_poly_design`` of each
    degree, built on first read. The outcome and quantile fits train on
    ``_Rows`` and are evaluated at ``_Rows``, so every fit on a bundle's
    training rows and every evaluation at a fold's scored rows reads the same
    designs. The designs are never written to."""

    def __init__(self, a, x, y=None):
        self.a, self.x, self.y = a, x, y
        self._designs = {}

    def design(self, degree):
        if degree not in self._designs:
            self._designs[degree] = _poly_design(self.a, self.x, degree)
        return self._designs[degree]


def _rows_of(data):
    """A dataset's rows as ``_Rows``; a bundle's training ``_Rows`` are their own."""
    return data if isinstance(data, _Rows) else _Rows(data.a, data.x, data.y)


def _require_finite(fit, y, design, response="y"):
    """Raise ``DataError`` unless the response ``y`` and the design are finite:
    a non-finite entry would turn every fitted value NaN or stop LAPACK."""
    bad_y = np.count_nonzero(~np.isfinite(y))
    bad_design = np.count_nonzero(~np.isfinite(design))
    if bad_y or bad_design:
        raise DataError(f"{fit} needs finite data: {bad_y} non-finite in {response}, "
                        f"{bad_design} in the design")


def _lstsq(design, y):
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        # rank deficiency is tolerated (min-norm solution); a zero design is not
        if not np.any(design):
            raise SingularDesign("design matrix is identically zero")
    return coef


class LinearOutcomeFit:
    """Polynomial-in-treatment, linear-in-covariates least squares regression
    of y on the ``_Rows`` ``rows``."""

    def __init__(self, rows, y, degree=1):
        self.degree = int(degree)
        design = rows.design(self.degree)
        y = np.asarray(y, dtype=float).ravel()
        _require_finite("linear outcome fit", y, design)
        self.coef = _lstsq(design, y)

    def __call__(self, rows):
        """The fit at the ``_Rows`` ``rows``."""
        return rows.design(self.degree) @ self.coef

    def _additive_parts(self, rows):
        """(g, c) with fit(a_i, x) = g_i + x^T c at the ``_Rows`` ``rows``: the
        treatment part of their design times its coefficients, and the covariate
        coefficients."""
        k = self.degree + 1
        # a contiguous copy, so the product cannot depend on how BLAS reads a strided view
        treatment = np.ascontiguousarray(rows.design(self.degree)[:, :k])
        return treatment @ self.coef[:k], self.coef[k:]


class KernelOutcomeFit:
    """Nadaraya-Watson regression with a Gaussian product kernel, of y on the
    ``_Rows`` ``rows``."""

    def __init__(self, rows, y, bandwidth_scale=1.0):
        self.train = rows.design(1)[:, 1:]
        self.y = np.asarray(y, dtype=float).ravel()
        _require_finite("kernel outcome fit", self.y, self.train)
        n = self.train.shape[0]
        sd = self.train.std(axis=0)
        sd = np.where(sd < 1e-12, 1.0, sd)
        self.bandwidth = 1.06 * sd * n ** (-0.2) * float(bandwidth_scale)

    def __call__(self, rows):
        """The fit at the ``_Rows`` ``rows``."""
        probe = rows.design(1)[:, 1:]
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
        _require_finite("gaussian propensity fit", a, design, "a")
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
        z = _poly_design(a, x, 0)
        _require_finite("discrete propensity fit", a, z, "a")
        self.levels = np.unique(a)
        if self.levels.size > self.MAX_LEVELS:
            raise TooManyLevels(
                f"{self.levels.size} treatment levels exceed {self.MAX_LEVELS}"
            )
        labels = np.searchsorted(self.levels, a)
        self.marg = np.bincount(labels, minlength=self.levels.size) / a.size
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
        unseen = np.abs(self.levels[idx] - a) > 1e-9
        if np.any(unseen):
            raise UnseenLevel(
                f"treatment value {a[unseen][0]:g} is not among the levels "
                f"{self.levels.tolist()} of the propensity fit; a training fold can miss "
                "a rare level, and in-sample nuisances (nuisance.in_sample) fit every level"
            )
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


def _independent_columns(design):
    """A maximal set of linearly independent columns, each kept unless the
    columns before it already span it (``a**2 == a`` for binary a)."""
    keep = []
    for j in range(design.shape[1]):
        if np.linalg.matrix_rank(design[:, keep + [j]]) > len(keep):
            keep.append(j)
    return keep


def _nonsingular_rows(design, order, norms):
    """p rows of the n x p full-rank ``design`` that form a nonsingular square
    matrix, each the first row in ``order`` outside the span of those before it.
    ``norms`` are the rows' norms. The rows are projected one at a time onto
    the orthonormal rows picked so far, so the walk stops at the p-th pick."""
    p = design.shape[1]
    basis, picked = np.empty((p, p)), []
    for i in order:
        row, done = design[i], basis[:len(picked)]
        resid = row - (done @ row) @ done
        norm = math.sqrt(resid.dot(resid))
        if norm > 1e-9 * norms[i]:
            if len(picked) == p - 1:
                return np.array(picked + [i])
            basis[len(picked)] = resid / norm
            picked.append(i)
    raise SingularDesign("quantile design has no nonsingular row basis")


def _vertex_residuals(design, y, basis, square, tol):
    """beta = X_h^-1 y_h, ``square`` being X_h, and its residuals, those of the
    basis rows and those within ``tol`` of 0 set to exactly 0."""
    beta = np.linalg.solve(square, y[basis])
    r = y - design @ beta
    r[basis] = 0.0
    r[abs(r) <= tol] = 0.0
    return beta, r


def _vertex_setup(design, y):
    """The tau-free part of ``_quantile_vertex``: the least-squares residuals,
    sorted and in row order, the row norms and the zero-residual tolerance."""
    resid = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
    return np.sort(resid), resid, np.linalg.norm(design, axis=1), 1e-12 * np.abs(y).max()


def _sorted_quantile(ordered, tau):
    """``np.quantile(ordered, tau)`` of the sorted ``ordered``, tau in [0, 1], by
    numpy's own operations: the virtual index (n - 1) tau, its floor (the last
    entry at or past n - 1) and the lerp, from the upper neighbour when t >= 0.5."""
    index = (ordered.size - 1) * tau
    below = -1 if index >= ordered.size - 1 else math.floor(index)
    t = index - below
    low = ordered.item(below)
    high = ordered.item(-1 if below == -1 else below + 1)
    diff = high - low
    return high - diff * (1 - t) if t >= 0.5 else low + diff * t


def _norm(vector):
    """``np.linalg.norm`` of a 1-d array: the root of the dot product of its
    contiguous copy (a strided dot sums in another order)."""
    flat = vector.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _quantile_vertex(design, y, tau, setup=None):
    """The exact tau-quantile regression of y on a full-rank n x p ``design``.

    Returns beta = X_h^-1 y_h, which interpolates the p training rows h of its basis.
    Descent along the edges of the piecewise-linear pinball loss (Barrodale &
    Roberts 1973; Koenker 2005, section 6.2), which is the dual simplex on
    max y^T a subject to X^T a = 0 and tau - 1 <= a <= tau. It starts from the
    rows nearest the least-squares line shifted to the tau-quantile of its
    residuals. ``above`` records which bound each off-basis row sits at, the
    sign of its residual, and stays the record for zero residuals. At basis h
    the duals d = -X_h^-T sum_{i not in h} a_i x_i certify optimality when every
    d_k lies in [tau - 1, tau]. Otherwise the loss falls along one of the 2p
    edges that free a basis row to either side, and the line search stops at
    the weighted median of the kinks r_i / z_i, from one sort and a cumulative
    sum; the kinks it passes change side. A step that does not move (a zero
    residual off the basis enters) makes the next step follow Bland's rule: the
    lowest-indexed basis row leaves, to the first kink, lowest index first.
    No bound on the pivots is known: on degenerate data (noiseless lines,
    tied y, discrete cells) every step can be one that does not move, and a
    noiseless line of 255 rows had not ended its tau = 0.5 fit after 300,000
    pivots (ROADMAP Known defect 3 and item 12).
    ``setup`` is ``_vertex_setup(design, y)``, which fits of several taus share.
    Each pivot makes one inverse and one solve; the rest is elementwise work
    on arrays, with the loop's invariants hoisted.
    """
    p = design.shape[1]
    ordered, resid, norms, tol = _vertex_setup(design, y) if setup is None else setup
    start = abs(resid - _sorted_quantile(ordered, tau)).argsort(kind="stable")
    basis = _nonsingular_rows(design, start, norms)
    square = design[basis]
    beta, r = _vertex_residuals(design, y, basis, square, tol)
    above = r > 0
    bland = False
    design_t, low, high, tiny = design.T, tau - 1.0, 1.0 - tau, 1e-10 * norms
    while True:
        inv = np.linalg.inv(square)
        a = np.where(above, tau, low)
        a[basis] = 0.0
        u = inv.T @ (design_t @ a)
        # the loss's slope along +/- column k of X_h^-1, which moves row h_k below / above
        slopes = np.concatenate([high - u, tau + u])
        descent = (slopes < -1e-10).nonzero()[0]
        if not descent.size:
            return beta
        if bland:
            edge = descent[basis[descent % p].argmin()]
        else:
            edge = descent[slopes[descent].argmin()]
        k = edge % p
        step = inv[:, k] if edge < p else -inv[:, k]
        z = design @ step
        # rows in the span of the other basis rows do not move: z is rounding there
        z[abs(z) <= tiny * _norm(step)] = 0.0
        z[basis] = 0.0
        kinks = np.where(above, z > 0, z < 0).nonzero()[0]
        moves = z[kinks]
        t = np.maximum(r[kinks] / moves, 0.0)
        # kinks ascend, so the stable order of t breaks ties by row index
        at = t.argsort(kind="stable")
        rising = slopes[edge] + abs(moves[at]).cumsum()
        if not rising.size or rising[-1] < 0:
            raise SingularDesign(f"quantile loss is unbounded at tau={tau}")
        stop = 0 if bland else int((rising >= 0).argmax())
        above[kinks[at[:stop]]] ^= True
        above[basis[k]] = edge >= p
        basis[k] = kinks[at[stop]]
        bland = t[at[stop]] == 0.0
        square = design[basis]
        beta, r = _vertex_residuals(design, y, basis, square, tol)
        above = np.where(r != 0, r > 0, above)


class PinballQuantileFit:
    """Linear-in-features conditional quantiles of y on the ``_Rows`` ``rows``:
    exact pinball-loss minimizers.

    Each tau is fit by ``_quantile_vertex`` on a linearly independent subset of
    the design's columns (the others get coefficient 0), so its fit
    interpolates p training rows; evaluated at those rows it returns their y
    up to rounding. The column subset and the ``_vertex_setup`` that every tau
    shares are made once, on the first fit, after a check that y and the
    design are finite (an infinite y would make the zero tolerance infinite
    and the walk cycle). Fits are cached per tau; joint evaluation sorts
    across the tau axis so requested quantile curves never cross.
    """

    def __init__(self, rows, y, degree=1):
        self.degree = int(degree)
        self._design = rows.design(self.degree)
        self._y = np.asarray(y, dtype=float).ravel()
        self._coefs = {}
        self._shared = None

    def _tau_free(self):
        """(columns, their design, its ``_vertex_setup``), made on the first call."""
        if self._shared is None:
            _require_finite("pinball quantile fit", self._y, self._design)
            cols = _independent_columns(self._design)
            design = self._design[:, cols]
            self._shared = cols, design, _vertex_setup(design, self._y)
        return self._shared

    def _fit_one(self, tau):
        if not 0.0 < tau < 1.0:
            raise BadTau(f"tau must be in (0, 1), got {tau}")
        cols, design, setup = self._tau_free()
        coef = np.zeros(self._design.shape[1])
        coef[cols] = _quantile_vertex(design, self._y, tau, setup)
        return coef

    def coef(self, tau):
        key = _gamma_key(tau)
        if key not in self._coefs:
            self._coefs[key] = self._fit_one(key)
        return self._coefs[key]

    def evaluate_many(self, taus, rows):
        """Quantiles at each tau for each of the ``_Rows`` ``rows``, sorted so they
        never cross."""
        design = rows.design(self.degree)
        return _uncrossed(np.column_stack([design @ self.coef(t) for t in taus]), taus)


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
    """Per-(a, x)-cell type-1 empirical quantiles of y on the ``_Rows`` ``rows``,
    for discrete-support data.

    y is kept sorted by (cell, y), then the pooled sample as one more cell
    for probe rows in a cell that no training row has.
    """

    def __init__(self, rows, y):
        y = np.asarray(y, dtype=float).ravel()
        cells = _cell_rows(rows.a, rows.x)
        _require_finite("empirical quantile fit", y, cells)
        labels = _row_labels(cells)
        self._keys = cells[np.unique(labels, return_index=True)[1]]
        # a stable sort keeps ties, -0.0 and 0.0 among them, in index order, as lexsort does
        self._sorted = np.concatenate([y[np.lexsort((y, labels))], np.sort(y, kind="stable")])
        self._sizes = np.append(np.bincount(labels), y.size)
        self._starts = np.cumsum(self._sizes) - self._sizes

    def evaluate_many(self, taus, rows):
        """Quantiles at each tau for each of the ``_Rows`` ``rows``, sorted so they
        never cross."""
        k = len(self._keys)
        joint = _row_labels(np.concatenate([self._keys, _cell_rows(rows.a, rows.x)]))
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


def _outcome_fit(rows, y, config):
    """The configured regression of y on the (a, x) ``_Rows``: least squares or
    Nadaraya-Watson."""
    if config.outcome_method == "linear":
        return LinearOutcomeFit(rows, y, config.outcome_degree)
    return KernelOutcomeFit(rows, y, config.bandwidth_scale)


def fit_outcome(data, config=None):
    """Fit the conditional-mean regression E[Y | A, X] on a dataset."""
    return _outcome_fit(_rows_of(data), data.y, config or NuisanceConfig())


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
        return PinballQuantileFit(_rows_of(data), data.y, config.quantile_degree)
    return EmpiricalQuantileFit(_rows_of(data), data.y)


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
    """Nuisance fits trained on one training subset, evaluated anywhere. Every
    fit trains on the ``_Rows`` ``train``, so they share its designs."""

    def __init__(self, data, train_idx, config):
        """``train_idx`` None trains on ``data`` itself, with no copy and no index."""
        self.config = config
        sub = data if train_idx is None else data.take(train_idx)
        self.train = _Rows(sub.a, sub.x, sub.y)
        self.propensity = fit_propensity(sub, config)
        self._outcome = self._quantile = None
        self._kappa, self._train_pairs = {}, {}

    @property
    def outcome(self):
        """mu-hat, fitted on first read: the rank rules never read it."""
        if self._outcome is None:
            self._outcome = fit_outcome(self.train, self.config)
        return self._outcome

    @property
    def quantile(self):
        """The conditional-quantile model, fitted on first read."""
        if self._quantile is None:
            self._quantile = fit_quantile(self.train, self.config)
        return self._quantile

    def weight(self, a, x):
        cond = self.propensity.conditional_density(a, x)
        if self.config.weight_flavor == "stabilized":
            return self.propensity.marginal_density(a) / cond
        return 1.0 / cond

    def quantile_pair(self, gamma, rows):
        """(q_low, q_high) at the ``_Rows`` ``rows``."""
        tau_l = 1.0 / (1.0 + gamma)
        tau_u = gamma / (1.0 + gamma)
        q = self.quantile.evaluate_many([tau_l, tau_u], rows)
        return q[:, 0], q[:, 1]

    def regression(self, gamma=None, side=None):
        """The outcome regression mu-hat, or with (gamma, side) kappa-hat: the
        regression of the clipped pseudo-outcome on (A, X), cached per (gamma, side).
        At gamma = 1 the box is {1}, the pseudo-outcome is y and kappa-hat is mu-hat.
        Both sides read one quantile pair at the training rows per gamma."""
        if gamma is None or _gamma_key(gamma) == 1.0:
            return self.outcome
        key = (_gamma_key(gamma), side)
        if key not in self._kappa:
            if key[0] not in self._train_pairs:
                self._train_pairs[key[0]] = self.quantile_pair(gamma, self.train)
            s = clipped_pseudo_outcome(self.train.y, *self._train_pairs[key[0]], gamma, side)
            self._kappa[key] = _outcome_fit(self.train, s, self.config)
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
    point by ``_own`` and along a row by ``_row``. Each fold's scored rows are
    one ``_Rows`` (``_scored_rows``), so every evaluation at them reads one
    design. The weights slice (a, x) afresh and keep nothing: they are all
    the rank rules read, at up to 100,000 units. ``assignment`` is the
    ``data.FoldAssignment`` of the folds. ``_FixedNuisances`` is the
    weights-only implementation.
    """

    def __init__(self, data, config=None, seed=0):
        self.data = data
        self.config = config or NuisanceConfig()
        self._fit_bundles(seed)
        self._cache = {}

    def _fit_bundles(self, seed):
        """The bundles and their scored units: each fold is scored by the
        bundle trained on the other folds."""
        self.assignment = split_folds(self.data.n, self.config.folds, seed)
        folds = range(self.assignment.k)
        self.bundles = [_Bundle(self.data, self.assignment.complement(f), self.config)
                        for f in folds]
        self._scored = [self.assignment.members(f) for f in folds]

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def bundle_for(self, i):
        return self.bundles[self.assignment.fold_of_unit[i]]

    def _scored_rows(self, f):
        """Fold f's scored units as ``_Rows``, made on first read."""
        units = self._scored[f]
        return self._cached(("rows", f), lambda: _Rows(self.data.a[units], self.data.x[units]))

    def _covariates(self):
        """[1, X] over all units: the R factor of ``_pair_phi``."""
        return self._cached("covariates", lambda: _poly_design(self.data.a, self.data.x, 0))

    def _per_unit(self, fn):
        """fn(f, units) for each fold f, placed at the fold's scored units."""
        if len(self.bundles) == 1:
            # one bundle scores every unit, in index order
            return fn(0, self._scored[0])
        out = np.empty(self.data.n)
        for f, units in enumerate(self._scored):
            out[units] = fn(f, units)
        return out

    def _own(self, gamma=None, side=None, a0=None):
        """A regression at each unit's (a_i, x_i), or (a0, x_i), from its own bundle."""
        def evaluate(f, units):
            fit, rows = self.bundles[f].regression(gamma, side), self._scored_rows(f)
            return fit(rows if a0 is None else _Rows(np.full(rows.a.size, float(a0)), rows.x))

        return self._per_unit(evaluate)

    def _row(self, i, gamma=None, side=None):
        """A regression at (a_i, X_j) for all j, from unit i's bundle."""
        fit = self.bundle_for(i).regression(gamma, side)
        return fit(_Rows(np.full(self.data.n, self.data.a[i]), self.data.x))

    @property
    def weights(self):
        return self._cached("weights", lambda: self._per_unit(
            lambda f, m: self.bundles[f].weight(self.data.a[m], self.data.x[m])))

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
            pairs = [b.quantile_pair(gamma, self._scored_rows(f))
                     for f, b in enumerate(self.bundles)]
            return tuple(self._per_unit(lambda f, m, k=k: pairs[f][k]) for k in (0, 1))

        return self._cached(("quantile", _gamma_key(gamma)), compute)

    def s_units(self, gamma, side):
        """The clipped pseudo-outcome of each unit, out of fold: y itself at gamma = 1."""
        if _gamma_key(gamma) == 1.0:
            return self.data.y
        return self._cached(("s", _gamma_key(gamma), side), lambda: clipped_pseudo_outcome(
            self.data.y, *self.quantile_units(gamma), gamma, side))

    def kappa_units(self, gamma, side):
        """kappa-hat at each unit's own (a_i, x_i), out of fold: mu-hat at gamma = 1."""
        if _gamma_key(gamma) == 1.0:
            return self.mu_units
        return self._cached(("kappa", _gamma_key(gamma), side), lambda: self._own(gamma, side))

    def kappa_row(self, gamma, side, i):
        """kappa-hat(a_i, X_j) for all j, using unit i's bundle."""
        return self._row(i, gamma, side)

    def kappa_at_units(self, gamma, side, a0):
        """kappa-hat(a0, X_i) for every unit, each scored by its own bundle."""
        return self._own(gamma, side, a0)

    def kappa_at(self, gamma, side, a, x):
        """kappa-hat at probe points (a, x): the average over the bundles."""
        rows = _Rows(a, x)
        return np.mean([b.regression(gamma, side)(rows) for b in self.bundles], axis=0)

    def additive_parts(self, gamma=None, side=None):
        """(g, c) per unit with unit i's regression at (a_i, X_j) equal to
        g_i + X_j^T c_i: mu-hat, or with (gamma, side) kappa-hat. None when the
        outcome method is not additive in x ("kernel")."""
        if self.config.outcome_method != "linear":
            return None

        def compute():
            g = np.empty(self.data.n)
            c = np.empty(self.data.x.shape)
            for f, (bundle, units) in enumerate(zip(self.bundles, self._scored)):
                g[units], c[units] = bundle.regression(gamma, side)._additive_parts(
                    self._scored_rows(f))
            return g, c

        if gamma is None or _gamma_key(gamma) == 1.0:
            # mu-hat, whichever side
            return self._cached(("additive", None, None), compute)
        return self._cached(("additive", _gamma_key(gamma), side), compute)


class SelfFit(CrossFit):
    """Single in-sample bundle exposed through the CrossFit interface.

    Used by demos and oracle comparisons where plug-in identities matter
    more than sample splitting; flagged so callers can surface it. It holds
    no n-length index: its bundle trains on the dataset itself, and its
    scored units are ``slice(None)``, every unit in index order, so its
    weights read (a, x) without a copy. It has no ``assignment``.
    """

    in_sample = True

    def __init__(self, data, config=None):
        # no seed: nothing is split at random
        super().__init__(data, config)

    def _fit_bundles(self, seed):
        self.bundles = [_Bundle(self.data, None, self.config)]
        self._scored = [slice(None)]

    def bundle_for(self, i):
        return self.bundles[0]

    def _scored_rows(self, f):
        # the units are scored in index order, so the scored rows are the training rows
        return self.bundles[0].train


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
    return np.column_stack([u + g, c]), nuisances._covariates()


def fixed_weight_nuisances(data, weights):
    """Adapter exposing externally supplied weights through the CrossFit surface."""
    return _FixedNuisances(data, weights)
