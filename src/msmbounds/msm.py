"""Marginal structural models: weighted moment fitting and U-statistic inference.

The moment condition is mean_n[ h(A) * w * (Y - g(A; beta)) ] = 0 with h the
moment features, w the density-ratio weights, and g the working curve.
Linear curves solve in closed form; anything else runs a damped Newton.

Every pair-kernel statistic comes from the kernel's row and column sums
over all ordered pairs i != j: the U-statistic, its Hajek-projection
variance and, in ``pair_moment_fit``, both the target of a pair moment and
the covariance of its solution. A ``PairKernel`` is walked one row at a
time in index order (``_pair_sums``), so results never depend on chunking;
that path serves the public U-statistics, the Nadaraya-Watson outcome
regression and the subset kernel. A kernel given as factors
phi_ij = L_i^T R_j, as the propensity and outcome kernels are under the
linear outcome regression, has its sums in closed form in O(n)
(``_factor_sums``).
"""

import dataclasses

import numpy as np

from .errors import NoConvergence, SingularMoment
from .results import BetaEstimate


def _as_rows(a):
    return np.asarray(a, dtype=float).ravel()


@dataclasses.dataclass(frozen=True)
class MsmModel:
    """Working marginal model g(a; beta) plus the moment features h(a).

    ``basis`` is set when g(a; beta) = basis(a) @ beta; that unlocks the
    closed-form fit and the linear bound machinery, all of which solve the
    least-squares projection, so the moment features must be the basis.
    """

    dim: int
    curve: object           # (a, beta) -> (m,)
    gradient: object        # (a, beta) -> (m, dim)
    moment_features: object  # (a,) -> (m, dim)
    basis: object = None    # (a,) -> (m, dim) when the curve is linear
    name: str = "custom"

    def __post_init__(self):
        if self.basis is not None and self.moment_features is not self.basis:
            raise ValueError(
                "a model with a basis solves the basis moments, so moment_features "
                "must be the basis; drop basis to solve other moment features by "
                "the generic Newton path"
            )

    @property
    def linear(self):
        return self.basis is not None

    def _coerce(self, a):
        """The treatment array the callables receive: one entry per unit."""
        return _as_rows(a)

    def features(self, a):
        h = np.asarray(self.moment_features(self._coerce(a)), dtype=float)
        if h.ndim == 1:
            h = h[:, None]
        if h.shape[1] != self.dim:
            raise ValueError("moment features have the wrong width")
        return h

    def basis_matrix(self, a):
        if self.basis is None:
            raise ValueError(f"model {self.name!r} has no linear basis")
        b = np.asarray(self.basis(self._coerce(a)), dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        return b

    def predict(self, a, beta):
        return np.asarray(self.curve(self._coerce(a), np.asarray(beta, dtype=float)))

    def grad(self, a, beta):
        g = np.asarray(self.gradient(self._coerce(a), np.asarray(beta, dtype=float)))
        if g.ndim == 1:
            g = g[:, None]
        return g


def _poly_basis(degree):
    def basis(a):
        a = _as_rows(a)
        return np.column_stack([a ** p for p in range(degree + 1)])

    return basis


def polynomial_msm(degree):
    """g(a; beta) = beta_0 + beta_1 a + ... + beta_degree a^degree."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    basis = _poly_basis(degree)
    return MsmModel(
        dim=degree + 1,
        curve=lambda a, beta: basis(a) @ beta,
        gradient=lambda a, beta: basis(a),
        moment_features=basis,
        basis=basis,
        name=f"poly{degree}",
    )


def linear_msm():
    """Line in treatment: g(a; beta) = beta_0 + beta_1 a."""
    return polynomial_msm(1)


def intercept_msm():
    """Constant curve: g(a; beta) = beta_0, the weighted outcome mean."""
    return polynomial_msm(0)


def custom_msm(dim, curve, gradient, moment_features, basis=None, name="custom"):
    """Wrap user callables into a model; pass ``basis`` when the curve is linear."""
    return MsmModel(
        dim=dim,
        curve=curve,
        gradient=gradient,
        moment_features=moment_features,
        basis=basis,
        name=name,
    )


def _solve(mat, rhs, context):
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMoment(f"{context}: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularMoment(f"{context}: non-finite solve result")
    return sol


def moment_matrix(model, a, w, beta=None):
    """M = mean_n[ h(A_i) grad_i^T ] weighted by w; the Jacobian scale of the moment."""
    h = model.features(a)
    if model.linear:
        grad = model.basis_matrix(a)
    else:
        grad = model.grad(a, beta)
    w = _as_rows(w)
    return (h * w[:, None]).T @ grad / w.size


def sandwich_variance(model, a, y, w, beta):
    """Asymptotic covariance of sqrt(n) (beta_hat - beta): M^-1 S M^-T.

    S is the ddof-0 covariance of the per-unit scores h(A) w (Y - g(A; beta)).
    """
    y = _as_rows(y)
    w = _as_rows(w)
    h = model.features(a)
    resid = y - model.predict(a, beta)
    scores = h * (w * resid)[:, None]
    centered = scores - scores.mean(axis=0)
    s = centered.T @ centered / scores.shape[0]
    m = moment_matrix(model, a, w, beta)
    minv_s = _solve(m, s, "sandwich bread")
    return _solve(m, minv_s.T, "sandwich bread").T


def solve_moment(model, a, target, w=None, beta0=None, max_iter=100):
    """Solve mean_n[ h(A) w g(A; beta) ] = target for beta.

    ``w`` defaults to one. A linear model solves (h w)^T b / n beta =
    target in closed form; any other model runs a damped Newton from
    ``beta0`` (zero by default) until the residual drops below 1e-9.
    """
    if model.linear:
        # the moment features are the basis (MsmModel checks); h^T b is kept
        # a product of two arrays, which numpy rounds unlike b^T b
        b = model.basis_matrix(a)
        hw = model.features(a) if w is None else b * w[:, None]
        return _solve(hw.T @ b / b.shape[0], target, "moment matrix")
    h = model.features(a)
    hw = h if w is None else h * w[:, None]
    n = h.shape[0]
    beta = np.zeros(model.dim) if beta0 is None else np.asarray(beta0, dtype=float).copy()

    def gap(bvec):
        return target - hw.T @ model.predict(a, bvec) / n

    res = gap(beta)
    for _ in range(max_iter):
        norm = np.max(np.abs(res))
        if norm <= 1e-9:
            return beta
        step = _solve(hw.T @ model.grad(a, beta) / n, res, "moment Jacobian")
        scale = 1.0
        for _ in range(30):
            trial = beta + scale * step
            trial_res = gap(trial)
            if np.max(np.abs(trial_res)) < norm:
                beta, res = trial, trial_res
                break
            scale *= 0.5
        else:
            raise NoConvergence("Newton step could not reduce the moment residual")
    if np.max(np.abs(res)) <= 1e-9:
        return beta
    raise NoConvergence(
        f"moment residual {np.max(np.abs(res)):.3e} after {max_iter} iterations"
    )


def weighted_fit(model, a, y, w, beta0=None, max_iter=100):
    """beta solving the weighted moment condition mean_n[ h w (y - g(A; beta)) ] = 0."""
    hw = model.features(a) * w[:, None]
    return solve_moment(model, a, hw.T @ y / y.size, w, beta0, max_iter)


def fit_msm(data, model, nuisances=None, weights=None, beta0=None, max_iter=100):
    """Fit the working marginal model by the weighted moment condition.

    ``weights`` overrides the nuisance-supplied density ratios. Linear
    models solve in closed form; otherwise a damped Newton runs until the
    moment residual drops below 1e-9.
    """
    if weights is None:
        if nuisances is None:
            raise ValueError("pass either nuisances or explicit weights")
        weights = nuisances.weights
    w = _as_rows(weights)
    beta = weighted_fit(model, data.a, data.y, w, beta0, max_iter)
    cov = sandwich_variance(model, data.a, data.y, w, beta)
    return BetaEstimate(beta=beta, covariance=cov)


class PairKernel:
    """Exact two-sample kernel f(Z_i, Z_j), materialized one row at a time.

    ``row(i)`` returns the (n, dim) array of f(Z_i, Z_j) over all j,
    including the diagonal entry, which the statistics below exclude.
    """

    def __init__(self, n, dim, row_fn):
        self.n = int(n)
        self.dim = int(dim)
        self._row_fn = row_fn

    def row(self, i):
        r = np.asarray(self._row_fn(i), dtype=float)
        if r.ndim == 1:
            r = r[:, None]
        if r.shape != (self.n, self.dim):
            raise ValueError(f"row {i} has shape {r.shape}")
        return r


def _pair_sums(kernel):
    """One pass over rows: per-row and per-column sums of the off-diagonal entries."""
    n, k = kernel.n, kernel.dim
    if n < 2:
        raise ValueError("need at least two units")
    row_sums = np.empty((n, k))
    col_sums = np.zeros((n, k))
    diag = np.empty((n, k))
    for i in range(n):
        r = kernel.row(i)
        diag[i] = r[i]
        row_sums[i] = r.sum(axis=0) - r[i]
        col_sums += r
    col_sums -= diag
    return row_sums, col_sums


def _factor_sums(h, left, right):
    """``_pair_sums`` of the kernel h_i L_i^T R_j in O(n r dim), r the width of L and R:
    row i is h_i (L_i^T sum_j R_j - L_i^T R_i) and column j is R_j^T (L^T h) - h_j L_j^T R_j."""
    if h.shape[0] < 2:
        raise ValueError("need at least two units")
    diag = np.einsum("ij,ij->i", left, right)
    row_sums = h * (left @ right.sum(axis=0) - diag)[:, None]
    col_sums = right @ (left.T @ h) - h * diag[:, None]
    return row_sums, col_sums


def _u_value(row_sums):
    n = row_sums.shape[0]
    return row_sums.sum(axis=0) / (n * (n - 1))


def _projection_variance(unit_sums):
    """4 Cov(h1) from the per-unit sums 2 (n-1) h1_i of the symmetrized kernel."""
    h1 = unit_sums / (2.0 * (unit_sums.shape[0] - 1))
    centered = h1 - h1.mean(axis=0)
    return 4.0 * centered.T @ centered / h1.shape[0]


def u_statistic(kernel):
    """Exact order-2 U-statistic: average of f over all ordered pairs i != j."""
    return _u_value(_pair_sums(kernel)[0])


def u_projection_variance(kernel):
    """Asymptotic covariance of sqrt(n) times the U-statistic: 4 Cov(h1).

    h1_i = (n-1)^-1 sum_{j != i} (f(Z_i,Z_j) + f(Z_j,Z_i)) / 2 is the Hajek
    projection of the symmetrized kernel.
    """
    return _projection_variance(np.add(*_pair_sums(kernel)))


def u_statistic_with_variance(kernel):
    """U-statistic and its 4 Cov(h1) asymptotic covariance in one pass."""
    row_sums, col_sums = _pair_sums(kernel)
    return _u_value(row_sums), _projection_variance(row_sums + col_sums)


def pair_moment_fit(h, phi, solve):
    """Solve the pair moment U_n[h(A_1)(phi(Z_1, Z_2) - g(A_1; beta))] = 0.

    ``phi`` is a row function i -> phi_i(.), walked once over the kernel rows
    h_i phi_i(.), or a factor pair (L, R) with phi_ij = L_i^T R_j, whose sums
    ``_factor_sums`` gives in closed form. The row sums give the target
    U_n[h phi]; ``solve(target)`` returns (beta, the fitted g(A_i; beta), the
    bread M). The covariance is 4 Cov of the Hajek projection of
    M^-1 h_i (phi_ij - g_i), whose row and column sums come from the same
    sums: subtracting g only removes (n-1) h_i g_i from row i and
    sum_{i != j} h_i g_i from column j. Returns (beta, covariance of sqrt(n) beta-hat).
    """
    n, dim = h.shape
    if isinstance(phi, tuple):
        row_sums, col_sums = _factor_sums(h, *phi)
    else:
        row_sums, col_sums = _pair_sums(
            PairKernel(n, dim, lambda i: h[i][None, :] * phi(i)[:, None]))
    beta, fitted, bread = solve(_u_value(row_sums))
    hg = h * fitted[:, None]
    unit_sums = row_sums - (n - 1) * hg + col_sums - (hg.sum(axis=0) - hg)
    # M^-1 per unit, before the covariance: forming M^-1 V M^-T afterwards
    # drifts ~1e-10 relative from the row-wise kernel on poly2 models
    unit_sums = _solve(bread, unit_sums.T, "pair covariance bread").T
    return beta, _projection_variance(unit_sums)


def _linear_functional_fits(model, a, direction, phis):
    """Pair-moment fits of direction^T beta for the least-squares projection onto b.

    direction is e (a coordinate) or b(a0) (a curve point). ``phis(lev)``
    gives one ``pair_moment_fit`` kernel per side from the leverage
    lev_i = b(A_i)^T Q^-1 direction, Q = b^T b / n, whose sign splits the
    units. Returns (direction^T beta, direction^T cov direction) per side.
    """
    if not model.linear:
        raise ValueError("linear functional bounds need a linear model")
    b = model.basis_matrix(a)
    q_mat = b.T @ b / b.shape[0]
    lev = b @ _solve(q_mat, direction, "basis Gram matrix")

    def solve(target):
        beta = _solve(q_mat, target, "basis Gram matrix")
        return beta, b @ beta, q_mat

    fits = [pair_moment_fit(b, phi, solve) for phi in phis(lev)]
    return [(float(direction @ beta), float(direction @ cov @ direction)) for beta, cov in fits]


def _pair_moment_sides(model, a, phis):
    """(beta, covariance) of ``pair_moment_fit`` on the working model for each
    kernel that ``phis`` yields, one per side."""
    h = model.features(a)

    def solve(target):
        beta = solve_moment(model, a, target)
        grad = model.basis_matrix(a) if model.linear else model.grad(a, beta)
        return beta, model.predict(a, beta), h.T @ grad / a.size

    return [pair_moment_fit(h, phi, solve) for phi in phis]
