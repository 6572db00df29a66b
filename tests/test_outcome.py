"""Outcome-shift sensitivity bounds."""

import numpy as np
import pytest

from msmbounds import outcome as outcome_module
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import SingularMoment
from msmbounds.msm import custom_msm, intercept_msm, linear_msm, polynomial_msm, solve_moment
from msmbounds.nuisance import SelfFit
from msmbounds.outcome import (
    DeltaSpec,
    outcome_beta_bounds_linear,
    outcome_curve_bounds,
    outcome_nonlinear_grid_bounds,
    outcome_parametric_bounds,
)


def _setup(seed=0, n=120):
    data = generate(DgpSpec("confounded-line", seed=seed), n)
    return data, SelfFit(data)


def test_delta_spec_validation():
    with pytest.raises(ValueError):
        DeltaSpec(-0.1)
    assert DeltaSpec().delta == 0.0


def test_collapse_at_delta_zero():
    data, nuis = _setup()
    model = linear_msm()
    spec = DeltaSpec(0.0)
    lo, hi = outcome_beta_bounds_linear(data, model, nuis, spec, 1)
    assert lo == pytest.approx(hi, abs=1e-10)
    g_lo, g_hi, _ = outcome_curve_bounds(data, model, nuis, spec, 1.0)
    assert g_lo == pytest.approx(g_hi, abs=1e-10)
    low_est, high_est = outcome_parametric_bounds(data, model, nuis, spec)
    np.testing.assert_allclose(low_est.beta, high_est.beta, atol=1e-10)
    glo, ghi = outcome_nonlinear_grid_bounds(data, model, nuis, spec, 1)
    assert glo == pytest.approx(ghi, abs=1e-12)


def test_curve_width_identity():
    # upper minus lower is exactly 2 delta mean|b(a0)' Q^-1 b(A_i)|
    data, nuis = _setup(seed=3)
    model = linear_msm()
    b = model.basis_matrix(data.a)
    q = b.T @ b / data.n
    rng = np.random.default_rng(9)
    for _ in range(20):
        a0 = float(rng.uniform(-2, 2))
        delta = float(rng.uniform(0.1, 2.0))
        b0 = model.basis_matrix(np.array([a0]))[0]
        lev = np.abs(b @ np.linalg.solve(q, b0)).mean()
        lo, hi, (var_lo, var_hi) = outcome_curve_bounds(
            data, model, nuis, DeltaSpec(delta), a0
        )
        assert hi - lo == pytest.approx(2 * delta * lev, abs=1e-10)
        assert var_lo >= 0 and var_hi >= 0


def test_intercept_coordinate_width_is_two_delta():
    data, nuis = _setup(seed=5)
    lo, hi = outcome_beta_bounds_linear(data, intercept_msm(), nuis,
                                        DeltaSpec(0.7), 0)
    assert hi - lo == pytest.approx(1.4, abs=1e-10)


def test_widths_monotone_in_delta():
    data, nuis = _setup(seed=2)
    widths = []
    for delta in (0.0, 0.3, 0.8, 1.5):
        lo, hi = outcome_beta_bounds_linear(data, linear_msm(), nuis,
                                            DeltaSpec(delta), 1)
        widths.append(hi - lo)
    assert widths == sorted(widths)
    assert widths[-1] > widths[0]


def test_parametric_matches_linear_for_intercept_model():
    # constant sign split makes the constant-shift and split-shift kernels equal
    data, nuis = _setup(seed=7)
    spec = DeltaSpec(0.9)
    low_est, high_est = outcome_parametric_bounds(data, intercept_msm(), nuis, spec)
    lo, hi = outcome_beta_bounds_linear(data, intercept_msm(), nuis, spec, 0)
    assert low_est.beta[0] == pytest.approx(lo, abs=1e-10)
    assert high_est.beta[0] == pytest.approx(hi, abs=1e-10)


def test_parametric_weakly_inside_per_direction_bounds():
    data, nuis = _setup(seed=11)
    spec = DeltaSpec(0.6)
    model = linear_msm()
    low_est, high_est = outcome_parametric_bounds(data, model, nuis, spec)
    lo, hi = outcome_beta_bounds_linear(data, model, nuis, spec, 1)
    assert lo - 1e-10 <= low_est.beta[1]
    assert high_est.beta[1] <= hi + 1e-10


def test_grid_bounds_exact_for_intercept():
    # dim-1 moment: the reachable shifts are [-delta, delta], in closed form
    data, nuis = _setup(seed=4)
    w = nuis.weights
    mu = nuis.mu_units
    delta = 0.5
    base = np.mean(w * mu)
    lo, hi = outcome_nonlinear_grid_bounds(data, intercept_msm(), nuis,
                                           DeltaSpec(delta), 0)
    assert lo == pytest.approx((base - delta) / w.mean(), abs=1e-10)
    assert hi == pytest.approx((base + delta) / w.mean(), abs=1e-10)


def _warped_line():
    return custom_msm(
        dim=2,
        curve=lambda a, b: b[0] + np.exp(b[1] * 0.1) * a,
        gradient=lambda a, b: np.column_stack(
            [np.ones(a.size), 0.1 * np.exp(b[1] * 0.1) * a]
        ),
        moment_features=lambda a: np.column_stack([np.ones(a.size), a]),
        name="warped-line",
    )


def _basis_free_line():
    # a straight line without ``basis`` takes the generic (Newton) path
    def feats(a):
        return np.column_stack([np.ones(a.size), a])

    return custom_msm(2, lambda a, b: feats(a) @ b, lambda a, b: feats(a), feats,
                      name="basis-free-line")


def _node_band(data, model, nuis, delta, coord, res, inside=None):
    """The node search that the shift band replaced: beta[coord] over the fits
    at the nodes t of a res^dim grid on the box [-delta mean|h_l|, delta
    mean|h_l|] around the reachable shifts, keeping the nodes that
    ``inside(h, nodes)`` marks when it is given."""
    h = model.features(data.a)
    w = nuis.weights
    base = h.T @ (w * nuis.mu_units) / data.n
    half = delta * np.mean(np.abs(h), axis=0)
    axes = np.meshgrid(*(np.linspace(-v, v, res) for v in half), indexing="ij")
    nodes = np.column_stack([ax.ravel() for ax in axes])
    if inside is not None:
        nodes = nodes[inside(h, nodes)]
    vals = []
    beta = None
    for t in nodes:
        beta = solve_moment(model, data.a, base + t, w, beta)
        vals.append(float(beta[coord]))
    return min(vals), max(vals)


def _lp_inside(delta):
    """Is each node t = mean_n[h xi] for some |xi| <= delta? One HiGHS
    feasibility LP per node."""
    linprog = pytest.importorskip("scipy.optimize").linprog

    def inside(h, nodes):
        n = h.shape[0]
        return np.array([linprog(np.zeros(n), A_eq=h.T / n, b_eq=t,
                                 bounds=[(-delta, delta)] * n, method="highs").success
                         for t in nodes])

    return inside


def _facet_inside(delta):
    """Exact membership of the planar zonotope delta Z: its facet normals are
    the generators h_j turned by 90 degrees, and t is inside when
    |u^T t| <= delta mean_n|h^T u| for every such normal u."""
    def inside(h, nodes):
        normals = np.column_stack([-h[:, 1], h[:, 0]])
        support = delta * np.mean(np.abs(h @ normals.T), axis=0)
        return np.all(np.abs(nodes @ normals.T) <= support * (1.0 + 1e-12), axis=1)

    return inside


def test_shift_band_lies_between_the_lp_and_box_node_searches():
    # the box grid overshoots the reachable shifts and the LP-filtered grid
    # misses their extreme points; the exact band sits between the two
    data = generate(DgpSpec("gauss-line", seed=1), 300)
    nuis = SelfFit(data)
    lo, hi = outcome_nonlinear_grid_bounds(data, linear_msm(), nuis, DeltaSpec(0.5), 1)
    box = _node_band(data, linear_msm(), nuis, 0.5, 1, 7)
    lp = _node_band(data, linear_msm(), nuis, 0.5, 1, 7, _lp_inside(0.5))
    assert box[0] < lo < lp[0] and lp[1] < hi < box[1]
    np.testing.assert_allclose([lo, hi, *box, *lp],
                               [2.6810, 3.5226, 2.6199, 3.5837, 2.8007, 3.4029], atol=1e-4)
    quad = polynomial_msm(2)
    lo, hi = outcome_nonlinear_grid_bounds(data, quad, nuis, DeltaSpec(0.5), 2)
    box = _node_band(data, quad, nuis, 0.5, 2, 7)
    assert box[0] < lo and hi < box[1]
    np.testing.assert_allclose([lo, hi, *box], [-0.2253, 0.2253, -0.4622, 0.4622], atol=1e-4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_support_point_at_least_as_extreme_as_every_reachable_node(seed):
    data = generate(DgpSpec("gauss-line", seed=seed), 300)
    nuis = SelfFit(data)
    model = _warped_line()
    lo, hi = outcome_nonlinear_grid_bounds(data, model, nuis, DeltaSpec(0.3), 1)
    node_lo, node_hi = _node_band(data, model, nuis, 0.3, 1, 41, _facet_inside(0.3))
    assert lo <= node_lo + 1e-9 * abs(node_lo)
    assert hi >= node_hi - 1e-9 * abs(node_hi)


def test_facet_membership_agrees_with_the_lp():
    data = generate(DgpSpec("gauss-line", seed=1), 60)
    h = linear_msm().features(data.a)
    half = 0.5 * np.mean(np.abs(h), axis=0)
    nodes = np.random.default_rng(4).uniform(-half, half, size=(40, 2))
    inside = _facet_inside(0.5)(h, nodes)
    assert 0 < inside.sum() < nodes.shape[0]
    np.testing.assert_array_equal(inside, _lp_inside(0.5)(h, nodes))


def test_iteration_reaches_the_closed_form_after_one_update(monkeypatch):
    data = generate(DgpSpec("gauss-line", seed=1), 300)
    nuis = SelfFit(data)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return solve_moment(*args, **kwargs)

    monkeypatch.setattr(outcome_module, "solve_moment", counted)
    lo, hi = outcome_nonlinear_grid_bounds(data, _basis_free_line(), nuis, DeltaSpec(0.5), 1)
    # the fit at t = 0, then one update per side; the second sign pattern repeats
    assert len(calls) == 3
    monkeypatch.undo()
    want = outcome_nonlinear_grid_bounds(data, linear_msm(), nuis, DeltaSpec(0.5), 1)
    np.testing.assert_allclose([lo, hi], want, rtol=1e-12, atol=0)


def test_grid_bounds_nonlinear_model_runs():
    data, nuis = _setup(seed=8, n=80)
    lo, hi = outcome_nonlinear_grid_bounds(data, _warped_line(), nuis, DeltaSpec(0.3), 0)
    assert lo <= hi


def test_any_dimension_runs_and_a_failed_refit_raises():
    data, nuis = _setup(n=40)
    lo, hi = outcome_nonlinear_grid_bounds(data, polynomial_msm(4), nuis, DeltaSpec(0.5), 4)
    assert lo < hi
    flat = custom_msm(
        dim=5,
        curve=lambda a, b: np.zeros(a.size),
        gradient=lambda a, b: np.zeros((a.size, 5)),
        moment_features=lambda a: np.column_stack([a ** p for p in range(5)]),
    )
    with pytest.raises(SingularMoment):
        outcome_nonlinear_grid_bounds(data, flat, nuis, DeltaSpec(0.5), 0)
