"""Grid continuation and coordinate ascent for extremal weights."""

import sys

import numpy as np
import pytest

from msmbounds import gamma as gamma_module
from msmbounds import homotopy
from msmbounds._ranks import gamma_count
from msmbounds.data import Dataset
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import SingularMoment
from msmbounds.gamma import (
    GammaSpec,
    conditional_quantile_beta_bounds,
    marginal_quantile_beta_bounds,
)
from msmbounds.homotopy import coordinate_ascent_bounds, homotopy_bounds
from msmbounds.msm import _moment_matrix, custom_msm, intercept_msm, linear_msm
from msmbounds.nuisance import NuisanceConfig, SelfFit
from msmbounds.oracles import oracle_exhaustive_beta_bound


def _data(seed=0, n=60):
    return generate(DgpSpec("gauss-line", seed=seed), n)


def _beta_of_v(b, y, w, v):
    sw = np.sqrt(w * v)
    return np.linalg.lstsq(b * sw[:, None], y * sw, rcond=None)[0]


def test_exact_derivative_intercept_hand_value():
    data = _data(n=20)
    w = np.ones(20)
    beta = np.array([data.y.mean()])
    model = intercept_msm()
    h = model.features(data.a)
    d = gamma_module._derivative(model, data.a, h, data.y, w, 0, beta,
                                 _moment_matrix(model, data.a, h, w))[2]
    np.testing.assert_allclose(d, data.y - data.y.mean(), atol=1e-12)


def test_exact_derivative_matches_finite_differences():
    rng = np.random.default_rng(4)
    n = 12
    data = _data(seed=5, n=n)
    w = rng.uniform(0.5, 1.5, n)
    v = rng.uniform(0.7, 1.3, n)
    model = linear_msm()
    b = model.basis_matrix(data.a)
    beta = _beta_of_v(b, data.y, w, v)
    h = model.features(data.a)
    d = gamma_module._derivative(model, data.a, h, data.y, w, 1, beta,
                                 _moment_matrix(model, data.a, h, v * w))[2]
    eps = 1e-6
    for i in range(n):
        vp, vm = v.copy(), v.copy()
        vp[i] += eps
        vm[i] -= eps
        fd = (_beta_of_v(b, data.y, w, vp)[1]
              - _beta_of_v(b, data.y, w, vm)[1]) / (2 * eps)
        assert d[i] / n == pytest.approx(fd, abs=1e-6)


def test_linearized_derivative_is_leverage_times_outcome():
    data = _data(n=30)
    w = np.linspace(0.5, 2.0, 30)
    model = linear_msm()
    b = model.basis_matrix(data.a)
    transfer, offset = gamma_module._coordinate_transfer(data, model, w, coord=1)
    m = (b * w[:, None]).T @ b / 30
    t = b @ np.linalg.solve(m.T, [0.0, 1.0]) * w
    np.testing.assert_allclose(transfer * data.y, t * data.y, atol=1e-12)
    assert offset == 0.0


def _grid(gamma_end, step=0.1):
    steps = int(round((gamma_end - 1.0) / step))
    return np.round(1.0 + step * np.arange(steps + 1), 10)


def test_homotopy_validation():
    data = _data()
    model = linear_msm()
    with pytest.raises(ValueError):
        homotopy_bounds(data, model, weights=np.ones(data.n), grid=[1.5, 2.0])
    with pytest.raises(ValueError):
        homotopy_bounds(data, model, weights=np.ones(data.n), grid=[1.0, 0.9])
    with pytest.raises(ValueError):
        homotopy_bounds(data, model, weights=np.ones(data.n), grid=[1.0, 1.5],
                        flavor="fancy")
    with pytest.raises(ValueError):
        homotopy_bounds(data, model, weights=np.ones(data.n), grid=[1.0, 1.5],
                        constraint="pointwise")
    with pytest.raises(ValueError):
        homotopy_bounds(data, model, grid=[1.0, 1.5])
    with pytest.raises(ValueError):
        homotopy_bounds(data, model, weights=np.ones(data.n), grid=[1.0, 1.5],
                        constraint="conditional")


def test_homotopy_traces_monotone_and_start_at_point():
    data = _data(n=80)
    nuis = SelfFit(data)
    model = linear_msm()
    trace = homotopy_bounds(data, model, grid=_grid(3.0), flavor="exact",
                            coord=1, weights=nuis.weights, inner_iterations=5)
    point = marginal_quantile_beta_bounds(data, model, nuis, GammaSpec(1.0), 1)[0]
    assert trace.lower[0] == pytest.approx(point, abs=1e-10)
    assert trace.upper[0] == pytest.approx(point, abs=1e-10)
    assert np.all(np.diff(trace.upper) >= -1e-8)
    assert np.all(np.diff(trace.lower) <= 1e-8)
    assert np.all(trace.lower <= trace.upper + 1e-10)


def test_homotopy_weight_snapshots_are_certificates():
    data = _data(n=40)
    nuis = SelfFit(data)
    trace = homotopy_bounds(data, linear_msm(), grid=_grid(2.0), coord=1,
                            weights=nuis.weights, inner_iterations=4,
                            keep_weights=True)
    n = data.n
    for snaps in (trace.v_lower, trace.v_upper):
        assert len(snaps) == trace.grid.size
        for g, v in zip(trace.grid, snaps):
            assert np.all(v >= 1.0 / g - 1e-12)
            assert np.all(v <= g + 1e-12)
            assert abs(v.mean() - 1.0) <= 2 * (g - 1.0 / g) / n + 1e-12


def test_homotopy_invariant_under_weight_scaling():
    data = _data(n=50)
    w = SelfFit(data).weights
    t1 = homotopy_bounds(data, linear_msm(), grid=_grid(2.0), coord=1,
                         weights=w, inner_iterations=3)
    t2 = homotopy_bounds(data, linear_msm(), grid=_grid(2.0), coord=1,
                         weights=3.0 * w, inner_iterations=3)
    np.testing.assert_allclose(t1.upper, t2.upper, atol=1e-9)
    np.testing.assert_allclose(t1.lower, t2.lower, atol=1e-9)


def test_linearized_flavor_matches_closed_form_rank_rule():
    data = _data(n=100)
    nuis = SelfFit(data)
    model = linear_msm()
    grid = _grid(2.0)
    trace = homotopy_bounds(data, model, grid=grid, flavor="linearized",
                            coord=1, weights=nuis.weights)
    # the same closed form, and here every step improves on the last
    for g, lo_t, hi_t in zip(grid, trace.lower, trace.upper):
        lo, hi = marginal_quantile_beta_bounds(data, model, nuis, GammaSpec(g), 1)
        assert (lo_t, hi_t) == (lo, hi)


def test_linearized_flavor_matches_closed_form_conditional_rule():
    # empirical quantiles here; under pinball quantiles the closed form's two
    # sides can cross (ROADMAP item 5), where the homotopy's carry rule keeps
    # the point (tests/test_linearized_homotopy.py)
    data = generate(DgpSpec("discrete-cells", seed=1))
    nuis = SelfFit(data, NuisanceConfig(propensity_method="discrete",
                                        quantile_method="empirical"))
    model = linear_msm()
    for g in (1.25, 1.5, 2.0, 3.0):
        trace = homotopy_bounds(data, model, nuisances=nuis, grid=[1.0, g],
                                flavor="linearized", constraint="conditional", coord=1)
        lo, hi = conditional_quantile_beta_bounds(data, model, nuis, GammaSpec(g), 1)
        assert (trace.lower[-1], trace.upper[-1]) == (lo, hi)


def test_homotopy_exact_matches_exhaustive_oracle_small_n():
    # integral n/(1+gamma) levels so the end vertex is exactly feasible
    for seed, n, gamma in ((1000, 6, 2.0), (1001, 9, 2.0), (1002, 8, 3.0)):
        data = generate(DgpSpec("gauss-line", seed=seed), n)
        nuis = SelfFit(data)
        model = linear_msm()
        grid = _grid(gamma, step=0.05)
        trace = homotopy_bounds(data, model, grid=grid, flavor="exact",
                                coord=1, weights=nuis.weights,
                                inner_iterations=8)
        b = model.basis_matrix(data.a)
        hi = oracle_exhaustive_beta_bound(b, data.y, nuis.weights, gamma,
                                          coord=1, sense="max").value
        lo = oracle_exhaustive_beta_bound(b, data.y, nuis.weights, gamma,
                                          coord=1, sense="min").value
        assert trace.upper[-1] == pytest.approx(hi, abs=1e-4)
        assert trace.lower[-1] == pytest.approx(lo, abs=1e-4)


def test_homotopy_conditional_constraint_brackets_point():
    data = generate(DgpSpec("discrete-cells", seed=3), 90)
    nuis = SelfFit(data, NuisanceConfig(propensity_method="discrete",
                                        quantile_method="empirical"))
    trace = homotopy_bounds(data, linear_msm(), nuisances=nuis,
                            grid=_grid(2.0, step=0.25), flavor="exact",
                            constraint="conditional", coord=1)
    point = trace.upper[0]
    assert np.all(trace.lower <= point + 1e-10)
    assert np.all(trace.upper >= point - 1e-10)
    assert np.all(np.diff(trace.upper) >= -1e-8)
    assert np.all(np.diff(trace.lower) <= 1e-8)


def test_homotopy_conditional_smooth_quantiles_run():
    data = _data(n=60)
    nuis = SelfFit(data)
    trace = homotopy_bounds(data, linear_msm(), nuisances=nuis,
                            grid=[1.0, 1.5, 2.0], flavor="exact",
                            constraint="conditional", coord=1)
    assert np.all(np.isfinite(trace.lower)) and np.all(np.isfinite(trace.upper))
    assert np.all(trace.lower <= trace.upper + 1e-10)


def test_coordinate_ascent_refits_match_rank_one_updates():
    data = _data(n=50)
    w = SelfFit(data).weights
    trace = coordinate_ascent_bounds(data, linear_msm(), w, _grid(2.0, 0.25),
                                     coord=1, n_orderings=3, seed=7,
                                     check_refits=True)
    assert trace.diagnostics["worst_refit_gap"] <= 1e-10
    assert np.all(trace.lower <= trace.upper + 1e-12)


def test_coordinate_ascent_deterministic_and_contains_threshold_vertices():
    data = _data(n=40)
    w = SelfFit(data).weights
    kw = dict(coord=1, n_orderings=2, seed=3)
    t1 = coordinate_ascent_bounds(data, linear_msm(), w, [1.0, 2.0], **kw)
    t2 = coordinate_ascent_bounds(data, linear_msm(), w, [1.0, 2.0], **kw)
    np.testing.assert_array_equal(t1.upper, t2.upper)
    np.testing.assert_array_equal(t1.lower, t2.lower)
    # box-only greedy search explores {gamma, 1/gamma}^n without the mean
    # constraint, so it cannot end below the best mean-constrained vertex
    # it was seeded with at the same gamma
    nuis = SelfFit(data)
    lo, hi = marginal_quantile_beta_bounds(data, linear_msm(), nuis,
                                           GammaSpec(2.0), 1)
    assert t1.upper[-1] >= lo - 1e-9


def test_coordinate_ascent_needs_linear_model():
    data = _data(n=20)
    nl = custom_msm(
        dim=1,
        curve=lambda a, b: np.exp(b[0] * a),
        gradient=lambda a, b: (a * np.exp(b[0] * a))[:, None],
        moment_features=lambda a: a[:, None],
    )
    with pytest.raises(ValueError):
        coordinate_ascent_bounds(data, nl, np.ones(20), [1.0, 2.0])


def test_homotopy_records_fallbacks_and_invalid_points(monkeypatch):
    # every refit after the point estimate fails: each branch keeps its
    # previous point at its first two failed steps, then turns invalid
    fits = []

    def failing_refit(*args, **kwargs):
        fits.append(args)
        if len(fits) == 1:
            return point_fit(*args, **kwargs)
        raise SingularMoment("forced")

    point_fit = homotopy.weighted_fit
    monkeypatch.setattr(homotopy, "weighted_fit", failing_refit)
    data = _data()
    trace = homotopy_bounds(data, linear_msm(), weights=np.ones(data.n),
                            grid=[1.0, 1.5, 2.0, 2.5, 3.0], coord=1)
    assert trace.diagnostics["fallback_points"] == [
        (1, "lower"), (1, "upper"), (2, "lower"), (2, "upper")]
    assert trace.diagnostics["invalid_points"] == [
        (3, "lower"), (3, "upper"), (4, "lower"), (4, "upper")]
    assert list(trace.valid) == [True, True, True, False, False]
    for j in (1, 2):
        assert trace.lower[j] == trace.upper[j] == trace.lower[0]


def _counting_line():
    """A linear model whose basis counts its builds; its curve and gradient do not."""
    builds = []

    def line(a):
        return np.column_stack([np.ones_like(a), a])

    def basis(a):
        builds.append(a.size)
        return line(a)

    model = custom_msm(2, curve=lambda a, b: line(a) @ b, gradient=lambda a, b: line(a),
                       moment_features=basis, basis=basis)
    return model, builds


@pytest.mark.parametrize("grid", [[1.0, 2.0], [1.0, 1.25, 1.5, 2.0, 2.5, 3.0]])
def test_exact_homotopy_builds_one_feature_matrix(grid):
    # every threshold step, refit and swap reuses the call's one feature matrix
    model, builds = _counting_line()
    data = _data(seed=2, n=80)
    trace = homotopy_bounds(data, model, weights=np.ones(data.n), grid=grid,
                            flavor="exact", coord=1, inner_iterations=5)
    assert np.all(np.isfinite(trace.upper))
    assert builds == [data.n]


def test_swap_search_runs_just_above_gamma_one(monkeypatch):
    # at 1 < gamma < 1 + 1e-12 the high level gamma sits below 1 + 1e-12, so
    # a seed read off the vertex weights marks no unit; the vertex's own rank
    # mask holds its gamma_count units and the search runs from it
    seeds = []
    swap_phase = homotopy._swap_phase

    def spy(model, a_obj, h, y, w, box, mask, *rest):
        seeds.append((box[1], mask.copy()))
        return swap_phase(model, a_obj, h, y, w, box, mask, *rest)

    monkeypatch.setattr(homotopy, "_swap_phase", spy)
    data = _data(seed=3, n=80)
    tiny = 1.0 + 5e-13
    trace = homotopy_bounds(data, linear_msm(), weights=np.ones(data.n), grid=[1.0, tiny, 2.0],
                            coord=1, inner_iterations=4)
    assert np.all(trace.valid)
    at_tiny = [mask for gamma, mask in seeds if gamma == tiny]
    assert len(at_tiny) == 2  # one per branch
    count = gamma_count(data.n, tiny)
    assert 0 < count < data.n
    assert all(np.count_nonzero(mask) == count for mask in at_tiny)


@pytest.mark.parametrize("constraint", ["marginal", "conditional"])
def test_exact_homotopy_builds_one_gram_per_weight_vector(monkeypatch, constraint):
    # each refit hands its Gram matrix to the next derivative and the seed's
    # to the swaps, so only a step's first derivative, at the carried
    # weights, builds its own: one per branch and grid step. The refits build
    # theirs inside msm, the swaps theirs in _swap_phase
    derivatives, own_builds = [], []
    derivative, moment_matrix = homotopy._derivative, homotopy._moment_matrix

    def spy_derivative(*args):
        derivatives.append(args)
        return derivative(*args)

    def spy_moment_matrix(*args):
        own_builds.append(sys._getframe(1).f_code.co_name == "_one_step")
        return moment_matrix(*args)

    monkeypatch.setattr(homotopy, "_derivative", spy_derivative)
    monkeypatch.setattr(homotopy, "_moment_matrix", spy_moment_matrix)
    data = generate(DgpSpec("confounded-line", seed=2), 300)
    grid = [1.0, 1.25, 1.5, 2.0, 3.0]
    trace = homotopy_bounds(data, linear_msm(), nuisances=SelfFit(data), grid=grid,
                            flavor="exact", constraint=constraint, coord=1,
                            inner_iterations=5)
    assert np.all(trace.valid)
    assert len(derivatives) > 2 * (len(grid) - 1)
    assert sum(own_builds) == 2 * (len(grid) - 1)


def test_coordinate_ascent_refits_from_its_own_basis():
    model, builds = _counting_line()
    data = _data(n=50)
    trace = coordinate_ascent_bounds(data, model, SelfFit(data).weights, _grid(2.0, 0.25),
                                     coord=1, n_orderings=3, seed=7, check_refits=True)
    assert trace.diagnostics["worst_refit_gap"] <= 1e-10
    assert builds == [data.n]
