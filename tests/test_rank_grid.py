"""The sort-once marginal rank rule and the batched homotopy swap search,
checked against the per-gamma and per-pair code they replaced: the weights
and the swaps bit for bit, the rank-grid values (slice sums of one sort)
within a stated summation-error bound."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds import homotopy
from msmbounds._ranks import gamma_count, rank_masks, select_bottom_mask, select_top_mask
from msmbounds.data import Dataset
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import NaNRank, SingularMoment
from msmbounds.gamma import (
    GammaSpec,
    _leverage,
    _rank_rule_grid,
    marginal_quantile_beta_bounds,
    marginal_quantile_grid_bounds,
)
from msmbounds.homotopy import homotopy_bounds
from msmbounds.msm import _solve, intercept_msm, linear_msm, polynomial_msm, weighted_fit
from msmbounds.nuisance import NuisanceConfig, SelfFit, fixed_weight_nuisances
from msmbounds.panel import cumulative_panel_msm, panel_weights

STATIC = ("gauss-line", "confounded-line", "hidden-dose", "discrete-cells")
GRID = [1.0, 1.1, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0]


def _reference_swap_phase(model, a_obj, h, y, w, box, mask, beta_cur, sense, coord,
                          gram=None, band=homotopy._SWAP_BAND):
    """The swap search as a double loop: one rank-two Gram update and one
    ``_solve`` per (drop i, add j) pair, keeping the first strict maximum.
    It ignores the seed's ``gram`` and builds every Gram matrix from scratch."""
    if not model.linear or band <= 0:
        return []
    b_mat = model.basis_matrix(a_obj)
    n = y.size
    lo, hi = box
    visited = []
    cur_val = float(beta_cur[coord])
    for _ in range(2 * n):
        v = np.where(mask, hi, lo)
        wv = w * v
        gram = (b_mat * wv[:, None]).T @ b_mat / n
        rhs = b_mat.T @ (wv * y) / n
        try:
            c = _leverage(b_mat, gram, coord) * w
        except SingularMoment:
            break
        d = c * (y - model.predict(a_obj, beta_cur))
        in_idx = np.flatnonzero(mask)
        out_idx = np.flatnonzero(~mask)
        if in_idx.size == 0 or out_idx.size == 0:
            break
        drop = in_idx[np.argsort(sense * d[in_idx])][:band]
        add = out_idx[np.argsort(-sense * d[out_idx])][:band]
        best = None
        for i in drop:
            dw_i = w[i] * (lo - hi)
            for j in add:
                dw_j = w[j] * (hi - lo)
                gram2 = gram + (dw_i * np.outer(b_mat[i], b_mat[i])
                                + dw_j * np.outer(b_mat[j], b_mat[j])) / n
                rhs2 = rhs + (dw_i * b_mat[i] * y[i] + dw_j * b_mat[j] * y[j]) / n
                try:
                    beta2 = _solve(gram2, rhs2, "swap Gram matrix")
                except SingularMoment:
                    continue
                val2 = float(beta2[coord])
                if best is None or sense * val2 > sense * best[0]:
                    best = (val2, i, j, beta2)
        if best is None or sense * (best[0] - cur_val) <= 1e-12:
            break
        cur_val, i, j, beta_cur = best[0], best[1], best[2], best[3]
        mask = mask.copy()
        mask[i] = False
        mask[j] = True
        visited.append((np.where(mask, hi, lo), beta_cur.copy(), cur_val))
    return visited


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _same_trace(got, want):
    for name in ("grid", "lower", "upper", "valid"):
        _same_bits(getattr(got, name), getattr(want, name))
    for name in ("v_lower", "v_upper"):
        assert len(getattr(got, name)) == len(getattr(want, name))
        for g, w in zip(getattr(got, name), getattr(want, name)):
            _same_bits(g, w)
    assert got.diagnostics == want.diagnostics


def _against_reference(monkeypatch, run):
    """run() with the batched swap search, then with the double loop."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(homotopy, "_swap_phase", _reference_swap_phase)
        want = run()
    _same_trace(got, want)
    return got


CASES = [
    (name, seed, iters, degree)
    for name in STATIC
    for seed, iters, degree in ((0, 4, 1), (1, 6, 1), (2, 8, 2), (3, 5, 1))
]


@pytest.mark.parametrize("name,seed,iters,degree", CASES)
def test_batched_swaps_match_double_loop(monkeypatch, name, seed, iters, degree):
    data = generate(DgpSpec(name, seed=seed), 90)
    nuis = SelfFit(data)
    model = polynomial_msm(degree)
    _against_reference(monkeypatch, lambda: homotopy_bounds(
        data, model, nuisances=nuis, grid=GRID, coord=1,
        inner_iterations=iters, keep_weights=True))


def test_batched_swaps_match_double_loop_on_panel(monkeypatch):
    panel = generate(DgpSpec("panel-mix", seed=4), 80)
    w = panel_weights(panel)
    _against_reference(monkeypatch, lambda: homotopy_bounds(
        panel, cumulative_panel_msm(), grid=GRID, coord=1, weights=w,
        inner_iterations=6, keep_weights=True))


def test_singular_candidate_falls_back_to_one_by_one_solves(monkeypatch):
    # signed weights: one candidate swap zeroes the intercept model's 1x1
    # Gram matrix, so the batched solve raises and each candidate is solved
    # alone; the singular one is skipped, as in the double loop
    a = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0])
    y = np.array([0.0, 3.0, -2.0, 1.0, -1.0, 1.0, 2.0, -1.0])
    w = np.array([2.0, 2.0, 1.0, -1.0, 2.0, -1.0, 0.5, 0.5])
    data = Dataset(None, a, y)
    contexts = []

    def spy(mat, rhs, context):
        contexts.append(context)
        return _solve(mat, rhs, context)

    monkeypatch.setattr(homotopy, "_solve", spy)
    trace = _against_reference(monkeypatch, lambda: homotopy_bounds(
        data, intercept_msm(), grid=[1.0, 2.0, 4.0], coord=0, weights=w,
        inner_iterations=4, keep_weights=True))
    assert "swap Gram matrix" in contexts
    assert np.all(np.isfinite(trace.lower)) and np.all(np.isfinite(trace.upper))


def _f(data, model, nuis, coord):
    """f = T Y of a linear model, whose linearized bound has no offset."""
    w = nuis.weights
    h = model.features(data.a)
    return _leverage(h, weighted_fit(model, data.a, data.y, w, h=h)[1], coord) * w * data.y


def _per_gamma(data, model, nuis, grid, coord):
    """The bounds and weights of each gamma as the per-gamma route built them:
    f rebuilt, sorted once per side, and mean(f v) summed, at every gamma."""
    out = []
    for g in grid:
        f = _f(data, model, nuis, coord)
        count = gamma_count(f.size, g)
        v_lo = np.where(select_bottom_mask(f, count), g, 1.0 / g)
        v_hi = np.where(select_top_mask(f, count), g, 1.0 / g)
        out.append((float(np.mean(f * v_lo)), float(np.mean(f * v_hi)), v_lo, v_hi))
    return out


def _summation_bound(f, gamma):
    """How far two summation orders of the same bound may drift apart.

    The grid route gives mean(f)/gamma + (gamma - 1/gamma) S/n, S the sum of
    a slice of sorted f; the per-gamma route gives mean(f v). Each is a numpy
    pairwise sum of at most n terms of size at most gamma |f_i|, plus a few
    roundings of size eps/2. A pairwise sum of m terms errs by at most
    (log2(m) + 16) eps/2 times the sum of their magnitudes (eight-way
    unrolled blocks of at most 128 terms, then halving), so the routes differ
    by less than 4 eps (log2(n) + 24) gamma mean|f|. A count off by one moves
    a bound by (gamma - 1/gamma) |f_k| / n, orders of magnitude more.
    """
    eps = np.finfo(float).eps
    return 4.0 * eps * (np.log2(max(f.size, 2)) + 24.0) * gamma * np.mean(np.abs(f))


def _close_to_per_gamma(trace, want, f, grid):
    for gamma, lo, hi, (want_lo, want_hi, _, _) in zip(grid, trace.lower, trace.upper, want):
        bound = _summation_bound(f, gamma)
        assert abs(lo - want_lo) <= bound and abs(hi - want_hi) <= bound


@pytest.mark.parametrize("name", STATIC)
def test_grid_route_matches_per_gamma_bounds(name):
    for seed, model in ((0, linear_msm()), (1, polynomial_msm(2))):
        data = generate(DgpSpec(name, seed=seed), 150)
        nuis = SelfFit(data)
        want = _per_gamma(data, model, nuis, GRID, 1)
        trace = marginal_quantile_grid_bounds(data, model, nuis, GRID, 1)
        _close_to_per_gamma(trace, want, _f(data, model, nuis, 1), GRID)
        for g, lo, hi in zip(GRID, trace.lower, trace.upper):
            assert marginal_quantile_beta_bounds(data, model, nuis, GammaSpec(g), 1) == (lo, hi)


def test_grid_route_matches_per_gamma_bounds_on_ties():
    # discrete-cells with whole-number outcomes: f = T Y repeats within every
    # (a, x) cell, so the lower-index tie rule decides which tied units take gamma
    cells = generate(DgpSpec("discrete-cells", seed=2))
    data = Dataset(cells.x, cells.a, np.round(cells.y))
    nuis = SelfFit(data, NuisanceConfig(propensity_method="discrete",
                                        quantile_method="empirical"))
    model = linear_msm()
    f = _f(data, model, nuis, 1)
    assert np.unique(f).size < f.size / 10
    trace = marginal_quantile_grid_bounds(data, model, nuis, GRID, 1, keep_weights=True)
    want = _per_gamma(data, model, nuis, GRID, 1)
    _close_to_per_gamma(trace, want, f, GRID)
    for v_lo, v_hi, (_, _, want_lo, want_hi) in zip(trace.v_lower, trace.v_upper, want):
        _same_bits(v_lo, want_lo)
        _same_bits(v_hi, want_hi)


def test_grid_route_matches_per_gamma_bounds_on_panel():
    panel = generate(DgpSpec("panel-mix", seed=3), 90)
    w = panel_weights(panel)
    model = cumulative_panel_msm()
    nuis = fixed_weight_nuisances(panel, w)
    trace = marginal_quantile_grid_bounds(panel, model, nuis, GRID, 1)
    _close_to_per_gamma(trace, _per_gamma(panel, model, nuis, GRID, 1),
                        _f(panel, model, nuis, 1), GRID)


# few atoms, so ties are heavy, both zeros among them
ATOMS = [0.0, -0.0, 1.0, -1.0, 2.5, -3.0]
VALUES = st.lists(
    st.one_of(st.sampled_from(ATOMS), st.floats(-1e3, 1e3, allow_nan=False)),
    min_size=1, max_size=200)
GRIDS = st.lists(st.floats(1.0, 50.0, exclude_min=True), max_size=6, unique=True).map(
    lambda rest: [1.0] + sorted(rest))
EPSILONS = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(VALUES, GRIDS, EPSILONS)
def test_slice_sums_match_mean_of_rank_mask_weights(values, grid, epsilon):
    # the intercept model with unit weights has T = 1 and no offset, so f = y
    y = np.array(values)
    run = lambda y, keep: _rank_rule_grid(
        SimpleNamespace(a=np.zeros(y.size), y=y), intercept_msm(), np.ones(y.size), None,
        grid, 0, "marginal", keep_weights=keep, epsilon=epsilon)
    kept, plain = run(y, True), run(y, False)
    _same_bits(kept.lower, plain.lower)
    _same_bits(kept.upper, plain.upper)
    assert kept.lower[0].tobytes() == kept.upper[0].tobytes()
    for gamma, (low, high), v_lo, v_hi, lo, hi in zip(
            grid, rank_masks(y, grid), kept.v_lower, kept.v_upper, kept.lower, kept.upper):
        shrink = lambda v: (1.0 - epsilon) + epsilon * v
        _same_bits(v_lo, shrink(np.where(low, gamma, 1.0 / gamma)))
        _same_bits(v_hi, shrink(np.where(high, gamma, 1.0 / gamma)))
        bound = _summation_bound(y, gamma)
        assert abs(lo - np.mean(y * v_lo)) <= bound
        assert abs(hi - np.mean(y * v_hi)) <= bound
    y[y.size // 2] = np.nan
    with pytest.raises(NaNRank):
        run(y, False)
