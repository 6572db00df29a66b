"""The sort-once marginal rank rule and the batched homotopy swap search,
each checked bit for bit against the per-gamma and per-pair code it replaced."""

import numpy as np
import pytest

from msmbounds import homotopy
from msmbounds._ranks import gamma_count, select_bottom_mask, select_top_mask
from msmbounds.data import Dataset
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import SingularMoment
from msmbounds.gamma import (
    GammaSpec,
    _leverage,
    marginal_quantile_beta_bounds,
    marginal_quantile_grid_bounds,
)
from msmbounds.homotopy import homotopy_bounds
from msmbounds.msm import _solve, intercept_msm, linear_msm, polynomial_msm
from msmbounds.nuisance import NuisanceConfig, SelfFit, fixed_weight_nuisances
from msmbounds.panel import cumulative_panel_msm, panel_weights

STATIC = ("gauss-line", "confounded-line", "hidden-dose", "discrete-cells")
GRID = [1.0, 1.1, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0]


def _reference_swap_phase(model, a_obj, h, y, w, box, mask, beta_cur, sense, coord,
                          band=homotopy._SWAP_BAND):
    """The swap search as a double loop: one rank-two Gram update and one
    ``_solve`` per (drop i, add j) pair, keeping the first strict maximum."""
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
            c = _leverage(model, a_obj, w, coord, beta_cur, v) * w
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


def _per_gamma(data, model, nuis, grid, coord):
    """The bounds and weights of each gamma as the per-gamma route built them:
    f rebuilt, and sorted once per side, at every gamma."""
    out = []
    for g in grid:
        w = nuis.weights
        f = _leverage(model, data.a, w, coord) * w * data.y
        count = gamma_count(f.size, g)
        v_lo = np.where(select_bottom_mask(f, count), g, 1.0 / g)
        v_hi = np.where(select_top_mask(f, count), g, 1.0 / g)
        out.append((float(np.mean(f * v_lo)), float(np.mean(f * v_hi)), v_lo, v_hi))
    return out


def _same_as_per_gamma(trace, want):
    _same_bits(trace.lower, [r[0] for r in want])
    _same_bits(trace.upper, [r[1] for r in want])


@pytest.mark.parametrize("name", STATIC)
def test_grid_route_matches_per_gamma_bounds(name):
    for seed, model in ((0, linear_msm()), (1, polynomial_msm(2))):
        data = generate(DgpSpec(name, seed=seed), 150)
        nuis = SelfFit(data)
        want = _per_gamma(data, model, nuis, GRID, 1)
        _same_as_per_gamma(marginal_quantile_grid_bounds(data, model, nuis, GRID, 1), want)
        for g, (lo, hi, _, _) in zip(GRID, want):
            spec = GammaSpec(g)
            assert marginal_quantile_beta_bounds(data, model, nuis, spec, 1) == (lo, hi)


def test_grid_route_matches_per_gamma_bounds_on_ties():
    # discrete-cells with whole-number outcomes: f = T Y repeats within every
    # (a, x) cell, so the lower-index tie rule decides which tied units take gamma
    cells = generate(DgpSpec("discrete-cells", seed=2))
    data = Dataset(cells.x, cells.a, np.round(cells.y))
    nuis = SelfFit(data, NuisanceConfig(propensity_method="discrete",
                                        quantile_method="empirical"))
    model = linear_msm()
    f = _leverage(model, data.a, nuis.weights, 1) * nuis.weights * data.y
    assert np.unique(f).size < f.size / 10
    trace = marginal_quantile_grid_bounds(data, model, nuis, GRID, 1, keep_weights=True)
    want = _per_gamma(data, model, nuis, GRID, 1)
    _same_as_per_gamma(trace, want)
    for v_lo, v_hi, (_, _, want_lo, want_hi) in zip(trace.v_lower, trace.v_upper, want):
        _same_bits(v_lo, want_lo)
        _same_bits(v_hi, want_hi)


def test_grid_route_matches_per_gamma_bounds_on_panel():
    panel = generate(DgpSpec("panel-mix", seed=3), 90)
    w = panel_weights(panel)
    model = cumulative_panel_msm()
    nuis = fixed_weight_nuisances(panel, w)
    trace = marginal_quantile_grid_bounds(panel, model, nuis, GRID, 1)
    _same_as_per_gamma(trace, _per_gamma(panel, model, nuis, GRID, 1))
