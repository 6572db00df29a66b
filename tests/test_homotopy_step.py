"""The exact homotopy's grid step, checked bit for bit against the step it
replaced, kept below as the reference.

The reference builds every two-level weight vector with ``np.where``, compares
rank masks with ``np.array_equal``, forms every h w as ``h * w[:, None]``
(in its fits and its swap search), takes the rank masks and the swap bands
from a lexsort, and seeds the swap search from the vertex weights above
1 + 1e-12. The production step reads the same bits by table lookup, by
column-wise row weighting, by partition and from the vertex's own rank mask;
the seeds agree at every grid point above 1 + 1e-12, and the drawn grids
have none below it. Also the row weighting itself: its bytes and its Gram
matrix against the broadcast product's, for both memory layouts.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds import homotopy
from msmbounds._ranks import gamma_count
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import SingularMoment
from msmbounds.gamma import _conditional_mask, _derivative
from msmbounds.homotopy import homotopy_bounds
from msmbounds.msm import _weighted_rows, polynomial_msm
from msmbounds.nuisance import NuisanceConfig, SelfFit

STATIC = ("gauss-line", "confounded-line", "hidden-dose", "discrete-cells")
GRIDS = ([1.0, 1.25, 1.5, 2.0, 3.0], [1.0, 1.1, 1.2, 1.5, 2.0, 2.5, 4.0], [1.0, 3.0])


def _reference_solve(mat, rhs, context):
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMoment(f"{context}: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularMoment(f"{context}: non-finite solve result")
    return sol


def _reference_gram(h, w):
    return (h * w[:, None]).T @ h / h.shape[0]


def _reference_fit(model, a, y, w, beta0=None, max_iter=100, h=None):
    """A linear model's weighted fit and its Gram matrix, h w broadcast."""
    if h is None:
        h = model.features(a)
    hw = h * w[:, None]
    gram = hw.T @ h / h.shape[0]
    return _reference_solve(gram, hw.T @ y / y.size, "moment matrix"), gram


def _reference_rank_mask(values, gamma, upper):
    """The last (upper) or first ``gamma_count`` entries of the (value, index) lexsort."""
    count = gamma_count(values.size, gamma)
    order = np.lexsort((np.arange(values.size), values))
    mask = np.zeros(values.size, dtype=bool)
    mask[order[values.size - count:] if upper else order[:count]] = True
    return mask


def _reference_band(idx, key):
    return idx[np.lexsort((idx, key))][:homotopy._SWAP_BAND]


def _reference_swap_phase(model, a_obj, h, y, w, box, mask, beta_cur, sense, coord, gram):
    n = y.size
    lo, hi = box
    visited = []
    cur_val = float(beta_cur[coord])
    for _ in range(2 * n):
        wv = w * np.where(mask, hi, lo)
        if gram is None:
            gram = _reference_gram(h, wv)
        rhs = h.T @ (wv * y) / n
        try:
            d = _derivative(model, a_obj, h, y, w, coord, beta_cur, gram)[2]
        except SingularMoment:
            break
        in_idx = np.flatnonzero(mask)
        out_idx = np.flatnonzero(~mask)
        if in_idx.size == 0 or out_idx.size == 0:
            break
        drop = _reference_band(in_idx, sense * d[in_idx])
        add = _reference_band(out_idx, -sense * d[out_idx])
        dw_i = w[drop] * (lo - hi)
        dw_j = w[add] * (hi - lo)
        b_i, b_j = h[drop], h[add]
        outer_i = dw_i[:, None, None] * (b_i[:, :, None] * b_i[:, None, :])
        outer_j = dw_j[:, None, None] * (b_j[:, :, None] * b_j[:, None, :])
        gram2 = gram + (outer_i[:, None] + outer_j[None, :]) / n
        rhs_i = dw_i[:, None] * b_i * y[drop][:, None]
        rhs_j = dw_j[:, None] * b_j * y[add][:, None]
        rhs2 = rhs + (rhs_i[:, None] + rhs_j[None, :]) / n
        betas = homotopy._solve_candidates(gram2, rhs2)
        ok = np.all(np.isfinite(betas), axis=-1)
        if not ok.any():
            break
        score = np.where(ok, sense * betas[..., coord], -np.inf)
        i, j = np.unravel_index(np.argmax(score), score.shape)
        best_val = float(betas[i, j, coord])
        if sense * (best_val - cur_val) <= 1e-12:
            break
        cur_val, beta_cur = best_val, betas[i, j]
        mask = mask.copy()
        mask[drop[i]] = False
        mask[add[j]] = True
        gram = None
        visited.append((np.where(mask, hi, lo), beta_cur.copy(), cur_val))
    return visited


def _reference_one_step(model, cells, nuisances, a_obj, h, y, w, carried, gamma, sense,
                        coord, constraint, inner_iterations):
    upper = sense > 0
    box = (1.0 / gamma, gamma)
    candidates = [carried]
    vertices = []
    v_cur, beta_cur, _ = carried
    m = _reference_gram(h, w * v_cur)
    iters = max(int(inner_iterations), 1)
    if constraint == "conditional":
        iters = max(iters, homotopy._CIRCULAR_CAP)
    seen_masks = []
    damps = 0
    last_coord = None
    for it in range(iters):
        c, g, d = _derivative(model, a_obj, h, y, w, coord, beta_cur, m)
        if constraint == "marginal":
            mask = _reference_rank_mask(d, gamma, upper)
            if seen_masks and np.array_equal(mask, seen_masks[-1]):
                break
            revisit = any(np.array_equal(mask, seen) for seen in seen_masks)
            v_vertex = np.where(mask, box[1], box[0])
            if revisit:
                if damps >= 3:
                    break
                damps += 1
                v_cur = 0.5 * (v_cur + v_vertex)
                beta_cur, m = _reference_fit(model, a_obj, y, w * v_cur, beta_cur, h=h)
                continue
            v_cur = v_vertex
            beta_cur, m = _reference_fit(model, a_obj, y, w * v_cur, beta_cur, h=h)
            candidates.append((v_cur, beta_cur, float(beta_cur[coord])))
            vertices.append((candidates[-1], m))
            seen_masks.append(mask)
        else:
            mask = _conditional_mask(cells, nuisances, d, c, g, gamma, upper)
            v_cur = np.where(mask, box[1], box[0])
            beta_cur, m = _reference_fit(model, a_obj, y, w * v_cur, beta_cur, h=h)
            val = float(beta_cur[coord])
            candidates.append((v_cur, beta_cur, val))
            if last_coord is not None and abs(val - last_coord) <= homotopy._CIRCULAR_TOL:
                break
            last_coord = val
    if constraint == "marginal" and inner_iterations > 1 and vertices:
        (seed_v, seed_beta, _), seed_m = max(vertices, key=lambda fit: sense * fit[0][2])
        seed_mask = seed_v >= 1.0 + 1e-12
        if seed_mask.any() and not seed_mask.all():
            candidates.extend(_reference_swap_phase(
                model, a_obj, h, y, w, box, seed_mask, seed_beta, sense, coord, seed_m))
    return max(candidates, key=lambda cand: sense * cand[2])


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(STATIC))
    return {
        "name": name,
        "seed": draw(st.integers(0, 5)),
        "n": draw(st.one_of(st.integers(12, 300), st.sampled_from([1000, 2000]))),
        "degree": draw(st.sampled_from([1, 2])),
        "constraint": draw(st.sampled_from(["marginal", "conditional"])),
        "quantiles": draw(st.sampled_from(["pinball", "empirical"]))
        if name == "discrete-cells" else "pinball",
        "grid": draw(st.sampled_from(GRIDS)),
        "inner_iterations": draw(st.integers(1, 8)),
    }


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_exact_homotopy_matches_the_reference_step(case):
    data = generate(DgpSpec(case["name"], seed=case["seed"]), case["n"])
    propensity = "discrete" if case["name"] == "discrete-cells" else "gaussian"
    nuis = SelfFit(data, NuisanceConfig(propensity_method=propensity,
                                        quantile_method=case["quantiles"]))

    def run():
        return homotopy_bounds(
            data, polynomial_msm(case["degree"]), nuisances=nuis, grid=case["grid"],
            constraint=case["constraint"], coord=1,
            inner_iterations=case["inner_iterations"], keep_weights=True)

    got = run()
    with mock.patch.object(homotopy, "_one_step", _reference_one_step), \
            mock.patch.object(homotopy, "weighted_fit", _reference_fit):
        want = run()
    for name in ("grid", "lower", "upper", "valid"):
        _same_bits(getattr(got, name), getattr(want, name))
    for name in ("v_lower", "v_upper"):
        assert len(getattr(got, name)) == len(getattr(want, name)) == len(case["grid"])
        for g, w in zip(getattr(got, name), getattr(want, name)):
            _same_bits(g, w)
    assert got.diagnostics == want.diagnostics


# few atoms, so products tie; signed zeros and wide magnitudes among them
ATOMS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, -7e100])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 300), st.integers(1, 7), st.sampled_from("CF"),
       st.sampled_from(["normal", "wide", "atoms"]), st.integers(0, 2**32 - 1))
def test_row_weighting_is_the_broadcast_product_bit_for_bit(n, p, order, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "atoms":
        h, w = ATOMS[rng.integers(0, ATOMS.size, (n, p))], ATOMS[rng.integers(0, 4, n)]
    else:
        scale = 10.0 ** rng.integers(-100, 100, (n, p)) if kind == "wide" else 1.0
        h, w = rng.standard_normal((n, p)) * scale, rng.standard_normal(n)
    h = np.asarray(h, order=order)
    got, want = _weighted_rows(h, w), h * w[:, None]
    assert got.strides == want.strides
    _same_bits(got, want)
    # one buffer each, so both products are general, not syrk
    _same_bits(got.T @ h / n, want.T @ h / n)
