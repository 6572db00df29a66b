"""Grid-continuation search for extremal confounding weights.

Two families: the threshold fixed-point sweep (one rank-rule update of the
weights per grid step, warm-started from the previous step; its linearized
flavor is the closed form ``gamma._rank_rule_grid``), and box-only greedy
coordinate ascent with rank-one inverse updates.

Everything here consumes (treatment-object, y, w) through the model's own
feature callables, so panel wrappers can reuse the machinery unchanged.
The threshold steps take their per-unit derivative from
``gamma._derivative`` and their weights from ``_ranks.rank_mask`` (marginal
constraint) or ``gamma._conditional_mask`` (conditional constraint), the
same derivative and rules as the closed-form quantile and local bounds.
Every search here is one ``_continue`` over the grid with its own step.
"""

import numpy as np

from ._ranks import _levels, _select, rank_mask
from .errors import NoConvergence, SingularMoment
from .gamma import (
    _cells, _conditional_mask, _derivative, _gamma_grid, _rank_rule_grid,
)
from .msm import _moment_matrix, _solve, weighted_fit
from .results import HomotopyTrace

_CIRCULAR_TOL = 1e-6
_CIRCULAR_CAP = 50
# units on each side of the cut that the swap search considers
_SWAP_BAND = 8


def _swap_phase(model, a_obj, h, y, w, box, mask, beta_cur, sense, coord, gram):
    """Greedy count-preserving swaps between the two weight levels.

    The threshold fixed point can settle in a poor basin; swapping one
    unit out of the high-weight set for one outside it (count fixed, so
    the feasibility certificate keeps the rank-rule shape) escapes it.
    Candidates come from a derivative-ordered band of ``_SWAP_BAND`` units
    on each side of the cut (``_band``: among tied derivatives the lower
    index enters first), so the search stays cheap at large n; linear
    models only, where a swap is a rank-two update of the weighted Gram
    system. ``h`` is the model's features
    (its basis) at ``a_obj``, and ``gram`` the weighted Gram matrix at
    ``mask``'s weights, as the seed's refit returned it. Each iteration's
    derivative takes that iteration's Gram matrix; the iteration solves all
    band x band candidate systems in one batch and takes the first strict
    maximum in drop-major, add-minor order.

    Returns the (v, beta, value) of the last accepted swap, or None when none
    is accepted. Every accepted swap strictly improves the value, so the last
    one beats all before it; the search swaps in place on one copy of
    ``mask`` and one weight vector, whatever its swap count.
    """
    if not model.linear:
        return None
    n = y.size
    lo, hi = box
    mask, v = mask.copy(), _levels(mask, box)
    accepted = False
    cur_val = float(beta_cur[coord])
    for _ in range(2 * n):
        wv = w * v
        if gram is None:
            gram = _moment_matrix(model, a_obj, h, wv)
        # h^T (w v y), not M's h w: the candidates' rank-two updates are built on it
        rhs = h.T @ (wv * y) / n
        try:
            d = _derivative(model, a_obj, h, y, w, coord, beta_cur, gram)[2]
        except SingularMoment:
            break
        in_idx = mask.nonzero()[0]
        out_idx = (~mask).nonzero()[0]
        if in_idx.size == 0 or out_idx.size == 0:
            break
        drop = _band(in_idx, sense * d[in_idx])
        add = _band(out_idx, -sense * d[out_idx])
        # the rank-two update of every (drop i, add j) pair, with the
        # elementwise operations of one pair's update in the same order
        dw_i = w[drop] * (lo - hi)
        dw_j = w[add] * (hi - lo)
        b_i, b_j = h[drop], h[add]
        outer_i = dw_i[:, None, None] * (b_i[:, :, None] * b_i[:, None, :])
        outer_j = dw_j[:, None, None] * (b_j[:, :, None] * b_j[:, None, :])
        gram2 = gram + (outer_i[:, None] + outer_j[None, :]) / n
        rhs_i = dw_i[:, None] * b_i * y[drop][:, None]
        rhs_j = dw_j[:, None] * b_j * y[add][:, None]
        rhs2 = rhs + (rhs_i[:, None] + rhs_j[None, :]) / n
        betas = _solve_candidates(gram2, rhs2)
        ok = np.isfinite(betas).all(axis=-1)
        if not ok.any():
            break
        score = np.where(ok, sense * betas[..., coord], -np.inf)
        i, j = np.unravel_index(np.argmax(score), score.shape)
        best_val = float(betas[i, j, coord])
        if sense * (best_val - cur_val) <= 1e-12:
            break
        cur_val, beta_cur, accepted = best_val, betas[i, j], True
        mask[drop[i]], v[drop[i]] = False, lo
        mask[add[j]], v[add[j]] = True, hi
        gram = None
    return (v, beta_cur.copy(), cur_val) if accepted else None


def _band(idx, key):
    """The ``_SWAP_BAND`` entries of ``idx`` (ascending) with the smallest ``key``,
    in ascending key order, the lower index first among ties: the bottom
    side's ``_ranks._select``, then a stable sort of the few it keeps."""
    near = _select(key, min(_SWAP_BAND, key.size), False)
    return idx[near][np.argsort(key[near], kind="stable")]


def _solve_candidates(gram2, rhs2):
    """Solutions of a stack of candidate systems; NaN rows where one is singular.

    One batched solve; when a candidate's matrix is singular the batch
    raises, and the candidates are solved one by one through ``msm._solve``.
    """
    try:
        return np.linalg.solve(gram2, rhs2[..., None])[..., 0]
    except np.linalg.LinAlgError:
        betas = np.full(rhs2.shape, np.nan)
        for idx in np.ndindex(rhs2.shape[:-1]):
            try:
                betas[idx] = _solve(gram2[idx], rhs2[idx], "swap Gram matrix")
            except SingularMoment:
                pass
        return betas


def _continue(grid, start, step, keep_weights):
    """Run both branches from their ``start`` states (lower, upper) along ``grid``.

    A state is a tuple with the weights v first (None when none are kept)
    and the value last. At each grid point after the first, lower branch
    first, ``step(j, gamma, sense, carried)`` gives the branch's next state
    (sense -1 lower, +1 upper), or None for an invalid point, whose value
    stays NaN with ``valid[j]`` False while the carried state goes on.
    Returns the ``HomotopyTrace`` fields, the weights only under ``keep_weights``.
    """
    values = np.full((2, grid.size), np.nan)
    values[:, 0] = [state[-1] for state in start]
    valid = np.ones(grid.size, dtype=bool)
    carried = list(start)
    kept = [[state[0]] for state in start] if keep_weights else [None, None]
    for j in range(1, grid.size):
        for side, sense in enumerate((-1.0, 1.0)):
            state = step(j, float(grid[j]), sense, carried[side])
            if state is None:
                valid[j] = False
            else:
                carried[side] = state
                values[side, j] = state[-1]
            if keep_weights:
                kept[side].append(carried[side][0])
    return {"lower": values[0], "upper": values[1], "valid": valid,
            "v_lower": kept[0], "v_upper": kept[1]}


def homotopy_bounds(
    data,
    model,
    nuisances=None,
    grid=None,
    flavor="exact",
    constraint="marginal",
    coord=0,
    weights=None,
    inner_iterations=1,
    keep_weights=False,
):
    """Trace lower/upper bounds for one coordinate over an increasing gamma grid.

    Each grid step recomputes the derivative at the previous step's weights,
    assigns gamma to the units ranked past the step's quantile threshold
    (strictly above for the upper branch, inclusive below for the lower),
    refits, and records the coordinate. ``inner_iterations`` > 1 repeats the
    threshold-refit cycle until the assignment stabilizes, then polishes the
    marginal-constraint result with count-preserving swaps among the
    ``_SWAP_BAND`` units on each side of the cut. The conditional
    constraint applies the rule within (a, x) cells and iterates out the
    circular dependence of the threshold on the fit.

    A branch's first two failed steps keep its previous point, listed as
    (grid index, branch) in ``diagnostics["fallback_points"]``; from its
    third on, the point is invalid and listed in ``diagnostics["invalid_points"]``.

    The linearized derivative is free of gamma and v, so that flavor is the
    closed form ``gamma._rank_rule_grid`` with each branch keeping its best
    point so far (and its weights); it has no failed steps.
    """
    if flavor not in ("exact", "linearized"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if constraint not in ("marginal", "conditional"):
        raise ValueError(f"unknown constraint {constraint!r}")
    grid = _gamma_grid(grid)
    if weights is None:
        if nuisances is None:
            raise ValueError("pass either nuisances or explicit weights")
        weights = nuisances.weights
    w = np.asarray(weights, dtype=float).ravel()
    if constraint == "conditional" and nuisances is None:
        raise ValueError("the conditional constraint needs nuisance quantile fits")
    diagnostics = {
        "flavor": flavor,
        "constraint": constraint,
        "inner_iterations": int(inner_iterations),
        "invalid_points": [],
        "fallback_points": [],
    }
    if flavor == "linearized":
        trace = _rank_rule_grid(data, model, w, nuisances, grid, coord, constraint, keep_weights)
        sides = [list(zip(kept or [None] * grid.size, values)) for kept, values in
                 ((trace.v_lower, trace.lower), (trace.v_upper, trace.upper))]
        start = (sides[0][0], sides[1][0])

        def step(j, gamma, sense, carried):
            # each branch keeps its best point so far, the carried one on ties
            return max((carried, sides[sense > 0][j]), key=lambda point: sense * point[-1])
    else:
        cells = _cells(data, nuisances) if constraint == "conditional" else None
        h = model.features(data.a)
        beta_point = weighted_fit(model, data.a, data.y, w, h=h)[0]
        start = ((np.ones(data.y.size), beta_point, float(beta_point[coord])),) * 2

        def step(j, gamma, sense, carried):
            try:
                return _one_step(model, cells, nuisances, data.a, h, data.y, w, carried,
                                 gamma, sense, coord, constraint, inner_iterations)
            except (SingularMoment, NoConvergence):
                point = (j, "upper" if sense > 0 else "lower")
                if [b for _, b in diagnostics["fallback_points"]].count(point[1]) >= 2:
                    diagnostics["invalid_points"].append(point)
                    return None
                # the carried weights stay feasible in the wider box, so the
                # previous value stands at this grid point
                diagnostics["fallback_points"].append(point)
                return carried

    return HomotopyTrace(grid=grid, target=f"beta[{coord}]", diagnostics=diagnostics,
                         **_continue(grid, start, step, keep_weights))


def _one_step(
    model, cells, nuisances, a_obj, h, y, w, carried, gamma, sense,
    coord, constraint, inner_iterations,
):
    """One grid step: fixed-point iterates plus the carried (v, beta, value).

    The weight box widens with gamma, so the previous step's v stays
    feasible verbatim; keeping the best candidate for the branch sense
    makes the upper trace nondecreasing and the lower nonincreasing by
    construction while every recorded v remains a feasibility certificate.
    Each refit's moment matrix goes to the next derivative, taken at the same
    weights, so only the first derivative of a step builds its own.
    """
    upper = sense > 0
    box = (1.0 / gamma, gamma)
    candidates = [carried]
    vertices = []  # (candidate, its moment matrix) of each vertex refit at this gamma
    v_cur, beta_cur, _ = carried
    m = _moment_matrix(model, a_obj, h, w * v_cur, beta_cur)  # at (v_cur, beta_cur)
    iters = max(int(inner_iterations), 1)
    if constraint == "conditional":
        iters = max(iters, _CIRCULAR_CAP)
    seen_masks = []
    damps = 0
    last_coord = None
    for it in range(iters):
        c, g, d = _derivative(model, a_obj, h, y, w, coord, beta_cur, m)
        if constraint == "marginal":
            mask = rank_mask(d, gamma, upper)
            if seen_masks and (mask == seen_masks[-1]).all():
                break
            revisit = any((mask == seen).all() for seen in seen_masks)
            if revisit and damps >= 3:
                break
            v_vertex = _levels(mask, box)
            if revisit:
                # the threshold map is cycling; damp toward the proposal so
                # the next derivative is taken between the cycle members
                damps += 1
                v_cur = 0.5 * (v_cur + v_vertex)
                beta_cur, m = weighted_fit(model, a_obj, y, w * v_cur, beta_cur, h=h)
                continue
            v_cur = v_vertex
            beta_cur, m = weighted_fit(model, a_obj, y, w * v_cur, beta_cur, h=h)
            candidates.append((v_cur, beta_cur, float(beta_cur[coord])))
            vertices.append((candidates[-1], m, mask))
            seen_masks.append(mask)
        else:
            mask = _conditional_mask(cells, nuisances, d, c, g, gamma, upper)
            v_cur = _levels(mask, box)
            beta_cur, m = weighted_fit(model, a_obj, y, w * v_cur, beta_cur, h=h)
            val = float(beta_cur[coord])
            candidates.append((v_cur, beta_cur, val))
            if last_coord is not None and abs(val - last_coord) <= _CIRCULAR_TOL:
                break
            last_coord = val
    if constraint == "marginal" and inner_iterations > 1 and vertices:
        # seed swaps from the best vertex built at THIS gamma's levels, with
        # its own rank mask; the carried candidate has old atom levels, so its
        # count is wrong here
        (_, seed_beta, _), seed_m, seed_mask = max(vertices, key=lambda fit: sense * fit[0][2])
        swapped = _swap_phase(model, a_obj, h, y, w, box, seed_mask, seed_beta, sense, coord,
                              seed_m)
        if swapped is not None:
            candidates.append(swapped)
    return max(candidates, key=lambda cand: sense * cand[2])


def coordinate_ascent_bounds(
    data,
    model,
    weights,
    grid,
    coord=0,
    n_orderings=3,
    seed=0,
    keep_weights=False,
    check_refits=False,
):
    """Box-only greedy extremization of a linear-fit coordinate over v in {gamma, 1/gamma}^n.

    Sweeps units in random orders accepting improving flips, maintaining
    the weighted-Gram inverse with rank-one updates; the best of
    ``n_orderings`` restarts is kept per grid point, warm-started along the
    grid. ``check_refits`` recomputes the fit from scratch after every
    accepted flip and records the worst discrepancy.
    """
    if not model.linear:
        raise ValueError("coordinate ascent needs a linear model")
    grid = _gamma_grid(grid)
    w = np.asarray(weights, dtype=float).ravel()
    b = model.basis_matrix(data.a)
    y = data.y
    n = y.size
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(n) for _ in range(max(int(n_orderings), 1))]
    refit = (lambda v: weighted_fit(model, data.a, y, w * v, h=b)[0]) if check_refits else None

    point = float(weighted_fit(model, data.a, y, w, h=b)[0][coord])
    worst_refit_gap = 0.0

    def step(j, gamma, sense, carried):
        nonlocal worst_refit_gap
        start = _levels(carried[0] >= 1.0, (1.0 / gamma, gamma))
        flips = [_greedy_flips(b, y, w, start.copy(), gamma, 1.0 / gamma, coord, order, sense,
                               refit) for order in orders]
        for _, _, gap in flips:
            worst_refit_gap = max(worst_refit_gap, gap)
        # the first ordering wins ties
        return max(flips, key=lambda flip: sense * flip[1])[:2]

    trace = _continue(grid, ((np.ones(n), point),) * 2, step, keep_weights)
    diagnostics = {"constraint": "box-only", "n_orderings": len(orders)}
    if check_refits:
        diagnostics["worst_refit_gap"] = worst_refit_gap
    return HomotopyTrace(grid=grid, target=f"beta[{coord}]", diagnostics=diagnostics, **trace)


def _greedy_flips(b, y, w, v, hi, lo, coord, order, sense, refit):
    # refit(v), when given, refits from scratch after each accepted flip
    n, k = b.shape
    d = w * v
    # unscaled, unlike M: the rank-one updates run on its inverse, and check_refits
    # compares them with weighted_fit
    gram = (b * d[:, None]).T @ b
    try:
        ginv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularMoment(f"coordinate-ascent Gram matrix: {exc}") from exc
    rhs = b.T @ (d * y)
    val = float((ginv @ rhs)[coord])
    worst_gap = 0.0
    for _ in range(50):
        improved = False
        for i in order:
            new_vi = hi if v[i] == lo else lo
            delta = w[i] * (new_vi - v[i])
            gb = ginv @ b[i]
            denom = 1.0 + delta * (b[i] @ gb)
            if abs(denom) < 1e-14:
                continue
            ginv_new = ginv - (delta / denom) * np.outer(gb, gb)
            rhs_new = rhs + delta * b[i] * y[i]
            val_new = float((ginv_new @ rhs_new)[coord])
            if sense * (val_new - val) > 1e-14:
                ginv, rhs, val = ginv_new, rhs_new, val_new
                v[i] = new_vi
                improved = True
                if refit is not None:
                    worst_gap = max(worst_gap, abs(float(refit(v)[coord]) - val))
        if not improved:
            break
    return v, val, worst_gap
