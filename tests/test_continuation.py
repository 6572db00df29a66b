"""One continuation loop behind the exact homotopy, the linearized carry rule
and coordinate ascent.

``homotopy._continue`` runs both branches of every grid search. Each search
is checked bit for bit against the grid-by-branch loop it replaced, kept
below as the reference: the exact homotopy's per-branch state and failure
count, the linearized flavor's in-place carry on ``gamma._rank_rule_grid``,
and coordinate ascent's warm starts. The references drive the production
``_one_step`` and ``_greedy_flips``, so only the loops around them differ.
"""

import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds import homotopy
from msmbounds.data import Dataset
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import NoConvergence, SingularMoment
from msmbounds.gamma import _cells, _gamma_grid, _rank_rule_grid
from msmbounds.homotopy import coordinate_ascent_bounds, homotopy_bounds
from msmbounds.msm import linear_msm, polynomial_msm
from msmbounds.nuisance import NuisanceConfig, SelfFit
from msmbounds.panel import cumulative_panel_msm, panel_weights
from msmbounds.results import HomotopyTrace

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
GRID = [1.0, 1.25, 1.5, 2.0, 3.0]
STATIC = ("gauss-line", "confounded-line", "hidden-dose", "discrete-cells")
BRANCHES = (("lower", -1.0), ("upper", 1.0))


def _reference_exact(data, model, nuisances, grid, coord, constraint, w,
                     inner_iterations, keep_weights):
    """The exact homotopy with a state and a failure count per branch."""
    grid = _gamma_grid(grid)
    diagnostics = {
        "flavor": "exact",
        "constraint": constraint,
        "inner_iterations": int(inner_iterations),
        "invalid_points": [],
        "fallback_points": [],
    }
    cells = _cells(data, nuisances) if constraint == "conditional" else None
    y, a_obj = data.y, data.a
    h = model.features(a_obj)
    n = y.size
    beta_point = homotopy.weighted_fit(model, a_obj, y, w)[0]
    point = float(beta_point[coord])
    lower = np.full(grid.size, np.nan)
    upper = np.full(grid.size, np.nan)
    valid = np.ones(grid.size, dtype=bool)
    lower[0] = upper[0] = point
    snaps = {"lower": [np.ones(n)], "upper": [np.ones(n)]} if keep_weights else None
    state = {
        "lower": {"v": np.ones(n), "beta": beta_point.copy(), "val": point},
        "upper": {"v": np.ones(n), "beta": beta_point.copy(), "val": point},
    }
    failures = {"lower": 0, "upper": 0}
    for j in range(1, grid.size):
        gamma = float(grid[j])
        for branch, sense in BRANCHES:
            st_ = state[branch]
            carried = (st_["v"], st_["beta"], float(st_["beta"][coord]))
            try:
                v_new, beta_new, value = homotopy._one_step(
                    model, cells, nuisances, a_obj, h, y, w, carried, gamma, sense,
                    coord, constraint, inner_iterations,
                )
            except (SingularMoment, NoConvergence):
                failures[branch] += 1
                if failures[branch] >= 3:
                    valid[j] = False
                    diagnostics["invalid_points"].append((j, branch))
                    if keep_weights:
                        snaps[branch].append(st_["v"].copy())
                    continue
                diagnostics["fallback_points"].append((j, branch))
                v_new, beta_new, value = st_["v"], st_["beta"], st_["val"]
            st_["v"] = v_new
            st_["beta"] = beta_new
            st_["val"] = value
            if branch == "lower":
                lower[j] = value
            else:
                upper[j] = value
            if keep_weights:
                snaps[branch].append(v_new.copy())
    return HomotopyTrace(
        grid=grid, lower=lower, upper=upper, target=f"beta[{coord}]", valid=valid,
        v_lower=snaps["lower"] if keep_weights else None,
        v_upper=snaps["upper"] if keep_weights else None,
        diagnostics=diagnostics,
    )


def _reference_linearized(data, model, nuisances, grid, coord, constraint, w, keep_weights):
    """The closed-form grid with each branch's carry written in place."""
    grid = _gamma_grid(grid)
    trace = _rank_rule_grid(data, model, w, nuisances, grid, coord, constraint, keep_weights)
    for values, kept, sense in ((trace.lower, trace.v_lower, -1.0),
                                (trace.upper, trace.v_upper, 1.0)):
        for j in range(1, grid.size):
            if not sense * (values[j] - values[j - 1]) > 0:
                values[j] = values[j - 1]
                if keep_weights:
                    kept[j] = kept[j - 1]
    trace.diagnostics = {
        "flavor": "linearized", "constraint": constraint, "inner_iterations": 1,
        "invalid_points": [], "fallback_points": [],
    }
    return trace


def _reference_ascent(data, model, w, grid, coord, n_orderings, seed, keep_weights,
                      check_refits):
    """Coordinate ascent with a warm start and the best ordering per branch."""
    grid = _gamma_grid(grid)
    b = model.basis_matrix(data.a)
    y = data.y
    n = y.size
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(n) for _ in range(max(int(n_orderings), 1))]
    refit = (lambda v: homotopy.weighted_fit(model, data.a, y, w * v)[0]) if check_refits \
        else None
    point = float(homotopy.weighted_fit(model, data.a, y, w)[0][coord])
    lower = np.full(grid.size, np.nan)
    upper = np.full(grid.size, np.nan)
    lower[0] = upper[0] = point
    snaps = {"lower": [np.ones(n)], "upper": [np.ones(n)]} if keep_weights else None
    warm = {"lower": np.ones(n), "upper": np.ones(n)}
    worst_refit_gap = 0.0
    for j in range(1, grid.size):
        gamma = float(grid[j])
        hi, lo = gamma, 1.0 / gamma
        for branch, sense in BRANCHES:
            start = np.where(warm[branch] >= 1.0, hi, lo)
            best_v = best_val = None
            for order in orders:
                v, val, gap = homotopy._greedy_flips(
                    b, y, w, start.copy(), hi, lo, coord, order, sense, refit)
                worst_refit_gap = max(worst_refit_gap, gap)
                if best_val is None or sense * val > sense * best_val:
                    best_val, best_v = val, v
            warm[branch] = best_v
            if branch == "lower":
                lower[j] = best_val
            else:
                upper[j] = best_val
            if keep_weights:
                snaps[branch].append(best_v.copy())
    diagnostics = {"constraint": "box-only", "n_orderings": len(orders)}
    if check_refits:
        diagnostics["worst_refit_gap"] = worst_refit_gap
    return HomotopyTrace(
        grid=grid, lower=lower, upper=upper, target=f"beta[{coord}]",
        v_lower=snaps["lower"] if keep_weights else None,
        v_upper=snaps["upper"] if keep_weights else None,
        diagnostics=diagnostics,
    )


@contextlib.contextmanager
def _refits_failing_from(k, error):
    """The fits of ``homotopy``, the point fit then the refits (all ``weighted_fit``),
    raise ``error`` from their k-th call on (never when k is None)."""
    if k is None:
        yield
        return
    calls = itertools.count(1)

    def failing(fit):
        def call(*args, **kwargs):
            if next(calls) >= k:
                raise error("forced refit failure")
            return fit(*args, **kwargs)
        return call

    with mock.patch.object(homotopy, "weighted_fit", failing(homotopy.weighted_fit)):
        yield


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _same_trace(got, want):
    for name in ("grid", "lower", "upper", "valid"):
        _same_bits(getattr(got, name), getattr(want, name))
    assert got.target == want.target
    for name in ("v_lower", "v_upper"):
        got_v, want_v = getattr(got, name), getattr(want, name)
        assert (got_v is None) == (want_v is None)
        for g, w in zip(got_v or [], want_v or [], strict=True):
            _same_bits(g, w)
    assert got.diagnostics == want.diagnostics


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(STATIC + ("panel-mix",)))
    panel = name == "panel-mix"
    return {
        "name": name,
        "seed": draw(st.integers(0, 3)),
        "n": draw(st.sampled_from([40, 70])),
        "degree": 1 if panel else draw(st.sampled_from([1, 2])),
        "constraint": "marginal" if panel
        else draw(st.sampled_from(["marginal", "conditional"])),
        "quantiles": draw(st.sampled_from(["pinball", "empirical"]))
        if name == "discrete-cells" else "pinball",
        "inner_iterations": draw(st.integers(1, 6)),
        "keep_weights": draw(st.booleans()),
        "fail_from": draw(st.one_of(st.none(), st.integers(2, 40))),
        "error": draw(st.sampled_from([SingularMoment, NoConvergence])),
    }


def _setup(case):
    """(data, model, nuisances or None, weights, coord) of a drawn case."""
    data = generate(DgpSpec(case["name"], seed=case["seed"]), case["n"])
    if case["name"] == "panel-mix":
        return data, cumulative_panel_msm(), None, panel_weights(data), 1
    propensity = "discrete" if case["name"] == "discrete-cells" else "gaussian"
    nuis = SelfFit(data, NuisanceConfig(propensity_method=propensity,
                                        quantile_method=case["quantiles"]))
    return data, polynomial_msm(case["degree"]), nuis, nuis.weights, 1


@PROPERTY
@given(_cases())
def test_exact_homotopy_matches_branch_state_loop(case):
    data, model, nuis, w, coord = _setup(case)
    args = (data, model, nuis, GRID, coord, case["constraint"], w,
            case["inner_iterations"], case["keep_weights"])
    with _refits_failing_from(case["fail_from"], case["error"]):
        want = _reference_exact(*args)
    with _refits_failing_from(case["fail_from"], case["error"]):
        got = homotopy_bounds(
            data, model, nuisances=nuis, grid=GRID, flavor="exact",
            constraint=case["constraint"], coord=coord, weights=w,
            inner_iterations=case["inner_iterations"], keep_weights=case["keep_weights"])
    _same_trace(got, want)


@PROPERTY
@given(_cases())
def test_linearized_carry_matches_in_place_loop(case):
    data, model, nuis, w, coord = _setup(case)
    want = _reference_linearized(data, model, nuis, GRID, coord, case["constraint"], w,
                                 case["keep_weights"])
    got = homotopy_bounds(
        data, model, nuisances=nuis, grid=GRID, flavor="linearized",
        constraint=case["constraint"], coord=coord, weights=w,
        keep_weights=case["keep_weights"])
    _same_trace(got, want)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_cases(), st.booleans())
def test_coordinate_ascent_matches_warm_start_loop(case, check_refits):
    data, model, _, w, coord = _setup(case)
    orderings = case["inner_iterations"] % 3 + 1
    want = _reference_ascent(data, model, w, GRID, coord, orderings, case["seed"],
                             case["keep_weights"], check_refits)
    got = coordinate_ascent_bounds(
        data, model, w, GRID, coord=coord, n_orderings=orderings, seed=case["seed"],
        keep_weights=case["keep_weights"], check_refits=check_refits)
    _same_trace(got, want)


def test_forced_failures_fall_back_then_invalidate_both_branches():
    # every refit from the point fit's successor fails: each branch keeps its
    # carried point twice, then its points are invalid
    data = generate(DgpSpec("gauss-line", seed=0), 50)
    w = SelfFit(data).weights
    with _refits_failing_from(2, SingularMoment):
        trace = homotopy_bounds(data, linear_msm(), grid=GRID, coord=1, weights=w,
                                inner_iterations=3, keep_weights=True)
    diag = trace.diagnostics
    assert diag["fallback_points"] == [(1, "lower"), (1, "upper"), (2, "lower"), (2, "upper")]
    assert diag["invalid_points"] == [(3, "lower"), (3, "upper"), (4, "lower"), (4, "upper")]
    np.testing.assert_array_equal(trace.valid, [True, True, True, False, False])
    assert np.all(trace.lower[:3] == trace.lower[0]) and np.all(np.isnan(trace.lower[3:]))
    for snaps in (trace.v_lower, trace.v_upper):
        assert all(np.array_equal(v, np.ones(data.n)) for v in snaps)


def _flat_data():
    # y = 0 gives every point of every search the value 0
    data = generate(DgpSpec("gauss-line", seed=0), 40)
    return Dataset(data.x, data.a, np.zeros(data.n)), SelfFit(data).weights


@pytest.mark.parametrize("flavor", ["exact", "linearized"])
def test_ties_keep_the_carried_point(flavor):
    data, w = _flat_data()
    trace = homotopy_bounds(data, linear_msm(), grid=GRID, flavor=flavor, coord=1,
                            weights=w, inner_iterations=3, keep_weights=True)
    assert np.all(trace.lower == 0.0) and np.all(trace.upper == 0.0)
    for snaps in (trace.v_lower, trace.v_upper):
        assert all(np.array_equal(v, np.ones(data.n)) for v in snaps)


def test_coordinate_ascent_ties_keep_the_first_ordering(monkeypatch):
    # every ordering reaches the same value with its own weights
    def flips(b, y, w, v, hi, lo, coord, order, sense, refit):
        v[order[0]] = lo
        return v, 1.0, 0.0

    monkeypatch.setattr(homotopy, "_greedy_flips", flips)
    data, w = _flat_data()
    trace = coordinate_ascent_bounds(data, linear_msm(), w, GRID, coord=1, n_orderings=3,
                                     keep_weights=True)
    first = np.random.default_rng(0).permutation(data.n)[0]
    for snaps in (trace.v_lower, trace.v_upper):
        for gamma, v in zip(GRID[1:], snaps[1:]):
            assert np.flatnonzero(v != gamma).tolist() == [first]
