"""The linearized homotopy is the closed-form rank-rule grid with a carry rule.

``homotopy_bounds(flavor="linearized")`` takes its values from
``gamma._rank_rule_grid``. Here it is checked against the per-step loop it
replaced, kept below as the reference, on generated data under both
constraints, for linear, quadratic and non-linear working models.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmbounds._ranks import rank_mask
from msmbounds.datagen import DgpSpec, generate
from msmbounds.errors import NoConvergence, SingularMoment
from msmbounds.gamma import (
    GammaSpec,
    _cells,
    _conditional_mask,
    _leverage,
    conditional_quantile_beta_bounds,
)
from msmbounds.homotopy import homotopy_bounds
from msmbounds.msm import _solve, custom_msm, linear_msm, polynomial_msm, weighted_fit
from msmbounds.nuisance import NuisanceConfig, SelfFit

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
GRID = [1.0, 1.1, 1.25, 1.5, 2.0, 3.0]
STATIC = ("gauss-line", "confounded-line", "hidden-dose", "discrete-cells")


def _basis(a):
    return np.column_stack([np.ones(a.size), a])


# g(a; beta) = beta_0 + exp(beta_1 a / 4): curved in beta, so the point fit is a
# damped Newton and the linearized value carries the residual term
CURVED = custom_msm(
    dim=2,
    curve=lambda a, b: b[0] + np.exp(b[1] * a / 4),
    gradient=lambda a, b: np.column_stack([np.ones(a.size), a / 4 * np.exp(b[1] * a / 4)]),
    moment_features=_basis,
    name="curved",
)
MODELS = {"linear": linear_msm(), "poly2": polynomial_msm(2), "curved": CURVED}


def _reference_linearized_homotopy(data, model, nuisances, grid, coord, constraint, w):
    """The linearized sweep one step at a time: at each gamma, the rank rule on
    d = c w y at the point fit, the value beta + M^-1 mean[h w (y v - g)], and
    the new point kept only when it is strictly better than the branch's last.
    Returns {branch: (values, kept weights)}."""
    cells = _cells(data, nuisances) if constraint == "conditional" else None
    a, y = data.a, data.y
    h = model.features(a)
    beta, m_beta = weighted_fit(model, a, y, w)
    point = float(beta[coord])
    c = _leverage(h, m_beta, coord) * w
    d = c * y
    grad = h if model.linear else model.grad(a, beta)
    m = (h * w[:, None]).T @ grad / y.size
    g = model.predict(a, beta)
    out = {}
    for branch, upper, sense in (("lower", False, -1.0), ("upper", True, 1.0)):
        best_v, best_val = np.ones(y.size), point
        values, kept = [point], [best_v]
        for gamma in grid[1:]:
            if constraint == "marginal":
                mask = rank_mask(d, gamma, upper)
            else:
                mask = _conditional_mask(cells, nuisances, d, c, None, gamma, upper)
            v = np.where(mask, gamma, 1.0 / gamma)
            gap = h.T @ (w * (y * v - g)) / y.size
            val = float(beta[coord] + _solve(m, gap, "linearized functional")[coord])
            if sense * (val - best_val) > 0:
                best_v, best_val = v, val
            values.append(best_val)
            kept.append(best_v)
        out[branch] = (np.array(values), kept)
    return out


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(STATIC))
    quantiles = draw(st.sampled_from(["pinball", "empirical"])) if name == "discrete-cells" \
        else "pinball"
    model = draw(st.sampled_from(sorted(MODELS)))
    return {
        "name": name,
        "seed": draw(st.integers(0, 3)),
        "n": draw(st.sampled_from([60, 150])),
        "quantiles": quantiles,
        "constraint": draw(st.sampled_from(["marginal", "conditional"])),
        "model": model,
        "coord": draw(st.integers(0, MODELS[model].dim - 1)),
        "override": draw(st.booleans()),
    }


@PROPERTY
@given(_cases())
def test_linearized_homotopy_matches_step_loop(case):
    data = generate(DgpSpec(case["name"], seed=case["seed"]), case["n"])
    propensity = "discrete" if case["name"] == "discrete-cells" else "gaussian"
    nuis = SelfFit(data, NuisanceConfig(propensity_method=propensity,
                                        quantile_method=case["quantiles"]))
    model = MODELS[case["model"]]
    w = nuis.weights
    if case["override"]:
        w = w * np.random.default_rng(case["seed"]).uniform(0.5, 1.5, data.n)
    run = lambda: homotopy_bounds(
        data, model, nuisances=nuis, grid=GRID, flavor="linearized",
        constraint=case["constraint"], coord=case["coord"],
        weights=w if case["override"] else None, keep_weights=True)
    try:
        want = _reference_linearized_homotopy(
            data, model, nuis, GRID, case["coord"], case["constraint"], w)
    except (NoConvergence, SingularMoment) as exc:
        # the point fit fails, in both routes alike
        with pytest.raises(type(exc)):
            run()
        return
    trace = run()
    # the routes order their arithmetic differently, and a solve's forward
    # error grows with the condition number of the point-fit matrix (about
    # 4e6 for the quadratic on hidden-dose, whose doses lie in [2, 2.5])
    h = model.features(data.a)
    cond = np.linalg.cond((h * w[:, None]).T @ (h if model.linear else model.grad(
        data.a, weighted_fit(model, data.a, data.y, w)[0])))
    rel = max(1e-9 if case["model"] == "curved" else 1e-11, np.finfo(float).eps * cond)
    for branch in ("lower", "upper"):
        values, kept = want[branch]
        got = getattr(trace, branch)
        np.testing.assert_allclose(got, values, rtol=0, atol=rel * np.max(np.abs(values)))
        for v_got, v_want in zip(getattr(trace, f"v_{branch}"), kept, strict=True):
            np.testing.assert_array_equal(v_got, v_want)
    assert trace.diagnostics == {
        "flavor": "linearized", "constraint": case["constraint"], "inner_iterations": 1,
        "invalid_points": [], "fallback_points": []}
    assert trace.valid.all()


def test_carry_rule_hides_crossing_closed_form():
    # under pinball quantiles the conditional closed form crosses at gamma = 1.25
    # and leaves the point estimate at 1.5 and 2; each homotopy branch keeps its
    # best value so far instead
    data = generate(DgpSpec("confounded-line", seed=0), 200)
    nuis = SelfFit(data)
    model = linear_msm()
    grid = [1.0, 1.25, 1.5, 2.0, 3.0]
    trace = homotopy_bounds(data, model, nuisances=nuis, grid=grid, flavor="linearized",
                            constraint="conditional", coord=1)
    closed = np.array([conditional_quantile_beta_bounds(data, model, nuis, GammaSpec(g), 1)
                       for g in grid])
    assert closed[1, 0] > closed[1, 1]
    np.testing.assert_array_equal(trace.lower, np.minimum.accumulate(closed[:, 0]))
    np.testing.assert_array_equal(trace.upper, np.maximum.accumulate(closed[:, 1]))
    assert trace.lower[2] == trace.lower[0] == pytest.approx(3.2861, abs=1e-4)
    assert trace.upper[2] == trace.upper[4] == pytest.approx(3.4309, abs=1e-4)
    want = _reference_linearized_homotopy(data, model, nuis, grid, 1, "conditional",
                                          nuis.weights)
    np.testing.assert_allclose(trace.lower, want["lower"][0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.upper, want["upper"][0], rtol=1e-12, atol=0)
