"""CLI behavior: configs, exit codes, outputs, reproducibility."""

import contextlib
import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from msmbounds import nuisance
from msmbounds.cli import FAMILIES, ROUTES, main
from msmbounds.datagen import DgpSpec, generate
from msmbounds.gamma import GammaSpec, local_beta_bounds, marginal_quantile_grid_bounds
from msmbounds.inference import HulcSpec, hulc_ci
from msmbounds.msm import polynomial_msm

from cli_cases import (
    FOLDS,
    HULC,
    PAIR_KERNEL_CASES,
    PANEL_METHODS,
    RANK_RULE_CASES,
    ROUTE_SENSITIVITY,
    WALD,
    bounds_config,
    case,
    curve_config,
    panel_config,
    route_config,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _read_curve_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "grid_value,lower,upper,ci_lower,ci_upper"
    rows = [line.split(",") for line in lines[1:]]
    parse = lambda s: float(s) if s else None
    return [[parse(c) for c in r] for r in rows]


def _fit_config(**extra):
    cfg = {
        "data": {"dgp": {"name": "gauss-line", "n": 120, "seed": 3}},
        "model": {"kind": "polynomial", "degree": 1},
    }
    cfg.update(extra)
    return cfg


def test_fit_writes_results_and_metadata(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", _fit_config())
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "fit_result.csv").read_text().strip().split("\n")
    assert lines[0] == "coord,estimate,se"
    slope = float(lines[2].split(",")[1])
    assert abs(slope - 3.0) < 0.5
    meta = json.loads((tmp_path / "fit_meta.json").read_text())
    assert meta["command"] == "fit"
    assert meta["seed"] == 0
    assert "asymptotic, rate-conditional" in meta["flags"]
    assert "quantile_convention" in meta


def test_fit_json_format(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", _fit_config())
    assert main(["fit", "--config", cfg, "--out", str(tmp_path),
                 "--format", "json"]) == 0
    payload = json.loads((tmp_path / "fit_result.json").read_text())
    assert len(payload["coefficients"]) == 2
    assert payload["n"] == 120


def test_bounds_grid_and_collapse(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", case("bounds-grid"))
    out = tmp_path / "run"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_curve_csv(out / "bounds_result.csv")
    assert [r[0] for r in rows] == [1.0, 1.5, 2.0]
    assert rows[0][1] == pytest.approx(rows[0][2], abs=1e-8)
    for r in rows:
        assert r[1] <= r[2] + 1e-12
        assert r[3] is None and r[4] is None
    widths = [r[2] - r[1] for r in rows]
    assert widths == sorted(widths)


def test_bounds_byte_identical_across_reruns(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", case("bounds-grid"))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["bounds", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["bounds", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "bounds_result.csv").read_bytes() == \
        (out2 / "bounds_result.csv").read_bytes()
    assert (out1 / "bounds_meta.json").read_bytes() == \
        (out2 / "bounds_meta.json").read_bytes()


def test_bounds_hulc_intervals(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", case("bounds-hulc"))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_curve_csv(tmp_path / "bounds_result.csv")
    for r in rows:
        assert r[3] is not None and r[4] is not None
        assert r[3] <= r[4]
    meta = json.loads((tmp_path / "bounds_meta.json").read_text())
    assert "heuristic CI" in meta["flags"]


def _route_sides(method, d, grid):
    """(lower, upper) over ``grid`` from the library call of propensity route ``method``."""
    model, nuis = polynomial_msm(1), nuisance.SelfFit(d)
    if method == "marginal-quantile":
        trace = marginal_quantile_grid_bounds(d, model, nuis, grid, 1)
        return trace.lower, trace.upper
    return np.array([local_beta_bounds(d, model, nuis, GammaSpec(g), 1) for g in grid]).T


@pytest.mark.parametrize("method", ["marginal-quantile", "local"])
def test_hulc_columns_are_hulc_ci_of_the_route_call(tmp_path, capsys, method):
    config = {**bounds_config(method=method), "inference": HULC}
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_curve_csv(tmp_path / "bounds_result.csv")
    grid = np.array([r[0] for r in rows])
    dgp = config["data"]["dgp"]
    data = generate(DgpSpec(dgp["name"], seed=dgp["seed"]), dgp["n"])
    spec = HulcSpec(HULC["alpha"], HULC["seed"])
    for j, row in enumerate(rows):
        lower = hulc_ci(data, lambda d: _route_sides(method, d, grid)[0][j], spec)
        upper = hulc_ci(data, lambda d: _route_sides(method, d, grid)[1][j], spec)
        # .17g round-trips a double, so each CSV cell is the value itself
        assert (row[3], row[4]) == (lower.low, upper.high)


def test_bounds_wald_needs_variance_method(tmp_path, capsys):
    config = bounds_config()
    config["inference"] = {"kind": "wald"}
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "wald" in capsys.readouterr().err


def test_bounds_wald_with_parametric(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", case("bounds-wald-parametric"))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_curve_csv(tmp_path / "bounds_result.csv")
    for r in rows:
        assert r[3] < r[1] and r[4] > r[2]


def test_bounds_homotopy_method(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", case("bounds-homotopy"))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_curve_csv(tmp_path / "bounds_result.csv")
    assert len(rows) == 3


def test_bounds_subset_families(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", case("bounds-subset-linear"))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_curve_csv(tmp_path / "bounds_result.csv")
    widths = [r[2] - r[1] for r in rows]
    assert widths[0] == pytest.approx(0.0, abs=1e-8)
    assert widths == sorted(widths)

    cfg = _write_config(tmp_path / "c2.json", case("bounds-outcome-linear"))
    out2 = tmp_path / "oc"
    assert main(["bounds", "--config", cfg, "--out", str(out2)]) == 0


def test_panel_bounds_roundtrip(tmp_path, capsys):
    config = case("bounds-panel")
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_curve_csv(tmp_path / "bounds_result.csv")
    assert len(rows) == 2

    config["sensitivity"]["family"] = "outcome"
    config["sensitivity"]["grid"] = [0.0, 0.5]
    cfg = _write_config(tmp_path / "c2.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2

    config["sensitivity"]["family"] = "propensity"
    config["sensitivity"]["grid"] = [1.0, 1.5]
    config["model"] = {"kind": "polynomial", "degree": 1}
    cfg = _write_config(tmp_path / "c3.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_curve_both_families(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", case("curve-propensity"))
    assert main(["curve", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_curve_csv(tmp_path / "curve_result.csv")
    assert len(rows) == 3 and all(r[1] <= r[2] + 1e-12 for r in rows)

    cfg = _write_config(tmp_path / "c2.json", case("curve-outcome-wald"))
    out2 = tmp_path / "o"
    assert main(["curve", "--config", cfg, "--out", str(out2)]) == 0
    rows = _read_curve_csv(out2 / "curve_result.csv")
    assert all(r[3] is not None for r in rows)


def test_simulate_writes_loadable_csv(tmp_path, capsys):
    config = {"dgp": {"name": "discrete-cells", "n": 50, "seed": 4},
              "out_name": "sim.csv"}
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    from msmbounds.data import load_csv

    data = load_csv(str(tmp_path / "sim.csv"), {"x": ["x1"]})
    assert data.n == 50
    meta = json.loads((tmp_path / "simulate_meta.json").read_text())
    assert meta["n"] == 50


def test_schema_rejects_unknown_keys(tmp_path, capsys):
    config = _fit_config()
    config["typo_section"] = {"a": 1}
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config" in err and "typo_section" in err


def test_schema_error_reports_path(tmp_path, capsys):
    config = bounds_config()
    config["sensitivity"]["family"] = "astral"
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config/sensitivity/family" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    bounds_config(method="frobnicate"),
    bounds_config(family="subset-independent", method="frobnicate", epsilon=0.5),
], ids=["propensity", "subset-independent"])
def test_unknown_method_exits_2(tmp_path, capsys, config):
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2


# The meta flags of every static route under HulC, and the four routes with
# a variance, the only ones that take Wald intervals.
HULC_FLAGS = {
    ("propensity", "marginal-quantile"): ["heuristic CI"],
    ("propensity", "conditional-quantile"): ["heuristic CI"],
    ("propensity", "local"): ["heuristic CI"],
    ("propensity", "parametric"): ["asymptotic, rate-conditional"],
    ("propensity", "linear-curve"): ["asymptotic, rate-conditional"],
    ("propensity", "homotopy-exact"): ["heuristic CI"],
    ("propensity", "homotopy-linearized"): ["heuristic CI"],
    ("propensity", "coordinate-ascent"): ["heuristic CI"],
    ("outcome", "linear"): ["heuristic CI"],
    ("outcome", "parametric"): ["asymptotic, rate-conditional"],
    ("outcome", "curve"): ["asymptotic, rate-conditional"],
    ("outcome", "nonlinear-grid"): ["heuristic CI"],
    ("subset-propensity", "theta"): ["heuristic CI"],
    ("subset-propensity", "parametric"): [],
    ("subset-propensity", "linear"): ["heuristic CI"],
    ("subset-outcome", "outcome-shift"): [],
    ("subset-independent", "independent"): ["heuristic CI"],
}
WALD_ROUTES = {
    ("propensity", "parametric"),
    ("propensity", "linear-curve"),
    ("outcome", "parametric"),
    ("outcome", "curve"),
}


def test_route_cases_cover_every_static_route():
    assert set(HULC_FLAGS) == set(ROUTE_SENSITIVITY) == set(ROUTES)
    assert {key for key, route in ROUTES.items() if route.variances} == WALD_ROUTES


@pytest.mark.parametrize("route", list(HULC_FLAGS), ids="/".join)
def test_every_static_route(tmp_path, capsys, route):
    family, method = route
    cfg = _write_config(tmp_path / "hulc.json", case(f"route-{family}-{method}"))
    with _counting_fits_and_routes() as (fits, calls):
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "hulc")]) == 0
    meta = json.loads((tmp_path / "hulc" / "bounds_meta.json").read_text())
    assert meta["flags"] == HULC_FLAGS[route]
    rows = _read_curve_csv(tmp_path / "hulc" / "bounds_result.csv")
    assert all(r[3] <= r[1] + 1e-12 and r[2] <= r[4] + 1e-12 for r in rows)
    # one call per grid value, or one for the whole grid, on the full sample
    # and on each of the 6 HulC blocks
    per_sample = 1 if ROUTES[route].whole_grid else len(rows)
    assert calls[route].call_count == 7 * per_sample

    for kind in ("none", "wald"):
        capsys.readouterr()
        cfg = _write_config(tmp_path / f"{kind}.json", route_config(family, method, {"kind": kind}))
        with _counting_fits_and_routes() as (fits, calls):
            code = main(["bounds", "--config", cfg, "--out", str(tmp_path / kind)])
        if kind == "none" or route in WALD_ROUTES:
            assert code == 0
            assert calls[route].call_count == per_sample
            rows = _read_curve_csv(tmp_path / kind / "bounds_result.csv")
            assert all((r[3] < r[1] and r[4] > r[2]) if kind == "wald" else r[3] is None
                       for r in rows)
        else:
            assert code == 2
            assert "wald" in capsys.readouterr().err
            assert _call_counts(fits, calls) == (0, 0)


def test_outcome_nonlinear_grid_is_the_subset_outcome_row_at_epsilon_one(tmp_path, capsys):
    # both routes share one shift-band core, HulC subsamples included
    cfg = _write_config(tmp_path / "grid.json", route_config("outcome", "nonlinear-grid"))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "grid")]) == 0
    config = route_config("subset-outcome", "outcome-shift")
    config["sensitivity"].update(grid=[0.0, 0.5, 1.0], delta=1.0)
    cfg = _write_config(tmp_path / "subset.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "subset")]) == 0
    grid_rows, subset_rows = (
        (tmp_path / run / "bounds_result.csv").read_text().splitlines()
        for run in ("grid", "subset"))
    assert grid_rows[-1].startswith("1,") and subset_rows[-1].startswith("1,")
    assert grid_rows[-1] == subset_rows[-1]


@pytest.mark.parametrize("key,value", [("grid_res", 7), ("lp_filter", True)])
def test_removed_grid_knobs_exit_2_naming_the_key(tmp_path, capsys, key, value):
    config = route_config("outcome", "nonlinear-grid")
    config["sensitivity"][key] = value
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err
    assert not (tmp_path / "bounds_meta.json").exists()


# name -> (config, path of an integer in it)
INTEGER_KNOBS = {
    "coord": (bounds_config(), ("sensitivity", "coord")),
    "degree": ({**bounds_config(), "model": {"kind": "polynomial", "degree": 2}},
               ("model", "degree")),
    "folds": ({**bounds_config(), "nuisance": FOLDS}, ("nuisance", "folds")),
    "n": (bounds_config(), ("data", "dgp", "n")),
    "inner_iterations": (bounds_config(60, method="homotopy-exact", grid=[1.0, 1.5],
                                       inner_iterations=2),
                         ("sensitivity", "inner_iterations")),
    "n_orderings": (bounds_config(60, method="coordinate-ascent", grid=[1.0, 1.5],
                                  n_orderings=2),
                    ("sensitivity", "n_orderings")),
    "dgp-seed": (bounds_config(), ("data", "dgp", "seed")),
    "nuisance-seed": ({**bounds_config(), "nuisance": {**FOLDS, "seed": 3}},
                      ("nuisance", "seed")),
    "inference-seed": ({**bounds_config(), "inference": HULC}, ("inference", "seed")),
    "seed": ({**bounds_config(), "nuisance": FOLDS, "inference": HULC, "seed": 4}, ("seed",)),
}


@pytest.mark.parametrize("name", INTEGER_KNOBS)
def test_integral_float_runs_like_its_int(tmp_path, capsys, name):
    # JSON Schema counts 2.0 as an integer, so the run takes it as the int 2:
    # the same result and meta files, byte for byte
    config, path = INTEGER_KNOBS[name]
    outputs = []
    for number in (float, int):
        twin = copy.deepcopy(config)
        node = twin
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = number(node[path[-1]])
        out = tmp_path / number.__name__
        cfg = _write_config(tmp_path / f"{number.__name__}.json", twin)
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        outputs.append([(out / f"bounds_{kind}").read_bytes()
                        for kind in ("result.csv", "meta.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", list(PAIR_KERNEL_CASES))
def test_pair_kernel_cases(tmp_path, capsys, name):
    command, config = PAIR_KERNEL_CASES[name]
    cfg = _write_config(tmp_path / "c.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_curve_csv(tmp_path / f"{command}_result.csv")
    for r in rows:
        assert r[1] <= r[2]
        if config.get("inference") == WALD:
            assert r[3] < r[1] and r[4] > r[2]


@pytest.mark.parametrize("name", list(RANK_RULE_CASES))
def test_rank_rule_cases(tmp_path, capsys, name):
    command, config = RANK_RULE_CASES[name]
    cfg = _write_config(tmp_path / "c.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_curve_csv(tmp_path / f"{command}_result.csv")
    assert rows[0][1] == pytest.approx(rows[0][2], abs=1e-12)
    for r in rows:
        assert r[1] <= r[2]


def test_panel_cases_cover_every_panel_route():
    panel = {key for key, r in ROUTES.items() if r.panel}
    assert panel == {("propensity", method) for method in PANEL_METHODS}


@pytest.mark.parametrize("method", PANEL_METHODS)
def test_every_panel_route(tmp_path, capsys, method):
    cfg = _write_config(tmp_path / "hulc.json", case(f"panel-route-{method}"))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "hulc")]) == 0
    meta = json.loads((tmp_path / "hulc" / "bounds_meta.json").read_text())
    assert meta["flags"] == ["heuristic CI"]
    rows = _read_curve_csv(tmp_path / "hulc" / "bounds_result.csv")
    assert rows[0][1] == pytest.approx(rows[0][2], abs=1e-12)
    assert all(r[3] <= r[1] + 1e-12 and r[2] <= r[4] + 1e-12 for r in rows)

    capsys.readouterr()
    cfg = _write_config(tmp_path / "wald.json", panel_config(method, inference=WALD))
    with _counting_fits_and_routes() as (fits, calls):
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "wald")]) == 2
    assert "wald" in capsys.readouterr().err
    assert _call_counts(fits, calls) == (0, 0)


def test_panel_fit(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", case("fit-panel"))
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "fit_result.csv").read_text().strip().split("\n")
    assert lines[0] == "coord,estimate,se" and len(lines) == 3


@pytest.mark.parametrize("sens", [
    {"method": "conditional-quantile"},
    {"method": "homotopy-exact", "constraint": "conditional"},
    {"method": "homotopy-linearized", "constraint": "conditional"},
], ids=lambda sens: sens["method"])
def test_empirical_quantiles_on_continuous_data_exit_2(tmp_path, capsys, sens):
    # every (a, x) cell of gauss-line holds one unit, where the per-cell rank
    # rule would put 1/gamma on every unit
    config = {**bounds_config(100, **sens), "nuisance": {
        "in_sample": True, "quantile_method": "empirical"}}
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "more than one unit" in err


@pytest.mark.parametrize("method", ["homotopy-exact", "homotopy-linearized"])
def test_panel_conditional_constraint_exits_2(tmp_path, capsys, method):
    # panel weights carry no quantile fits, so only the marginal constraint runs
    config = panel_config(method)
    config["sensitivity"]["constraint"] = "conditional"
    cfg = _write_config(tmp_path / "c.json", config)
    with _counting_fits_and_routes() as (fits, calls):
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: panel weights carry no quantile fits" in capsys.readouterr().err
    assert _call_counts(fits, calls) == (0, 0)


@pytest.mark.parametrize("method,constraint", [
    ("marginal-quantile", "conditional"),
    ("local", "conditional"),
    ("coordinate-ascent", "conditional"),
    ("parametric", "conditional"),
    ("conditional-quantile", "marginal"),
])
def test_constraint_that_the_route_does_not_run_exits_2(tmp_path, capsys, method, constraint):
    # a route with one constraint would otherwise run it and record the other in the meta file
    cfg = _write_config(tmp_path / "c.json", bounds_config(method=method, constraint=constraint))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"constraint {constraint!r}" in err
    assert not (tmp_path / "bounds_result.csv").exists()


@pytest.mark.parametrize("sens,unread", [
    ({"n_orderings": 3, "inner_iterations": 7, "delta": 0.5},
     "delta 0.5, inner_iterations 7, n_orderings 3"),
    ({"method": "conditional-quantile", "constraint": "conditional"}, "constraint 'conditional'"),
    ({"method": "homotopy-exact", "n_orderings": 2}, "n_orderings 2"),
    ({"method": "coordinate-ascent", "epsilon": 0.5}, "epsilon 0.5"),
    ({"method": "parametric", "a0": 0.5}, "a0 0.5"),
    ({"family": "outcome", "method": "linear", "grid": [0.0, 0.5], "epsilon": 0.5},
     "epsilon 0.5"),
    ({"method": "linear-curve", "a0": 0.5, "coord": 0}, "coord 0"),
    ({"family": "outcome", "method": "curve", "grid": [0.0, 0.5], "a0": 0.5, "coord": 1},
     "coord 1"),
    ({"family": "subset-propensity", "method": "theta", "grid": [0.0, 0.5], "gamma": 2.0,
      "a0": 0.5, "coord": 1}, "coord 1"),
], ids=["marginal-quantile", "conditional-quantile", "homotopy-exact", "coordinate-ascent",
        "parametric", "outcome-linear", "linear-curve", "outcome-curve", "subset-theta"])
def test_sensitivity_key_that_the_route_does_not_read_exits_2(tmp_path, capsys, sens, unread):
    # an unread key would otherwise be ignored and still recorded in the meta file
    cfg = _write_config(tmp_path / "c.json", bounds_config(**sens))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"does not read {unread}" in err
    assert not (tmp_path / "bounds_meta.json").exists()


@pytest.mark.parametrize("family,knob", [("propensity", "delta"), ("outcome", "gamma")])
def test_curve_knob_of_the_other_family_exits_2(tmp_path, capsys, family, knob):
    # each curve reads its own family's knob; the other would be recorded unread
    sens = {"family": family, "gamma": 1.5, "delta": 0.7, "a0_grid": [0.0, 1.0]}
    cfg = _write_config(tmp_path / "c.json", curve_config(sens))
    assert main(["curve", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{family} curve does not read {knob} {sens[knob]!r}" in err
    assert not (tmp_path / "curve_meta.json").exists()


@pytest.mark.parametrize("sens,message", [
    ({"method": "conditional-quantile"},
     "unknown panel bounds method 'conditional-quantile'"),
    ({"method": "parametric"}, "unknown panel bounds method 'parametric'"),
    ({"family": "outcome", "method": "linear", "grid": [0.0, 0.5]},
     "panel bounds support the propensity family only"),
], ids=["conditional-quantile", "parametric", "outcome"])
def test_panel_rejects_static_only_routes(tmp_path, capsys, sens, message):
    config = panel_config()
    config["sensitivity"].update(sens)
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_cumulative_panel_model_rejects_degree(tmp_path, capsys):
    config = case("fit-panel")
    config["model"]["degree"] = 4
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: cumulative-panel model takes no degree" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["marginal-quantile", "local", "homotopy-exact"])
def test_panel_grid_starts_at_gamma_1(tmp_path, capsys, method):
    config = case("bounds-panel")
    config["sensitivity"].update(method=method, grid=[1.5, 2.0])
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: propensity grids must start at gamma = 1" in capsys.readouterr().err


def _readme_routes():
    """The routes that the README's "Methods per family" table and panel
    sentence name: ({family: (knob, start)}, {(family, method): keys},
    {panel methods})."""
    text = README.read_text()
    table = text.split("Methods per family for `bounds`:", 1)[1].split("\n\n")[1]
    grids, routes = {}, {}
    for line in table.splitlines()[2:]:
        family_cell, grid_cell, methods_cell = line.strip("|").split("|")
        family = re.fullmatch(r" `([\w-]+)` ", family_cell).group(1)
        knob, start = re.fullmatch(r" (\w+), from (\S+) ", grid_cell).groups()
        grids[family] = (knob, float(start))
        methods, _, fixed = methods_cell.partition(";")
        fixed_keys = tuple(re.findall(r"fixed `(\w+)`", fixed))
        for item in methods.split(","):
            method = re.search(r"`([\w-]+)`", item).group(1)
            routes[family, method] = fixed_keys + tuple(re.findall(r"needs `(\w+)`", item))
    prose = " ".join(text.split())
    sentence = re.search(
        r"Panel data supports the propensity family with the (.*?) methods\.", prose
    ).group(1)
    propensity = [m for f, m in routes if f == "propensity"]
    panel = set()
    for pattern in re.findall(r"`([\w*-]+)`", sentence):
        panel |= {m for m in propensity if re.fullmatch(pattern.replace("*", ".*"), m)}
    return grids, routes, panel


def test_readme_names_the_route_table():
    grids, routes, panel = _readme_routes()
    assert grids == {family: (f.knob, f.start) for family, f in FAMILIES.items()}
    assert routes == {key: r.keys for key, r in ROUTES.items()}
    assert panel == {method for (family, method), r in ROUTES.items() if r.panel}


def test_unknown_dgp_exits_2(tmp_path, capsys):
    config = _fit_config()
    config["data"] = {"dgp": {"name": "no-such-dgp"}}
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_missing_csv_exits_3(tmp_path, capsys):
    config = _fit_config()
    config["data"] = {"csv": {"path": str(tmp_path / "nope.csv")}}
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_degenerate_data_exits_4(tmp_path, capsys):
    rows = ["a,y"] + [f"2.0,{v}" for v in np.linspace(0, 1, 30)]
    (tmp_path / "const.csv").write_text("\n".join(rows) + "\n")
    config = bounds_config()
    config["data"] = {"csv": {"path": str(tmp_path / "const.csv")}}
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 4


def test_treatment_level_missing_from_a_training_fold_exits_3(tmp_path, capsys):
    # one unit at a = 2: the fold that holds it is scored by a propensity model
    # trained on the other fold, which has only the levels 0 and 1
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, 60).astype(float)
    a = rng.integers(0, 2, 60).astype(float)
    a[7] = 2.0
    y = a + x + rng.standard_normal(60)
    rows = ["y,a,x"] + [f"{yi!r},{ai!r},{xi!r}" for yi, ai, xi in zip(y.tolist(), a.tolist(),
                                                                     x.tolist())]
    (tmp_path / "levels.csv").write_text("\n".join(rows) + "\n")
    config = {
        **bounds_config(grid=[1, 2]),
        "data": {"csv": {"path": str(tmp_path / "levels.csv"), "x": ["x"]}},
        "nuisance": {"folds": 2, "propensity_method": "discrete"},
        "inference": HULC,
    }
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: treatment value 2 is not among the levels [0.0, 1.0]")
    assert "in-sample nuisances (nuisance.in_sample) fit every level" in err
    config["nuisance"] = {"in_sample": True, "propensity_method": "discrete"}
    cfg = _write_config(tmp_path / "c2.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "in")]) == 0


# Routes that read the pseudo-outcome s or kappa-hat, at gamma = 1: s = y and
# kappa-hat = mu-hat, so the two sides coincide.
NULL_KNOB_CASES = {
    "parametric": ("bounds", {**bounds_config(80, method="parametric", grid=[1.0]),
                              "nuisance": FOLDS, "inference": WALD}),
    "linear-curve": ("bounds", {**bounds_config(method="linear-curve", grid=[1.0], a0=0.5),
                                "nuisance": FOLDS, "inference": WALD}),
    "curve": ("curve", curve_config({"family": "propensity", "gamma": 1.0,
                                     "a0_grid": [-1.0, 0.0, 1.0]},
                                    nuisance=FOLDS, inference=WALD)),
    "subset-theta": ("bounds", bounds_config(family="subset-propensity", method="theta",
                                             grid=[0.0, 0.5, 1.0], gamma=1.0, a0=0.5)),
    "subset-parametric": ("bounds", {
        **bounds_config(family="subset-propensity", method="parametric",
                        grid=[0.0, 0.5, 1.0], gamma=1.0),
        "nuisance": FOLDS}),
}


@pytest.mark.parametrize("name", NULL_KNOB_CASES)
def test_null_knob_gives_equal_sides(tmp_path, capsys, name):
    command, config = NULL_KNOB_CASES[name]
    cfg = _write_config(tmp_path / "c.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_curve_csv(tmp_path / f"{command}_result.csv")
    assert rows and all(r[1] == r[2] for r in rows)


def _counting(owner, name):
    """Patch ``owner.name`` with a wrapper that counts its calls and calls through."""
    original = getattr(owner, name)
    return mock.patch.object(owner, name, autospec=True, side_effect=original)


def test_null_knob_fits_no_quantile_and_no_kappa(tmp_path, capsys):
    config = {**bounds_config(80, method="parametric", grid=[1.0]),
              "nuisance": FOLDS, "inference": HULC}
    cfg = _write_config(tmp_path / "c.json", config)
    with _counting(nuisance.PinballQuantileFit, "_fit_one") as fit_one, \
            _counting(nuisance, "clipped_pseudo_outcome") as pseudo, \
            _counting(nuisance, "fit_outcome") as outcome, \
            _counting(nuisance, "_outcome_fit") as regressions:
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path), "--workers", "1"]) == 0
    assert fit_one.call_count == pseudo.call_count == 0
    # the one outcome fit per bundle is the only regression: no kappa-hat
    assert regressions.call_count == outcome.call_count > 0


# every nuisance fit: propensity, outcome regression, quantile model and pinball quantile
NUISANCE_FITS = [(nuisance, "fit_propensity"), (nuisance, "_outcome_fit"),
                 (nuisance, "fit_quantile"), (nuisance.PinballQuantileFit, "_fit_one")]


@contextlib.contextmanager
def _counting_fits_and_routes():
    """Count the calls of every nuisance fit and of every route's library call;
    yields (fits, calls): a counter per NUISANCE_FITS entry and per ROUTES key."""
    with contextlib.ExitStack() as stack:
        fits = [stack.enter_context(_counting(*fit)) for fit in NUISANCE_FITS]
        calls = {key: mock.Mock(side_effect=route.call) for key, route in ROUTES.items()}
        stack.enter_context(mock.patch.dict(
            ROUTES, {key: route._replace(call=calls[key]) for key, route in ROUTES.items()}))
        yield fits, calls


def _call_counts(fits, calls):
    """(nuisance fits, route calls) made under ``_counting_fits_and_routes``."""
    return (sum(fit.call_count for fit in fits),
            sum(call.call_count for call in calls.values()))


@pytest.mark.parametrize("config,message", [
    ({**bounds_config(), "nuisance": FOLDS, "inference": WALD},
     "wald intervals are unavailable for method 'marginal-quantile'"),
    ({**bounds_config(23, method="parametric"), "nuisance": FOLDS, "inference": HULC},
     "hulc needs at least 24 units for 6 subsamples, have 23"),
    # 100 units make blocks of 16 and 17, each cross-fitted on its own folds
    ({**bounds_config(100, method="parametric"), "nuisance": {"folds": 17}, "inference": HULC},
     "17 folds need 17 units in every hulc block, the smallest has 16"),
], ids=["wald-without-variances", "hulc-below-24-units", "hulc-blocks-below-the-folds"])
def test_interval_config_errors_come_before_any_fit(tmp_path, capsys, config, message):
    cfg = _write_config(tmp_path / "c.json", config)
    with _counting_fits_and_routes() as (fits, calls):
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path), "--workers", "1"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert _call_counts(fits, calls) == (0, 0)


def _with(config, path, value):
    """A copy of ``config`` with ``value`` at the key path ``path``."""
    config = copy.deepcopy(config)
    node = config
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return config


def _dgp_params(name="gauss-line", **params):
    """bounds_config, or panel_config for panel-mix, on generator ``name`` with
    ``params`` and no data.dgp.n, so that the params' n is the one read."""
    config = panel_config() if name == "panel-mix" else bounds_config()
    config["data"]["dgp"] = {"name": name, "seed": 1, "params": params}
    return config


# name -> (config, extra arguments, exit code, start of the message); each of
# these ended in a traceback, was accepted, or exited 2 with a numpy message
# through a catch-all of ValueError and TypeError
PROBES = {
    "dgp-slope-string": (_dgp_params(slope="x"), [], 2,
                         "config error: dgp 'gauss-line' param 'slope' must be a finite number"),
    "dgp-slope-list": (_dgp_params(slope=[1, 2]), [], 2,
                       "config error: dgp 'gauss-line' param 'slope' must be a finite number"),
    "dgp-n-string": (_dgp_params(n="a"), [], 2,
                     "config error: dgp 'gauss-line' param 'n' must be an integer >= 2"),
    "dgp-unknown-param": (_dgp_params(bogus=1), [], 2,
                          "config error: dgp 'gauss-line' takes no param 'bogus'"),
    "panel-T-string": (_dgp_params("panel-mix", T="x"), [], 2,
                       "config error: dgp 'panel-mix' param 'T' must be an integer >= 1"),
    "panel-T-negative": (_dgp_params("panel-mix", T=-1), [], 2,
                         "config error: dgp 'panel-mix' param 'T' must be an integer >= 1"),
    "panel-T-zero": (_dgp_params("panel-mix", T=0), [], 2,
                     "config error: dgp 'panel-mix' param 'T' must be an integer >= 1"),
    "panel-T-fraction": (_dgp_params("panel-mix", T=1.5), [], 2,
                         "config error: dgp 'panel-mix' param 'T' must be an integer >= 1"),
    "panel-effect-string": (_dgp_params("panel-mix", effect="x"), [], 2,
                            "config error: dgp 'panel-mix' param 'effect' must be a finite"),
    "dgp-seed": (_with(bounds_config(), ("data", "dgp", "seed"), -1), [], 2,
                 "config error: config/data/dgp/seed: -1 is less than the minimum of 0"),
    "nuisance-seed": (_with({**bounds_config(), "nuisance": FOLDS}, ("nuisance", "seed"), -1),
                      [], 2, "config error: config/nuisance/seed: -1 is less than the minimum"),
    "inference-seed": (_with({**bounds_config(), "inference": HULC}, ("inference", "seed"), -1),
                       [], 2, "config error: config/inference/seed: -1 is less than the minimum"),
    "config-seed": (_with(bounds_config(), ("seed",), -1), [], 2,
                    "config error: config/seed: -1 is less than the minimum of 0"),
    "argument-seed": (bounds_config(), ["--seed", "-1"], 2,
                      "config error: --seed must be non-negative, got -1"),
    "csv-directory": (_with(bounds_config(), ("data",), {"csv": {"path": "."}}), [], 3,
                      "data error: cannot read .: Is a directory"),
    "grid-of-1e12-points": (
        bounds_config(grid={"start": 1.0, "stop": 1e3, "step": 1e-9}), [], 2,
        "config error: grid has about 9.99e+11 points, more than 1000000"),
    "grid-step-underflow": (
        bounds_config(grid={"start": 1.0, "stop": 1e308, "step": 1e-300}), [], 2,
        "config error: grid has about inf points"),
    "grid-below-gamma-1": (bounds_config(method="local", grid=[1 - 1e-13, 2.0]), [], 2,
                           "config error: propensity grids must start at gamma = 1"),
    "grid-above-epsilon-1": (
        bounds_config(family="subset-propensity", method="linear", grid=[0.0, 2.0], gamma=2.0),
        [], 2, "config error: subset-propensity grids must end at epsilon <= 1"),
}


@pytest.mark.parametrize("name", PROBES)
def test_probed_config_errors_come_before_any_fit(tmp_path, capsys, name):
    config, extra, code, message = PROBES[name]
    cfg = _write_config(tmp_path / "c.json", config)
    with _counting_fits_and_routes() as (fits, calls):
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path), *extra]) == code
    assert capsys.readouterr().err.startswith(message)
    assert _call_counts(fits, calls) == (0, 0)


@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_stray_library_error_propagates_out_of_main(tmp_path, capsys, error):
    # only the package's typed errors are exit codes; any other exception is a bug
    # of the program, not a config error, and leaves main as a traceback
    route = ROUTES["propensity", "local"]
    stray = route._replace(call=mock.Mock(side_effect=error("stray library error")))
    cfg = _write_config(tmp_path / "c.json", bounds_config(method="local"))
    with mock.patch.dict(ROUTES, {("propensity", "local"): stray}):
        with pytest.raises(error, match="stray library error"):
            main(["bounds", "--config", cfg, "--out", str(tmp_path)])
    assert capsys.readouterr().err == ""


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["bounds", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {tmp_path}")
    (tmp_path / "c.json").write_bytes(json.dumps(bounds_config()).encode() + b"\xe9")
    assert main(["bounds", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]) == 2
    assert "config error: cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["file", "env"])
def test_overflowing_number_in_config_exits_2_before_any_fit(tmp_path, capsys, monkeypatch,
                                                             where):
    # 1e400 parses as inf: it passed the schema, reached the rank rules and
    # exited 2 through the catch-all with "cannot convert float NaN to integer"
    text = json.dumps({**bounds_config(grid=[1.0, 2.5]), "nuisance": FOLDS})
    if where == "file":
        assert text.count("[1.0, 2.5]") == 1
        text = text.replace("[1.0, 2.5]", "[1.0, 1e400]")
    else:
        monkeypatch.setenv("MSMBOUNDS_SENSITIVITY__GRID", "[1, 1e400]")
    (tmp_path / "c.json").write_text(text)
    with contextlib.ExitStack() as stack:
        fits = [stack.enter_context(_counting(*fit)) for fit in NUISANCE_FITS]
        assert main(["bounds", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path),
                     "--workers", "1"]) == 2
    assert "config error: config holds the non-finite number 1e400" in capsys.readouterr().err
    assert [fit.call_count for fit in fits] == [0] * len(NUISANCE_FITS)


def test_rank_rule_in_sample_fits_no_outcome_or_quantile(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", case("bounds-hulc"))
    with _counting(nuisance, "fit_outcome") as outcome, \
            _counting(nuisance, "fit_quantile") as quantile:
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path), "--workers", "1"]) == 0
    assert outcome.call_count == quantile.call_count == 0


def test_asymmetric_covariance_is_a_numerical_error(tmp_path, capsys):
    # a degree-5 fit on doses in [2.0, 2.5] is so ill-conditioned that its
    # sandwich covariance comes out asymmetric: a numerical failure, not a config error
    config = {"data": {"dgp": {"name": "hidden-dose", "n": 300, "seed": 0}},
              "model": {"kind": "polynomial", "degree": 5},
              "nuisance": {"in_sample": True}}
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "numerical error" in err and "covariance must be symmetric" in err


def _python(code):
    """The last stdout line of ``code`` run in a fresh interpreter on this copy of msmbounds."""
    import msmbounds

    src = str(Path(msmbounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_wald_curve_leaves_scipy_stats_unimported(tmp_path):
    # the Wald z comes from the standard library's normal quantile
    cfg = _write_config(tmp_path / "c.json", case("curve-propensity-poly2-wald"))
    code = ("import sys; from msmbounds.cli import main; "
            f"rc = main(['curve', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    assert _python(code) == "0 []"
    assert _read_curve_csv(tmp_path / "curve_result.csv")[0][3] is not None


def test_non_utf8_csv_exits_3_naming_the_byte(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    rows = ["a,y"] + [f"{v},{2 * v}" for v in np.linspace(0, 1, 30)] + ["0.5,caf\u00e9"]
    path.write_bytes(("\n".join(rows) + "\n").encode("latin-1"))
    config = bounds_config()
    config["data"] = {"csv": {"path": str(path)}}
    cfg = _write_config(tmp_path / "c.json", config)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    offset = len(("\n".join(rows[:-1]) + "\n0.5,caf").encode("latin-1"))
    assert f"{path} is not UTF-8: byte 0xe9 at offset {offset}" in err
    assert "config error" not in err


def test_missing_config_flag_exits_2(tmp_path, capsys):
    assert main(["bounds", "--out", str(tmp_path)]) == 2


def test_env_override_sets_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MSMBOUNDS_SEED", "123")
    cfg = _write_config(tmp_path / "c.json", _fit_config())
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "fit_meta.json").read_text())
    assert meta["seed"] == 123


def test_env_override_bad_descent_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MSMBOUNDS_MODEL__KIND__DEEPER", "1")
    cfg = _write_config(tmp_path / "c.json", _fit_config())
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2


def _outcome_shift_config(delta):
    sens = {**ROUTE_SENSITIVITY["subset-outcome", "outcome-shift"], "delta": delta}
    return bounds_config(family="subset-outcome", method="outcome-shift", **sens)


@pytest.mark.parametrize("delta", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_number_in_config_exits_2(tmp_path, capsys, delta):
    # json reads NaN and +-Infinity, and a schema minimum lets NaN and Infinity
    # through; delta = Infinity ran and wrote an empty cell for every bound
    cfg = _write_config(tmp_path / "c.json", _outcome_shift_config(delta))
    constant = json.dumps(delta)
    assert constant in Path(cfg).read_text()
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"non-finite number {constant}" in capsys.readouterr().err


def test_non_finite_env_override_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MSMBOUNDS_SENSITIVITY__DELTA", "Infinity")
    cfg = _write_config(tmp_path / "c.json", _outcome_shift_config(0.5))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "non-finite number Infinity" in capsys.readouterr().err


def test_oracle_check_deterministic_across_workers(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", case("oracle-check"))
    out1, out2, out3 = tmp_path / "w1", tmp_path / "w2", tmp_path / "w1b"
    for out, workers in ((out1, "1"), (out2, "2"), (out3, "1")):
        code = main(["oracle-check", "--config", cfg,
                     "--out", str(out), "--workers", workers])
        assert code == 0
    r1 = (out1 / "oracle_report.json").read_bytes()
    assert r1 == (out2 / "oracle_report.json").read_bytes()
    assert r1 == (out3 / "oracle_report.json").read_bytes()
    report = json.loads(r1)
    assert report["all_pass"]
    assert len(report["blocks"]) == 3


def _simulate_config(tmp_path):
    return _write_config(tmp_path / "c.json",
                         {"dgp": {"name": "gauss-line", "n": 20, "seed": 0}})


def test_console_script_runs(tmp_path):
    # The ``msmbounds`` command, run as its own process from a checkout
    # without an install: ``python -m msmbounds`` must be the very entry
    # point that the installed console script calls.
    import msmbounds
    import msmbounds.__main__
    import msmbounds.cli

    assert msmbounds.__main__.main is msmbounds.cli.main
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'msmbounds = "msmbounds.cli:main"' in pyproject.read_text()

    cfg = _simulate_config(tmp_path)
    # The package's parent goes first on the child's path, absolute, so the
    # child imports this copy of msmbounds whatever its working directory.
    src = str(Path(msmbounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "msmbounds", "simulate",
         "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "simulated.csv").exists()


@pytest.mark.skipif(shutil.which("msmbounds") is None,
                    reason="msmbounds console script not on PATH "
                           "(package not installed)")
def test_installed_console_script_runs(tmp_path):
    script = shutil.which("msmbounds")
    cfg = _simulate_config(tmp_path)
    proc = subprocess.run(
        [script, "simulate", "--config", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "simulated.csv").exists()


def test_cli_import_loads_no_scipy_solver_or_stats(tmp_path):
    # scipy is a test dependency only: a nonlinear-grid bounds run and a Wald
    # curve in a fresh interpreter leave no scipy module behind
    bounds = _write_config(tmp_path / "bounds.json", route_config("outcome", "nonlinear-grid"))
    curve = _write_config(tmp_path / "curve.json", case("curve-propensity-poly2-wald"))
    code = ("import sys; from msmbounds.cli import main; "
            f"rc = [main(['bounds', '--config', {bounds!r}, '--out', {str(tmp_path)!r}]), "
            f"main(['curve', '--config', {curve!r}, '--out', {str(tmp_path)!r}])]; "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python(code) == "[0, 0] []"


def test_cli_import_loads_no_jsonschema_multiprocessing_or_scipy():
    # the config validator is the CLI's own, and only an oracle-check pool
    # imports multiprocessing
    code = ("import sys, msmbounds.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('jsonschema', 'multiprocessing', 'scipy')))")
    assert _python(code) == "[]"


def test_bounds_runs_where_jsonschema_cannot_be_imported(tmp_path):
    cfg = _write_config(tmp_path / "c.json", bounds_config(40, grid=[1.0, 2.0]))
    code = ("import sys; sys.modules['jsonschema'] = None; from msmbounds.cli import main; "
            f"print(main(['bounds', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]))")
    assert _python(code) == "0"
