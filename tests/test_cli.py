"""CLI behavior: configs, exit codes, outputs, reproducibility."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msmbounds.cli import FAMILIES, ROUTES, main

from cli_cases import (
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
    ("outcome", "nonlinear-grid"): ["conservative box", "heuristic CI"],
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


@pytest.mark.parametrize("route", list(HULC_FLAGS), ids="/".join)
def test_every_static_route(tmp_path, capsys, route):
    family, method = route
    cfg = _write_config(tmp_path / "hulc.json", case(f"route-{family}-{method}"))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "hulc")]) == 0
    meta = json.loads((tmp_path / "hulc" / "bounds_meta.json").read_text())
    assert meta["flags"] == HULC_FLAGS[route]
    rows = _read_curve_csv(tmp_path / "hulc" / "bounds_result.csv")
    assert all(r[3] <= r[1] + 1e-12 and r[2] <= r[4] + 1e-12 for r in rows)

    capsys.readouterr()
    cfg = _write_config(tmp_path / "wald.json", route_config(family, method, WALD))
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "wald")])
    if route in WALD_ROUTES:
        assert code == 0
        rows = _read_curve_csv(tmp_path / "wald" / "bounds_result.csv")
        assert all(r[3] < r[1] and r[4] > r[2] for r in rows)
    else:
        assert code == 2
        assert "wald" in capsys.readouterr().err


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
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "wald")]) == 2
    assert "wald" in capsys.readouterr().err


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
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


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
    ({"n_orderings": 3, "inner_iterations": 7, "lp_filter": True},
     "inner_iterations 7, lp_filter True, n_orderings 3"),
    ({"method": "conditional-quantile", "constraint": "conditional"}, "constraint 'conditional'"),
    ({"method": "homotopy-exact", "n_orderings": 2}, "n_orderings 2"),
    ({"method": "coordinate-ascent", "grid_res": 5}, "grid_res 5"),
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


def test_oracle_check_deterministic_across_workers(tmp_path, capsys):
    config = {"instances": 12, "tiny_instances": 2}
    cfg = _write_config(tmp_path / "c.json", config)
    out1, out2, out3 = tmp_path / "w1", tmp_path / "w2", tmp_path / "w1b"
    for out, workers in ((out1, "1"), (out2, "2"), (out3, "1")):
        code = main(["oracle-check", "--config", cfg, "--seed", "7",
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
