"""Command-line front end.

Subcommands: fit | bounds | curve | simulate | oracle-check. Every run is
driven by a JSON config validated against a published schema (unknown keys
rejected), with environment overrides via MSMBOUNDS_SECTION__KEY. Outputs
are plot-ready CSV curves plus a JSON metadata sidecar; identical config
and seed produce byte-identical files regardless of worker count.

``bounds`` looks its (family, method) up in one table, ``ROUTES``: each
route's library call, the sensitivity keys it needs and the optional ones
it reads (any other key is a config error), its caveat flags, whether HulC
around it is flagged "heuristic CI" and whether it takes panel data.
``FAMILIES`` holds each family's grid knob, grid start and spec.
``curve`` runs the a0 route of its family over an a0 grid; both commands
share one body.

Panel data runs the routes marked ``panel`` through the static code: one
confounding weight per trajectory reduces it to the static problem on (path
features, product weight, outcome), and the fixed-weight nuisance adapter
serves the product weights of ``panel_weights``.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

import argparse
import json
import multiprocessing
import os
import sys
from collections import namedtuple

import jsonschema
import numpy as np
import scipy

from . import __version__
from ._ranks import lower_mass_v, upper_mass_v
from .data import PanelDataset, load_csv, load_panel_csv, save_csv
from .datagen import DgpSpec, generate
from .errors import (
    ConfigError,
    DataError,
    MsmBoundsError,
    NumericalError,
    UsageError,
)
from .gamma import (
    GammaSpec,
    conditional_quantile_beta_bounds,
    fit_parametric_bounds,
    linear_curve_bounds,
    local_beta_bounds,
    marginal_quantile_beta_bounds,
    marginal_quantile_grid_bounds,
)
from .homotopy import coordinate_ascent_bounds, homotopy_bounds
from .inference import HulcSpec, subsample_partition, wald_ci
from .msm import fit_msm, polynomial_msm
from .nuisance import CrossFit, NuisanceConfig, SelfFit, fixed_weight_nuisances
from .oracles import oracle_exhaustive_beta_bound, oracle_linear_box_mean
from .outcome import (
    DeltaSpec,
    outcome_beta_bounds_linear,
    outcome_curve_bounds,
    outcome_nonlinear_grid_bounds,
    outcome_parametric_bounds,
)
from .panel import cumulative_panel_msm, panel_weights
from .subset import (
    EpsilonSpec,
    subset_independent_bounds,
    subset_linear_beta_bounds,
    subset_outcome_beta_bounds,
    subset_parametric_bounds,
    subset_theta_bounds,
)

ENV_PREFIX = "MSMBOUNDS_"
QUANTILE_CONVENTION = "type-1 inverse CDF, ties toward the lower index"

_GRID = {
    "oneOf": [
        {"type": "array", "items": {"type": "number"}, "minItems": 1},
        {
            "type": "object",
            "properties": {
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "step": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["start", "stop", "step"],
            "additionalProperties": False,
        },
    ]
}

_DATA = {
    "type": "object",
    "additionalProperties": False,
    "minProperties": 1,
    "maxProperties": 1,
    "properties": {
        "dgp": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "n": {"type": "integer", "minimum": 2},
                "seed": {"type": "integer"},
                "params": {"type": "object"},
            },
        },
        "csv": {
            "type": "object",
            "additionalProperties": False,
            "required": ["path"],
            "properties": {
                "path": {"type": "string"},
                "y": {"type": "string"},
                "a": {"type": "string"},
                "x": {"type": "array", "items": {"type": "string"}},
            },
        },
        "panel_csv": {
            "type": "object",
            "additionalProperties": False,
            "required": ["path"],
            "properties": {
                "path": {"type": "string"},
                "id": {"type": "string"},
                "t": {"type": "string"},
                "y": {"type": "string"},
                "a": {"type": "string"},
                "x": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}

_MODEL = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["polynomial", "cumulative-panel"]},
        "degree": {"type": "integer", "minimum": 0, "maximum": 6},
    },
}

_NUISANCE = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "outcome_method": {"enum": ["linear", "kernel"]},
        "outcome_degree": {"type": "integer", "minimum": 1},
        "bandwidth_scale": {"type": "number", "exclusiveMinimum": 0},
        "propensity_method": {"enum": ["gaussian", "discrete"]},
        "propensity_clip": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "quantile_method": {"enum": ["pinball", "empirical"]},
        "quantile_degree": {"type": "integer", "minimum": 1},
        "weight_flavor": {"enum": ["stabilized", "unstabilized"]},
        "folds": {"type": "integer", "minimum": 2},
        "in_sample": {"type": "boolean"},
        "seed": {"type": "integer"},
    },
}

_INFERENCE = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["none", "wald", "hulc"]},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "seed": {"type": "integer"},
    },
}

_SENSITIVITY = {
    "type": "object",
    "additionalProperties": False,
    "required": ["family", "method", "grid"],
    "properties": {
        "family": {
            "enum": [
                "propensity",
                "outcome",
                "subset-propensity",
                "subset-outcome",
                "subset-independent",
            ]
        },
        "method": {"type": "string"},
        "grid": _GRID,
        "coord": {"type": "integer", "minimum": 0},
        "a0": {"type": "number"},
        "gamma": {"type": "number", "minimum": 1},
        "delta": {"type": "number", "minimum": 0},
        "epsilon": {"type": "number", "minimum": 0, "maximum": 1},
        "constraint": {"enum": ["marginal", "conditional"]},
        "inner_iterations": {"type": "integer", "minimum": 1},
        "n_orderings": {"type": "integer", "minimum": 1},
        "grid_res": {"type": "integer", "minimum": 2},
        "lp_filter": {"type": "boolean"},
    },
}

SCHEMAS = {
    "fit": {
        "type": "object",
        "additionalProperties": False,
        "required": ["data", "model"],
        "properties": {
            "data": _DATA,
            "model": _MODEL,
            "nuisance": _NUISANCE,
            "seed": {"type": "integer"},
        },
    },
    "bounds": {
        "type": "object",
        "additionalProperties": False,
        "required": ["data", "model", "sensitivity"],
        "properties": {
            "data": _DATA,
            "model": _MODEL,
            "nuisance": _NUISANCE,
            "sensitivity": _SENSITIVITY,
            "inference": _INFERENCE,
            "seed": {"type": "integer"},
        },
    },
    "curve": {
        "type": "object",
        "additionalProperties": False,
        "required": ["data", "model", "sensitivity"],
        "properties": {
            "data": _DATA,
            "model": _MODEL,
            "nuisance": _NUISANCE,
            "sensitivity": {
                "type": "object",
                "additionalProperties": False,
                "required": ["family", "a0_grid"],
                "properties": {
                    "family": {"enum": ["propensity", "outcome"]},
                    "gamma": {"type": "number", "minimum": 1},
                    "delta": {"type": "number", "minimum": 0},
                    "a0_grid": _GRID,
                },
            },
            "inference": _INFERENCE,
            "seed": {"type": "integer"},
        },
    },
    "simulate": {
        "type": "object",
        "additionalProperties": False,
        "required": ["dgp"],
        "properties": {
            "dgp": _DATA["properties"]["dgp"],
            "out_name": {"type": "string"},
            "seed": {"type": "integer"},
        },
    },
    "oracle-check": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "seed": {"type": "integer"},
            "instances": {"type": "integer", "minimum": 1},
            "tiny_instances": {"type": "integer", "minimum": 1},
            "gammas": {"type": "array", "items": {"type": "number", "minimum": 1}},
        },
    },
}


def _apply_env_overrides(config):
    """MSMBOUNDS_SECTION__KEY=value sets config[section][key]; values parse as JSON."""
    for name, raw in sorted(os.environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = [seg.lower() for seg in name[len(ENV_PREFIX):].split("__") if seg]
        if not path:
            continue
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        for seg in path[:-1]:
            node = node.setdefault(seg, {})
            if not isinstance(node, dict):
                raise ConfigError(f"env override {name} descends into a non-object")
        node[path[-1]] = value
    return config


def _load_config(command, path):
    if path is None:
        raise UsageError(f"{command} requires --config PATH")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _apply_env_overrides(config)
    validator = jsonschema.Draft202012Validator(SCHEMAS[command])
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        raise ConfigError(f"config{pointer}: {err.message}")
    return config


def _parse_grid(obj):
    if isinstance(obj, dict):
        start, stop, step = obj["start"], obj["stop"], obj["step"]
        count = int(round((stop - start) / step)) + 1
        values = np.round(start + step * np.arange(count), 12)
        values = values[values <= stop + 1e-9]
    else:
        values = np.asarray(obj, dtype=float)
    if values.size == 0:
        raise ConfigError("grid is empty")
    if values.size > 1 and not np.all(np.diff(values) > 0):
        raise ConfigError("grid values must be strictly increasing")
    return values


def _make_data(cfg, default_seed):
    spec = cfg["data"]
    if "dgp" in spec:
        d = spec["dgp"]
        dgp = DgpSpec(
            name=d["name"],
            params=d.get("params", {}),
            seed=d.get("seed", default_seed),
        )
        return generate(dgp, d.get("n"))
    if "csv" in spec:
        d = spec["csv"]
        schema = {k: d[k] for k in ("y", "a", "x") if k in d}
        return load_csv(d["path"], schema)
    d = spec["panel_csv"]
    schema = {k: d[k] for k in ("id", "t", "y", "a", "x") if k in d}
    return load_panel_csv(d["path"], schema)


def _make_model(cfg, data):
    panel = isinstance(data, PanelDataset)
    spec = cfg.get("model", {"kind": "polynomial", "degree": 1})
    if spec["kind"] == "cumulative-panel":
        if not panel:
            raise ConfigError("cumulative-panel model needs panel data")
        if "degree" in spec:
            raise ConfigError("cumulative-panel model takes no degree")
        return cumulative_panel_msm()
    if panel:
        raise ConfigError("panel data needs a panel model kind")
    return polynomial_msm(spec.get("degree", 1))


def _nuisance_config(cfg):
    spec = dict(cfg.get("nuisance", {}))
    spec.pop("in_sample", None)
    spec.pop("seed", None)
    return NuisanceConfig(**spec)


def _make_nuisances(cfg, data, default_seed):
    spec = cfg.get("nuisance", {})
    nconf = _nuisance_config(cfg)
    if isinstance(data, PanelDataset):
        return fixed_weight_nuisances(data, panel_weights(data, nconf))
    if spec.get("in_sample", False):
        return SelfFit(data, nconf)
    return CrossFit(data, nconf, seed=spec.get("seed", default_seed))


def _fmt(value):
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return ""
    return f"{float(value):.17g}"


def _write_curve_csv(path, grid, lower, upper, ci_lower=None, ci_upper=None):
    lines = ["grid_value,lower,upper,ci_lower,ci_upper"]
    for i in range(len(grid)):
        lo_ci = "" if ci_lower is None else _fmt(ci_lower[i])
        hi_ci = "" if ci_upper is None else _fmt(ci_upper[i])
        lines.append(
            f"{_fmt(grid[i])},{_fmt(lower[i])},{_fmt(upper[i])},{lo_ci},{hi_ci}"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_dump(path, payload):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _metadata(command, config, seed, flags, extra=None):
    meta = {
        "command": command,
        "config": config,
        "flags": sorted(set(flags)),
        "package": "msmbounds",
        "quantile_convention": QUANTILE_CONVENTION,
        "seed": seed,
        "versions": {
            "msmbounds": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "weight_flavor": config.get("nuisance", {}).get("weight_flavor", "stabilized"),
    }
    if extra:
        meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# the route table of bounds and curve


# A sensitivity model: the knob its grid sweeps, the knob value at which the
# bounds collapse (every grid starts there), and spec(value, sensitivity
# config), its library spec at one knob value.
_Family = namedtuple("_Family", "knob start spec", defaults=(None,))


FAMILIES = {
    "propensity": _Family("gamma", 1.0, lambda v, sens: GammaSpec(v)),
    "outcome": _Family("delta", 0.0, lambda v, sens: DeltaSpec(v)),
    "subset-propensity": _Family(
        "epsilon", 0.0, lambda v, sens: EpsilonSpec(v, GammaSpec(sens["gamma"]))),
    "subset-outcome": _Family(
        "epsilon", 0.0, lambda v, sens: EpsilonSpec(v, DeltaSpec(sens["delta"]))),
    # its one route takes the whole gamma grid
    "subset-independent": _Family("gamma", 1.0),
}


# What a route runs on; for panel data ``nuis`` serves the trajectory weights.
_Run = namedtuple("_Run", "data model nuis sens coord seed")


# How ``bounds`` runs one (family, method). ``call(run, spec)`` gives one grid
# value's (lo, hi) or (lo, hi, (var_lo, var_hi)); with ``whole_grid``,
# ``call(run, grid)`` gives a trace with ``lower`` and ``upper``. Each call
# names its library routine inside a lambda, so the routine is looked up when
# it runs, not bound at import. ``keys`` are the sensitivity keys it needs and
# ``optional`` the ones it reads when given; beside family, method, grid and
# (unless ``keys`` holds a0) coord, any other key is a config error. ``flags``
# are its caveats, ``heuristic_ci`` marks HulC intervals around it as
# "heuristic CI", and ``panel`` marks the routes that take panel data.
_Route = namedtuple(
    "_Route", "call keys optional flags heuristic_ci whole_grid panel",
    defaults=((), (), (), True, False, False),
)


def _coord_bounds(estimates, coord):
    """Ordered bounds on beta[coord] and their variances from a (lower, upper)
    pair of BetaEstimates."""
    est_low, est_high = estimates
    lo, hi = est_low.beta[coord], est_high.beta[coord]
    vlo, vhi = est_low.covariance[coord, coord], est_high.covariance[coord, coord]
    return (hi, lo, (vhi, vlo)) if lo > hi else (lo, hi, (vlo, vhi))


def _homotopy(flavor):
    return _Route(lambda r, grid: homotopy_bounds(
        r.data, r.model, nuisances=r.nuis, grid=grid, flavor=flavor,
        constraint=r.sens.get("constraint", "marginal"), coord=r.coord,
        inner_iterations=r.sens.get("inner_iterations", 1),
    ), optional=("constraint", "inner_iterations"), whole_grid=True, panel=True)


_ASYMPTOTIC = ("asymptotic, rate-conditional",)

# (family, method) -> route
ROUTES = {
    ("propensity", "marginal-quantile"): _Route(
        lambda r, grid: marginal_quantile_grid_bounds(r.data, r.model, r.nuis, grid, r.coord),
        whole_grid=True, panel=True),
    ("propensity", "conditional-quantile"): _Route(
        lambda r, spec: conditional_quantile_beta_bounds(r.data, r.model, r.nuis, spec, r.coord)),
    ("propensity", "local"): _Route(
        lambda r, spec: local_beta_bounds(r.data, r.model, r.nuis, spec, r.coord),
        panel=True),
    ("propensity", "parametric"): _Route(
        lambda r, spec: _coord_bounds(
            fit_parametric_bounds(r.data, r.model, r.nuis, spec), r.coord),
        flags=_ASYMPTOTIC, heuristic_ci=False),
    ("propensity", "linear-curve"): _Route(
        lambda r, spec: linear_curve_bounds(r.data, r.model, r.nuis, spec, r.sens["a0"]),
        keys=("a0",), flags=_ASYMPTOTIC, heuristic_ci=False),
    ("propensity", "homotopy-exact"): _homotopy("exact"),
    ("propensity", "homotopy-linearized"): _homotopy("linearized"),
    ("propensity", "coordinate-ascent"): _Route(
        lambda r, grid: coordinate_ascent_bounds(
            r.data, r.model, r.nuis.weights, grid, coord=r.coord,
            n_orderings=r.sens.get("n_orderings", 3), seed=r.seed),
        optional=("n_orderings",), whole_grid=True),
    ("outcome", "linear"): _Route(
        lambda r, spec: outcome_beta_bounds_linear(r.data, r.model, r.nuis, spec, r.coord)),
    ("outcome", "parametric"): _Route(
        lambda r, spec: _coord_bounds(
            outcome_parametric_bounds(r.data, r.model, r.nuis, spec), r.coord),
        flags=_ASYMPTOTIC, heuristic_ci=False),
    ("outcome", "curve"): _Route(
        lambda r, spec: outcome_curve_bounds(r.data, r.model, r.nuis, spec, r.sens["a0"]),
        keys=("a0",), flags=_ASYMPTOTIC, heuristic_ci=False),
    ("outcome", "nonlinear-grid"): _Route(
        lambda r, spec: outcome_nonlinear_grid_bounds(
            r.data, r.model, r.nuis, spec, r.coord,
            grid_res=r.sens.get("grid_res", 7), lp_filter=r.sens.get("lp_filter", False)),
        optional=("grid_res", "lp_filter"), flags=("conservative box",)),
    ("subset-propensity", "theta"): _Route(
        lambda r, eps: subset_theta_bounds(r.data, r.nuis, eps, r.sens["a0"]),
        keys=("gamma", "a0")),
    ("subset-propensity", "parametric"): _Route(
        lambda r, eps: sorted(b.beta[r.coord] for b in subset_parametric_bounds(
            r.data, r.model, r.nuis, eps)),
        keys=("gamma",), heuristic_ci=False),
    ("subset-propensity", "linear"): _Route(
        lambda r, eps: subset_linear_beta_bounds(r.data, r.model, r.nuis, eps, r.coord),
        keys=("gamma",)),
    ("subset-outcome", "outcome-shift"): _Route(
        lambda r, eps: subset_outcome_beta_bounds(r.data, r.model, r.nuis, eps, r.coord),
        keys=("delta",), heuristic_ci=False),
    ("subset-independent", "independent"): _Route(
        lambda r, grid: subset_independent_bounds(
            r.data, r.model, r.nuis, grid, r.coord, r.sens["epsilon"]),
        keys=("epsilon",), whole_grid=True),
}


def _find_route(sens, panel):
    """The route of the config's (family, method), with its sensitivity keys checked."""
    family, method = sens["family"], sens["method"]
    if panel and family != "propensity":
        raise ConfigError("panel bounds support the propensity family only")
    route = ROUTES.get((family, method))
    if route is None or (panel and not route.panel):
        kind = "panel" if panel else family
        raise UsageError(f"unknown {kind} bounds method {method!r}")
    for key in route.keys:
        if key not in sens:
            raise ConfigError(f"{family} method {method!r} needs sensitivity.{key}")
    # a route that takes a0 bounds a curve point, not a coordinate
    coord = () if "a0" in route.keys else ("coord",)
    _reject_unread(sens, {"family", "method", "grid", *coord, *route.keys, *route.optional},
                   f"{family} method {method!r}")
    return route


def _reject_unread(sens, read, what):
    """ConfigError naming every sensitivity key outside ``read``, with its value."""
    unread = sorted(set(sens) - read)
    if unread:
        raise ConfigError(f"{what} does not read "
                          + ", ".join(f"{key} {sens[key]!r}" for key in unread))


def _make_run(data, config, seed):
    sens = config["sensitivity"]
    model = _make_model(config, data)
    coord = sens.get("coord", 1 if model.dim > 1 else 0)
    if coord >= model.dim:
        raise ConfigError(f"coord {coord} out of range for a {model.dim}-column model")
    return _Run(data, model, _make_nuisances(config, data, seed), sens, coord, seed)


def _grid_results(results):
    """(lower, upper, variances) arrays from per-grid-value (lo, hi) or
    (lo, hi, (var_lo, var_hi)) results; variances is None for (lo, hi)."""
    results = list(results)
    lower, upper = (np.array([r[k] for r in results], dtype=float) for k in (0, 1))
    if len(results[0]) == 2:
        return lower, upper, None
    variances = tuple(np.array([r[2][k] for r in results], dtype=float) for k in (0, 1))
    return lower, upper, variances


def _bounds_on_dataset(data, config, seed):
    """Bounds over the sensitivity grid: (route, grid, lower, upper, variances).

    variances is None or a pair of arrays on the sqrt(n) scale.
    """
    sens = config["sensitivity"]
    route = _find_route(sens, isinstance(data, PanelDataset))
    family = FAMILIES[sens["family"]]
    grid = _parse_grid(sens["grid"])
    if abs(grid[0] - family.start) > 1e-12:
        raise ConfigError(
            f"{sens['family']} grids must start at {family.knob} = {family.start:g}"
        )
    run = _make_run(data, config, seed)
    if route.whole_grid:
        trace = route.call(run, grid)
        return route, grid, trace.lower, trace.upper, None
    results = (route.call(run, family.spec(float(v), sens)) for v in grid)
    return (route, grid, *_grid_results(results))


def _curve_on_dataset(data, config, seed):
    """Dose-response bounds over an a0 grid at a fixed sensitivity value:
    the family's a0 route, with the a0 grid in place of the knob's grid."""
    if isinstance(data, PanelDataset):
        raise ConfigError("curve works on static datasets")
    sens = config["sensitivity"]
    family = FAMILIES[sens["family"]]
    _reject_unread(sens, {"family", "a0_grid", family.knob}, f"{sens['family']} curve")
    route = ROUTES[sens["family"], "linear-curve" if sens["family"] == "propensity" else "curve"]
    a0_grid = _parse_grid(sens["a0_grid"])
    spec = family.spec(sens.get(family.knob, family.start), sens)
    run = _make_run(data, config, seed)
    results = (route.call(run._replace(sens={**sens, "a0": float(a0)}), spec) for a0 in a0_grid)
    return (route, a0_grid, *_grid_results(results))


def _wald_band(lower, upper, variances, n, alpha):
    """Per-grid-value Wald limits below the lower and above the upper bound."""
    ci_lower = np.array([wald_ci(lo, v, n, alpha).low for lo, v in zip(lower, variances[0])])
    ci_upper = np.array([wald_ci(hi, v, n, alpha).high for hi, v in zip(upper, variances[1])])
    return ci_lower, ci_upper


def _hulc_band(data, compute, alpha, hseed):
    """Min/max of per-subsample reruns of ``compute`` at every grid point."""
    b = HulcSpec(alpha=alpha, seed=hseed).n_subsamples
    if data.n // b < 4:
        raise ConfigError(
            f"hulc needs at least {4 * b} units for {b} subsamples, have {data.n}"
        )
    lows = []
    highs = []
    for idx in subsample_partition(data.n, b, hseed):
        sub_lower, sub_upper = compute(data.take(idx))
        lows.append(sub_lower)
        highs.append(sub_upper)
    return np.min(np.asarray(lows), axis=0), np.max(np.asarray(highs), axis=0)


# ---------------------------------------------------------------------------
# commands


def cmd_fit(args):
    config = _load_config("fit", args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    data = _make_data(config, seed)
    model = _make_model(config, data)
    estimate = fit_msm(data, model, _make_nuisances(config, data, seed))
    se = np.sqrt(np.diag(estimate.covariance) / data.n)
    payload = {
        "coefficients": [float(v) for v in estimate.beta],
        "standard_errors": [float(v) for v in se],
        "n": data.n,
    }
    flags = ["asymptotic, rate-conditional"]
    if args.format == "json":
        result_path = os.path.join(args.out, "fit_result.json")
        _json_dump(result_path, payload)
    else:
        result_path = os.path.join(args.out, "fit_result.csv")
        lines = ["coord,estimate,se"]
        for i, (b, s) in enumerate(zip(payload["coefficients"], payload["standard_errors"])):
            lines.append(f"{i},{_fmt(b)},{_fmt(s)}")
        with open(result_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    meta = _metadata("fit", config, seed, flags, {"outputs": [os.path.basename(result_path)]})
    _json_dump(os.path.join(args.out, "fit_meta.json"), meta)
    print(f"fit: wrote {result_path}")
    return 0


def _grid_command(args, command, compute):
    """``bounds`` and ``curve``: load the config, compute the bounds over the
    grid, add Wald or HulC intervals, then write the result and meta files.

    compute(data, config, seed) -> (route, grid, lower, upper, variances).
    """
    config = _load_config(command, args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    data = _make_data(config, seed)
    route, grid, lower, upper, variances = compute(data, config, seed)
    flags = list(route.flags)
    inference = config.get("inference", {})
    kind = inference.get("kind", "none")
    alpha = inference.get("alpha", 0.05)
    ci_lower = ci_upper = None
    if kind == "wald":
        if variances is None:
            method = config["sensitivity"]["method"]
            raise ConfigError(f"wald intervals are unavailable for method {method!r}; use hulc")
        ci_lower, ci_upper = _wald_band(lower, upper, variances, data.n, alpha)
    elif kind == "hulc":
        if route.heuristic_ci:
            flags.append("heuristic CI")
        ci_lower, ci_upper = _hulc_band(
            data, lambda sub: compute(sub, config, seed)[2:4], alpha, inference.get("seed", seed)
        )

    if np.any(lower > upper + 1e-12):
        raise NumericalError("lower bound exceeded upper bound on the grid")
    if args.format == "json":
        result_path = os.path.join(args.out, f"{command}_result.json")
        _json_dump(
            result_path,
            {
                "grid": [float(v) for v in grid],
                "lower": [float(v) for v in lower],
                "upper": [float(v) for v in upper],
                "ci_lower": None if ci_lower is None else [float(v) for v in ci_lower],
                "ci_upper": None if ci_upper is None else [float(v) for v in ci_upper],
            },
        )
    else:
        result_path = os.path.join(args.out, f"{command}_result.csv")
        _write_curve_csv(result_path, grid, lower, upper, ci_lower, ci_upper)
    meta = _metadata(command, config, seed, flags, {"outputs": [os.path.basename(result_path)]})
    _json_dump(os.path.join(args.out, f"{command}_meta.json"), meta)
    print(f"{command}: wrote {result_path}")
    return 0


def cmd_bounds(args):
    return _grid_command(args, "bounds", _bounds_on_dataset)


def cmd_curve(args):
    return _grid_command(args, "curve", _curve_on_dataset)


def cmd_simulate(args):
    config = _load_config("simulate", args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    d = config["dgp"]
    spec = DgpSpec(name=d["name"], params=d.get("params", {}), seed=d.get("seed", seed))
    data = generate(spec, d.get("n"))
    out_name = config.get("out_name", "simulated.csv")
    path = os.path.join(args.out, out_name)
    save_csv(data, path)
    meta = _metadata("simulate", config, seed, [], {"outputs": [out_name], "n": data.n})
    _json_dump(os.path.join(args.out, "simulate_meta.json"), meta)
    print(f"simulate: wrote {path}")
    return 0


# oracle-check worker tasks operate on JSON-serializable payloads so the
# worker pool stays deterministic and picklable


def _rank_rule_task(payload):
    f = np.asarray(payload["f"], dtype=float)
    gamma = payload["gamma"]
    n = f.size
    closed_hi = float(np.mean(f * upper_mass_v(f, gamma)))
    closed_lo = float(np.mean(f * lower_mass_v(f, gamma)))
    oracle_hi = oracle_linear_box_mean(f, gamma, "max").value
    oracle_lo = oracle_linear_box_mean(f, gamma, "min").value
    gap = max(abs(closed_hi - oracle_hi), abs(closed_lo - oracle_lo))
    slack = (gamma - 1.0 / gamma) * float(np.max(np.abs(f))) / n
    tau_u = gamma / (1.0 + gamma)
    integral = abs(n * tau_u - round(n * tau_u)) < 1e-9
    tol = 1e-10 if integral else slack + 1e-12
    return {
        "n": n,
        "gamma": gamma,
        "gap": gap,
        "slack": slack,
        "integral": integral,
        "pass": bool(gap <= tol),
    }


def _tiny_homotopy_task(payload):
    spec = DgpSpec(name="gauss-line", params={}, seed=payload["seed"])
    data = generate(spec, payload["n"])
    nuis = SelfFit(data)
    w = nuis.weights
    model = polynomial_msm(1)
    gamma = payload["gamma"]
    steps = int(round((gamma - 1.0) / 0.05))
    grid = np.round(1.0 + 0.05 * np.arange(steps + 1), 10)
    if abs(grid[-1] - gamma) > 1e-9:
        grid = np.append(grid, gamma)
    trace = homotopy_bounds(
        data, model, grid=grid, flavor="exact", constraint="marginal",
        coord=1, weights=w, inner_iterations=8,
    )
    b = model.basis_matrix(data.a)
    hi = oracle_exhaustive_beta_bound(b, data.y, w, gamma, coord=1, sense="max")
    lo = oracle_exhaustive_beta_bound(b, data.y, w, gamma, coord=1, sense="min")
    gap = max(abs(trace.upper[-1] - hi.value), abs(trace.lower[-1] - lo.value))
    return {"seed": payload["seed"], "n": payload["n"], "gamma": gamma, "gap": float(gap)}


def _pmap(fn, items, workers):
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with multiprocessing.Pool(min(workers, len(items))) as pool:
        return pool.map(fn, items)


def _collapse_smoke(seed):
    spec = DgpSpec(name="gauss-line", params={}, seed=seed)
    data = generate(spec, 120)
    nuis = SelfFit(data)
    model = polynomial_msm(1)
    checks = {}
    g1 = GammaSpec(1.0)
    lo, hi = marginal_quantile_beta_bounds(data, model, nuis, g1, 1)
    checks["marginal-quantile"] = abs(hi - lo)
    lo, hi = conditional_quantile_beta_bounds(data, model, nuis, g1, 1)
    checks["conditional-quantile"] = abs(hi - lo)
    lo, hi = local_beta_bounds(data, model, nuis, g1, 1)
    checks["local"] = abs(hi - lo)
    est_low, est_high = fit_parametric_bounds(data, model, nuis, g1)
    checks["parametric"] = float(np.max(np.abs(est_high.beta - est_low.beta)))
    lo, hi = outcome_beta_bounds_linear(data, model, nuis, DeltaSpec(0.0), 1)
    checks["outcome-linear"] = abs(hi - lo)
    lo, hi = subset_linear_beta_bounds(
        data, model, nuis, EpsilonSpec(0.0, GammaSpec(2.0)), 1
    )
    checks["subset-linear"] = abs(hi - lo)
    return {name: float(v) for name, v in checks.items()}


def cmd_oracle_check(args):
    config = _load_config("oracle-check", args.config) if args.config else {}
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    instances = config.get("instances", 100)
    tiny = config.get("tiny_instances", 10)
    gammas = config.get("gammas", [1.5, 2.0, 3.0])

    rng = np.random.default_rng(seed)
    rank_tasks = []
    for i in range(instances):
        n = int(rng.integers(7, 51))
        gamma = float(gammas[int(rng.integers(0, len(gammas)))])
        f = rng.normal(size=n)
        rank_tasks.append({"f": f.tolist(), "gamma": gamma})
    rank_results = _pmap(_rank_rule_task, rank_tasks, args.workers)
    rank_pass = all(r["pass"] for r in rank_results)
    worst_gap = max(r["gap"] for r in rank_results)

    # (n, gamma) pairs keep n/(1+gamma) integral, so the two-point threshold
    # rule hits mean(v) = 1 exactly and lives inside the oracle's vertex set
    tiny_configs = [(6, 2.0), (9, 2.0), (8, 3.0), (10, 1.5)]
    tiny_tasks = [
        {
            "seed": seed + 1000 + i,
            "n": tiny_configs[i % len(tiny_configs)][0],
            "gamma": tiny_configs[i % len(tiny_configs)][1],
        }
        for i in range(tiny)
    ]
    tiny_results = _pmap(_tiny_homotopy_task, tiny_tasks, args.workers)
    gaps = [r["gap"] for r in tiny_results]
    mean_gap = float(np.mean(gaps))
    tiny_pass = mean_gap <= 1e-3
    n_large = sum(1 for g in gaps if g > 1e-4)

    collapse = _collapse_smoke(seed)
    collapse_pass = all(v <= 1e-8 for v in collapse.values())

    report = {
        "blocks": [
            {
                "name": "closed-form vs LP oracle",
                "pass": rank_pass,
                "instances": instances,
                "worst_gap": worst_gap,
            },
            {
                "name": "tiny-n continuation vs exhaustive oracle",
                "pass": tiny_pass,
                "mean_gap": mean_gap,
                "gaps_over_1e-4": n_large,
                "gaps": gaps,
            },
            {
                "name": "no-confounding collapse",
                "pass": collapse_pass,
                "widths": collapse,
            },
        ],
        "all_pass": bool(rank_pass and tiny_pass and collapse_pass),
    }
    _json_dump(os.path.join(args.out, "oracle_report.json"), report)
    for block in report["blocks"]:
        status = "PASS" if block["pass"] else "FAIL"
        detail = {k: v for k, v in block.items() if k not in ("name", "pass", "gaps")}
        print(f"{status} {block['name']}: {json.dumps(detail, sort_keys=True)}")
    if not report["all_pass"]:
        print("oracle-check: FAILURES detected", file=sys.stderr)
        return 4
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="msmbounds",
        description="Sensitivity bounds for weighted dose-response models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit", "bounds", "curve", "simulate", "oracle-check"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--workers", type=int, default=os.cpu_count() or 1,
            help="worker processes for independent tasks",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


_HANDLERS = {
    "fit": cmd_fit,
    "bounds": cmd_bounds,
    "curve": cmd_curve,
    "simulate": cmd_simulate,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except MsmBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
