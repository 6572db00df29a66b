"""Command-line front end.

Subcommands: fit | bounds | curve | simulate | oracle-check. Every run is
driven by a JSON config validated against a published schema (unknown keys
rejected), with environment overrides via MSMBOUNDS_SECTION__KEY. Outputs
are plot-ready CSV curves plus a JSON metadata sidecar; identical config
and seed produce byte-identical files regardless of worker count.

``bounds`` looks its (family, method) up in one table, ``ROUTES``: each
route's library call, the sensitivity keys it needs and the optional ones
it reads (any other key is a config error), its caveat flags, whether HulC
around it is flagged "heuristic CI", whether it takes panel data and
whether it gives the variances of Wald intervals.
``FAMILIES`` holds each family's grid knob, its start and end, and spec.
``curve`` runs the a0 route of its family over an a0 grid. Both commands
make one plan (``_plan``) before any nuisance fit: the route, the grid, the
model, the coord, each grid value's spec and the HulC spec, with the HulC
block size checked and every config error raised there. ``_run_plan`` fits
the nuisances and calls the route, on the full sample and then on each HulC
block, drawn after the full-sample run.

Panel data runs the routes marked ``panel`` through the static code: one
confounding weight per trajectory reduces it to the static problem on (path
features, product weight, outcome), and the fixed-weight nuisance adapter
serves the product weights of ``panel_weights``.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
Any other exception is a fault of the program, not of the config, and
leaves ``main`` as a traceback (exit 1).
"""

import argparse
import json
import math
import operator
import os
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from ._ranks import lower_mass_v, upper_mass_v
from .data import PanelDataset, load_csv, load_panel_csv, save_csv
from .datagen import MAX_N, DgpSpec, generate
from .errors import BadFoldCount, ConfigError, DataError, NumericalError
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
from .inference import HulcSpec, _blocks, _extremes, _smallest_block, wald_ci
from .msm import fit_msm, polynomial_msm
from .nuisance import CrossFit, NuisanceConfig, SelfFit, _gamma_key, fixed_weight_nuisances
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
                "n": {"type": "integer", "minimum": 2, "maximum": MAX_N},
                "seed": {"type": "integer", "minimum": 0},
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
        "seed": {"type": "integer", "minimum": 0},
    },
}

_INFERENCE = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["none", "wald", "hulc"]},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "seed": {"type": "integer", "minimum": 0},
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
            "seed": {"type": "integer", "minimum": 0},
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
            "seed": {"type": "integer", "minimum": 0},
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
            "seed": {"type": "integer", "minimum": 0},
        },
    },
    "simulate": {
        "type": "object",
        "additionalProperties": False,
        "required": ["dgp"],
        "properties": {
            "dgp": _DATA["properties"]["dgp"],
            "out_name": {"type": "string"},
            "seed": {"type": "integer", "minimum": 0},
        },
    },
    "oracle-check": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "seed": {"type": "integer", "minimum": 0},
            "instances": {"type": "integer", "minimum": 1},
            "tiny_instances": {"type": "integer", "minimum": 1},
            "gammas": {"type": "array", "items": {"type": "number", "minimum": 1}},
        },
    },
}


# The config validator: the JSON Schema (draft 2020-12) keywords that SCHEMAS
# uses, each with jsonschema's semantics and message. Any other keyword raises
# NotImplementedError.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    # JSON Schema counts 1.0 as an integer
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_NUMBER_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}
# keyword: (instance type, failing size test, limit with its own message, that
# message, the message at any other limit)
_SIZES = {
    "minItems": ("array", operator.lt, 1, "should be non-empty", "is too short"),
    "minProperties": ("object", operator.lt, 1, "should be non-empty",
                      "does not have enough properties"),
    "maxProperties": ("object", operator.gt, 0, "is expected to be empty",
                      "has too many properties"),
}


def _validate(schema, value, path, errors):
    """Check ``value`` at ``path`` against ``schema``, appending (path, message)
    to ``errors`` for each failed keyword; return ``value`` with every integral
    float at an ``integer`` position made an int."""
    out = value

    def fail(message):
        errors.append((path, f"{value!r} {message}"))

    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](value):
                fail(f"is not of type {arg!r}")
        elif key == "enum":
            # every enum of SCHEMAS lists strings, which equal only themselves
            if value not in arg:
                fail(f"is not one of {arg!r}")
        elif key in _NUMBER_BOUNDS:
            beyond, text = _NUMBER_BOUNDS[key]
            if _TYPES["number"](value) and beyond(value, arg):
                fail(f"{text} {arg!r}")
        elif key in _SIZES:
            kind, beyond, edge, at_edge, text = _SIZES[key]
            if _TYPES[kind](value) and beyond(len(value), arg):
                fail(at_edge if arg == edge else text)
        elif key == "items":
            if isinstance(value, list):
                out = [_validate(arg, v, (*path, i), errors) for i, v in enumerate(value)]
        elif key == "oneOf":
            passed = []
            for sub in arg:
                sub_errors = []
                result = _validate(sub, value, path, sub_errors)
                if not sub_errors:
                    passed.append((sub, result))
            if not passed:
                fail("is not valid under any of the given schemas")
            elif len(passed) > 1:
                fail("is valid under each of "
                     + ", ".join(repr(sub) for sub, _ in passed[1:] + passed[:1]))
            else:
                out = passed[0][1]
        elif key not in ("properties", "required") and (key, arg) != ("additionalProperties", False):
            raise NotImplementedError(f"the config validator has no {key}: {arg!r}")
        elif not isinstance(value, dict):
            continue
        elif key == "properties":
            out = {k: _validate(arg[k], v, (*path, k), errors) if k in arg else v
                   for k, v in value.items()}
        elif key == "required":
            errors.extend((path, f"{name!r} is a required property")
                          for name in arg if name not in value)
        else:
            extras = sorted(set(value) - set(schema.get("properties", {})))
            if extras:
                errors.append((path, "Additional properties are not allowed ({} {} unexpected)"
                               .format(", ".join(map(repr, extras)),
                                       "was" if len(extras) == 1 else "were")))
    if schema.get("type") == "integer" and isinstance(value, float) and value.is_integer():
        return int(value)
    return out


def _non_finite(name):
    """``parse_constant`` hook: NaN, Infinity and -Infinity are no config values."""
    raise ConfigError(f"config holds the non-finite number {name}")


def _finite_float(literal):
    """``parse_float`` hook: a literal that overflows, such as 1e400, is no config value."""
    value = float(literal)
    return value if math.isfinite(value) else _non_finite(literal)


def _apply_env_overrides(config):
    """MSMBOUNDS_SECTION__KEY=value sets config[section][key]; values parse as JSON."""
    for name, raw in sorted(os.environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = [seg.lower() for seg in name[len(ENV_PREFIX):].split("__") if seg]
        if not path:
            continue
        try:
            value = json.loads(raw, parse_constant=_non_finite, parse_float=_finite_float)
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
        raise ConfigError(f"{command} requires --config PATH")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_non_finite, parse_float=_finite_float)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return _checked_config(command, _apply_env_overrides(config))


def _checked_config(command, config):
    """``config`` checked against its command's schema, with each integral
    float at an integer position made an int; a ConfigError names the first
    failure in path order."""
    errors = []
    config = _validate(SCHEMAS[command], config, (), errors)
    if errors:
        # min keeps the first of the failures at the least path
        path, message = min(errors, key=lambda e: e[0])
        raise ConfigError(f"config/{'/'.join(map(str, path))}: {message}")
    return config


# the most points a {start, stop, step} grid may have; each is a bounds run
_MAX_GRID_POINTS = 10**6


def _parse_grid(obj):
    if isinstance(obj, dict):
        start, stop, step = obj["start"], obj["stop"], obj["step"]
        # the span is counted before anything is allocated; it is infinite
        # when the step underflows it, and below -1 the grid is empty
        span = (stop - start) / step
        if span >= _MAX_GRID_POINTS:
            raise ConfigError(f"grid has about {span + 1:.4g} points, more than {_MAX_GRID_POINTS}")
        count = int(round(max(span, -1.0))) + 1
        values = np.round(start + step * np.arange(count), 12)
        values = values[values <= stop + 1e-9]
    else:
        values = np.asarray(obj, dtype=float)
    if values.size == 0:
        raise ConfigError("grid is empty")
    if values.size > 1 and not np.all(np.diff(values) > 0):
        raise ConfigError("grid values must be strictly increasing")
    return values


def _seed(args, config):
    """The run's seed: ``--seed``, else the config's, else 0."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    return args.seed if args.seed is not None else config.get("seed", 0)


def _make_data(spec, default_seed):
    """The dataset that a data block names: its ``dgp``, ``csv`` or ``panel_csv``."""
    if "dgp" in spec:
        d = spec["dgp"]
        dgp = DgpSpec(d["name"], d.get("params", {}), d.get("seed", default_seed))
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


def _make_nuisances(cfg, data, default_seed):
    spec = cfg.get("nuisance", {})
    nconf = NuisanceConfig(**{k: v for k, v in spec.items() if k not in ("in_sample", "seed")})
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
    blank = [None] * len(grid)
    rows = zip(grid, lower, upper, blank if ci_lower is None else ci_lower,
               blank if ci_upper is None else ci_upper)
    _write_lines(path, ["grid_value,lower,upper,ci_lower,ci_upper",
                        *(",".join(map(_fmt, r)) for r in rows)])


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_dump(path, payload):
    _write_lines(path, [json.dumps(payload, sort_keys=True, indent=2)])


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
        },
        "weight_flavor": config.get("nuisance", {}).get("weight_flavor", "stabilized"),
    }
    if extra:
        meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# the route table of bounds and curve


# A sensitivity model: the knob its grid sweeps, the knob value at which the
# bounds collapse (every grid starts there), the knob's largest value, and
# spec(value, sensitivity config), its library spec at one knob value.
_Family = namedtuple("_Family", "knob start stop spec", defaults=(None,))


FAMILIES = {
    "propensity": _Family("gamma", 1.0, math.inf, lambda v, sens: GammaSpec(v)),
    "outcome": _Family("delta", 0.0, math.inf, lambda v, sens: DeltaSpec(v)),
    "subset-propensity": _Family(
        "epsilon", 0.0, 1.0, lambda v, sens: EpsilonSpec(v, GammaSpec(sens["gamma"]))),
    "subset-outcome": _Family(
        "epsilon", 0.0, 1.0, lambda v, sens: EpsilonSpec(v, DeltaSpec(sens["delta"]))),
    # its one route takes the whole gamma grid
    "subset-independent": _Family("gamma", 1.0, math.inf),
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
# "heuristic CI", ``panel`` marks the routes that take panel data and
# ``variances`` those whose calls give variances, the only ones with Wald
# intervals.
_Route = namedtuple("_Route", "call keys optional flags heuristic_ci whole_grid panel variances",
                    defaults=((), (), (), True, False, False, False))


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


# the routes with a sandwich variance: Wald intervals, and HulC without the flag
_ASYMPTOTIC = dict(flags=("asymptotic, rate-conditional",), heuristic_ci=False, variances=True)

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
        **_ASYMPTOTIC),
    ("propensity", "linear-curve"): _Route(
        lambda r, spec: linear_curve_bounds(r.data, r.model, r.nuis, spec, r.sens["a0"]),
        keys=("a0",), **_ASYMPTOTIC),
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
        **_ASYMPTOTIC),
    ("outcome", "curve"): _Route(
        lambda r, spec: outcome_curve_bounds(r.data, r.model, r.nuis, spec, r.sens["a0"]),
        keys=("a0",), **_ASYMPTOTIC),
    ("outcome", "nonlinear-grid"): _Route(
        lambda r, spec: outcome_nonlinear_grid_bounds(r.data, r.model, r.nuis, spec, r.coord)),
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


def _reject_unread(sens, read, what):
    """ConfigError naming every sensitivity key outside ``read``, with its value."""
    unread = sorted(set(sens) - read)
    if unread:
        raise ConfigError(f"{what} does not read "
                          + ", ".join(f"{key} {sens[key]!r}" for key in unread))


# A bounds or curve run resolved before any fit. ``values`` holds one
# (sensitivity, spec) per grid value, or is None for a route that takes the
# whole grid; ``hulc`` is the ``HulcSpec`` of HulC intervals, or None without
# them. The blocks are drawn after the full-sample run, so their indices are
# not held through it.
_Plan = namedtuple("_Plan", "route grid model coord values hulc")


def _plan(command, data, config, seed):
    """The plan of a ``bounds`` or ``curve`` run on ``data``; every config
    error of the run is raised here, before any nuisance fit.

    ``curve`` runs the a0 route of its family over the a0 grid at the
    family's fixed knob value.
    """
    sens = config["sensitivity"]
    name = sens["family"]
    family = FAMILIES[name]
    panel = isinstance(data, PanelDataset)
    if command == "curve":
        if panel:
            raise ConfigError("curve works on static datasets")
        _reject_unread(sens, {"family", "a0_grid", family.knob}, f"{name} curve")
        route = ROUTES[name, "linear-curve" if name == "propensity" else "curve"]
        grid = _parse_grid(sens["a0_grid"])
        spec = family.spec(sens.get(family.knob, family.start), sens)
        values = [({**sens, "a0": float(a0)}, spec) for a0 in grid]
    else:
        method = sens["method"]
        if panel and name != "propensity":
            raise ConfigError("panel bounds support the propensity family only")
        route = ROUTES.get((name, method))
        if route is None or (panel and not route.panel):
            raise ConfigError(f"unknown {'panel' if panel else name} bounds method {method!r}")
        for key in route.keys:
            if key not in sens:
                raise ConfigError(f"{name} method {method!r} needs sensitivity.{key}")
        # a route that takes a0 bounds a curve point, not a coordinate
        reads = {"family", "method", "grid", *route.keys, *route.optional}
        _reject_unread(sens, reads if "a0" in route.keys else reads | {"coord"},
                       f"{name} method {method!r}")
        if panel and sens.get("constraint") == "conditional":
            raise ConfigError("panel weights carry no quantile fits, so panel data takes "
                              "the marginal constraint only")
        grid = _parse_grid(sens["grid"])
        if not 0.0 <= grid[0] - family.start <= 1e-12:
            raise ConfigError(f"{name} grids must start at {family.knob} = {family.start:g}")
        if grid[-1] > family.stop:
            raise ConfigError(f"{name} grids must end at {family.knob} <= {family.stop:g}")
        values = None if route.whole_grid else [(sens, family.spec(float(v), sens))
                                                for v in grid]
    # the run's largest gamma: a gamma grid's end, or the sensitivity's gamma
    _check_quantile_levels(grid[-1] if command == "bounds" and family.knob == "gamma"
                           else sens.get("gamma", 1.0))
    model = _make_model(config, data)
    coord = sens.get("coord", 1 if model.dim > 1 else 0)
    if coord >= model.dim:
        raise ConfigError(f"coord {coord} out of range for a {model.dim}-column model")
    inference = config.get("inference", {})
    kind = inference.get("kind", "none")
    if kind == "wald" and not route.variances:
        raise ConfigError(f"wald intervals are unavailable for method {sens['method']!r}; use hulc")
    if kind != "hulc":
        return _Plan(route, grid, model, coord, values, None)
    hulc = HulcSpec(inference.get("alpha", 0.05), inference.get("seed", seed))
    nuisance = config.get("nuisance", {})
    folds, smallest = nuisance.get("folds", NuisanceConfig.folds), _smallest_block(data.n, hulc)
    # each block is cross-fitted on its own folds
    if not (panel or nuisance.get("in_sample", False)) and folds > smallest:
        raise BadFoldCount(f"{folds} folds need {folds} units in every hulc block, "
                           f"the smallest has {smallest}")
    return _Plan(route, grid, model, coord, values, hulc)


def _check_quantile_levels(gamma):
    """ConfigError unless gamma's quantile levels 1/(1 + gamma) and gamma/(1 + gamma)
    stay in (0, 1) at the 12 decimals that the quantile fits key them by (from
    about gamma = 2e12 up, 1/(1 + gamma) rounds to 0). Both levels move away
    from 1/2 as gamma grows, so the largest gamma of a run is the one to check."""
    spec = GammaSpec(gamma)
    low, high = _gamma_key(spec.tau_low), _gamma_key(spec.tau_high)
    if low <= 0.0 or high >= 1.0:
        raise ConfigError(f"gamma = {gamma:g} puts its quantile levels at {low!r} and {high!r} "
                          "at 12 decimals; they must lie in (0, 1)")


def _run_plan(plan, data, config, seed):
    """The plan's bounds on ``data``, the full sample or a HulC block, with
    nuisances fitted on it: (lower, upper, variances), variances None or a
    pair of arrays on the sqrt(n) scale."""
    run = _Run(data, plan.model, _make_nuisances(config, data, seed), config["sensitivity"],
               plan.coord, seed)
    if plan.values is None:
        trace = plan.route.call(run, plan.grid)
        return trace.lower, trace.upper, None
    # each call gives (lo, hi) or (lo, hi, (var_lo, var_hi))
    results = [plan.route.call(run._replace(sens=sens), spec) for sens, spec in plan.values]
    lower, upper = (np.array([r[k] for r in results], dtype=float) for k in (0, 1))
    if len(results[0]) == 2:
        return lower, upper, None
    return lower, upper, tuple(np.array([r[2][k] for r in results], dtype=float) for k in (0, 1))


# ---------------------------------------------------------------------------
# commands


def cmd_fit(args):
    config = _load_config("fit", args.config)
    seed = _seed(args, config)
    data = _make_data(config["data"], seed)
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
        rows = enumerate(zip(payload["coefficients"], payload["standard_errors"]))
        _write_lines(result_path, ["coord,estimate,se",
                                   *(f"{i},{_fmt(b)},{_fmt(s)}" for i, (b, s) in rows)])
    meta = _metadata("fit", config, seed, flags, {"outputs": [os.path.basename(result_path)]})
    _json_dump(os.path.join(args.out, "fit_meta.json"), meta)
    print(f"fit: wrote {result_path}")
    return 0


def _grid_command(args):
    """``bounds`` and ``curve``: load the config and the data, plan the run,
    compute the bounds over the grid, add Wald or HulC intervals, then write
    the result and meta files."""
    command = args.command
    config = _load_config(command, args.config)
    seed = _seed(args, config)
    data = _make_data(config["data"], seed)
    plan = _plan(command, data, config, seed)
    lower, upper, variances = _run_plan(plan, data, config, seed)
    flags = list(plan.route.flags)
    ci_lower = ci_upper = None
    inference = config.get("inference", {})
    if inference.get("kind") == "wald":
        # per grid value, the Wald limit below the lower and above the upper bound
        alpha, n = inference.get("alpha", 0.05), data.n
        ci_lower = np.array([wald_ci(v, s, n, alpha).low for v, s in zip(lower, variances[0])])
        ci_upper = np.array([wald_ci(v, s, n, alpha).high for v, s in zip(upper, variances[1])])
    elif plan.hulc is not None:
        if plan.route.heuristic_ci:
            flags.append("heuristic CI")
        ci_lower, ci_upper = _extremes(
            data, lambda sub: _run_plan(plan, sub, config, seed)[:2], _blocks(data.n, plan.hulc))

    if np.any(lower > upper + 1e-12):
        raise NumericalError("lower bound exceeded upper bound on the grid")
    if args.format == "json":
        result_path = os.path.join(args.out, f"{command}_result.json")
        _json_dump(result_path, {
            "grid": [float(v) for v in plan.grid],
            "lower": [float(v) for v in lower],
            "upper": [float(v) for v in upper],
            "ci_lower": None if ci_lower is None else [float(v) for v in ci_lower],
            "ci_upper": None if ci_upper is None else [float(v) for v in ci_upper],
        })
    else:
        result_path = os.path.join(args.out, f"{command}_result.csv")
        _write_curve_csv(result_path, plan.grid, lower, upper, ci_lower, ci_upper)
    meta = _metadata(command, config, seed, flags, {"outputs": [os.path.basename(result_path)]})
    _json_dump(os.path.join(args.out, f"{command}_meta.json"), meta)
    print(f"{command}: wrote {result_path}")
    return 0


def cmd_simulate(args):
    config = _load_config("simulate", args.config)
    seed = _seed(args, config)
    # a simulate config is itself a data block with a dgp
    data = _make_data(config, seed)
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
    import multiprocessing  # only a pool needs it; the other commands skip its import

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
    seed = _seed(args, config)
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

    blocks = [
        {"name": "closed-form vs LP oracle", "pass": rank_pass, "instances": instances,
         "worst_gap": worst_gap},
        {"name": "tiny-n continuation vs exhaustive oracle", "pass": tiny_pass,
         "mean_gap": mean_gap, "gaps_over_1e-4": n_large, "gaps": gaps},
        {"name": "no-confounding collapse", "pass": collapse_pass, "widths": collapse},
    ]
    report = {"blocks": blocks, "all_pass": bool(rank_pass and tiny_pass and collapse_pass)}
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
            help="worker processes for oracle-check; bounds, curve, fit and simulate ignore it",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


_HANDLERS = {
    "fit": cmd_fit,
    "bounds": _grid_command,
    "curve": _grid_command,
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


if __name__ == "__main__":
    sys.exit(main())
