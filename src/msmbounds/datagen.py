"""Registered synthetic data generators.

Every generator is deterministic given (name, parameters, seed). Names:

- "gauss-line":      A ~ N(0,1), Y = 3A + N(0,1), no covariates (default n=100)
- "confounded-line": X ~ N(0,1), A = X + N(0,1), Y = 3A + 2X + N(0,1) (default n=1000)
- "hidden-dose":     U ~ Unif(.5,1) unobserved, A = 3-U, Y = 2.5U + .25 N(0,1)
                     (default n=1000; every A lies in (2, 2.5))
- "discrete-cells":  X in {0,1}, A in {0,1,2} with logistic-tilted masses,
                     Y = 1 + .8A + .5X + .7 N(0,1) (default n=400)
- "panel-mix":       T=2 sequentially confounded panel with terminal outcome
                     Y = 1.5(A1+A2) + X1 + X2 + N(0,1) (default n=500)

Each generator declares its parameters in ``_REGISTRY``; ``generate`` raises
ConfigError for any other name and any other value.
"""

import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, PanelDataset
from .errors import ConfigError, UnknownDgp


@dataclass(frozen=True)
class DgpSpec:
    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def _gauss_line(rng, n, slope):
    a = rng.standard_normal(n)
    y = slope * a + rng.standard_normal(n)
    return Dataset(None, a, y)


def _confounded_line(rng, n):
    x = rng.standard_normal(n)
    a = x + rng.standard_normal(n)
    y = 3.0 * a + 2.0 * x + rng.standard_normal(n)
    return Dataset(x[:, None], a, y)


def _hidden_dose(rng, n):
    u = rng.uniform(0.5, 1.0, size=n)
    a = 3.0 - u
    y = 2.5 * u + 0.25 * rng.standard_normal(n)
    return Dataset(None, a, y)


def _discrete_cells(rng, n):
    x = rng.integers(0, 2, size=n).astype(float)
    levels = np.array([0.0, 1.0, 2.0])
    # P(A=a|X=x) proportional to exp(.4*x*a - .2*a)
    logits = 0.4 * x[:, None] * levels[None, :] - 0.2 * levels[None, :]
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.random(n)
    cum = np.cumsum(probs, axis=1)
    a = levels[(u[:, None] > cum).sum(axis=1)]
    y = 1.0 + 0.8 * a + 0.5 * x + 0.7 * rng.standard_normal(n)
    return Dataset(x[:, None], a, y)


def _panel_mix(rng, n, T, effect):
    x = np.empty((n, T, 1))
    a = np.empty((n, T))
    x[:, 0, 0] = rng.standard_normal(n)
    a[:, 0] = 0.5 * x[:, 0, 0] + rng.standard_normal(n)
    for t in range(1, T):
        x[:, t, 0] = 0.5 * x[:, t - 1, 0] + 0.3 * a[:, t - 1] + rng.standard_normal(n)
        a[:, t] = 0.4 * x[:, t, 0] + 0.2 * a[:, t - 1] + rng.standard_normal(n)
    y = effect * a.sum(axis=1) + x[:, :, 0].sum(axis=1) + rng.standard_normal(n)
    return PanelDataset([f"u{i}" for i in range(n)], x, a, y)


# A generator parameter: its default and its least value. An int default
# makes an integer parameter, which takes an integral float as its int, as
# the config schema does; a float default makes a number parameter.
_Param = namedtuple("_Param", "default least", defaults=(-math.inf,))


# name -> (generator, {parameter: _Param})
_REGISTRY = {
    "gauss-line": (_gauss_line, {"n": _Param(100, 2), "slope": _Param(3.0)}),
    "confounded-line": (_confounded_line, {"n": _Param(1000, 2)}),
    "hidden-dose": (_hidden_dose, {"n": _Param(1000, 2)}),
    "discrete-cells": (_discrete_cells, {"n": _Param(400, 2)}),
    "panel-mix": (_panel_mix, {"n": _Param(500, 2), "T": _Param(2, 1), "effect": _Param(1.5)}),
}


def registry():
    """Registered generator names."""
    return sorted(_REGISTRY)


def _param(name, key, declared, value):
    """``value`` of parameter ``key`` as its declared kind; ConfigError unless it is one."""
    integer = isinstance(declared.default, int)
    if integer and isinstance(value, float) and value.is_integer():
        value = int(value)
    kind = numbers.Integral if integer else numbers.Real
    # a comparison keeps a huge int exact, and NaN fails it
    if (isinstance(value, bool) or not isinstance(value, kind) or not value >= declared.least
            or not (integer or abs(value) <= sys.float_info.max)):
        what = "an integer" if integer else "a finite number"
        least = "" if declared.least == -math.inf else f" >= {declared.least}"
        raise ConfigError(f"dgp {name!r} param {key!r} must be {what}{least}, got {value!r}")
    return int(value) if integer else float(value)


def generate(spec, n=None):
    """Draw a dataset from a registered generator, deterministically in the seed;
    ``n`` overrides the ``n`` of ``spec.params``."""
    if spec.name not in _REGISTRY:
        raise UnknownDgp(f"unknown generator {spec.name!r}; known: {registry()}")
    builder, declared = _REGISTRY[spec.name]
    unknown = sorted(set(spec.params) - set(declared))
    if unknown:
        raise ConfigError(f"dgp {spec.name!r} takes no param {', '.join(map(repr, unknown))}; "
                          f"its params are {', '.join(declared)}")
    given = {**spec.params, **({} if n is None else {"n": n})}
    params = {key: _param(spec.name, key, p, given.get(key, p.default))
              for key, p in declared.items()}
    rng = np.random.default_rng(spec.seed)
    return builder(rng, **params)
