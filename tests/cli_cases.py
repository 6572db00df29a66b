"""The ``bounds`` and ``curve`` configs that the CLI tests run.

``tests/test_cli.py`` runs each case, and ``tools/compare_cli_outputs.py``
runs the same cases on two source trees, so both read them from here.
This module imports nothing from ``msmbounds``.
"""

import copy


def bounds_config(n=100, **sens_extra):
    sens = {
        "family": "propensity",
        "method": "marginal-quantile",
        "grid": {"start": 1.0, "stop": 2.0, "step": 0.5},
        "coord": 1,
    }
    sens.update(sens_extra)
    return {
        "data": {"dgp": {"name": "gauss-line", "n": n, "seed": 1}},
        "model": {"kind": "polynomial", "degree": 1},
        "nuisance": {"in_sample": True},
        "sensitivity": sens,
    }


def curve_config(sens, **sections):
    return {
        "data": {"dgp": {"name": "gauss-line", "n": 80, "seed": 2}},
        "model": {"kind": "polynomial", "degree": 1},
        "nuisance": {"in_sample": True},
        "sensitivity": sens,
        **sections,
    }


WALD = {"kind": "wald"}

# name -> (command, config); every case exits 0.
CASES = {
    "bounds-grid": ("bounds", bounds_config()),
    "bounds-hulc": ("bounds", {
        **bounds_config(),
        "inference": {"kind": "hulc", "alpha": 0.05, "seed": 2},
    }),
    "bounds-wald-parametric": ("bounds", {
        **bounds_config(80, method="parametric", grid=[1.0, 1.5]),
        "inference": WALD,
    }),
    "bounds-homotopy": ("bounds", bounds_config(
        60, method="homotopy-exact", grid=[1.0, 1.2, 1.5])),
    "bounds-subset-linear": ("bounds", bounds_config(
        family="subset-propensity", method="linear", grid=[0.0, 0.25, 0.5],
        gamma=2.0)),
    "bounds-outcome-linear": ("bounds", bounds_config(
        family="outcome", method="linear", grid=[0.0, 0.5, 1.0])),
    "bounds-panel": ("bounds", {
        "data": {"dgp": {"name": "panel-mix", "n": 60, "seed": 5}},
        "model": {"kind": "cumulative-panel"},
        "sensitivity": {
            "family": "propensity",
            "method": "marginal-quantile",
            "grid": [1.0, 1.5],
            "coord": 1,
        },
    }),
    "curve-propensity": ("curve", curve_config(
        {"family": "propensity", "gamma": 1.5, "a0_grid": [0.0, 0.5, 1.0]})),
    "curve-outcome-wald": ("curve", curve_config(
        {"family": "outcome", "delta": 0.5, "a0_grid": [0.0, 1.0]},
        inference=WALD)),
}


def case(name):
    """A fresh copy of the config of case ``name``."""
    return copy.deepcopy(CASES[name][1])
