"""The ``bounds``, ``curve`` and ``fit`` configs that the CLI tests run.

``tests/test_cli.py`` runs each case, and ``tools/compare_cli_outputs.py``
runs the same cases on two source trees, so both read them from here.
The cases are the configs of the named tests in ``tests/test_cli.py``, a
few more that reach every pair-kernel routine with a Wald variance, one
HulC case per static (family, method) route of ``bounds``, one HulC case per
route that takes panel data, a panel ``fit``, and the rank-rule cases that
reach the conditional weight rule, the local expansion on a quadratic and
cross-fitted empirical quantiles.
This module imports nothing from ``msmbounds``.
"""

import copy


def bounds_config(n=100, **sens_extra):
    sens = {
        "family": "propensity",
        "method": "marginal-quantile",
        "grid": {"start": 1.0, "stop": 2.0, "step": 0.5},
    }
    if "a0" not in sens_extra:
        # a route that takes a0 bounds a curve point and reads no coord
        sens["coord"] = 1
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


def panel_config(method="marginal-quantile", **sections):
    return {
        "data": {"dgp": {"name": "panel-mix", "n": 60, "seed": 5}},
        "model": {"kind": "cumulative-panel"},
        "sensitivity": {
            "family": "propensity",
            "method": method,
            "grid": [1.0, 1.5],
            "coord": 1,
        },
        **sections,
    }


WALD = {"kind": "wald"}
HULC = {"kind": "hulc", "alpha": 0.05, "seed": 2}
FOLDS = {"folds": 2}

# name -> (command, config); every case exits 0.
CASES = {
    "bounds-grid": ("bounds", bounds_config()),
    "bounds-hulc": ("bounds", {**bounds_config(), "inference": HULC}),
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
    "bounds-panel": ("bounds", panel_config()),
    "curve-propensity": ("curve", curve_config(
        {"family": "propensity", "gamma": 1.5, "a0_grid": [0.0, 0.5, 1.0]})),
    "curve-outcome-wald": ("curve", curve_config(
        {"family": "outcome", "delta": 0.5, "a0_grid": [0.0, 1.0]},
        inference=WALD)),
}

# Every pair-kernel routine with a variance that the cases above miss,
# cross-fitted.
PAIR_KERNEL_CASES = {
    "bounds-linear-curve-wald": ("bounds", {
        **bounds_config(method="linear-curve", grid=[1.0, 2.0], a0=0.5),
        "nuisance": FOLDS, "inference": WALD,
    }),
    "bounds-outcome-curve-wald": ("bounds", {
        **bounds_config(family="outcome", method="curve", grid=[0.0, 0.5], a0=0.5),
        "nuisance": FOLDS, "inference": WALD,
    }),
    "bounds-outcome-parametric-wald": ("bounds", {
        **bounds_config(family="outcome", method="parametric", grid=[0.0, 0.5]),
        "nuisance": FOLDS, "inference": WALD,
    }),
    "bounds-subset-parametric": ("bounds", bounds_config(
        family="subset-propensity", method="parametric", grid=[0.0, 0.5], gamma=2.0)),
    "curve-propensity-poly2-wald": ("curve", curve_config(
        {"family": "propensity", "gamma": 2.0, "a0_grid": [-1.0, 0.0, 1.0]},
        model={"kind": "polynomial", "degree": 2}, nuisance=FOLDS, inference=WALD)),
}
CASES.update(PAIR_KERNEL_CASES)

_OUTCOME_GRID = [0.0, 0.5, 1.0]
_SUBSET_GRID = [0.0, 0.25, 0.5]

# (family, method) -> the sensitivity settings, beyond bounds_config's, of
# one case per static route of ``bounds``: a grid from the family's null
# value and the keys that the route needs.
ROUTE_SENSITIVITY = {
    ("propensity", "marginal-quantile"): {},
    ("propensity", "conditional-quantile"): {},
    ("propensity", "local"): {},
    ("propensity", "parametric"): {},
    ("propensity", "linear-curve"): {"a0": 0.5},
    ("propensity", "homotopy-exact"): {},
    ("propensity", "homotopy-linearized"): {},
    ("propensity", "coordinate-ascent"): {},
    ("outcome", "linear"): {"grid": _OUTCOME_GRID},
    ("outcome", "parametric"): {"grid": _OUTCOME_GRID},
    ("outcome", "curve"): {"grid": _OUTCOME_GRID, "a0": 0.5},
    ("outcome", "nonlinear-grid"): {"grid": _OUTCOME_GRID},
    ("subset-propensity", "theta"): {"grid": _SUBSET_GRID, "gamma": 2.0, "a0": 0.5},
    ("subset-propensity", "parametric"): {"grid": _SUBSET_GRID, "gamma": 2.0},
    ("subset-propensity", "linear"): {"grid": _SUBSET_GRID, "gamma": 2.0},
    ("subset-outcome", "outcome-shift"): {"grid": _SUBSET_GRID, "delta": 0.5},
    ("subset-independent", "independent"): {"epsilon": 0.5},
}


def route_config(family, method, inference=HULC):
    """The config of the static route (family, method) with ``inference``."""
    sens = ROUTE_SENSITIVITY[family, method]
    return {**bounds_config(family=family, method=method, **sens), "inference": inference}


CASES.update(
    (f"route-{family}-{method}", ("bounds", route_config(family, method)))
    for family, method in ROUTE_SENSITIVITY
)


# The propensity methods whose routes take panel data.
PANEL_METHODS = ("marginal-quantile", "local", "homotopy-exact", "homotopy-linearized")

CASES.update(
    (f"panel-route-{method}", ("bounds", panel_config(method, inference=HULC)))
    for method in PANEL_METHODS
)
CASES["fit-panel"] = ("fit", {key: panel_config()[key] for key in ("data", "model")})


# In-sample nuisances with per-cell empirical quantiles on discrete data.
EMPIRICAL = {"in_sample": True, "propensity_method": "discrete", "quantile_method": "empirical"}


def cells_config(**sens_extra):
    """bounds_config on ``discrete-cells`` at its default n with EMPIRICAL nuisances."""
    return {
        **bounds_config(**sens_extra),
        "data": {"dgp": {"name": "discrete-cells", "seed": 1}},
        "nuisance": EMPIRICAL,
    }


# Every rank rule the cases above miss: the conditional rule under both
# quantile kinds through the homotopy and the closed form, the local
# expansion's derivative on a model with more than two columns, and the
# homotopy's swap search.
RANK_RULE_CASES = {
    f"bounds-{method}-conditional-{kind}": (
        "bounds", make(method=method, constraint="conditional"))
    for method in ("homotopy-exact", "homotopy-linearized")
    for kind, make in (("pinball", bounds_config), ("empirical", cells_config))
}
RANK_RULE_CASES["bounds-conditional-quantile-empirical"] = (
    "bounds", cells_config(method="conditional-quantile"))
# The parametric pair kernel on cross-fitted empirical quantiles: each
# fold's EmpiricalQuantileFit is evaluated on the units of another fold.
RANK_RULE_CASES["bounds-parametric-empirical-crossfit"] = ("bounds", {
    **cells_config(method="parametric", grid=[1.0, 1.5, 2.0]),
    "nuisance": {"propensity_method": "discrete", "quantile_method": "empirical", "folds": 3},
    "inference": WALD,
})
RANK_RULE_CASES["bounds-local-poly2"] = ("bounds", {
    **bounds_config(method="local"), "model": {"kind": "polynomial", "degree": 2},
})
# Small versions of the two rank-rule benchmark steps: the homotopy's swap
# search (inner_iterations > 1) and the sort-once marginal rank rule on
# discrete data, both with HulC blocks.
RANK_RULE_CASES["bounds-homotopy-swaps-hulc"] = ("bounds", {
    **bounds_config(method="homotopy-exact", inner_iterations=5,
                    grid={"start": 1.0, "stop": 3.0, "step": 0.5}),
    "inference": HULC,
})
RANK_RULE_CASES["bounds-marginal-quantile-cells-hulc"] = ("bounds", {
    **cells_config(grid={"start": 1.0, "stop": 3.0, "step": 0.25}), "inference": HULC,
})
CASES.update(RANK_RULE_CASES)


def case(name):
    """A fresh copy of the config of case ``name``."""
    return copy.deepcopy(CASES[name][1])
