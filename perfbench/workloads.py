"""Workload definitions, input generation and result checks for the benchmark.

A step is one ``msmbounds`` CLI invocation on a fixed config; a workload is
a sequence of steps that one sample runs in order. The data come from the
benchmark's own numpy code ("confounded-line": X ~ N(0,1),
A = X + N(0,1), Y = 3A + 2X + N(0,1)), never from ``msmbounds.datagen``,
so a library change cannot change the inputs.
"""

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# A run measures this many datasets, one per child process, so its median
# averages over the data-dependent part of the work (LP iterations, swap
# steps) as well as over repeats.
DATASETS = 3

# Seeds with a committed reference (perfbench/reference/). Any other seed
# runs on the inputs of seed % REFERENCE_SEEDS, so that every run is checked
# against a reference.
REFERENCE_SEEDS = 40

# Largest gap allowed between a result value and its committed reference,
# relative to the reference value.
RTOL = 1e-9

_MODEL = {"kind": "polynomial", "degree": 1}

# n is the full-size sample; smoke_n keeps every config valid (HulC needs
# at least 4 units in each of its 6 blocks) while running in well under a
# second.
STEPS = {
    "bounds-parametric-hulc": {
        "command": "bounds",
        "n": 800,
        "smoke_n": 120,
        "config": {
            "model": _MODEL,
            "nuisance": {"folds": 2},
            "sensitivity": {
                "family": "propensity",
                "method": "parametric",
                "grid": [1, 1.5, 2, 3],
                "coord": 1,
            },
            "inference": {"kind": "hulc", "alpha": 0.05},
        },
    },
    "curve-propensity-wald": {
        "command": "curve",
        "n": 800,
        "smoke_n": 150,
        # the curve schema has no coord: the curve is the MSM itself
        "config": {
            "model": _MODEL,
            "nuisance": {"folds": 5},
            "sensitivity": {
                "family": "propensity",
                "gamma": 2,
                "a0_grid": [-2, -1, 0, 1, 2],
            },
            "inference": {"kind": "wald", "alpha": 0.05},
        },
    },
    "bounds-quantile-large": {
        "command": "bounds",
        "n": 100000,
        "smoke_n": 3000,
        "config": {
            "model": _MODEL,
            "nuisance": {"in_sample": True},
            "sensitivity": {
                "family": "propensity",
                "method": "marginal-quantile",
                "grid": {"start": 1.0, "stop": 3.0, "step": 0.1},
                "coord": 1,
            },
            "inference": {"kind": "hulc", "alpha": 0.05},
        },
    },
    "bounds-homotopy-swaps": {
        "command": "bounds",
        "n": 12000,
        "smoke_n": 600,
        "config": {
            "model": _MODEL,
            "nuisance": {"in_sample": True},
            "sensitivity": {
                "family": "propensity",
                "method": "homotopy-exact",
                "inner_iterations": 5,
                "grid": {"start": 1.0, "stop": 3.0, "step": 0.2},
                "coord": 1,
            },
            "inference": {"kind": "hulc", "alpha": 0.05},
        },
    },
}

# Each workload pairs the two steps that share its hot layers, so that a
# run of the length the time budget allows holds enough samples. The steps
# of one workload never touch the other workload's hot layers: pair kernel
# and pinball LP on one side, rank rules, homotopy and CSV parsing at large
# n on the other.
WORKLOADS = {
    "pair-kernel-lp": ("bounds-parametric-hulc", "curve-propensity-wald"),
    "rank-rule-homotopy": ("bounds-quantile-large", "bounds-homotopy-swaps"),
}

COLUMNS = ("grid_value", "lower", "upper", "ci_lower", "ci_upper")


def describe(name):
    """Size, grid and folds of a step, for the run record."""
    spec = STEPS[name]
    cfg = spec["config"]
    sens = cfg["sensitivity"]
    nuis = cfg["nuisance"]
    return {
        "step": name,
        "command": spec["command"],
        "n": spec["n"],
        "grid": sens.get("grid", sens.get("a0_grid")),
        "folds": "in-sample" if nuis.get("in_sample") else nuis["folds"],
        "inference": cfg["inference"]["kind"],
    }


def data_seed(seed):
    """The committed seed whose inputs and reference a run of ``seed`` uses."""
    return seed % REFERENCE_SEEDS


def confounded_line(n, seed, part):
    rng = np.random.default_rng([seed, part])
    x = rng.standard_normal(n)
    a = x + rng.standard_normal(n)
    y = 3.0 * a + 2.0 * x + rng.standard_normal(n)
    return y, a, x


def write_inputs(name, seed, part, workdir, n=None):
    """Write step ``name``'s dataset ``part`` of ``seed`` and its CLI config.

    Returns the step's argv and the path of its result file.
    """
    spec = STEPS[name]
    n = n or spec["n"]
    y, a, x = confounded_line(n, seed, part)
    workdir = os.path.join(workdir, f"{name}-{part}")
    os.makedirs(workdir)
    csv_path = os.path.join(workdir, "data.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y,a,x\n")
        # repr round-trips every float exactly
        fh.write("\n".join(
            f"{yi!r},{ai!r},{xi!r}"
            for yi, ai, xi in zip(y.tolist(), a.tolist(), x.tolist())
        ))
        fh.write("\n")
    config = dict(spec["config"], data={"csv": {"path": csv_path, "x": ["x"]}})
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    out_dir = os.path.join(workdir, "out")
    argv = [spec["command"], "--config", config_path, "--out", out_dir, "--workers", "1"]
    return argv, os.path.join(out_dir, f"{spec['command']}_result.csv")


def parse_result(text):
    """CLI result CSV -> {column: list of float or None}."""
    lines = text.strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError("result file has an unexpected header")
    cols = {c: [] for c in COLUMNS}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ValueError(f"result row has {len(cells)} cells")
        for c, cell in zip(COLUMNS, cells):
            cols[c].append(float(cell) if cell else None)
    return cols


def load_reference(name):
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"]


def compare(result, reference, rtol=RTOL):
    """Mismatches between two parsed results, empty when they agree."""
    problems = []
    for c in COLUMNS:
        got, want = result[c], reference[c]
        if len(got) != len(want):
            problems.append(f"{c}: {len(got)} rows, reference has {len(want)}")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if (g is None) != (w is None) or (
                    g is not None and not abs(g - w) <= rtol * abs(w)):
                problems.append(f"{c}[{i}] = {g!r}, reference {w!r}")
    return problems


def invariants(name, result):
    """Checks that hold for any seed, from the estimators' definitions."""
    spec = STEPS[name]
    sens = spec["config"]["sensitivity"]
    problems = []
    grid = sens.get("grid", sens.get("a0_grid"))
    if isinstance(grid, dict):
        count = int(round((grid["stop"] - grid["start"]) / grid["step"])) + 1
        grid = [grid["start"] + grid["step"] * k for k in range(count)]
    if len(result["grid_value"]) != len(grid) or any(
        not math.isclose(g, v, rel_tol=1e-12, abs_tol=1e-12)
        for g, v in zip(result["grid_value"], grid)
    ):
        problems.append("grid differs from the config grid")
    scale = max((abs(v) for v in result["upper"] if v is not None), default=1.0)
    tol = RTOL * scale
    for c in COLUMNS:
        if any(v is None or not math.isfinite(v) for v in result[c]):
            problems.append(f"{c} has missing or non-finite values")
            return problems
    for i, (lo, hi) in enumerate(zip(result["lower"], result["upper"])):
        if lo > hi + tol:
            problems.append(f"lower[{i}] > upper[{i}]")
        if result["ci_lower"][i] > result["ci_upper"][i] + tol:
            problems.append(f"ci_lower[{i}] > ci_upper[{i}]")
    if spec["command"] == "bounds":
        # gamma = 1 is no confounding: the band collapses to the point estimate
        if abs(result["lower"][0] - result["upper"][0]) > tol:
            problems.append("bounds do not collapse at gamma = 1")
    if spec["config"]["inference"]["kind"] == "wald":
        for i in range(len(grid)):
            if result["ci_lower"][i] > result["lower"][i] + tol:
                problems.append(f"wald ci_lower[{i}] above lower bound")
            if result["ci_upper"][i] < result["upper"][i] - tol:
                problems.append(f"wald ci_upper[{i}] below upper bound")
    return problems
