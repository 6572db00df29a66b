"""Run the same CLI configs and demos on two source trees and compare what they write.

Usage, from the root of a checkout:

    python3 tools/compare_cli_outputs.py TREE_A TREE_B [--work DIR]

Each tree is a checkout with the package under ``src/``. Every case is run
once per tree as ``python -m msmbounds <command> --config ... --out ...
--workers 1`` with ``PYTHONPATH=<tree>/src``, on the same config file and
input data. The cases are

- the ``bounds``, ``curve``, ``fit`` and ``oracle-check`` cases of
  ``tests/cli_cases.py``, which ``tests/test_cli.py`` runs too: the configs
  of its named tests, more configs that reach every pair-kernel routine
  with a variance (among them a cross-fitted ``outcome_method: "kernel"``
  parametric Wald case, the one run of the row-wise Nadaraya-Watson pair
  kernel), one HulC case per static (family, method) route of ``bounds``,
  one HulC case per route that takes panel data, a panel ``fit``, the
  ``oracle-check`` report (the exact homotopy's gaps against the oracles,
  seed 7) and the rank-rule cases;
- the step configs of every benchmark workload (``pair-kernel-lp`` and
  ``rank-rule-homotopy``), written by ``perfbench/workloads.write_inputs``
  at full n for seeds 0 and 1.

Then every Python demo of this checkout's ``demos/`` runs in each tree as
``python <tree>/demos/<name>``, the tree's own copy of the demo against its
own ``src/``, and the two stdouts are compared byte for byte. That covers
the library calls the demos make, which no CLI case reaches.

For every output file the report says "identical" or, for a result CSV,
the largest relative difference per column. Both trees run this checkout's
config of each case, so the report also says "config differs" for each case
whose config in one tree's ``tests/cli_cases.py`` differs from the other's,
or is missing there. The exit status is 0 when every case and demo exits 0
in both trees, every case writes files, no case config differs and every
file and demo stdout is identical, and 1 otherwise. Uses only the stdlib
and numpy.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "tests")]

import cli_cases  # noqa: E402
from perfbench import workloads  # noqa: E402


SEEDS = (0, 1)  # benchmark seeds of the workload step configs


def write_cases(work):
    """Write every case's config (and data) under ``work``: [(name, argv)]."""
    cases = []
    for name, (command, config) in cli_cases.CASES.items():
        case_dir = os.path.join(work, name)
        os.makedirs(case_dir)
        path = os.path.join(case_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)
        cases.append((name, [command, "--config", path]))
    for step in sum(workloads.WORKLOADS.values(), ()):
        for seed in SEEDS:
            argv, _ = workloads.write_inputs(step, seed, 0, os.path.join(work, f"seed{seed}"))
            cases.append((f"{step}-seed{seed}", argv[:3]))
    return cases


def tree_cases(tree):
    """The CASES table of ``tree``'s ``tests/cli_cases.py``, each config as JSON text."""
    spec = importlib.util.spec_from_file_location(
        "cli_cases_of_tree", os.path.join(tree, "tests", "cli_cases.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: json.dumps(case, sort_keys=True) for name, case in module.CASES.items()}


def config_differences(tree_a, tree_b):
    """Names of the cases whose config differs between the two trees, or is in one only."""
    cases_a, cases_b = tree_cases(tree_a), tree_cases(tree_b)
    return sorted(name for name in cases_a.keys() | cases_b.keys()
                  if cases_a.get(name) != cases_b.get(name))


def run_case(tree, argv, out):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "msmbounds", *argv, "--out", out, "--workers", "1"],
        env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stderr.strip()


def run_demo(tree, name):
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "demos", name)],
        env=env, capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace").strip()


def compare_demos(tree_a, tree_b):
    """Run each demo in both trees; True when every one exits 0 with the same stdout."""
    all_identical = True
    for name in sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py")):
        stdouts = []
        for label, tree in (("a", tree_a), ("b", tree_b)):
            code, out, err = run_demo(tree, name)
            if code != 0:
                print(f"demos/{name}: tree {label} exited {code}: {err.splitlines()[-1:]}")
                all_identical = False
            stdouts.append(out)
        verdict = "identical stdout" if stdouts[0] == stdouts[1] else "stdout differs"
        all_identical &= stdouts[0] == stdouts[1]
        print(f"demos/{name}: {verdict}")
    return all_identical


def _csv_columns(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    return {
        col: np.array([float(row[k]) if row[k] else np.nan for row in cells])
        for k, col in enumerate(header)
    }


def compare_file(path_a, path_b):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() == fb.read():
            return "identical"
    if not path_a.endswith(".csv"):
        return "differs"
    cols_a, cols_b = _csv_columns(path_a), _csv_columns(path_b)
    if cols_a.keys() != cols_b.keys() or any(
            cols_a[c].shape != cols_b[c].shape for c in cols_a):
        return "differs in shape"
    parts = []
    for col in cols_a:
        a, b = cols_a[col], cols_b[col]
        if not np.array_equal(np.isnan(a), np.isnan(b)):
            parts.append(f"{col} missing values differ")
            continue
        ok = ~np.isnan(a)
        gap = np.abs(a[ok] - b[ok])
        scale = np.maximum(np.abs(a[ok]), np.abs(b[ok]))
        rel = np.where(gap == 0, 0.0, gap / np.where(scale == 0, 1.0, scale))
        parts.append(f"{col} {rel.max(initial=0.0):.1e}")
    return "max relative difference: " + ", ".join(parts)


def _listdir(path):
    return os.listdir(path) if os.path.isdir(path) else []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--work", help="directory for inputs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_cli_")
    os.makedirs(work, exist_ok=True)
    all_identical = True
    for name in config_differences(args.tree_a, args.tree_b):
        print(f"{name}: config differs")
        all_identical = False
    for name, case_argv in write_cases(work):
        outs = []
        for label, tree in (("a", args.tree_a), ("b", args.tree_b)):
            out = os.path.join(work, "out", label, name)
            code, err = run_case(tree, case_argv, out)
            if code != 0:
                print(f"{name}: tree {label} exited {code}: {err.splitlines()[-1:]}")
                all_identical = False
            outs.append(out)
        files = sorted(set(_listdir(outs[0])) | set(_listdir(outs[1])))
        if not files:
            print(f"{name}: no output files")
            all_identical = False
        for fname in files:
            paths = [os.path.join(o, fname) for o in outs]
            if not all(os.path.exists(p) for p in paths):
                verdict = "missing in one tree"
            else:
                verdict = compare_file(*paths)
            all_identical &= verdict == "identical"
            print(f"{name}/{fname}: {verdict}")
    all_identical &= compare_demos(args.tree_a, args.tree_b)
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
