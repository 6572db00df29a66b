"""Every bare ``raise ValueError`` or ``raise TypeError`` in the package, with
why the CLI cannot reach it.

``cli.main`` maps ConfigError, DataError and NumericalError to exit codes 2,
3 and 4, and lets any other exception out as a traceback. So a library
check that a config can trigger must raise one of those types; the bare
ValueError and TypeError sites below guard library calls that the CLI
never makes with such arguments. A new bare raise fails
``test_every_bare_raise_is_listed`` until it is typed or listed here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "msmbounds"

GAMMA_GRID = ("the CLI plan checks that a gamma grid starts at 1, within 1e-12 above it, "
              "and rises strictly; the schema keeps every fixed gamma and oracle gamma >= 1")
ROUTE_TABLE = "the route table pairs each subset route with its family's spec"
LINEAR = "the CLI builds only polynomial and cumulative-panel models, both linear"
ORACLE = ("oracle-check passes 7 to 50 values, gammas >= 1 (schema) and the senses "
          "'max' and 'min'")
EXHAUSTIVE = ("oracle-check passes its fixed tiny cases (n 6 to 10, gamma 1.5 to 3) and the "
              "senses 'max' and 'min'")

# (module, function, start of the message) -> why the CLI cannot reach it
REASONS = {
    ("_ranks.py", "_select", "count out of range"):
        "its counts are gamma_count(n, gamma) for gamma >= 1, the subset counts for "
        "epsilon in [0, 1] (the plan caps epsilon grids at 1), or a band no larger than n",
    ("_ranks.py", "rank_mask", "gamma must be >= 1"): GAMMA_GRID,
    ("_ranks.py", "rank_masks", "gamma must be >= 1"): GAMMA_GRID,
    ("_ranks.py", "rank_sums", "gamma must be >= 1"): GAMMA_GRID,
    ("_ranks.py", "cell_rank_mask", "gamma must be >= 1"): GAMMA_GRID,
    ("data.py", "_body_lines", "quoted cell"):
        "_numpy_columns catches it and hands the file to the row reader",
    ("gamma.py", "GammaSpec.__post_init__", "gamma must be >= 1"): GAMMA_GRID,
    ("gamma.py", "_gamma_grid", "grid must start at gamma = 1"): GAMMA_GRID,
    ("gamma.py", "_gamma_grid", "grid must be strictly increasing"): GAMMA_GRID,
    ("gamma.py", "conditional_outcome_bounds", "cell plug-in path"):
        "no route calls conditional_outcome_bounds",
    ("homotopy.py", "homotopy_bounds", "unknown flavor"):
        "each homotopy route passes its own flavor, 'exact' or 'linearized'",
    ("homotopy.py", "homotopy_bounds", "unknown constraint"):
        "the schema enum allows only 'marginal' and 'conditional'",
    ("homotopy.py", "homotopy_bounds", "pass either nuisances"):
        "the routes always pass nuisances",
    ("homotopy.py", "homotopy_bounds", "the conditional constraint needs"):
        "the routes always pass nuisances, and the plan rejects the conditional "
        "constraint on panel data",
    ("homotopy.py", "coordinate_ascent_bounds", "coordinate ascent needs"): LINEAR,
    ("inference.py", "HulcSpec.__post_init__", "alpha must be in (0, 1)"):
        "the schema keeps alpha in (0, 1)",
    ("msm.py", "MsmModel.__post_init__", "a model with a basis"):
        "polynomial_msm and cumulative_panel_msm solve their basis moments",
    ("msm.py", "MsmModel.features", "moment features have the wrong width"):
        "the CLI's models give features of their own width",
    ("msm.py", "MsmModel.basis_matrix", "model "): LINEAR,
    ("msm.py", "polynomial_msm", "degree must be >= 0"): "the schema keeps degree >= 0",
    ("msm.py", "fit_msm", "pass either nuisances"): "fit passes nuisances",
    ("msm.py", "PairKernel.row", "row "):
        "every pair kernel is built by the library with rows of its own shape",
    ("msm.py", "_pair_sums", "need at least two units"):
        "a Dataset holds at least 2 units, and a HulC block at least 4",
    ("msm.py", "_factor_sums", "need at least two units"):
        "a Dataset holds at least 2 units, and a HulC block at least 4",
    ("msm.py", "_linear_functional_fits", "linear functional bounds"): LINEAR,
    ("nuisance.py", "clipped_pseudo_outcome", "side must be"):
        "its callers pass 'upper' or 'lower'",
    ("oracles.py", "oracle_linear_box_mean", "need at least one value"): ORACLE,
    ("oracles.py", "oracle_linear_box_mean", "gamma must be >= 1"): ORACLE,
    ("oracles.py", "oracle_linear_box_mean", "sense must be"): ORACLE,
    ("oracles.py", "oracle_conditional_box_mean", "gamma must be >= 1"):
        "oracle-check does not call it",
    ("oracles.py", "oracle_conditional_box_mean", "sense must be"):
        "oracle-check does not call it",
    ("oracles.py", "oracle_conditional_box_mean", "cell probs must sum to 1"):
        "oracle-check does not call it",
    ("oracles.py", "oracle_exhaustive_beta_bound", "gamma must be >= 1"): EXHAUSTIVE,
    ("oracles.py", "oracle_exhaustive_beta_bound", "sense must be"): EXHAUSTIVE,
    ("outcome.py", "DeltaSpec.__post_init__", "delta must be >= 0"):
        "the plan checks that a delta grid starts at 0, within 1e-12 above it, and "
        "rises strictly; the schema keeps every fixed delta >= 0",
    ("panel.py", "panel_weights", "panel_weights needs a PanelDataset"):
        "the CLI calls it on panel data only",
    ("results.py", "BetaEstimate.__post_init__", "covariance shape mismatch"):
        "the library builds every estimate with the covariance of its own fit",
    ("results.py", "ConfidenceInterval.__post_init__", "interval endpoints out of order"):
        "the CLI builds intervals only in wald_ci, whose NaN estimate or variance is a "
        "NumericalError and whose limits are estimate -/+ a non-negative half-width",
    ("results.py", "HomotopyTrace.__post_init__", "grid must be strictly increasing"):
        GAMMA_GRID,
    ("subset.py", "EpsilonSpec.__post_init__", "epsilon must be in [0, 1]"):
        "the plan checks that an epsilon grid starts at 0 and ends at 1 or below",
    ("subset.py", "EpsilonSpec.__post_init__", "inner must be"): ROUTE_TABLE,
    ("subset.py", "subset_theta_bounds", "subset_theta_bounds needs"): ROUTE_TABLE,
    ("subset.py", "subset_parametric_bounds", "subset_parametric_bounds needs"): ROUTE_TABLE,
    ("subset.py", "subset_linear_beta_bounds", "subset_linear_beta_bounds needs a linear"):
        LINEAR,
    ("subset.py", "subset_linear_beta_bounds", "subset_linear_beta_bounds needs a Gamma"):
        ROUTE_TABLE,
    ("subset.py", "subset_outcome_beta_bounds", "subset_outcome_beta_bounds needs a linear"):
        LINEAR,
    ("subset.py", "subset_outcome_beta_bounds", "subset_outcome_beta_bounds needs a Delta"):
        ROUTE_TABLE,
}


def _message(exc):
    """The literal text of a raise's message, each f-string field as {}."""
    arg = exc.args[0] if isinstance(exc, ast.Call) and exc.args else None
    if isinstance(arg, ast.Constant):
        return str(arg.value)
    if isinstance(arg, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)
    return ""


def _sites(tree, module):
    """(module, qualified function name, message) of every ``raise ValueError``
    or ``raise TypeError`` in the parsed module ``tree``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                name = exc.func if isinstance(exc, ast.Call) else exc
                if isinstance(name, ast.Name) and name.id in ("ValueError", "TypeError"):
                    sites.append((module, ".".join(scope), _message(exc)))
            visit(child, scope)

    visit(tree, ())
    return sites


def test_every_bare_raise_is_listed():
    sites = [site for path in sorted(SRC.glob("*.py"))
             for site in _sites(ast.parse(path.read_text(encoding="utf-8")), path.name)]
    listed = {}
    for module, function, message in sites:
        keys = [key for key in REASONS
                if key[:2] == (module, function) and message.startswith(key[2])]
        assert len(keys) == 1, (
            f"{module} {function}: raise with message {message!r} matches {keys}; "
            "type it as a ConfigError, DataError or NumericalError, or list it in REASONS")
        listed[keys[0]] = listed.get(keys[0], 0) + 1
    assert listed == dict.fromkeys(REASONS, 1)
    assert len(sites) == 47


def test_the_scan_finds_bare_and_called_raises_in_nested_scopes():
    source = ("def f():\n    raise TypeError\n\n"
              "class C:\n    def g(self, x):\n        if x:\n"
              "            raise ValueError(f'a {x} b')\n        raise RuntimeError('c')\n")
    assert _sites(ast.parse(source), "m.py") == [("m.py", "f", ""), ("m.py", "C.g", "a {} b")]
