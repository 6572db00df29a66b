"""The benchmark's traced per-layer metrics still find the names they hook.

``perfbench/tracer.py`` hooks library functions and ``CrossFit`` methods by
name, so a rename breaks the benchmark's per-layer metrics. This test
installs the tracer on the imported package, reads every per-layer metric of
``BENCHMARK.json``, and checks that uninstalling restores every hooked name.
"""

import importlib.util
import json
import sys
from pathlib import Path

import scipy.optimize

import msmbounds.cli  # noqa: F401  (the tracer hooks cli.main)
from msmbounds import msm, nuisance

ROOT = Path(__file__).resolve().parents[1]
# run.py computes this one from a traced and an untraced wall time
UNTRACED = {"trace.overhead_frac"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hookable():
    """Every (owner, name) -> value that the tracer may replace."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "msmbounds"]
    owners += [nuisance.CrossFit, nuisance.SelfFit, msm.PairKernel]
    table = {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}
    table[id(scipy.optimize), "linprog"] = scipy.optimize.linprog
    return table


def test_every_per_layer_metric_has_its_hook():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"] if m["name"] not in UNTRACED]
    before = _hookable()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        kappa_row = vars(nuisance.CrossFit)["kappa_row"]
        assert kappa_row is not before[id(nuisance.CrossFit), "kappa_row"]
        metrics = tracer.metrics(names)
    finally:
        tracer.uninstall()
    assert set(metrics) == set(names)
    assert all(value == 0 for value in metrics.values())
    after = _hookable()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
