"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def test_smoke_all_workloads():
    assert run.smoke(run.load_spec()) == 0


@pytest.mark.parametrize("name", sorted(workloads.STEPS))
def test_reference_covers_the_documented_seeds(name):
    seeds = workloads.load_reference(name)
    assert set(seeds) >= {str(s) for s in range(workloads.REFERENCE_SEEDS)}
    for results in seeds.values():
        assert len(results) == workloads.DATASETS
        for result in results:
            assert workloads.invariants(name, result) == []


def result_text(result):
    """A result file as the CLI writes it, from a parsed result."""
    rows = zip(*(result[c] for c in workloads.COLUMNS))
    return "\n".join([",".join(workloads.COLUMNS)] + [",".join(map(repr, r)) for r in rows])


@pytest.mark.parametrize("seed", [0, 39, 40, 12345, -1])
def test_every_seed_is_checked_against_a_reference(seed):
    name = "pair-kernel-lp"
    data_seed = workloads.data_seed(seed)
    references = [workloads.load_reference(step)[str(data_seed)] for step in workloads.WORKLOADS[name]]
    runs = [{"part": part, "status": [0, 0], "result": [result_text(ref[part]) for ref in references]}
            for part in range(workloads.DATASETS)]
    assert run.check_runs(name, data_seed, runs) == [[]] * (2 * len(runs))
    # a seed without a reference fails every invocation, even with valid results
    missing = run.check_runs(name, workloads.REFERENCE_SEEDS, runs)
    assert all(any("no committed reference" in p for p in problems) for problems in missing)


def test_fails_without_the_program(tmp_path):
    """In a tree holding only BENCHMARK.json and perfbench/, exit non-zero, print no result."""
    root = os.path.dirname(HERE)
    copy = tmp_path / "bare"
    (copy / "perfbench").mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (copy / "perfbench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (copy / "BENCHMARK.json").write_bytes(open(os.path.join(root, "BENCHMARK.json"), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair-kernel-lp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
