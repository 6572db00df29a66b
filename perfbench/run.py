"""Benchmark of the msmbounds CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A workload is a sequence of CLI invocations (steps); one sample runs each
step once. A run writes three datasets per step (from --seed) and their
configs under ``.perfbench_work/``, then starts three fresh interpreters
one after another (perfbench/child.py), one per dataset. Each times
``import msmbounds.cli`` and runs samples, calling ``cli.main`` in-process
with ``--workers 1``, until its share of --seconds is spent. Each sample
follows a fixed calibration unit (child.calibrate), and wall_s is the
median over samples of wall time / calibration time, times the unit's time
on the reference host, which cancels most of the host's speed drift.
Untraced runs also start two import-only interpreters before each of
these, so setup_s is a median of nine imports. A seed runs on the inputs of seed % 40. Every
result file is checked against the committed reference for the step, that
seed and the dataset (perfbench/reference/), and against seed-free
invariants.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones; traced and untraced samples then alternate so the tracing
overhead is measured in the same run. The last line of standard output is
the JSON result; the lines before it give every metric by name with its
unit, the environment and the workload. --smoke runs all four steps at
tiny n in-process and checks the tracer and the result checks.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

import child
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# a run must end within 180 s; stop starting children well before that
RUN_LIMIT_S = 170.0
# import-only interpreters started before each measuring child, untraced
IMPORTS_PER_CHILD = 2
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "msmbounds", "cli.py")):
        fail(f"no msmbounds sources under {os.path.join(ROOT, 'src')}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read {path}: {exc}")


def layer_metric_names(spec):
    """Per-layer metrics that the tracer computes from one sample's spans."""
    return [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_frac"]


def environment(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **versions,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "load": "one process at a time, invocations in sequence, BLAS threads as set above",
    }


def child_timeout(deadline_run):
    return max(deadline_run - time.monotonic(), 5.0)


def spawn_import(deadline_run):
    """Seconds of ``import msmbounds.cli`` in a fresh interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--import-only", ROOT],
            cwd=ROOT, timeout=child_timeout(deadline_run), stdout=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired:
        fail("import-only child timed out")
    if proc.returncode != 0:
        fail(f"import-only child exited with status {proc.returncode}")
    return float(proc.stdout)


def spawn(request, workdir, k, deadline_run):
    request_path = os.path.join(workdir, f"request-{k}.json")
    report_path = os.path.join(workdir, f"report-{k}.json")
    with open(request_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    timeout = child_timeout(deadline_run)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), request_path, report_path],
            cwd=ROOT, timeout=timeout, stdout=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        fail(f"child {k} exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not os.path.exists(report_path):
        fail(f"child {k} exited with status {proc.returncode}")
    with open(report_path, encoding="utf-8") as fh:
        return json.load(fh)


def measure(inputs, seconds, trace, layer_names, workdir):
    """Run one child per dataset in ``inputs``; return their reports and,
    untraced, the import times of every interpreter started."""
    start = time.monotonic()
    deadline_run = start + RUN_LIMIT_S
    reports = []
    imports = []
    counts = {True: 0, False: 0}
    k = 0
    while True:
        if k < len(inputs):
            if not trace:
                imports += [spawn_import(deadline_run) for _ in range(IMPORTS_PER_CHILD)]
            budget = start + seconds * (k + 1) / len(inputs) - time.monotonic()
        elif trace and min(counts.values()) == 0:
            budget = 0.0  # one more invocation, of the mode still missing
        else:
            break
        part = k % len(inputs)
        request = {
            "root": ROOT,
            "steps": inputs[part],
            "budget_s": max(budget, 0.0),
            "trace": bool(trace),
            "start_traced": bool(trace) and counts[True] <= counts[False],
            "layer_metrics": layer_names,
        }
        report = spawn(request, workdir, k, deadline_run)
        for run in report["runs"]:
            run["part"] = part
            counts[run["traced"]] += 1
        reports.append(report)
        imports.append(report["import_s"])
        k += 1
    return reports, imports


def calibrated_wall(runs):
    """Median sample wall time, in seconds of the reference host."""
    return median([r["wall_s"] / r["calib_s"] for r in runs]) * child.CALIBRATION_REF_S


def check_runs(name, seed, runs):
    """Problems of every invocation, in run order; an empty list means correct."""
    steps = workloads.WORKLOADS[name]
    references = [workloads.load_reference(step).get(str(seed)) for step in steps]
    first = {}
    out = []
    for run in runs:
        for k, step in enumerate(steps):
            status, text, reference = run["status"][k], run["result"][k], references[k]
            problems = []
            if status != 0:
                problems.append(f"{step}: exit status {status}")
            elif text is None:
                problems.append(f"{step}: no result file")
            else:
                try:
                    result = workloads.parse_result(text)
                except ValueError as exc:
                    problems.append(f"{step}: {exc}")
                else:
                    problems += workloads.invariants(step, result)
                    if reference is None:
                        problems.append(f"{step}: no committed reference for seed {seed}")
                    else:
                        problems += workloads.compare(result, reference[run["part"]])
                    if first.setdefault((step, run["part"]), text) != text:
                        problems.append(f"{step}: result differs from the first on its dataset")
            out.append(problems)
        out[-1] += run.get("problems", [])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-n self-check of the benchmark")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    layer_names = layer_metric_names(spec)
    seed = workloads.data_seed(args.seed)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = []
        for part in range(workloads.DATASETS):
            steps = []
            for step in workloads.WORKLOADS[args.workload]:
                argv, result_file = workloads.write_inputs(step, seed, part, workdir)
                steps.append({"argv": argv, "result_file": result_file})
            inputs.append(steps)
        compileall.compile_dir(os.path.join(ROOT, "src", "msmbounds"), quiet=1)
        reports, imports = measure(inputs, args.seconds, args.trace, layer_names, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [run for report in reports for run in report["runs"]]
    verdicts = check_runs(args.workload, seed, runs)
    failed = sum(1 for problems in verdicts if problems)
    for k, problems in enumerate(verdicts):
        for problem in problems[:5]:
            print(f"invocation {k} failed: {problem}")

    untraced = [r for r in runs if not r["traced"]]
    if args.trace:
        traced = [r for r in runs if r["traced"]]
        metrics = {
            name: median([r["layers"][name] for r in traced]) for name in layer_names
        }
        traced_wall = calibrated_wall(traced)
        untraced_wall = calibrated_wall(untraced)
        metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        print(f"traced wall_s = {traced_wall} s over {len(traced)} samples, "
              f"untraced {untraced_wall} s over {len(untraced)}")
        print("spans of the last traced sample (calls, inclusive s, self s):")
        for name, (calls, incl, self_s) in sorted(traced[-1]["spans"].items()):
            print(f"  {name:40s} {calls:8d} {incl:12.6f} {self_s:12.6f}")
    else:
        metrics = {
            "wall_s": calibrated_wall(untraced),
            "setup_s": median(imports),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
        }
        print(f"uncalibrated wall_s samples: {[r['wall_s'] for r in untraced]}")
        print(f"calibration samples (reference {child.CALIBRATION_REF_S} s): "
              f"{[r['calib_s'] for r in untraced]}")
        print(f"setup_s samples: {imports}")
    missing = set(units) - set(metrics)
    if missing:
        fail(f"metrics not computed: {sorted(missing)}")

    steps = [workloads.describe(step) for step in workloads.WORKLOADS[args.workload]]
    print(f"workload {args.workload}: {json.dumps(steps)}")
    print(f"environment: {json.dumps(environment(reports[0]['versions']))}")
    print(f"seed {args.seed}: inputs and reference of seed {seed}")
    print(f"error_rate = {failed / len(verdicts)} "
          f"({failed} failed of {len(verdicts)} invocations in {len(runs)} samples)")
    for name in units:
        print(f"{name} = {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


def require(condition, message):
    if not condition:
        raise AssertionError(message)


def smoke(spec):
    """Run every step at tiny n in-process, traced and untraced, and check the
    tracer's span invariants and that the reference check catches a
    perturbed value."""
    from tracer import Tracer

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import msmbounds.cli as cli

    layer_names = layer_metric_names(spec)
    require(child.calibrate() > 0, "calibration took no time")
    base = os.path.join(ROOT, ".perfbench_work", f"smoke-{os.getpid()}")
    try:
        for name, spec in workloads.STEPS.items():
            argv, result_file = workloads.write_inputs(name, 0, 0, base, n=spec["smoke_n"])
            status, _, plain = child.invoke(cli, argv, result_file)
            require(status == 0, f"{name}: exit status {status}")
            tracer = Tracer()
            tracer.install()
            try:
                status, _, traced = child.invoke(cli, argv, result_file)
            finally:
                tracer.uninstall()
            require(status == 0, f"{name}: traced exit status {status}")
            require(traced == plain, f"{name}: tracing changed the result")
            problems = tracer.problems()
            require(not problems, f"{name}: {problems[:3]}")
            layers = tracer.metrics(layer_names)
            require(all(v >= 0 for v in layers.values()), f"{name}: negative metric")

            result = workloads.parse_result(plain)
            require(not workloads.invariants(name, result), f"{name}: invariants")
            require(not workloads.compare(result, result), f"{name}: self-compare")
            perturbed = {c: list(v) for c, v in result.items()}
            perturbed["upper"][-1] *= 1.0 + 1e-8
            require(workloads.compare(perturbed, result), f"{name}: perturbation not caught")
            print(f"smoke {name}: ok, {len(tracer.spans)} spans, "
                  f"{layers['msm.kernel_rows']} kernel rows")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
