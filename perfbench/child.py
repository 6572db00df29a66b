"""One measured process: import the CLI, then run samples of a workload.

Usage: python3 perfbench/child.py REQUEST.json REPORT.json
       python3 perfbench/child.py --import-only ROOT

The request names the checkout root, the workload's steps (CLI argv and
result file of each), the time budget and whether to trace. The child
times ``import msmbounds.cli`` (a CLI user pays it on every run), then runs
samples until one more would overrun the budget, always running at least
one. A sample calls ``cli.main`` in-process once per step, in order, and is
preceded by a fixed calibration unit (``calibrate``) that tells how fast
the host ran at that moment. Traced and untraced samples alternate when
tracing is on. The report holds every wall and calibration time, every
result file and the peak RSS of the process.
With --import-only the child only times the import and prints it.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def invoke(cli, argv, result_file):
    """Run one CLI invocation; return (exit status, wall s, result text or None)."""
    if os.path.exists(result_file):
        os.remove(result_file)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:  # a crash counts as a failed invocation, not a lost run
        traceback.print_exc()
        status = "exception"
    wall = time.perf_counter() - start
    text = None
    if os.path.exists(result_file):
        with open(result_file, encoding="utf-8") as fh:
            text = fh.read()
    return status, wall, text


# Median seconds of ``calibrate()`` on the host the benchmark was built on
# (2-core Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).
CALIBRATION_REF_S = 0.34


def calibrate():
    """Seconds of a fixed unit of work of the kinds a sample does: an
    interpreted loop, sorts of a large array and small LPs.

    The host's speed drifts by ±20 % for minutes at a time. Dividing a
    sample's wall time by the calibration time measured just before it
    cancels most of that drift. The unit uses nothing from ``msmbounds``, so
    a library change cannot alter it, and its arrays are freed on return, so
    they add nothing to the peak RSS of a sample.
    """
    import numpy as np
    from scipy.optimize import linprog

    rng = np.random.default_rng(0)
    keys = rng.standard_normal((2, 50_000))
    c, a_ub, b_ub = -rng.random(80), rng.standard_normal((200, 80)), rng.random(200) + 1.0
    start = time.perf_counter()
    acc = 0.0
    for i in range(1_000_000):
        acc += (i * 0.5) % 7.0
    for _ in range(12):
        np.lexsort(keys)
    for _ in range(3):
        linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    return time.perf_counter() - start


def time_import(root):
    """Import ``msmbounds.cli`` from ``root``/src; return (module, seconds)."""
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import msmbounds.cli as cli
    return cli, time.perf_counter() - start


def run(request):
    begin = time.perf_counter()
    cli, import_s = time_import(request["root"])

    import numpy
    import scipy

    tracer = None
    if request["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
    traced = request["trace"] and request["start_traced"]
    runs = []
    while True:
        record = {"traced": traced, "calib_s": calibrate()}
        if traced:
            tracer.reset()
            tracer.install()
        try:
            steps = [invoke(cli, step["argv"], step["result_file"])
                     for step in request["steps"]]
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            record.update(
                layers=tracer.metrics(request["layer_metrics"]),
                spans=tracer.summary(),
                problems=tracer.problems(),
            )
        wall = sum(w for _, w, _ in steps)
        record.update(
            wall_s=wall,
            status=[status for status, _, _ in steps],
            result=[text for _, _, text in steps],
        )
        runs.append(record)
        if time.perf_counter() - begin + wall + record["calib_s"] > request["budget_s"]:
            break
        if request["trace"]:
            traced = not traced
    return {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "runs": runs,
    }


def main(request_path, report_path):
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    report = run(request)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    if sys.argv[1] == "--import-only":
        print(repr(time_import(sys.argv[2])[1]))
    else:
        main(*sys.argv[1:3])
