"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --out perfbench/baseline.json

For every workload this runs ``run.py --trace 0`` once for each of the
seeds 1-10, then ``run.py --trace 1`` once on seed 1, and keeps every result line as printed. For each end-to-end
metric it reports the median, the quartiles (``statistics.quantiles``,
n=4) and the spread, the interquartile distance as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name} seed {seed} trace {trace}: status {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    env = next(json.loads(l.split(":", 1)[1]) for l in lines if l.startswith("environment:"))
    return json.loads(lines[-1]), env


def summarise(results):
    out = {}
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[metric] = {"median": median, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / median, "values": values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    report = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        untraced = []
        for seed in SEEDS:
            result, env = run_once(name, seed, spec["run_seconds"], 0)
            untraced.append(result)
        traced, _ = run_once(name, SEEDS[0], spec["run_seconds"], 1)
        summary = summarise(untraced)
        report["workloads"][name] = {
            "steps": [workloads.describe(step) for step in workloads.WORKLOADS[name]],
            "environment": env,
            "summary": summary,
            "runs": untraced,
            "traced_run": traced,
        }
        for metric, s in summary.items():
            print(f"{name:24s} {metric:12s} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
