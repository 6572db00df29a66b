"""Write the committed reference results that the benchmark checks against.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

Runs each step's CLI invocation once per dataset of each of the seeds
0 .. REFERENCE_SEEDS - 1, in-process, and stores the parsed result files in
perfbench/reference/<step>.json. Regenerate
only when an output change is intended, and say why in the change.
"""

import json
import os
import shutil
import sys

import child
import workloads

ROOT = os.path.dirname(workloads.HERE)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import msmbounds.cli as cli

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    base = os.path.join(ROOT, ".perfbench_work", f"reference-{os.getpid()}")
    try:
        for name in workloads.STEPS:
            seeds = {}
            for seed in range(workloads.REFERENCE_SEEDS):
                workdir = os.path.join(base, f"{name}-{seed}")
                results = []
                for part in range(workloads.DATASETS):
                    cli_argv, result_file = workloads.write_inputs(name, seed, part, workdir)
                    status, _, text = child.invoke(cli, cli_argv, result_file)
                    if status != 0:
                        raise SystemExit(f"{name} seed {seed}.{part}: exit status {status}")
                    result = workloads.parse_result(text)
                    problems = workloads.invariants(name, result)
                    if problems:
                        raise SystemExit(f"{name} seed {seed}.{part}: {problems}")
                    results.append(result)
                seeds[str(seed)] = results
                shutil.rmtree(workdir)
            path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": workloads.describe(name), "seeds": seeds}, fh)
                fh.write("\n")
            print(f"{name}: {len(seeds)} seeds -> {path}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
