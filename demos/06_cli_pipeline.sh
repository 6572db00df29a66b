#!/bin/sh
# End-to-end command-line walkthrough: simulate a dataset, fit an MSM,
# bound it under the density-ratio model, trace a dose-response band,
# and run the built-in oracle cross-checks.  Everything is driven by
# JSON configs and lands in ./demo_out; reruns are byte-identical.
# Run it from the repository root; without an install, put the package on
# the path first: PYTHONPATH=src sh demos/06_cli_pipeline.sh
set -e

OUT=demo_out
rm -rf "$OUT"
mkdir -p "$OUT"

cat > "$OUT/simulate.json" <<'EOF'
{"dgp": {"name": "confounded-line", "n": 400, "seed": 4}}
EOF
python3 -m msmbounds simulate --config "$OUT/simulate.json" --out "$OUT/sim"

cat > "$OUT/fit.json" <<'EOF'
{
  "data": {"csv": {"path": "demo_out/sim/simulated.csv",
                    "y": "y", "a": "a", "x": ["x1"]}},
  "model": {"kind": "polynomial", "degree": 1}
}
EOF
python3 -m msmbounds fit --config "$OUT/fit.json" --out "$OUT/fit"
echo "--- fitted coefficients (with pairwise-kernel standard errors) ---"
cat "$OUT/fit/fit_result.csv"

cat > "$OUT/bounds.json" <<'EOF'
{
  "data": {"csv": {"path": "demo_out/sim/simulated.csv",
                    "y": "y", "a": "a", "x": ["x1"]}},
  "model": {"kind": "polynomial", "degree": 1},
  "nuisance": {"in_sample": true},
  "sensitivity": {"family": "propensity", "method": "marginal-quantile",
                  "grid": [1.0, 1.5, 2.0, 3.0], "coord": 1},
  "inference": {"kind": "hulc", "alpha": 0.05}
}
EOF
python3 -m msmbounds bounds --config "$OUT/bounds.json" --out "$OUT/bounds"
echo "--- slope bounds along the gamma grid, with HulC intervals ---"
cat "$OUT/bounds/bounds_result.csv"

cat > "$OUT/curve.json" <<'EOF'
{
  "data": {"csv": {"path": "demo_out/sim/simulated.csv",
                    "y": "y", "a": "a", "x": ["x1"]}},
  "model": {"kind": "polynomial", "degree": 1},
  "nuisance": {"in_sample": true},
  "sensitivity": {"family": "outcome", "delta": 0.5,
                  "a0_grid": [-1.0, -0.5, 0.0, 0.5, 1.0]},
  "inference": {"kind": "wald", "alpha": 0.05}
}
EOF
python3 -m msmbounds curve --config "$OUT/curve.json" --out "$OUT/curve"
echo "--- dose-response band under a bounded outcome shift ---"
cat "$OUT/curve/curve_result.csv"

echo '{"instances": 25, "tiny_instances": 4}' > "$OUT/oracle.json"
python3 -m msmbounds oracle-check --config "$OUT/oracle.json" --out "$OUT/oracle" --seed 7
