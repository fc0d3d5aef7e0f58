#!/usr/bin/env bash
# The installed knnmi console script end to end: gen, estimate, sweep and
# summarize. The tests reach the CLI through python -m knnmi; this runs the
# [project.scripts] entry point. The sweep's d = 1 and d = 3 cells at
# N = 300 take the sorted window and threaded brute force, and summarize
# reads its records back through the records checks. At N = 200 the
# repetitions run on one process per CPU, so the records (minus
# wall_time_ms, column 17) must match a run on one CPU; d = 32 and
# Student-t nu = 10 take the pair-once scan's int16 planes, and d = 1 and
# nu = 0.5 its float64 ones.
#
# Usage: bash .github/console-script.sh DIR, where DIR takes its files.
set -eo pipefail
dir=${1:?usage: console-script.sh DIR}

knnmi --version
knnmi gen --family gaussian --d 1 --rho 0.5 --n 300 --seed 1 --out "$dir/g.csv"
knnmi estimate --data "$dir/g.csv"
echo '{"family": "gaussian", "base_seed": 1, "dims": [1, 3], "rho_grid": [0.5], "n": 300, "k": 5,
  "repetitions": 2, "backends": ["baseline", "proposed"]}' > "$dir/sweep.json"
knnmi sweep --config "$dir/sweep.json" --out "$dir/records.csv"
knnmi summarize --records "$dir/records.csv" --out "$dir/summary.csv"
echo '{"family": "gaussian", "base_seed": 1, "dims": [1, 8, 32], "rho_grid": [0, 0.9], "n": 200, "k": 5,
  "repetitions": 3, "backends": ["baseline", "proposed", "dominant"]}' > "$dir/small.json"
echo '{"family": "student_t", "base_seed": 1, "dims": [1, 8], "nu_grid": [0.5, 10.0], "n": 200, "k": 5,
  "repetitions": 3, "backends": ["baseline", "proposed", "dominant"]}' > "$dir/small_t.json"
for config in small small_t; do
  knnmi sweep --config "$dir/$config.json" --out "$dir/forked.csv"
  taskset -c 0 knnmi sweep --config "$dir/$config.json" --out "$dir/one.csv"
  diff <(cut -d, -f1-16 "$dir/forked.csv") <(cut -d, -f1-16 "$dir/one.csv")
done
