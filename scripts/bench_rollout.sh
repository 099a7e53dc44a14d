#!/usr/bin/env bash
# Build and run the rollout-throughput and LP-engine benches, writing
# BENCH_rollout.json (steps/sec at 1, 2 and 4 rollout workers, with the
# LP share of stepping time and the time per LP iteration) and
# BENCH_lp.json (cold vs warm simplex solves of the scenario LPs)
# at the repo root.
#
#   scripts/bench_rollout.sh [build-dir]
#
# Scale knobs:
#   NEUROPLAN_TOPOS=B             preset topology (first letter is used)
#   NEUROPLAN_ROLLOUT_STEPS=3072  env steps per measured collect
#   NEUROPLAN_LP_CHECKS=48        env steps in the LP workload
#   NEUROPLAN_SEED=7              RNG seed
set -euo pipefail

build_dir="${1:-build}"
root="$(cd "$(dirname "$0")/.." && pwd)"

cmake --build "$root/$build_dir" --target rollout_throughput --target lp_throughput
"$root/$build_dir/bench/rollout_throughput" "$root/BENCH_rollout.json"
echo "wrote $root/BENCH_rollout.json"
"$root/$build_dir/bench/lp_throughput" "$root/BENCH_lp.json"
echo "wrote $root/BENCH_lp.json"
