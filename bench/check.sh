#!/usr/bin/env bash
# Repeatability self-check: what the driver does, on this host.
#
# Runs every workload untraced RUNS times (a fresh --seed each time), twice
# over, on the same build. For each end-to-end metric and workload it then
# prints both medians, the spread of each set (interquartile distance as a
# share of the median, as Python's statistics.quantiles(n=4) gives it) and
# the drift of the second median against the first, and fails when a
# spread (other than setup_s's, which the driver does not gate) or a drift
# exceeds the metric's bound in ../BENCHMARK.json. Aim for spreads below a
# third of the bound; lengthen a workload's blocks before widening a bound.
#
#   RUNS=10 SECONDS_PER_RUN=15 bench/check.sh [workload ...]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${RUNS:-10}"
seconds="${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")}"
out="$here/out"
mkdir -p "$out"

# One throwaway run builds the harness and tells us where it landed.
bash "$here/run.sh" --workload small_tcp --seed 0 --seconds 1 --trace 0 >/dev/null
target="${CARGO_TARGET_DIR:-$root/target}"
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <("$target/release/hearbench" --list)
fi

for set in 1 2; do
    : >"$out/check.set$set.tsv"
    for w in "${workloads[@]}"; do
        for ((i = 1; i <= runs; i++)); do
            seed=$((set * 1000 + i))
            line="$(bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
            printf '%s\t%s\n' "$w" "$line" >>"$out/check.set$set.tsv"
            echo "set $set $w seed $seed: $line" >&2
        done
    done
done

"$target/release/hearbench" --spread "$root/BENCHMARK.json" "$out/check.set1.tsv" "$out/check.set2.tsv"
