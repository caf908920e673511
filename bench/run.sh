#!/usr/bin/env bash
# The one command of the benchmark (see ../BENCHMARK.json and README.md).
#
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       builds the harness offline, runs one workload in its own process
#       and prints every metric as `workload metric value unit`, then one
#       JSON object as the last line of standard output.
#
#   bench/run.sh [--seed <n>] [--seconds <s>]
#       the whole set: every workload untraced, then every workload
#       traced, each in its own process; collects bench/out/results.json.
#
# Exit code 0: everything ran and every output was correct. Non-zero: a
# build failure, a harness error, or a wrong output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The load shape is fixed by the harness; nothing from the caller's
# environment may change transport, tracing or thread count.
unset HEAR_TRANSPORT HEAR_TRACE HEAR_TRACE_OUT HEAR_TRACE_BUF HEAR_THREADS \
    HEAR_HEARTBEAT_MS HEAR_HEARTBEAT_MISS

# Build offline into the root target directory unless the caller chose
# one; a relative choice is relative to the caller's directory.
export CARGO_NET_OFFLINE=true
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export HEARBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export HEARBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
out="$here/out"

workload="" trace=0 seed=1 seconds=15
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --workload) workload="${args[i + 1]:-}" ;;
        --trace) trace="${args[i + 1]:-}" ;;
        --seed) seed="${args[i + 1]:-}" ;;
        --seconds) seconds="${args[i + 1]:-}" ;;
    esac
done

# The traced binary installs a counting allocator; the end-to-end numbers
# come from the other one, on the system allocator.
binary() {
    if [ "$1" = 1 ]; then echo "$target/release/hearbench_traced"; else echo "$target/release/hearbench"; fi
}

if [ -n "$workload" ]; then
    exec "$(binary "$trace")" "$@" --out "$out"
fi

status=0
for t in 0 1; do
    for w in $("$(binary 0)" --list); do
        "$(binary "$t")" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
            --out "$out" | grep -v '^{' || status=1
    done
done
{
    printf '{"runs": [\n'
    sep=""
    for f in "$out"/*.trace[01].json; do
        printf '%s' "$sep"
        tr -d '\n' <"$f"
        sep=$',\n'
    done
    printf '\n]}\n'
} >"$out/results.json"
echo "wrote $out/results.json" >&2
exit "$status"
