#!/usr/bin/env bash
# Tier-1 verify, exactly as ROADMAP.md states it:
#
#     cargo build --release && cargo test -q
#
# The workspace is hermetic (path dependencies only — see the workspace
# Cargo.toml and tests/hermetic.rs), so this must pass offline with an
# empty cargo cache. CARGO_NET_OFFLINE defaults to on to prove it; export
# CARGO_NET_OFFLINE=false to override. Extra arguments are passed through
# to both cargo invocations (e.g. `scripts/ci.sh --workspace`).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE="${CARGO_NET_OFFLINE:-true}"

cargo build --release "$@"
cargo test -q "$@"

# The same matrix, chaos, and collective-composition suites again, with
# the transport swapped for the loopback TCP socket mesh by the one
# environment switch — the suites themselves are unchanged — plus the
# socket and telemetry suites, whose TCP rows must not care about the
# switch either, and the helper-count suite, whose posted blocks then
# wait on sockets. (Keep this list identical to the workflow's.)
HEAR_TRANSPORT=tcp cargo test -q -p hear \
    --test matrix --test chaos --test collectives --test socket --test telemetry_e2e \
    --test posted_blocks

# The engine suites again on a 4-thread budget: at world 2 each rank then
# fans out on its own 2-thread lane, two lanes at once, which neither the
# default run on a 2-core host nor the benchmark ever does. (Keep this row
# identical to the workflow's.)
HEAR_THREADS=4 cargo test -q -p hear --test matrix --test collectives --test parallel_masking

# The benchmark package (bench/, its own workspace) is the one consumer of
# the engine's public API outside this workspace — it matches on
# `ChunkMode` variants and reads `EngineCfg` fields — so an engine change
# can break it while everything above stays green. Build it and run its
# tests. The skipped test hangs about one run in a hundred, a known flake
# of the benchmark's own rank loop that ROADMAP.md tracks; it is left out
# rather than allowed to stall the pipeline. (Keep these two rows identical
# to the workflow's.)
cargo build --release --manifest-path bench/Cargo.toml
cargo test -q --manifest-path bench/Cargo.toml -- \
    --skip timed_loop_runs_the_same_count_on_every_rank

# Lint: formatting, then clippy over this workspace and the benchmark
# package, warnings denied. (Keep these three rows identical to the
# workflow's `fmt + clippy` job.)
cargo fmt --check
cargo clippy --all-targets -- -D warnings
cargo clippy --all-targets --manifest-path bench/Cargo.toml -- -D warnings

# Rustdoc gate: every intra-doc link resolves and no public doc points at
# a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Traced smoke run: quickstart under HEAR_TRACE=1 must emit all three
# telemetry formats, and they must pass the in-repo schema validator.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
HEAR_TRACE=1 HEAR_TRACE_OUT="$smoke_dir/smoke" \
    cargo run --release -q -p hear --example quickstart >/dev/null
cargo run --release -q -p hear-bench --bin trace_validate -- \
    "$smoke_dir/smoke.trace.json" "$smoke_dir/smoke.prom" "$smoke_dir/smoke.snapshot.json"

# Fig. 4 smoke: the 16 B breakdown, folded from the engine's own spans of
# real secure allreduce calls, must run and report a crypto share of comm
# time on every variant row, one row per PRF backend plus the baseline.
# (Keep these rows identical to the workflow's.)
fig4_json="$(cargo run --release -q -p hear-bench --bin fig4 -- --json)"
fig4_rows="$(grep -c '"variant"' <<<"$fig4_json")"
test "$fig4_rows" -ge 3
test "$(grep -cE '"crypto_overhead_pct": [0-9]+[.][0-9]+' <<<"$fig4_json")" -eq "$fig4_rows"

# Composition-matrix smoke: every scheme × algorithm × chunking × HoMAC
# cell through the one generic engine, checked against the plaintext
# reference, plus the factored reduce-scatter/allgather/alltoall sweep.
# Exits nonzero on any mismatch.
cargo run --release -q -p hear-bench --bin matrix_smoke

# Chaos smoke: seeded, offline, deterministic fault-injection scenarios
# (drop / corrupt / switch-kill) asserting the self-healing contract —
# correct result or typed error, never a hang (the bin's own watchdog
# exits 3 on a hung scenario, and `timeout` backstops the watchdog).
timeout 300 cargo run --release -q -p hear-bench --bin chaos_smoke

# Socket smoke: a real multi-process TCP world (rank-per-process,
# ephemeral-port rendezvous) running pipelined verified epochs, then a
# SIGKILL of one rank mid-epoch — survivors must fail *typed*, never
# hang. Distinct exit codes per failure class (1 infra / 2 wrong answer /
# 3 hang / 4 fault silently absorbed); `timeout` backstops the watchdog.
timeout 300 cargo run --release -q -p hear-bench --bin socket_smoke

# Crypto-throughput smoke + perf_gate: a fast-budget sweep must emit a
# parseable BENCH_crypto.json (the per-commit trajectory artifact), and
# the fused one-pass mask kernels must not be slower than the split
# fill-then-combine path (generous 1.25x tolerance — CI shares a core).
# The same --gate run then holds the HoMAC packet passes (the seal and
# open verified packets run) to >= 2x their scalar references at 1 and 5
# lanes an element, 64 Ki lanes on one thread (same tolerance; "homac_gate:
# SKIP" and exit 0 without AES-NI; the ring-word tag/verify rows are
# reported only), and after it
# FloatSumScheme::mask_slice / unmask_slice to >= 3x theirs and the FPU add fold
# to >= 1.25x the integer fold at 64 Ki fp64(2,2) elements ("float_gate:
# SKIP" likewise), then the two-stream
# out-of-place mask to >= 1.3x copy + two in-place passes at 64 MiB of u32
# ("mask_gate: SKIP" likewise), and last the VAES keystream tile to
# >= 1.2x the 128-bit AES-NI tile on the two-stream mask at 1 MiB
# ("tile_gate: SKIP" without VAES). The sweep's homac_64Ki, float_64Ki,
# mask_64Mi and mask_1Mi rows — the last two with a fused_narrow_tile row
# beside each fused one on a VAES host — land in BENCH_crypto.json.
HEAR_BENCH_FAST=1 HEAR_BENCH_DIR="$smoke_dir" \
    cargo run --release -q -p hear-bench --bin crypto_throughput
test -s "$smoke_dir/BENCH_crypto.json"
HEAR_BENCH_FAST=1 \
    cargo run --release -q -p hear-bench --bin crypto_throughput -- --gate

# Roofline sweep + gates: STREAM triad and masked-bytes throughput
# (the two-stream out-of-place pass, 2 w bytes of traffic per element)
# at 1..N threads must land in BENCH_roofline.json; the one-thread 64 MiB
# mask must reach 60% of its roofline on every host, and on a >=4-core
# host 4 threads must beat 1 thread by >=3x at 64 MiB (that half prints
# SKIP on smaller runners, so shared-core CI stays green).
HEAR_BENCH_DIR="$smoke_dir" \
    cargo run --release -q -p hear-bench --bin roofline
test -s "$smoke_dir/BENCH_roofline.json"
cargo run --release -q -p hear-bench --bin roofline -- --gate
