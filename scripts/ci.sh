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
# switch either. (Keep this list identical to the workflow's.)
HEAR_TRANSPORT=tcp cargo test -q -p hear \
    --test matrix --test chaos --test collectives --test socket --test telemetry_e2e

# Traced smoke run: quickstart under HEAR_TRACE=1 must emit all three
# telemetry formats, and they must pass the in-repo schema validator.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
HEAR_TRACE=1 HEAR_TRACE_OUT="$smoke_dir/smoke" \
    cargo run --release -q -p hear --example quickstart >/dev/null
cargo run --release -q -p hear-bench --bin trace_validate -- \
    "$smoke_dir/smoke.trace.json" "$smoke_dir/smoke.prom" "$smoke_dir/smoke.snapshot.json"

# Composition-matrix smoke: every scheme × algorithm × chunking × HoMAC
# cell through the one generic engine, checked against the plaintext
# reference, plus the factored reduce-scatter/allgather/alltoall sweep.
# Exits nonzero on any mismatch.
cargo run --release -q -p hear-bench --bin matrix_smoke

# Factored-collective trajectory: reduce-scatter / allgather / alltoall /
# fused allreduce / sharded-SGD step, measured over the in-memory world —
# must emit a parseable BENCH_collectives.json per commit.
HEAR_BENCH_FAST=1 HEAR_BENCH_DIR="$smoke_dir" \
    cargo run --release -q -p hear-bench --bin collectives
test -s "$smoke_dir/BENCH_collectives.json"

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
# The same --gate run then holds the tiled HoMAC tag/verify kernel to
# >= 2x its scalar reference at 64 Ki u64 words on one thread (same
# tolerance; "homac_gate: SKIP" and exit 0 without AES-NI), and after it
# the fused FloatSum encrypt/decrypt to >= 1.5x theirs at 64 Ki fp64(2,2)
# elements ("float_gate: SKIP" likewise), then the two-stream
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

# Roofline sweep + scaling gate: STREAM triad and masked-bytes throughput
# (the two-stream out-of-place pass, 2 w bytes of traffic per element)
# at 1..N threads must land in BENCH_roofline.json, and on a >=4-core
# host 4 threads must beat 1 thread by >=3x at 64 MiB (the gate prints
# SKIP and exits 0 on smaller runners, so shared-core CI stays green).
HEAR_BENCH_DIR="$smoke_dir" \
    cargo run --release -q -p hear-bench --bin roofline
test -s "$smoke_dir/BENCH_roofline.json"
cargo run --release -q -p hear-bench --bin roofline -- --gate
