//! # hear-telemetry — zero-dependency tracing + metrics for the HEAR stack
//!
//! The paper's entire evaluation is an observability exercise: Fig. 4's
//! `encrypt → comm → decrypt` breakdown of one call, Fig. 5's
//! PRF throughput, Fig. 6's pipelining overlap. This crate is the
//! substrate those measurements (and any future perf claim) stand on:
//!
//! * **Spans** — `let _s = span!("encrypt", elems = n);` times a region
//!   and appends a [`SpanEvent`] to a per-thread ring buffer (a *lane*)
//!   keyed by MPI rank inside a [`Registry`].
//! * **Metrics** — enum-indexed monotonic counters ([`Metric`]), gauges
//!   ([`Gauge`]) and power-of-two histograms ([`Hist`]): PRF blocks per
//!   backend, keystream bytes, key advances, fabric messages/bytes,
//!   mailbox spin-vs-park outcomes, pipeline blocks in flight, HoMAC
//!   verify pass/fail, pool allocation stats.
//! * **Exporters** ([`export`]) — chrome-trace JSON (one lane per rank,
//!   viewable in Perfetto), a Prometheus text dump, and a JSON snapshot
//!   the testkit bench harness embeds into `BENCH_*.json`.
//! * **Parsers** ([`parse`]) — std-only parsers for all emitted formats,
//!   used by CI to schema-validate the traces the repo produces.
//!
//! ## Cost model
//!
//! Telemetry is **off by default**. With no enabled registry the record
//! path of every `span!`/counter is a single branch on one relaxed
//! atomic ([`active`]) — no thread-local access, no clock read, no
//! allocation. Enabling is per-registry: either set `HEAR_TRACE=1`
//! (enables the process-global [`Registry::global`]) or create a private
//! [`Registry::new_enabled`] and [`Registry::install`] it on the threads
//! of interest, which *shadows* the global one and gives isolated,
//! exact-count measurements (this is how Fig. 4's regenerator and the
//! exact-schedule tests work).
//!
//! ## Environment
//!
//! * `HEAR_TRACE` — set (non-empty, not `0`) to enable the global
//!   registry at first use.
//! * `HEAR_TRACE_OUT` — path prefix for [`dump_if_env`]; writes
//!   `<prefix>.trace.json`, `<prefix>.prom`, `<prefix>.snapshot.json`.
//! * `HEAR_TRACE_BUF` — per-lane span ring capacity (default 65536).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod export;
pub mod metrics;
pub mod parse;
mod registry;
mod span;

pub use metrics::{Gauge, Hist, Metric};
pub use registry::{
    active, add, gauge_add, gauge_set, incr, observe, spawn_context, CtxGuard, Registry,
};
pub use span::{SpanArgs, SpanEvent, SpanGuard, MAX_SPAN_ARGS};

use std::path::PathBuf;

/// True iff `HEAR_TRACE` is set to anything but empty/`0`.
pub fn env_enabled() -> bool {
    matches!(std::env::var("HEAR_TRACE"), Ok(v) if !v.is_empty() && v != "0")
}

/// Path prefix for trace dumps: `HEAR_TRACE_OUT`, defaulting to
/// `hear_telemetry` in the working directory.
fn out_prefix() -> String {
    std::env::var("HEAR_TRACE_OUT").unwrap_or_else(|_| "hear_telemetry".to_string())
}

/// If `HEAR_TRACE` is enabled, write all three exports of the global
/// registry under `out_prefix()` and return the paths written. No-op
/// (returns `None`) when tracing is off. Call this at the end of
/// examples/binaries; it is the hook `scripts/ci.sh`'s traced smoke run
/// relies on.
pub fn dump_if_env() -> Option<Vec<PathBuf>> {
    if !env_enabled() {
        return None;
    }
    match export::write_all(Registry::global(), &out_prefix()) {
        Ok(paths) => Some(paths),
        Err(e) => {
            eprintln!("hear-telemetry: failed to write trace dump: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn dump_if_env_respects_disabled() {
        if env_enabled() {
            return; // environment has HEAR_TRACE exported; nothing to assert
        }
        assert!(dump_if_env().is_none());
    }

    /// The issue's compile-out check: with tracing disabled the record
    /// path must stay within nanoseconds — i.e. indistinguishable from a
    /// plain branch. Generous bound so debug builds and noisy CI pass.
    #[test]
    fn disabled_record_path_is_cheap() {
        let _serial = registry::serial_enabled();
        if active() {
            return; // some other registry is live; measurement is moot
        }
        const N: u32 = 100_000;
        // Warm up, then best-of-5 to shrug off scheduler noise.
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for i in 0..N {
                let _s = span!("noop", i = i);
                add(Metric::FabricMsgs, 1);
            }
            let per_op = t0.elapsed().as_nanos() as f64 / f64::from(N);
            best = best.min(per_op);
        }
        // One span! + one counter with tracing off. Release builds run
        // this in ~1–2 ns; allow 500 ns so debug/loaded CI never flakes
        // while still catching accidental always-on work (lock, alloc,
        // clock read ≈ µs-scale in debug).
        assert!(
            best < 500.0,
            "disabled record path too slow: {best:.1} ns/op"
        );
    }
}
