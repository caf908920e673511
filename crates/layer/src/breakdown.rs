//! Critical-path phase instrumentation (paper Fig. 4).
//!
//! Fig. 4 decomposes a 16-byte `MPI_Allreduce` integer summation into
//! `mem_alloc → encrypt → comm → decrypt → mem_free` and compares the
//! crypto overhead of the SHA-1 and AES-NI PRF backends against the bare
//! runtime. This module reproduces that measurement as a thin consumer of
//! the `hear-telemetry` span stream: each phase is wrapped in a top-level
//! span recorded into a private registry, and the breakdown is folded from
//! the drained events rather than from ad-hoc `Instant` bookkeeping.

use hear_core::{CommKeys, IntSumScheme, Scheme};
use hear_mpi::Communicator;
use hear_telemetry::Registry;
use std::time::Duration;

/// Accumulated per-phase time over a measurement run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    pub mem_alloc: Duration,
    pub encrypt: Duration,
    pub comm: Duration,
    pub decrypt: Duration,
    pub mem_free: Duration,
    pub iterations: u32,
}

impl PhaseBreakdown {
    pub fn total(&self) -> Duration {
        self.mem_alloc + self.encrypt + self.comm + self.decrypt + self.mem_free
    }

    /// Crypto overhead relative to communication time — the percentages
    /// printed next to the bars in Fig. 4 (75.5 % for SHA-1, 7.1 % for
    /// AES-NI on the paper's system). Returns 0 when no communication time
    /// was accumulated (e.g. under `NetConfig::instant()` with a clock too
    /// coarse to see the fabric hop), instead of a nonsense huge ratio.
    pub fn crypto_overhead_pct(&self) -> f64 {
        if self.comm.is_zero() {
            return 0.0;
        }
        let crypto = self.encrypt + self.decrypt;
        100.0 * crypto.as_secs_f64() / self.comm.as_secs_f64()
    }

    /// Fold a drained span stream into the accumulator. Only *top-level*
    /// spans (depth 0) with the five phase names count: the instrumented
    /// substrate emits nested spans with overlapping names (hear-core's
    /// `encrypt`/`decrypt`, hear-mpi's `allreduce`/`send`/`recv`) and those
    /// must not be double-counted into their enclosing phase.
    fn fold_events(&mut self, events: &[hear_telemetry::SpanEvent]) {
        for ev in events {
            if ev.depth != 0 {
                continue;
            }
            let d = Duration::from_nanos(ev.dur_ns);
            match ev.name {
                "mem_alloc" => self.mem_alloc += d,
                "encrypt" => self.encrypt += d,
                "comm" => self.comm += d,
                "decrypt" => self.decrypt += d,
                "mem_free" => self.mem_free += d,
                _ => {}
            }
        }
    }
}

/// Run `iters` instrumented encrypted allreduce calls of `elems` u32
/// elements (4 elems = the paper's 16 B message) and return the phase
/// accumulation. When `encrypted` is false, only alloc/comm/free run — the
/// bare Cray-MPICH-equivalent baseline bar.
///
/// Each phase is a depth-0 span on a private enabled [`Registry`]
/// installed for the duration of the call, so the measurement is exact
/// even when global `HEAR_TRACE` tracing is live (the private context
/// shadows the global one on this thread).
pub fn measure_phases(
    comm: &Communicator,
    keys: &mut CommKeys,
    elems: usize,
    iters: u32,
    encrypted: bool,
) -> PhaseBreakdown {
    let reg = Registry::new_enabled();
    let ctx = reg.install(Some(comm.rank()));
    let mut b = PhaseBreakdown {
        iterations: iters,
        ..Default::default()
    };
    // The scheme (and its keystream scratch) is part of libhear's
    // persistent state (memory pool), not of the per-call critical path;
    // likewise the reused wire/plaintext staging buffers.
    let mut scheme = IntSumScheme::<u32>::default();
    let mut wire: Vec<u32> = Vec::new();
    let mut dec: Vec<u32> = Vec::new();
    for i in 0..iters {
        let mut buf: Vec<u32>;
        {
            let _s = hear_telemetry::span!("mem_alloc", elems = elems);
            buf = Vec::with_capacity(elems);
            buf.extend((0..elems as u32).map(|j| j.wrapping_mul(i)));
        }
        {
            let _s = hear_telemetry::span!("encrypt", elems = elems);
            if encrypted {
                keys.advance();
                scheme
                    .mask_slice(keys, 0, &buf, &mut wire)
                    .expect("integer masking is infallible");
            }
        }
        let mut agg;
        {
            let _s = hear_telemetry::span!("comm", elems = elems);
            let payload: &[u32] = if encrypted { &wire } else { &buf };
            agg = comm.allreduce(payload, |a: &u32, c: &u32| a.wrapping_add(*c));
        }
        {
            let _s = hear_telemetry::span!("decrypt", elems = elems);
            if encrypted {
                scheme.unmask_slice(keys, 0, &agg, &mut dec);
                std::mem::swap(&mut agg, &mut dec);
            }
        }
        {
            let _s = hear_telemetry::span!("mem_free", elems = elems);
            drop(agg);
            drop(buf);
        }
        // Drain per iteration so long runs can never overflow the span
        // ring (which would silently lose phase time).
        b.fold_events(&reg.drain_span_events());
    }
    drop(ctx);
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear_mpi::Simulator;
    use hear_prf::Backend;

    fn run_breakdown(backend: Backend, encrypted: bool) -> PhaseBreakdown {
        let results = Simulator::new(2).run(move |comm| {
            let mut keys = CommKeys::generate(2, 5, backend)
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            measure_phases(comm, &mut keys, 4, 200, encrypted)
        });
        results[0]
    }

    #[test]
    fn phases_accumulate() {
        let b = run_breakdown(Backend::AesSoft, true);
        assert_eq!(b.iterations, 200);
        assert!(b.comm > Duration::ZERO);
        assert!(b.encrypt > Duration::ZERO);
        assert!(b.decrypt > Duration::ZERO);
        assert!(b.total() >= b.comm);
    }

    #[test]
    fn baseline_has_no_crypto_time() {
        let b = run_breakdown(Backend::AesSoft, false);
        // encrypt/decrypt phases exist but contain only the timestamp takes.
        assert!(
            b.encrypt < b.comm,
            "baseline encrypt phase should be negligible"
        );
        assert!(b.crypto_overhead_pct() < 50.0);
    }

    #[test]
    fn sha1_costs_more_than_aes() {
        // The Fig. 4 headline: SHA-1's crypto phases are slower than AES's.
        let sha = run_breakdown(Backend::Sha1, true);
        let aes = run_breakdown(Backend::AesSoft, true);
        assert!(
            sha.encrypt + sha.decrypt > aes.encrypt + aes.decrypt,
            "sha {:?} vs aes {:?}",
            sha.encrypt + sha.decrypt,
            aes.encrypt + aes.decrypt
        );
    }

    #[test]
    fn zero_comm_overhead_is_zero_not_huge() {
        // Satellite fix: a breakdown with zero accumulated comm time used
        // to divide by (effectively) zero and report absurd percentages.
        let b = PhaseBreakdown {
            encrypt: Duration::from_micros(5),
            decrypt: Duration::from_micros(5),
            ..Default::default()
        };
        assert_eq!(b.crypto_overhead_pct(), 0.0);
    }

    #[test]
    fn breakdown_is_fold_of_depth0_spans_only() {
        // The phase fold must ignore nested substrate spans even when they
        // reuse a phase name (hear-core emits its own depth-1 "encrypt").
        use hear_telemetry::Registry;
        let reg = Registry::new_enabled();
        {
            let _g = reg.install(Some(0));
            let _outer = hear_telemetry::span!("encrypt");
            let _inner = hear_telemetry::span!("encrypt"); // depth 1
        }
        let evs = reg.drain_span_events();
        assert_eq!(evs.len(), 2);
        let mut b = PhaseBreakdown::default();
        b.fold_events(&evs);
        let top = evs.iter().find(|e| e.depth == 0).unwrap();
        assert_eq!(b.encrypt, Duration::from_nanos(top.dur_ns));
    }
}
