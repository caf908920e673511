//! Shared helpers for the experiment harness: workload generators,
//! host crypto-rate measurement (feeding measured numbers into the
//! performance model), and small statistics/formatting utilities.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

use hear::core::{Backend, CommKeys, IntSum, IntSumScheme, Scratch};
use hear::layer::{EngineCfg, SecureComm};
use hear::mpi::Simulator;
use hear::prf::{Prf, PrfCipher};
use hear::telemetry::{Registry, SpanEvent};
use std::time::Instant;

/// Simple statistics over a sample.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

pub fn stats(samples: &[f64]) -> Stats {
    assert!(!samples.is_empty());
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    Stats {
        mean,
        std: var.sqrt(),
        min: samples.iter().cloned().fold(f64::INFINITY, f64::min),
        max: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// "Exponential sampling of values" (paper §5.3.2): uniform mantissa,
/// uniform exponent over a range that keeps sums inside the type's range.
pub fn exp_sampled_values(n: usize, exp_range: std::ops::Range<i32>, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let m = 1.0 + (next() as f64 / u64::MAX as f64);
            let span = (exp_range.end - exp_range.start) as u64;
            let e = exp_range.start + (next() % span.max(1)) as i32;
            m * f64::powi(2.0, e)
        })
        .collect()
}

/// Measured single-core encryption/decryption throughput of the integer
/// SUM scheme (bytes/s) for one backend on this host, plus the fixed
/// per-call cost of a 16 B operation — the Fig. 5 measurement, reusable as
/// model input.
pub struct MeasuredRates {
    pub backend: Backend,
    pub enc_bps: f64,
    pub dec_bps: f64,
    pub per_call_s: f64,
}

pub fn measure_backend(backend: Backend, buf_bytes: usize, iters: u32) -> Option<MeasuredRates> {
    if !backend.is_available() {
        return None;
    }
    let keys = CommKeys::generate(2, 0xBEEF, backend);
    let mut scratch = Scratch::default();
    let mut buf = vec![0x5aa5_1234u32; buf_bytes / 4];

    let t0 = Instant::now();
    for _ in 0..iters {
        IntSum::encrypt_in_place(&keys[0], 0, &mut buf, &mut scratch);
    }
    let enc = t0.elapsed().as_secs_f64() / iters as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        IntSum::decrypt_in_place(&keys[0], 0, &mut buf, &mut scratch);
    }
    let dec = t0.elapsed().as_secs_f64() / iters as f64;

    // Fixed per-call cost: a 16 B encrypt+decrypt.
    let mut tiny = vec![1u32; 4];
    let t0 = Instant::now();
    let small_iters = 20_000;
    for _ in 0..small_iters {
        IntSum::encrypt_in_place(&keys[0], 0, &mut tiny, &mut scratch);
        IntSum::decrypt_in_place(&keys[0], 0, &mut tiny, &mut scratch);
    }
    let per_call = t0.elapsed().as_secs_f64() / small_iters as f64;

    Some(MeasuredRates {
        backend,
        enc_bps: buf_bytes as f64 / enc,
        dec_bps: buf_bytes as f64 / dec,
        per_call_s: per_call,
    })
}

/// Quick PRF raw-block throughput (bytes/s) — isolates the PRF from the
/// scheme arithmetic.
pub fn measure_prf_block_rate(backend: Backend, blocks: usize) -> Option<f64> {
    let prf = PrfCipher::new(backend, 0x1234_5678)?;
    let mut out = vec![0u128; blocks];
    let t0 = Instant::now();
    prf.fill_blocks(0, &mut out);
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    Some(blocks as f64 * 16.0 / dt)
}

/// Environment-tunable experiment scale: `HEAR_SCALE=full` runs the
/// paper-sized iteration counts; the default keeps harnesses snappy.
pub fn scale_factor() -> usize {
    match std::env::var("HEAR_SCALE").as_deref() {
        Ok("full") => 10,
        _ => 1,
    }
}

/// True when the binary was invoked with `--json`: experiment regenerators
/// then emit machine-readable output (parseable with
/// `hear::telemetry::parse::parse_json`) instead of the human table.
pub fn json_output() -> bool {
    flag_set(std::env::args(), "--json")
}

fn flag_set(mut args: impl Iterator<Item = String>, flag: &str) -> bool {
    args.any(|a| a == flag)
}

pub fn gib_per_s(bps: f64) -> f64 {
    bps / 1e9
}

/// Fold a drained span stream into the nanoseconds of Fig. 4's phases,
/// `[encrypt, allreduce, decrypt, other]`. A call is a depth-0
/// `secure_allreduce` span: its direct (depth-1) children of the first
/// three names count to that phase, and the rest of its time — the arena,
/// key advance and output window, which stand where the paper's
/// `mem_alloc` / `mem_free` stood — to "other". A depth-0 `allreduce` (a
/// plain `Communicator::allreduce`, the baseline) counts whole to
/// `allreduce`. Deeper spans (the fabric's `send` / `recv`, the fold's
/// `reduce`, a nested span that reuses a phase name) are inside a counted
/// one and count no further.
fn fold_fig4(events: &[SpanEvent], acc: &mut [u64; 4]) {
    let phase = |ev: &SpanEvent| {
        ["encrypt", "allreduce", "decrypt"]
            .iter()
            .position(|&p| p == ev.name)
    };
    for call in events.iter().filter(|e| e.depth == 0) {
        match call.name {
            "allreduce" => acc[1] += call.dur_ns,
            "secure_allreduce" => {
                let end = call.start_ns + call.dur_ns;
                let mut inner = 0;
                for ev in events.iter().filter(|e| {
                    e.depth == 1
                        && e.rank == call.rank
                        && e.start_ns >= call.start_ns
                        && e.start_ns + e.dur_ns <= end
                }) {
                    if let Some(i) = phase(ev) {
                        acc[i] += ev.dur_ns;
                        inner += ev.dur_ns;
                    }
                }
                acc[3] += call.dur_ns.saturating_sub(inner);
            }
            _ => {}
        }
    }
}

/// Fig. 4's measurement on two ranks: `iters` calls of `elems` `u32`s,
/// each rank under its own private [`Registry`] drained after every call;
/// returns rank 0's phase totals in nanoseconds, in the order
/// `[encrypt, allreduce, decrypt, other]`. With a backend each call is `SecureComm::allreduce_with` over
/// `IntSumScheme` and that backend's `CommKeys`; with `None`, the
/// baseline, a plain `Communicator::allreduce` of the same data.
pub fn fig4_phases(backend: Option<Backend>, elems: usize, iters: u32) -> [u64; 4] {
    let results = Simulator::new(2).run(move |comm| {
        let reg = Registry::new_enabled();
        let _ctx = reg.install(Some(comm.rank()));
        let data: Vec<u32> = (0..elems as u32).collect();
        let mut acc = [0u64; 4];
        let mut secure = backend.map(|be| {
            let keys = CommKeys::generate(2, 0xF04, be).swap_remove(comm.rank());
            SecureComm::new(comm.clone(), keys)
        });
        for _ in 0..iters {
            let out = match &mut secure {
                Some(sc) => sc
                    .allreduce_with(&mut IntSumScheme::default(), &data, EngineCfg::sync())
                    .expect("a fault-free allreduce succeeds"),
                None => comm.allreduce(&data, |a: &u32, b: &u32| a.wrapping_add(*b)),
            };
            std::hint::black_box(out);
            fold_fig4(&reg.drain_span_events(), &mut acc);
        }
        acc
    });
    results[0]
}

/// Crypto time as a share of comm time, in percent: Fig. 4's annotation
/// (75.5 % for SHA-1, 7.1 % for AES-NI on the paper's system). 0 when no
/// comm time was folded, not a huge ratio.
pub fn crypto_overhead_pct(phases: &[u64; 4]) -> f64 {
    if phases[1] == 0 {
        return 0.0;
    }
    100.0 * (phases[0] + phases[2]) as f64 / phases[1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_set_matches_exact_argument() {
        let args = |v: &[&str]| {
            v.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert!(flag_set(args(&["fig4", "--json"]), "--json"));
        assert!(!flag_set(args(&["fig4"]), "--json"));
        assert!(!flag_set(args(&["fig4", "--jsonx"]), "--json"));
    }

    #[test]
    fn stats_basics() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn exp_sampling_covers_range() {
        let v = exp_sampled_values(2000, -8..8, 42);
        assert!(v.iter().all(|x| x.is_finite() && *x > 0.0));
        let small = v.iter().filter(|x| **x < 0.01).count();
        let large = v.iter().filter(|x| **x > 100.0).count();
        assert!(small > 50 && large > 50, "small={small} large={large}");
    }

    #[test]
    fn measurement_yields_sane_rates() {
        let r = measure_backend(Backend::AesSoft, 64 * 1024, 4).unwrap();
        assert!(r.enc_bps > 1e6, "implausibly slow: {}", r.enc_bps);
        assert!(r.dec_bps > r.enc_bps / 10.0);
        assert!(r.per_call_s > 0.0);
        assert!(measure_backend(Backend::Sha1, 16 * 1024, 2).is_some());
    }

    /// Every phase of a real engine call is seen: the fold finds the
    /// engine's spans where it looks for them.
    #[test]
    fn phases_accumulate() {
        let [enc, comm, dec, other] = fig4_phases(Some(Backend::AesSoft), 4, 50);
        assert!(
            enc > 0 && comm > 0 && dec > 0 && other > 0,
            "{enc} {comm} {dec} {other}"
        );
    }

    /// The baseline has comm time and no crypto, so a 0 % share.
    #[test]
    fn baseline_has_no_crypto_time() {
        let base = fig4_phases(None, 4, 50);
        assert_eq!((base[0], base[2], base[3]), (0, 0, 0), "baseline {base:?}");
        assert!(base[1] > 0);
        assert_eq!(crypto_overhead_pct(&base), 0.0);
    }

    /// The Fig. 4 headline: SHA-1's crypto phases are slower than AES's.
    #[test]
    fn sha1_costs_more_than_aes() {
        let sha = fig4_phases(Some(Backend::Sha1), 4, 200);
        let aes = fig4_phases(Some(Backend::AesSoft), 4, 200);
        assert!(
            sha[0] + sha[2] > aes[0] + aes[2],
            "sha {sha:?} vs aes {aes:?}"
        );
    }

    /// Zero folded comm time gives 0 %, not a division by (nearly) zero.
    #[test]
    fn zero_comm_overhead_is_zero_not_huge() {
        assert_eq!(crypto_overhead_pct(&[5_000, 0, 5_000, 0]), 0.0);
    }

    /// Only a call's direct children count: a nested span reusing a phase
    /// name (or any deeper span) is not counted twice, and a phase span
    /// outside a call is not counted at all.
    #[test]
    fn fold_counts_direct_children_of_a_call_once() {
        use hear::telemetry::span;
        let reg = Registry::new_enabled();
        {
            let _g = reg.install(Some(0));
            {
                let _call = span!("secure_allreduce");
                {
                    let _outer = span!("encrypt");
                    let _inner = span!("encrypt");
                }
                let _comm = span!("allreduce");
                let _send = span!("send");
            }
            let _stray = span!("decrypt");
        }
        let evs = reg.drain_span_events();
        assert_eq!(evs.len(), 6);
        let dur = |name: &str, depth: u32| {
            let ev = evs.iter().find(|e| e.name == name && e.depth == depth);
            ev.unwrap().dur_ns
        };
        let mut acc = [0; 4];
        fold_fig4(&evs, &mut acc);
        let (enc, comm) = (dur("encrypt", 1), dur("allreduce", 1));
        assert_eq!(acc, [enc, comm, 0, dur("secure_allreduce", 0) - enc - comm]);
    }
}
