//! Shared helpers for the experiment harness: workload generators,
//! host crypto-rate measurement (feeding measured numbers into the
//! performance model), and small statistics/formatting utilities.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

use hear::core::{Backend, CommKeys, IntSum, Scratch};
use hear::prf::{Prf, PrfCipher};
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
}
