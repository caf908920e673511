//! Figure 5 regenerator: single-core encryption/decryption throughput for
//! the PRF backends (the paper's OpenSSL-SHA1 vs AES-NI comparison),
//! measured over multiple buffer sizes; the std column reflects the
//! across-size spread exactly as the paper's error bars do. Also reports
//! the float-scheme throughput against the Aries per-rank line rate.

use hear::core::{Backend, CommKeys, FloatSumScheme, HfpFormat, Scheme};
use hear_bench::{gib_per_s, measure_backend, scale_factor, stats};
use std::time::Instant;

fn main() {
    let iters = 4 * scale_factor() as u32;
    let sizes: &[usize] = &[
        64 * 1024,
        256 * 1024,
        1024 * 1024,
        4 * 1024 * 1024,
        16 * 1024 * 1024,
    ];
    println!("# Figure 5: single-core int-SUM encryption/decryption throughput");
    println!("# buffer sizes 64 KiB – 16 MiB, {iters} iters each; GB/s, mean ± std across sizes");
    println!(
        "{:<18} {:>12} {:>10} {:>12} {:>10}",
        "backend", "enc GB/s", "± std", "dec GB/s", "± std"
    );
    let mut measured = Vec::new();
    for backend in [
        Backend::Sha1,
        Backend::Sha1Ni,
        Backend::AesSoft,
        Backend::AesNi,
    ] {
        if !backend.is_available() {
            println!("{:<18} (not available on this CPU)", format!("{backend:?}"));
            continue;
        }
        let mut enc = Vec::new();
        let mut dec = Vec::new();
        for &size in sizes {
            let r = measure_backend(backend, size, iters).expect("available");
            enc.push(gib_per_s(r.enc_bps));
            dec.push(gib_per_s(r.dec_bps));
        }
        let (se, sd) = (stats(&enc), stats(&dec));
        println!(
            "{:<18} {:>12.3} {:>10.3} {:>12.3} {:>10.3}",
            format!("{backend:?}"),
            se.mean,
            se.std,
            sd.mean,
            sd.std
        );
        measured.push((backend, se.mean, sd.mean));
    }

    // Float scheme throughput (the paper's FP32 summation encoder).
    let keys = CommKeys::generate(1, 5, Backend::best_available())
        .into_iter()
        .next()
        .unwrap();
    let mut scheme = FloatSumScheme::new(HfpFormat::fp32(2, 2));
    let vals: Vec<f64> = (0..262_144).map(|i| i as f64 * 0.001 + 1.0).collect();
    let mut ct = Vec::new();
    let t0 = Instant::now();
    for _ in 0..iters {
        scheme.mask_slice(&keys, 0, &vals, &mut ct).unwrap();
    }
    let fenc = vals.len() as f64 * 4.0 * iters as f64 / t0.elapsed().as_secs_f64();
    let mut out = Vec::new();
    let t0 = Instant::now();
    for _ in 0..iters {
        scheme.unmask_slice(&keys, 0, &ct, &mut out);
    }
    let fdec = vals.len() as f64 * 4.0 * iters as f64 / t0.elapsed().as_secs_f64();
    println!(
        "{:<18} {:>12.3} {:>10} {:>12.3} {:>10}",
        "FP32 (HFP, best)",
        gib_per_s(fenc),
        "-",
        gib_per_s(fdec),
        "-"
    );
    println!("# Aries per-rank line rate: 0.347 GB/s — the paper's float encoder is");
    println!("# 'an order of magnitude faster' than it; check the FP32 row above.");
    if let Some((_, enc, _)) = measured.iter().find(|(b, _, _)| *b == Backend::AesNi) {
        let sha = measured
            .iter()
            .find(|(b, _, _)| *b == Backend::Sha1)
            .unwrap();
        println!(
            "# paper shape: AES-NI >> SHA1 (9 vs <1 GB/s): measured {:.2} vs {:.2} GB/s",
            enc, sha.1
        );
    }
}
