//! Ablation studies for HEAR's design choices (DESIGN.md §1):
//!
//! 1. The cancelling technique (§5.1.4): Θ(1) vs Θ(P) decryption — the
//!    naive Fig. 1 scheme's decrypt cost grows linearly with the
//!    communicator while the cancelling scheme's stays flat (at the price
//!    of one extra PRF stream during encryption).
//! 2. The AES-NI 4-block pipeline: bulk keystream throughput with the
//!    pipelined `fill_blocks` vs one-block-at-a-time evaluation.

use hear::core::{Backend, CommKeys, IntSum, NaiveIntSum, Scratch};
use hear::prf::{Backend as PB, Prf, PrfCipher};
use hear_bench::scale_factor;
use std::time::Instant;

fn main() {
    let n = 262_144usize; // 1 MiB of u32
    let iters = 8 * scale_factor() as u32;

    println!("# Ablation 1: cancelling (Θ(1)) vs naive (Θ(P)) decryption, 1 MiB vectors");
    println!(
        "{:<8} {:>16} {:>16} {:>16} {:>8}",
        "world", "cancel enc [ms]", "cancel dec [ms]", "naive dec [ms]", "ratio"
    );
    for world in [2usize, 4, 8, 16, 32, 64] {
        let (keys, reg) =
            CommKeys::generate_with_registry(world, 0xAB1A, Backend::best_available());
        let mut scratch = Scratch::default();
        let mut buf = vec![1u32; n];

        let t0 = Instant::now();
        for _ in 0..iters {
            IntSum::encrypt_in_place(&keys[0], 0, &mut buf, &mut scratch);
        }
        let t_enc = t0.elapsed().as_secs_f64() / iters as f64;

        let t0 = Instant::now();
        for _ in 0..iters {
            IntSum::decrypt_in_place(&keys[0], 0, &mut buf, &mut scratch);
        }
        let t_dec = t0.elapsed().as_secs_f64() / iters as f64;

        let t0 = Instant::now();
        for _ in 0..iters {
            NaiveIntSum::decrypt_in_place(&reg, 0, &mut buf);
        }
        let t_naive = t0.elapsed().as_secs_f64() / iters as f64;

        println!(
            "{:<8} {:>16.3} {:>16.3} {:>16.3} {:>7.1}x",
            world,
            t_enc * 1e3,
            t_dec * 1e3,
            t_naive * 1e3,
            t_naive / t_dec
        );
    }
    println!("# expected: naive/cancel dec ratio tracks the world size (Θ(P) vs Θ(1)).\n");

    println!("# Ablation 2: AES-NI pipelined fill_blocks vs per-block eval, 64 KiB keystream");
    const BLOCKS: usize = 4096;
    let reps = 200 * scale_factor() as u32;
    for backend in [PB::AesSoft, PB::AesNi] {
        let Some(prf) = PrfCipher::new(backend, 0x1234) else {
            println!("{backend:?}: unavailable");
            continue;
        };
        let mut out = vec![0u128; BLOCKS];
        let t0 = Instant::now();
        for _ in 0..reps {
            prf.fill_blocks(0, &mut out);
        }
        let bulk = BLOCKS as f64 * 16.0 * reps as f64 / t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for _ in 0..reps {
            for (i, o) in out.iter_mut().enumerate() {
                *o = prf.eval_block(i as u128);
            }
        }
        let scalar = BLOCKS as f64 * 16.0 * reps as f64 / t0.elapsed().as_secs_f64();
        println!(
            "{:?}: pipelined {:.3} GB/s vs scalar {:.3} GB/s ({:.2}x)",
            backend,
            bulk / 1e9,
            scalar / 1e9,
            bulk / scalar
        );
    }
    println!("# expected: the 4-block path only pays off on AES-NI (ILP in the AES unit).");
}
