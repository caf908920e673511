//! §6 "Results validation" regenerator:
//! * MPI_FLOAT scheme: N iterations of encrypt→decrypt; the paper observed
//!   an average relative error of 1.3e-7 over 10M iterations (FP32).
//! * MPI_INT summation: receive buffers of the encrypted and the reference
//!   reduction compared bit-for-bit (std::memcmp equivalent).
//!
//! Default N = 1M; `HEAR_SCALE=full` uses the paper's 10M.

use hear::core::{Backend, CommKeys, FloatSumScheme, HfpFormat, MpiOp, Scheme};
use hear::layer::{EngineCfg, SecureComm, TypedSlice, TypedVec};
use hear::mpi::Simulator;
use hear_bench::{exp_sampled_values, json_output, scale_factor};

fn main() {
    let n = 1_000_000 * scale_factor();
    let json = json_output();
    if !json {
        println!("# §6 results validation");
    }

    // Float enc/dec roundtrip error.
    let keys = CommKeys::generate(1, 0xBA11, Backend::best_available())
        .into_iter()
        .next()
        .unwrap();
    let mut scheme = FloatSumScheme::new(HfpFormat::fp32(2, 2));
    let mut total_rel = 0.0f64;
    let mut max_rel = 0.0f64;
    let batch = 65_536;
    let (mut ct, mut out) = (Vec::new(), Vec::new());
    let mut done = 0usize;
    let mut seed = 1u64;
    while done < n {
        let take = batch.min(n - done);
        let vals = exp_sampled_values(take, -20..20, seed);
        seed += 1;
        scheme.mask_slice(&keys, 0, &vals, &mut ct).unwrap();
        scheme.unmask_slice(&keys, 0, &ct, &mut out);
        for (v, o) in vals.iter().zip(&out) {
            let rel = ((o - v) / v).abs();
            total_rel += rel;
            max_rel = max_rel.max(rel);
        }
        done += take;
    }
    if !json {
        println!(
            "MPI_FLOAT (FP32, γ=2): {} enc/dec iterations, mean rel err {:.3e}, max {:.3e}",
            n,
            total_rel / n as f64,
            max_rel
        );
        println!("  paper: average 1.3e-7 over 10M iterations");
    }

    // Integer exactness: encrypted vs reference receive buffers.
    let results = Simulator::new(4).run(|comm| {
        let keys = CommKeys::generate(4, 0xBA12, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let data: Vec<i32> = (0..100_000)
            .map(|j| (j as i64 * 2_654_435_761u64 as i64 + comm.rank() as i64) as i32)
            .collect();
        let enc = sc.pmpi_allreduce(TypedSlice::I32(&data), MpiOp::Sum, EngineCfg::sync());
        let reference = comm.allreduce(&data, |a, b| a.wrapping_add(*b));
        enc == Ok(TypedVec::I32(reference))
    });
    assert!(results.iter().all(|ok| *ok));
    if json {
        println!(
            "{{\n  \"figure\": \"validation\",\n  \"float_roundtrip\": {{\"iterations\": {n}, \
             \"mean_rel_err\": {:.6e}, \"max_rel_err\": {:.6e}, \"paper_mean_rel_err\": 1.3e-7}},\n  \
             \"int_exact\": {{\"ranks\": 4, \"elements\": 100000, \"memcmp_zero\": true}}\n}}",
            total_rel / n as f64,
            max_rel
        );
    } else {
        println!(
            "MPI_INT summation: 100k-element receive buffers identical on all 4 ranks (memcmp == 0)"
        );
    }
}
