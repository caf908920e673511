//! Confidential multi-site survey aggregation — the §5.4 derived-operation
//! toolkit in one program.
//!
//! Hospitals (ranks) hold sensitive per-site measurements. Without ever
//! revealing a site's data to the network, the consortium computes:
//!
//! * cluster-wide mean and variance of a biomarker (Σx/Σx² preprocessing),
//! * unanimous/any-site alarm flags (AND/OR via summation encoding),
//! * exact patient counts (lossless integer SUM),
//! * a coordinator-only detailed tally (encrypted MPI_Reduce),
//! * plus the one thing HEAR *refuses*: the maximum reading — with the
//!   paper's security rationale printed instead of a wrong answer.
//!
//! ```sh
//! cargo run --release --example secure_survey
//! ```

use hear::core::{Backend, CommKeys, IntSumScheme, MpiOp};
use hear::layer::{EngineCfg, SecureComm, TypedSlice, TypedVec};
use hear::mpi::Simulator;

const SITES: usize = 5;

/// Deterministic synthetic biomarker panel per site.
fn site_data(rank: usize) -> Vec<f64> {
    (0..120)
        .map(|i| {
            let x = (rank * 120 + i) as f64;
            4.2 + (x * 0.37).sin() * 0.8 + (x * 0.011).cos() * 0.3
        })
        .collect()
}

fn main() {
    println!("== confidential {SITES}-site survey ==\n");
    let reports = Simulator::new(SITES).run(|comm| {
        let keys = CommKeys::generate(SITES, 0x50C1A1, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let data = site_data(comm.rank());

        // 1) Mean/variance across every patient at every site.
        let (mean, var, n) = sc.allreduce_variance(&data).unwrap();

        // 2) Alarm flags: [any site above threshold?, all sites above?]
        let site_max = data.iter().cloned().fold(f64::MIN, f64::max);
        let bits = [site_max > 5.0, site_max > 4.5];
        let flags = match sc.pmpi_allreduce(TypedSlice::Bool(&bits), MpiOp::Lor, EngineCfg::sync())
        {
            Ok(TypedVec::Logical(flags)) => flags,
            other => panic!("logical reduction failed: {other:?}"),
        };

        // 3) Exact patient counts (and a per-category breakdown).
        let high = data.iter().filter(|v| **v > 4.5).count() as u64;
        let counts = sc
            .allreduce_with(
                &mut IntSumScheme::default(),
                &[data.len() as u64, high],
                EngineCfg::sync(),
            )
            .unwrap();

        // 4) Coordinator-only detailed tally (site 0 is the coordinator).
        let buckets: Vec<u32> = (0..8)
            .map(|b| {
                data.iter()
                    .filter(|v| ((**v - 3.0) * 2.0) as usize == b)
                    .count() as u32
            })
            .collect();
        let tally = sc.reduce_sum_u32(0, &buckets).unwrap();

        (mean, var, n, flags, counts, tally)
    });

    let (mean, var, n, flags, counts, tally) = &reports[0];
    println!("patients (exact, lossless int SUM) : {}", counts[0]);
    println!("patients above 4.5                 : {}", counts[1]);
    println!("biomarker mean / variance          : {mean:.4} / {var:.4}  (n = {n})");
    println!(
        "alarm flags (OR, AND)              : any>5.0 = {}, all>4.5 = {}",
        flags[0].0, flags[1].1
    );
    println!(
        "coordinator bucket tally           : {:?}",
        tally.as_ref().unwrap()
    );

    // Cross-check against the pooled plaintext (which only this demo can
    // do — in production no one holds the pooled data).
    let pooled: Vec<f64> = (0..SITES).flat_map(site_data).collect();
    let pmean: f64 = pooled.iter().sum::<f64>() / pooled.len() as f64;
    assert_eq!(*n, 600);
    assert!((mean - pmean).abs() < 1e-3);
    assert_eq!(counts[0], 600);
    for r in &reports[1..] {
        assert_eq!(r.4, *counts, "all sites agree on the exact counters");
    }

    // 5) The operation HEAR refuses, with its reason.
    println!("\nrequesting MPI_MAX of the biomarker…");
    match SecureComm::check_op(MpiOp::Max) {
        Ok(_) => unreachable!(),
        Err(reason) => println!("refused: {reason}"),
    }
    println!("\nOK: statistics computed; no site's data ever crossed the wire in plaintext.");
}
