//! Distributed SGD gradient averaging with confidential gradients — the
//! paper's motivating deep-learning workload (§7.2).
//!
//! Eight ranks train a tiny linear regression model in a data-parallel
//! loop. Every iteration averages the per-rank gradients with an
//! encrypted float Allreduce (Eq. 7 HFP scheme) carried by the in-network
//! switch tree, so neither the switch nor an eavesdropper learns anything
//! about the gradients — which are well known to leak training data.
//!
//! ```sh
//! cargo run --release --example secure_gradient_averaging
//! ```

use hear::core::{Backend, CommKeys, FloatSumScheme, HfpFormat};
use hear::layer::{EngineCfg, ReduceAlgo, SecureComm};
use hear::mpi::{SimConfig, Simulator};

const WORLD: usize = 8;
const DIM: usize = 16;
const LOCAL_SAMPLES: usize = 32;
const EPOCHS: usize = 250;
const LR: f64 = 0.25;

/// Ground-truth weights the ranks should collectively recover.
fn truth(i: usize) -> f64 {
    (i as f64 * 0.37).sin() * 2.0
}

/// Deterministic per-rank synthetic dataset: y = w·x (+ tiny noise).
fn dataset(rank: usize) -> Vec<(Vec<f64>, f64)> {
    let mut state = (rank as u64 + 1) * 0x9e37_79b9;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    (0..LOCAL_SAMPLES)
        .map(|_| {
            let x: Vec<f64> = (0..DIM).map(|_| next()).collect();
            let y: f64 = x.iter().enumerate().map(|(i, xi)| truth(i) * xi).sum();
            (x, y)
        })
        .collect()
}

fn main() {
    println!("== confidential data-parallel SGD over {WORLD} ranks ==");
    let cfg = SimConfig::default().with_switch(4); // INC switch tree, radix 4
    let final_losses = Simulator::with_config(WORLD, cfg).run(|comm| {
        let keys = CommKeys::generate(WORLD, 7, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut secure = SecureComm::new(comm.clone(), keys);
        let data = dataset(comm.rank());
        let mut w = [0.0f64; DIM];
        let mut last_loss = f64::INFINITY;
        for epoch in 0..EPOCHS {
            // Local gradient of the squared loss.
            let mut grad = vec![0.0f64; DIM];
            let mut loss = 0.0;
            for (x, y) in &data {
                let pred: f64 = w.iter().zip(x).map(|(wi, xi)| wi * xi).sum();
                let err = pred - y;
                loss += err * err;
                for (g, xi) in grad.iter_mut().zip(x) {
                    *g += 2.0 * err * xi / LOCAL_SAMPLES as f64;
                }
            }
            // Encrypted gradient averaging (the Allreduce of distributed
            // SGD). FP32 layout with γ=2 — the paper's accuracy-friendly
            // setting.
            let mut float_sum = FloatSumScheme::new(HfpFormat::fp32(2, 2));
            // Gradients ride the INC switch — encrypted, as HEAR intends.
            let cfg = EngineCfg::sync().with_algo(ReduceAlgo::Switch);
            let summed = secure
                .allreduce_with(&mut float_sum, &grad, cfg)
                .expect("gradients are finite");
            for (wi, g) in w.iter_mut().zip(&summed) {
                *wi -= LR * g / WORLD as f64;
            }
            last_loss = loss / LOCAL_SAMPLES as f64;
            if comm.rank() == 0 && epoch % 50 == 0 {
                println!("epoch {epoch:3}: rank-0 local loss {last_loss:.6}");
            }
        }
        // All ranks must have converged to the shared optimum.
        let weight_err: f64 = (0..DIM)
            .map(|i| (w[i] - truth(i)).powi(2))
            .sum::<f64>()
            .sqrt();
        (last_loss, weight_err)
    });
    for (rank, (loss, werr)) in final_losses.iter().enumerate() {
        assert!(*loss < 1e-2, "rank {rank} did not converge: loss {loss}");
        assert!(*werr < 0.15, "rank {rank} weights off by {werr}");
    }
    println!(
        "converged: final rank-0 loss {:.2e}, weight error {:.2e}",
        final_losses[0].0, final_losses[0].1
    );
    println!("every gradient crossed the switch tree encrypted (HFP, Eq. 7).");
}
