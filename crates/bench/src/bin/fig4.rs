//! Figure 4 regenerator: critical-path latency breakdown of a 16 B
//! MPI_Allreduce integer summation on two ranks — `encrypt / comm /
//! decrypt / other` — for the SHA-1 and AES(-NI) PRF backends, with crypto
//! overhead as a percentage of the communication time (the paper's 75.5 %
//! vs 7.1 % annotation).
//!
//! Every bar is folded from the engine's own spans of real
//! `SecureComm::allreduce_with` calls (`hear_bench::fig4_phases`); "other"
//! is the rest of the call (arena, key advance, output window), where the
//! paper had `mem_alloc` / `mem_free`. The baseline times a plain
//! `Communicator::allreduce`.
//!
//! `HEAR_SCALE=full` multiplies iterations ×10.

use hear::core::Backend;
use hear_bench::{crypto_overhead_pct, fig4_phases, json_output, scale_factor};

fn main() {
    let iters = 10_000 * scale_factor() as u32;
    let json = json_output();
    if !json {
        println!("# Figure 4: 16 B MPI_Allreduce critical-path breakdown, 2 ranks, {iters} iters");
        println!("# (per-call phase times in nanoseconds, from the engine's spans)");
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
            "variant", "encrypt", "comm", "decrypt", "other", "total", "crypto%"
        );
    }

    let mut variants: Vec<(&str, Option<Backend>)> = vec![
        ("Baseline (no crypto)", None),
        ("HEAR + SHA1", Some(Backend::Sha1)),
        ("HEAR + AES (soft)", Some(Backend::AesSoft)),
    ];
    if Backend::Sha1Ni.is_available() {
        variants.push(("HEAR + SHA-NI", Some(Backend::Sha1Ni)));
    }
    if Backend::AesNi.is_available() {
        variants.push(("HEAR + AES-NI", Some(Backend::AesNi)));
    }

    let mut rows = Vec::new();
    let mut sha_pct = None;
    let mut aes_pct = None;
    for (name, backend) in variants {
        let phases = fig4_phases(backend, 4, iters);
        let pct = crypto_overhead_pct(&phases);
        let [enc, comm, dec, other] = phases.map(|ns| ns as f64 / iters as f64);
        let total = enc + comm + dec + other;
        if json {
            rows.push(format!(
                "    {{\"variant\": \"{name}\", \"encrypt_ns\": {enc:.1}, \"comm_ns\": {comm:.1}, \
                 \"decrypt_ns\": {dec:.1}, \"other_ns\": {other:.1}, \"total_ns\": {total:.1}, \
                 \"crypto_overhead_pct\": {pct:.2}}}"
            ));
        } else {
            println!(
                "{name:<22} {enc:>10.0} {comm:>10.0} {dec:>10.0} {other:>10.0} {total:>10.0} {pct:>8.1}%"
            );
        }
        if name.contains("SHA1") {
            sha_pct = Some(pct);
        }
        if name.contains("AES-NI") {
            aes_pct = Some(pct);
        }
    }
    if json {
        println!(
            "{{\n  \"figure\": \"fig4\",\n  \"iterations\": {iters},\n  \"unit\": \"ns_per_call\",\n  \"variants\": [\n{}\n  ]\n}}",
            rows.join(",\n")
        );
        return;
    }
    if let (Some(sha), Some(aes)) = (sha_pct, aes_pct) {
        println!(
            "# paper: SHA1 75.5% vs AES-NI 7.1% of comm time; measured here: {sha:.1}% vs {aes:.1}%"
        );
        println!(
            "# shape holds if SHA1/AES-NI ratio >> 1 (paper ~10.6x): {:.1}x",
            sha / aes
        );
    }
}
