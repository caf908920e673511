//! §5.5 experiment: HoMAC result-verification cost — tag generation /
//! verification throughput, wire inflation (the paper's per-tag estimate
//! next to the packet the engine really ships, per scheme), and a live
//! tamper-detection demonstration.

use hear::core::{
    Backend, CommKeys, FixedSumScheme, FloatProdScheme, FloatSumExpScheme, FloatSumScheme, Homac,
    IntProdScheme, IntSum, IntSumScheme, IntXorScheme, Scheme, Scratch,
};
use hear::layer::wire::PacketShape;
use hear_bench::scale_factor;
use std::time::Instant;

/// One row of the packet table: what scheme `S` ships per `plain`-byte
/// element in verified mode, in memory (what the in-process fabric moves
/// and `mpi.bytes_per_call` counts) and packed on the TCP wire.
fn packet_row<S: Scheme>(label: &str, plain: usize) {
    let shape = PacketShape::of::<S>();
    println!(
        "  {label:<22} {:>5} {:>9} {:>9} {:>10.1}x {:>9.1}x",
        shape.lanes,
        shape.mem_bytes,
        shape.wire_bytes,
        shape.mem_bytes as f64 / plain as f64,
        shape.wire_bytes as f64 / plain as f64,
    );
}

fn main() {
    let n = 262_144 * scale_factor();
    // A one-rank communicator: the rank's ciphertext IS the complete
    // aggregate, so tag+verify can be timed without a network in the loop.
    let keys = CommKeys::generate(1, 0x5E5, Backend::best_available());
    let homac = Homac::generate(0xFACE, Backend::best_available());
    let mut scratch = Scratch::with_capacity(n);

    let mut ct: Vec<u32> = (0..n as u32).collect();
    IntSum::encrypt_in_place(&keys[0], 0, &mut ct, &mut scratch);

    let t0 = Instant::now();
    let tags = homac.tag(&keys[0], 0, &ct);
    let tag_rate = n as f64 * 4.0 / t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let ok = homac.verify(&keys[0], 0, &ct, &tags);
    let verify_rate = n as f64 * 4.0 / t0.elapsed().as_secs_f64();

    println!("# §5.5 HoMAC: homomorphic result verification");
    println!(
        "tag generation : {:>8.3} GB/s of 32-bit ciphertext words",
        tag_rate / 1e9
    );
    println!("verification   : {:>8.3} GB/s", verify_rate / 1e9);
    println!(
        "tag inflation  : {}x for 32-bit data, {}x for 64-bit (one 61-bit field tag per word; \
         the paper's estimate)",
        Homac::inflation_for_width(32),
        Homac::inflation_for_width(64)
    );
    println!("verified packet the engine ships, per element (c + L digest lanes + L tags):");
    println!(
        "  {:<22} {:>5} {:>9} {:>9} {:>11} {:>10}",
        "scheme", "lanes", "mem B", "tcp B", "mem/plain", "tcp/plain"
    );
    packet_row::<IntSumScheme<u32>>("int-sum u32", 4);
    packet_row::<IntSumScheme<u64>>("int-sum u64", 8);
    packet_row::<IntProdScheme<u32>>("int-prod u32", 4);
    packet_row::<IntXorScheme<u32>>("int-xor u32", 4);
    packet_row::<IntXorScheme<u64>>("int-xor u64", 8);
    packet_row::<FixedSumScheme>("fixed-sum f64", 8);
    packet_row::<FloatSumScheme>("float-sum-v1 f64", 8);
    packet_row::<FloatSumExpScheme>("float-sum-v2 f64", 8);
    packet_row::<FloatProdScheme>("float-prod f64", 8);
    println!("honest aggregate verifies: {ok}");

    let mut tampered = ct.clone();
    tampered[n / 2] ^= 4;
    println!(
        "single flipped bit detected: {}",
        !homac.verify(&keys[0], 0, &tampered, &tags)
    );
    println!(
        "# paper: >200% inflation for a 64-bit p — one 61-bit tag per word matches that; the \
         engine's packet adds the digest lanes that make lossy schemes checkable."
    );
}
