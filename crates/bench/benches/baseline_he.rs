//! Classical-HE baseline costs (the measured substance behind Table 1's
//! R3 column): per-operation latency of Paillier/RSA/ElGamal next to
//! HEAR's per-word cost.

use criterion::{criterion_group, criterion_main, Criterion};
use hear::baselines::{ElGamal, Paillier, Rsa};
use hear::core::{Backend, CommKeys, IntSum, Scratch};
use hear::num::{BigUint, SplitMix64};

fn bench_baselines(c: &mut Criterion) {
    let mut rng = SplitMix64::new(1);
    // 512-bit keys keep Criterion runtimes sane; Table 1 uses 1024.
    let paillier = Paillier::generate(512, &mut rng);
    let rsa = Rsa::generate(512, &mut rng);
    let elgamal = ElGamal::generate(256, &mut rng);
    let m = BigUint::from_u64(123_456_789);
    let pc = paillier.encrypt(&m, &mut rng);
    let rc = rsa.encrypt(&m);
    let ec = elgamal.encrypt(&m, &mut rng);

    c.bench_function("paillier_encrypt", |b| {
        let mut rng = SplitMix64::new(2);
        b.iter(|| std::hint::black_box(paillier.encrypt(&m, &mut rng)))
    });
    c.bench_function("paillier_homomorphic_add", |b| {
        b.iter(|| std::hint::black_box(paillier.add_ciphertexts(&pc, &pc)))
    });
    c.bench_function("rsa_homomorphic_mul", |b| {
        b.iter(|| std::hint::black_box(rsa.mul_ciphertexts(&rc, &rc)))
    });
    c.bench_function("elgamal_homomorphic_mul", |b| {
        b.iter(|| std::hint::black_box(elgamal.mul_ciphertexts(&ec, &ec)))
    });
    // HEAR's cost for an entire 1024-word vector, for contrast.
    let keys = CommKeys::generate(1, 1, Backend::best_available()).remove(0);
    let mut scratch = Scratch::default();
    let mut buf = vec![7u32; 1024];
    c.bench_function("hear_encrypt_1024_words", |b| {
        b.iter(|| {
            IntSum::encrypt_in_place(&keys, 0, &mut buf, &mut scratch);
            std::hint::black_box(buf[0])
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(400));
    targets = bench_baselines
}
criterion_main!(benches);
