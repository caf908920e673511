//! Scheme-level encryption/decryption throughput: the integer SUM hot path
//! (keystream + ring add) and the float SUM path (noise derivation + ⊗),
//! per backend and message size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hear::core::{Backend, CommKeys, FloatSumScheme, HfpFormat, IntSum, Scheme, Scratch};

fn bench_int_sum(c: &mut Criterion) {
    let mut g = c.benchmark_group("int_sum_encrypt");
    for elems in [4usize, 4096, 262_144] {
        g.throughput(Throughput::Bytes((elems * 4) as u64));
        for backend in [Backend::Sha1, Backend::AesNi] {
            if !backend.is_available() {
                continue;
            }
            let keys = CommKeys::generate(2, 1, backend).remove(0);
            let mut scratch = Scratch::default();
            let mut buf = vec![7u32; elems];
            g.bench_function(BenchmarkId::new(format!("{backend:?}"), elems), |b| {
                b.iter(|| {
                    IntSum::encrypt_in_place(&keys, 0, &mut buf, &mut scratch);
                    std::hint::black_box(buf[0])
                });
            });
        }
    }
    g.finish();
}

fn bench_int_sum_decrypt(c: &mut Criterion) {
    let mut g = c.benchmark_group("int_sum_decrypt");
    let elems = 262_144;
    g.throughput(Throughput::Bytes((elems * 4) as u64));
    let keys = CommKeys::generate(2, 1, Backend::best_available()).remove(0);
    let mut scratch = Scratch::default();
    let mut buf = vec![7u32; elems];
    g.bench_function("best_backend_1MiB", |b| {
        b.iter(|| {
            IntSum::decrypt_in_place(&keys, 0, &mut buf, &mut scratch);
            std::hint::black_box(buf[0])
        });
    });
    g.finish();
}

fn bench_float_sum(c: &mut Criterion) {
    let mut g = c.benchmark_group("float_sum_encrypt");
    let elems = 16_384;
    g.throughput(Throughput::Bytes((elems * 4) as u64));
    let keys = CommKeys::generate(2, 1, Backend::best_available()).remove(0);
    let mut scheme = FloatSumScheme::new(HfpFormat::fp32(2, 2));
    let vals: Vec<f64> = (0..elems).map(|i| i as f64 + 0.5).collect();
    let mut ct = Vec::new();
    g.bench_function("fp32_gamma2_64KiB", |b| {
        b.iter(|| {
            scheme.mask_slice(&keys, 0, &vals, &mut ct).unwrap();
            std::hint::black_box(ct.len())
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_int_sum, bench_int_sum_decrypt, bench_float_sum
}
criterion_main!(benches);
