//! HoMAC tagging and verification throughput (§5.5 cost quantification).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hear::core::{Backend, CommKeys, Homac, IntSum, Scratch};

fn bench_homac(c: &mut Criterion) {
    const N: usize = 16_384;
    let keys = CommKeys::generate(1, 1, Backend::best_available()).remove(0);
    let homac = Homac::generate(2, Backend::best_available());
    let mut scratch = Scratch::default();
    let mut ct: Vec<u32> = (0..N as u32).collect();
    IntSum::encrypt_in_place(&keys, 0, &mut ct, &mut scratch);
    let tags = homac.tag(&keys, 0, &ct);

    let mut g = c.benchmark_group("homac");
    g.throughput(Throughput::Bytes((N * 4) as u64));
    g.bench_function("tag_64KiB", |b| {
        b.iter(|| std::hint::black_box(homac.tag(&keys, 0, &ct)))
    });
    g.bench_function("verify_64KiB", |b| {
        b.iter(|| std::hint::black_box(homac.verify(&keys, 0, &ct, &tags)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(400));
    targets = bench_homac
}
criterion_main!(benches);
