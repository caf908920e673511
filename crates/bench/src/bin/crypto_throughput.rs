//! Mask/unmask throughput: fused one-pass kernels vs the split
//! fill-then-combine path, per PRF backend × word width, on a 64 KiB
//! payload. Emits `BENCH_crypto.json` (the per-commit crypto trajectory)
//! and doubles as the `perf_gate` driver for `scripts/ci.sh`:
//!
//! ```text
//! crypto_throughput            # full sweep, writes BENCH_crypto.json
//! crypto_throughput --gate     # fused must not be slower than split,
//!                              # HoMAC packet passes ≥ 2× the scalar
//!                              # reference at 1 and 5 lanes,
//!                              # fused float cipher ≥ 3× its reference,
//!                              # FPU ⊕ fold ≥ 1.25× the integer reference,
//!                              # two-stream out-of-place mask ≥ 1.3× copy
//!                              # + two in-place passes at 64 MiB,
//!                              # VAES tile ≥ 1.2× the 128-bit tile at 1 MiB
//! ```
//!
//! The split path is what every scheme did before the fused kernels: the
//! keystream into a scratch vector, then a second wrapping-add pass — two
//! passes over the payload, three over the keystream. Its fill is
//! [`hear::prf::keystream`], itself one kernel pass, so both rows run the
//! same generator and the gate guards pass fusion alone. The fused path
//! ([`hear::prf::kernels`]) folds each PRF block into the payload as it is
//! generated, so the keystream never exists in memory; on AES-NI the
//! blocks stay in SSE registers through the 8-wide pipeline. `HEAR_SCALE`
//! and `HEAR_BENCH_FAST` budgets apply as for every other bench target.
//!
//! The `homac_64Ki` rows time §5.5's HoMAC over 64 Ki lanes or elements on
//! one thread, the bulk kernel against the scalar reference it is tested
//! against. The `packets/l1/*` and `packets/l5/*` rows are what the
//! engine's verified path runs and what the gate holds, at one lane an
//! element (`u32` sum) and at five (`u8` product): `Homac::seal_pass`
//! over the input and its ciphertext, writing finished packets, and
//! `Homac::open_pass`, checking every tag and splitting the packets
//! (tiled PRF fill, pad and tag from one block, exact residual), against
//! the digest loop, `seal_lanes_scalar` / `open_lanes_scalar` (one block
//! per key) and the zip / unzip around them, on a two-rank aggregate. The
//! `tag/*` and `verify/*` rows are the public ring-word API
//! (`Homac::tag_into` / `verify` with the Θ(1) overflow test against
//! `tag_plain` / `verify_plain`), reported only.
//!
//! The `float_64Ki` rows time §5.3's float SUM over 64 Ki fp64(2, 2)
//! elements on one thread: `FloatSumScheme`'s fused mask / unmask and the
//! `ops::add` fold, whose significand work runs on the FPU, against the
//! integer reference they are tested against (`noise_at` one block at a
//! time, `hear_hfp`'s `ops::reference` kernels, `to_f64_by_scaling`).
//!
//! The `mask_64Mi` / `mask_1Mi` rows time the integer engine's mask and
//! unmask as whole-payload passes over `u32` on one thread: the N-stream
//! out-of-place kernel (`par_fused_pass` appending into a `Vec` — every
//! byte read once, written once) against what the engine did before it:
//! copy the payload, then one in-place pass per noise stream (two for a
//! mask, `+F(own)` then `−F(next)`; one for an unmask). On a VAES host the
//! `*/fused_narrow_tile` rows repeat the fused pass on the 128-bit AES-NI
//! tile, so the two tile widths are read side by side in GB/s: at 1 MiB the
//! pass is cipher-bound and the wide tile shows; at 64 MiB it is
//! memory-bound and the two nearly meet.

use criterion::{black_box, Criterion, Throughput};
use hear::core::{
    noise_at, split_lanes, CommKeys, FloatSumScheme, Homac, IntProdScheme, IntSumScheme, LaneArray,
    Scheme, DIGEST_BASE, DIGEST_LANES,
};
use hear::hfp::ops::{self, reference};
use hear::hfp::{Hfp, HfpFormat};
use hear::prf::kernels::add_keystream_into;
use hear::prf::{
    keystream, par_add_keystream_into, par_fused_pass, with_pool, Backend, Payload, PrfCipher,
    Stream, WorkerPool,
};

/// Small payload: 64 KiB, the Fig. 5 sweet spot (big enough to leave L1,
/// small enough that every backend finishes a sample fast).
const PAYLOAD_BYTES: usize = 64 * 1024;

/// Large payload: 4 MiB, past last-level cache, where the split path's
/// extra keystream round trip costs real memory bandwidth — the gradient
/// regime of §7.2. AES-NI only (the software backends would take seconds
/// per sample and their ratio is compute-bound anyway).
const BIG_PAYLOAD_BYTES: usize = 4 * 1024 * 1024;

/// `--gate` tolerance: fused may be at most this factor slower than split
/// before the gate fails. Generous because CI shares one loaded core; on
/// idle hardware fused wins outright (that 1.5×+ margin is what
/// `BENCH_crypto.json` tracks).
const GATE_TOLERANCE: f64 = 1.25;

/// HoMAC batch: 64 Ki elements (lanes, on the packet rows) — above the
/// kernel's fan-out threshold, so the rows pin a one-thread pool.
const HOMAC_WORDS: usize = 64 * 1024;

/// `--gate` floor for the HoMAC packet passes over the scalar reference
/// (before [`GATE_TOLERANCE`]): the reference shares the folded field
/// arithmetic and the digest, so what the gate guards is the tiled 8-wide
/// key derivation and the one pass that builds the packets.
const HOMAC_MIN_SPEEDUP: f64 = 2.0;

/// The ring-word tag and verify rows, bulk vs scalar, in a one-rank world
/// (the rank's ciphertext is the whole aggregate, and `tag_plain` equals
/// `tag_into`). Reported, not gated: the engine does not run them.
fn bench_homac(c: &mut Criterion, group: &str, backend: Backend) {
    let (keys, registry) = CommKeys::generate_with_registry(1, 0x5E5, backend);
    let homac = Homac::generate(0xFACE, backend);
    let cipher: Vec<u64> = (0..HOMAC_WORDS as u64)
        .map(|j| j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut tags = Vec::new();
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Bytes(8 * HOMAC_WORDS as u64));
    with_pool(&WorkerPool::new(1), || {
        g.bench_function("tag/bulk", |b| {
            b.iter(|| homac.tag_into(&keys[0], 0, &cipher, &mut tags))
        });
        g.bench_function("tag/scalar", |b| {
            b.iter(|| black_box(homac.tag_plain(&keys[0], 0, &cipher)))
        });
        g.bench_function("verify/bulk", |b| {
            b.iter(|| assert!(homac.verify(&keys[0], 0, &cipher, &tags)))
        });
        g.bench_function("verify/scalar", |b| {
            b.iter(|| assert!(homac.verify_plain(&registry, 0, &cipher, &tags)))
        });
    });
    g.finish();
}

/// What the engine's verified transport ships an element as: its
/// ciphertext, its sealed digest lanes and their tags.
#[derive(Clone, Copy, PartialEq)]
struct Packet<W, L> {
    c: W,
    d: L,
    s: L,
}

/// The engine's packet rows, bulk vs scalar, for scheme `S` at `L =
/// S::Lanes::LANES` lanes an element and 64 Ki lanes in all. Rank 0 of a
/// two-rank world seals the masked block (own and next stream), and rank 0
/// opens the two ranks' aggregate. Bulk is the pass the engine runs:
/// `Homac::seal_pass` digests each element in registers and writes its
/// finished packet, `Homac::open_pass` checks every tag and splits the
/// packets into ciphertexts and opened lane sums. Scalar is the reference
/// it is tested against: the digest loop, `seal_lanes_scalar` (one block
/// per key) and a zip into packets; an unzip and `open_lanes_scalar`. The
/// mask and unmask, the same on both sides, are left out.
fn bench_homac_packets<S: Scheme>(
    c: &mut Criterion,
    group: &str,
    backend: Backend,
    mut scheme: S,
    input: impl Fn(u64) -> S::Input,
) {
    let lanes = S::Lanes::LANES;
    let (n, first) = (HOMAC_WORDS / lanes, DIGEST_BASE);
    let keys = CommKeys::generate(2, 0x5E5, backend);
    let homac = Homac::generate(0xFACE, backend);
    let [(x, wire), (x1, wire1)] = [0, 1].map(|r| {
        let x: Vec<S::Input> = (0..n as u64).map(|j| input(j * 2 + r as u64)).collect();
        let mut wire = Vec::new();
        (scheme.mask_slice(&keys[r], 0, &x, &mut wire)).expect("encodable");
        (x, wire)
    });
    let scheme = &scheme;
    // The scalar rows' steps, each into a buffer it clears, as the engine's
    // are: only the references' own results are allocated per call.
    let digests = |x: &[S::Input], out: &mut Vec<u64>| {
        let mut words = [0u64; DIGEST_LANES];
        out.clear();
        out.extend(x.iter().flat_map(|x| {
            scheme.digest(x, &mut words);
            split_lanes(&words).into_iter().take(lanes)
        }));
    };
    let zip = |wire: &[S::Wire], sealed: &[[u64; 2]], out: &mut Vec<Packet<_, _>>| {
        out.clear();
        out.extend(
            (wire.iter().zip(sealed.chunks_exact(lanes))).map(|(c, pairs)| {
                let (mut d, mut s) = (S::Lanes::ZERO, S::Lanes::ZERO);
                for (b, [lane, tag]) in pairs.iter().enumerate() {
                    (d.as_mut()[b], s.as_mut()[b]) = (*lane, *tag);
                }
                Packet { c: *c, d, s }
            }),
        );
    };
    let (mut halves, mut p0, mut p1) = (Vec::new(), Vec::new(), Vec::new());
    digests(&x, &mut halves);
    zip(
        &wire,
        &homac.seal_lanes_scalar(&keys[0], first, &halves),
        &mut p0,
    );
    digests(&x1, &mut halves);
    zip(
        &wire1,
        &homac.seal_lanes_scalar(&keys[1], first, &halves),
        &mut p1,
    );
    let agg: Vec<Packet<S::Wire, S::Lanes>> = (p0.iter().zip(&p1))
        .map(|(a, b)| {
            let (mut d, mut s) = (a.d, a.s);
            for b_ in 0..lanes {
                d.as_mut()[b_] = Homac::combine(a.d.as_ref()[b_], b.d.as_ref()[b_]);
                s.as_mut()[b_] = Homac::combine(a.s.as_ref()[b_], b.s.as_ref()[b_]);
            }
            Packet {
                c: S::op(&a.c, &b.c),
                d,
                s,
            }
        })
        .collect();
    let (mut packets, mut opened) = (Vec::new(), (Vec::new(), Vec::new()));
    let (mut column, mut pairs) = (Vec::new(), Vec::new());
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Bytes(4 * (n * lanes) as u64));
    with_pool(&WorkerPool::new(1), || {
        g.bench_function(format!("packets/l{lanes}/seal/bulk"), |b| {
            b.iter(|| {
                packets.clear();
                let digest = |(x, _): &(S::Input, S::Wire)| scheme.digest_lanes(x);
                let put = |(_, c), d, s| Packet { c, d, s };
                homac.seal_pass(
                    &keys[0],
                    first,
                    (&x[..], &wire[..]),
                    &mut packets,
                    digest,
                    put,
                );
            })
        });
        g.bench_function(format!("packets/l{lanes}/seal/scalar"), |b| {
            b.iter(|| {
                digests(&x, &mut halves);
                let sealed = homac.seal_lanes_scalar(&keys[0], first, &halves);
                zip(&wire, &sealed, &mut packets);
                black_box(&packets);
            })
        });
        g.bench_function(format!("packets/l{lanes}/open/bulk"), |b| {
            b.iter(|| {
                opened.0.clear();
                opened.1.clear();
                let sealed = |p: &Packet<S::Wire, S::Lanes>| (p.d, p.s);
                let split = |p: Packet<S::Wire, S::Lanes>, sums| (p.c, sums);
                let columns = (&mut opened.0, &mut opened.1);
                assert!(homac.open_pass(&keys[0], first, &agg[..], columns, sealed, split));
            })
        });
        g.bench_function(format!("packets/l{lanes}/open/scalar"), |b| {
            b.iter(|| {
                column.clear();
                column.extend(agg.iter().map(|p| p.c));
                pairs.clear();
                pairs.extend(
                    (agg.iter()).flat_map(|p| {
                        (p.d.as_ref().iter().zip(p.s.as_ref())).map(|(d, s)| [*d, *s])
                    }),
                );
                let sums = homac.open_lanes_scalar(&keys[0], first, &pairs);
                black_box((&column, sums.expect("honest aggregate")));
            })
        });
    });
    g.finish();
}

/// The packet rows at one lane (`u32` integer sum, `verified_mem`'s
/// scheme) and at five (`u8` integer product: its digest, a 2-adic
/// logarithm, costs a few steps per element at 8 bits, against some 60 at
/// 64, where it would be the time on both sides).
fn bench_homac_lanes(c: &mut Criterion, group: &str, backend: Backend) {
    bench_homac_packets(c, group, backend, IntSumScheme::<u32>::default(), |j| {
        j.wrapping_mul(0x9E37_79B9) as u32
    });
    bench_homac_packets(c, group, backend, IntProdScheme::<u8>::default(), |j| {
        (j.wrapping_mul(0x9E37_79B9) >> 24) as u8 | 1
    });
}

/// Float batch: 64 Ki gradients (512 KiB of `f64`, 2 MiB of ciphertext).
const FLOAT_ELEMS: usize = 64 * 1024;

/// `--gate` floor for the fused float cipher over its scalar reference
/// (before [`GATE_TOLERANCE`]), encrypt and decrypt. Measured 4.7–7.3× encrypt /
/// 3.8–5.4× decrypt on AES-NI (three fast-budget gate runs) with the
/// significands on the FPU.
const FLOAT_MIN_SPEEDUP: f64 = 3.0;

/// `--gate` floor for the ⊕ fold over the integer reference's (before
/// [`GATE_TOLERANCE`]). The fold has no data-dependent jump left (the
/// reference has one per rounding decision and a three-way ordering), so
/// its margin no longer rests on the branch predictor. Measured 1.6–2.4×
/// in the same runs (the fold streams 6 MiB, so the host's memory shows).
const FLOAT_ADD_MIN_SPEEDUP: f64 = 1.25;

/// Encrypt, decrypt and ⊕-fold rows, fused vs scalar, on the sharded-SGD
/// layout. The aggregate is two ranks' ciphertexts folded, as the ring
/// would deliver it.
fn bench_float(c: &mut Criterion, group: &str, backend: Backend) {
    let keys = CommKeys::generate(2, 0xF10A7, backend);
    let fmt = HfpFormat::fp64(2, 2);
    let ((le, lm), (cew, cmw)) = (fmt.plain_widths(), fmt.cipher_widths());
    let mut cipher = FloatSumScheme::new(fmt);
    // Signs and magnitudes without a pattern (a branch predictor learns a
    // sine): a multiplicative hash of the index, in (−0.8, 0.8).
    let grads = |rank: u64| -> Vec<f64> {
        (0..FLOAT_ELEMS as u64)
            .map(|j| {
                let h = ((rank << 32) | j).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1.6
            })
            .collect()
    };
    let (x, mut ct, mut other) = (grads(0), Vec::new(), Vec::new());
    cipher
        .mask_slice(&keys[1], 0, &grads(1), &mut other)
        .unwrap();
    let noise = |j: usize| noise_at(keys[0].prf(), keys[0].base_collective(), j as u64, cew, cmw);
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Bytes(8 * FLOAT_ELEMS as u64));
    with_pool(&WorkerPool::new(1), || {
        g.bench_function("encrypt/fused", |b| {
            b.iter(|| cipher.mask_slice(&keys[0], 0, &x, &mut ct).unwrap())
        });
        let mut ct_ref: Vec<Hfp> = Vec::with_capacity(FLOAT_ELEMS);
        g.bench_function("encrypt/scalar", |b| {
            b.iter(|| {
                ct_ref.clear();
                ct_ref.extend(x.iter().enumerate().map(|(j, v)| {
                    let plain = Hfp::from_f64(*v, le, lm).expect("finite gradient");
                    reference::mul(&plain, &noise(j), cew, cmw)
                }));
            })
        });
        assert_eq!(ct, ct_ref, "fused encrypt must equal the scalar reference");
        let mut agg = ct.clone();
        g.bench_function("add/fpu", |b| {
            b.iter(|| {
                for ((s, a), o) in agg.iter_mut().zip(&ct).zip(&other) {
                    *s = ops::add(a, o);
                }
            })
        });
        let mut agg_ref = ct.clone();
        g.bench_function("add/scalar", |b| {
            b.iter(|| {
                for ((s, a), o) in agg_ref.iter_mut().zip(&ct).zip(&other) {
                    *s = reference::add(a, o);
                }
            })
        });
        assert_eq!(agg, agg_ref, "FPU add must equal the integer reference");
        let mut pt = Vec::new();
        g.bench_function("decrypt/fused", |b| {
            b.iter(|| cipher.unmask_slice(&keys[0], 0, &agg, &mut pt))
        });
        let mut pt_ref: Vec<f64> = Vec::with_capacity(FLOAT_ELEMS);
        g.bench_function("decrypt/scalar", |b| {
            b.iter(|| {
                pt_ref.clear();
                pt_ref.extend(
                    agg.iter()
                        .enumerate()
                        .map(|(j, a)| reference::div(a, &noise(j), cew, cmw).to_f64_by_scaling()),
                );
            })
        });
        assert_eq!(pt, pt_ref, "fused decrypt must equal the scalar reference");
    });
    g.finish();
}

/// `--gate` floor for the two-stream out-of-place mask over copy + two
/// in-place passes at 64 MiB (before [`GATE_TOLERANCE`]). Measured ≈ 1.6–1.8×
/// on AES-NI: three of the old path's five payload sweeps are gone, and what
/// is left is the cipher.
const MASK_MIN_SPEEDUP: f64 = 1.3;

/// Whole-payload mask (two streams) and unmask (one stream) rows over
/// `bytes` of `u32` on a one-thread pool: one out-of-place pass vs copy +
/// one in-place pass per stream.
fn bench_mask(c: &mut Criterion, group: &str, bytes: usize, backend: Backend) {
    let prf = PrfCipher::new(backend, 0xC0FFEE).expect("backend was filtered for availability");
    let pool = WorkerPool::new(1);
    let (own, next) = (0x5eed_0000u128, 0x5eed_0000u128 << 64);
    let streams = [own, next].map(|base| Stream { prf: &prf, base });
    let src: Vec<u32> = (0..(bytes / 4) as u32)
        .map(|j| j.wrapping_mul(0x9E37_79B9))
        .collect();
    let (mut fused, mut copied) = (Vec::with_capacity(src.len()), Vec::with_capacity(src.len()));
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("two_stream/fused", |b| {
        b.iter(|| {
            fused.clear();
            let payload = Payload::Extend(&src[..], &mut fused);
            par_fused_pass(&pool, &streams, 0, payload, |x, [a, b]| {
                x.wrapping_add(a).wrapping_sub(b)
            });
        })
    });
    g.bench_function("two_stream/copy_then_in_place", |b| {
        b.iter(|| {
            copied.clear();
            copied.extend_from_slice(&src);
            par_add_keystream_into(&pool, &prf, own, 0, &mut copied);
            par_fused_pass(
                &pool,
                &[streams[1]],
                0,
                Payload::InPlace(&mut copied),
                |x, [b]| x.wrapping_sub(b),
            );
        })
    });
    assert!(
        fused == copied,
        "the two-stream pass must equal copy + two passes"
    );
    g.bench_function("one_stream/fused", |b| {
        b.iter(|| {
            fused.clear();
            let payload = Payload::Extend(&src[..], &mut fused);
            par_fused_pass(&pool, &[streams[0]], 0, payload, |x, [a]| x.wrapping_sub(a));
        })
    });
    g.bench_function("one_stream/copy_then_in_place", |b| {
        b.iter(|| {
            copied.clear();
            copied.extend_from_slice(&src);
            par_fused_pass(
                &pool,
                &[streams[0]],
                0,
                Payload::InPlace(&mut copied),
                |x, [a]| x.wrapping_sub(a),
            );
        })
    });
    assert!(
        fused == copied,
        "the one-stream pass must equal copy + one pass"
    );
    // The same fused passes on the 128-bit tile, where `prf` runs the wide
    // one: `fused` over `fused_narrow_tile` is what VAES buys.
    if let Some(narrow) = PrfCipher::aesni_narrow(0xC0FFEE).filter(|_| prf.has_wide_tile()) {
        let streams = [own, next].map(|base| Stream { prf: &narrow, base });
        g.bench_function("one_stream/fused_narrow_tile", |b| {
            b.iter(|| {
                copied.clear();
                let payload = Payload::Extend(&src[..], &mut copied);
                par_fused_pass(&pool, &[streams[0]], 0, payload, |x, [a]| x.wrapping_sub(a));
            })
        });
        assert!(fused == copied, "the two tiles must agree bit for bit");
        g.bench_function("two_stream/fused_narrow_tile", |b| {
            b.iter(|| {
                copied.clear();
                let payload = Payload::Extend(&src[..], &mut copied);
                par_fused_pass(&pool, &streams, 0, payload, |x, [a, b]| {
                    x.wrapping_add(a).wrapping_sub(b)
                });
            })
        });
    }
    g.finish();
}

macro_rules! bench_width {
    ($g:expr, $prf:expr, $bytes:expr, $ty:ty) => {{
        let n = $bytes / std::mem::size_of::<$ty>();
        let base: u128 = 0x5eed_0000;
        let mut payload: Vec<$ty> = (0..n).map(|j| j as $ty).collect();
        let mut scratch: Vec<$ty> = vec![0; n];
        let bits = 8 * std::mem::size_of::<$ty>();
        $g.bench_function(format!("u{bits}/fused"), |b| {
            b.iter(|| {
                add_keystream_into($prf, base, 0, &mut payload[..]);
                black_box(payload[0]);
            })
        });
        $g.bench_function(format!("u{bits}/split"), |b| {
            b.iter(|| {
                keystream($prf, base, 0, &mut scratch[..]);
                for (p, k) in payload.iter_mut().zip(scratch.iter()) {
                    *p = p.wrapping_add(*k);
                }
                black_box(payload[0]);
            })
        });
    }};
}

fn backends() -> Vec<Backend> {
    [
        Backend::Sha1,
        Backend::Sha1Ni,
        Backend::AesSoft,
        Backend::AesNi,
    ]
    .into_iter()
    .filter(|b| b.is_available())
    .collect()
}

fn sweep(c: &mut Criterion) {
    for backend in backends() {
        let prf = PrfCipher::new(backend, 0xC0FFEE).expect("backend was filtered for availability");
        let mut g = c.benchmark_group(format!("mask_64KiB/{backend:?}"));
        g.throughput(Throughput::Bytes(PAYLOAD_BYTES as u64));
        bench_width!(g, &prf, PAYLOAD_BYTES, u8);
        bench_width!(g, &prf, PAYLOAD_BYTES, u16);
        bench_width!(g, &prf, PAYLOAD_BYTES, u32);
        bench_width!(g, &prf, PAYLOAD_BYTES, u64);
        g.finish();
    }
    if Backend::AesNi.is_available() {
        let prf = PrfCipher::new(Backend::AesNi, 0xC0FFEE).expect("availability checked");
        let mut g = c.benchmark_group("mask_4MiB/AesNi");
        g.throughput(Throughput::Bytes(BIG_PAYLOAD_BYTES as u64));
        bench_width!(g, &prf, BIG_PAYLOAD_BYTES, u8);
        bench_width!(g, &prf, BIG_PAYLOAD_BYTES, u16);
        bench_width!(g, &prf, BIG_PAYLOAD_BYTES, u32);
        bench_width!(g, &prf, BIG_PAYLOAD_BYTES, u64);
        g.finish();
    }
    bench_homac_lanes(c, "homac_64Ki", Backend::best_available());
    bench_homac(c, "homac_64Ki", Backend::best_available());
    bench_float(c, "float_64Ki", Backend::best_available());
    bench_mask(c, "mask_64Mi", 64 << 20, Backend::best_available());
    bench_mask(c, "mask_1Mi", 1 << 20, Backend::best_available());
}

/// `--gate`: fused u32 masking on the best backend must not be slower
/// than the split path, within [`GATE_TOLERANCE`]. Best-of-3 attempts
/// because the CI core is shared and a single descheduled sample can
/// invert a close race.
fn run_gate() -> ! {
    let backend = Backend::best_available();
    let mut worst = f64::INFINITY;
    for attempt in 1..=3 {
        let mut c = Criterion::default();
        let prf = PrfCipher::new(backend, 0xC0FFEE).expect("best backend always constructs");
        let mut g = c.benchmark_group("gate");
        g.throughput(Throughput::Bytes(PAYLOAD_BYTES as u64));
        bench_width!(g, &prf, PAYLOAD_BYTES, u32);
        g.finish();
        let fused = c.stats("gate/u32/fused").expect("recorded").median_ns;
        let split = c.stats("gate/u32/split").expect("recorded").median_ns;
        let ratio = fused / split;
        println!(
            "perf_gate[{backend:?}] attempt {attempt}: fused {fused:.0} ns vs split \
             {split:.0} ns per 64 KiB (fused/split = {ratio:.3}, limit {GATE_TOLERANCE})"
        );
        if ratio <= GATE_TOLERANCE {
            println!(
                "perf_gate: OK (fused is {:.2}x the split path)",
                1.0 / ratio
            );
            run_homac_gate(backend);
        }
        worst = worst.min(ratio);
    }
    eprintln!(
        "perf_gate: FAIL — fused mask path is {worst:.3}x the split path \
         (limit {GATE_TOLERANCE}); the one-pass kernels have regressed"
    );
    std::process::exit(1);
}

/// `--gate`, second half: the HoMAC packet passes the engine's verified
/// path runs must beat the scalar references by [`HOMAC_MIN_SPEEDUP`]
/// (within [`GATE_TOLERANCE`]), seal and open, at one lane an element and
/// at five. Without AES-NI the bulk fill has no wide pipeline to feed, so
/// the gate skips with a notice, like the roofline gate on a small host.
fn run_homac_gate(backend: Backend) -> ! {
    if backend != Backend::AesNi {
        println!(
            "homac_gate: SKIP — no AES-NI on this host; the ≥{HOMAC_MIN_SPEEDUP}x floor assumes \
             the 8-wide fill"
        );
        println!("float_gate: SKIP — on a software PRF the block cipher is the time on both sides");
        println!("mask_gate: SKIP — likewise: the passes saved are noise beside a software cipher");
        println!("tile_gate: SKIP — no AES-NI, so no tile of either width");
        std::process::exit(0);
    }
    let floor = HOMAC_MIN_SPEEDUP / GATE_TOLERANCE;
    let rows = ["l1/seal", "l1/open", "l5/seal", "l5/open"];
    let mut best = [0f64; 4];
    for attempt in 1..=3 {
        let mut c = Criterion::default();
        bench_homac_lanes(&mut c, "gate_homac", backend);
        let ns = |row: &str| {
            let stats = c
                .stats(&format!("gate_homac/packets/{row}"))
                .expect("recorded");
            stats.median_ns
        };
        let speedup = rows.map(|row| ns(&format!("{row}/scalar")) / ns(&format!("{row}/bulk")));
        println!(
            "homac_gate attempt {attempt}: the packet passes are {:.2}x (seal) / {:.2}x (open) \
             the scalar reference at 1 lane an element, {:.2}x / {:.2}x at 5, over {HOMAC_WORDS} \
             lanes, floor {floor:.2}x",
            speedup[0], speedup[1], speedup[2], speedup[3]
        );
        if speedup.iter().all(|s| *s >= floor) {
            println!("homac_gate: OK");
            run_float_gate(backend);
        }
        best = std::array::from_fn(|i| best[i].max(speedup[i]));
    }
    eprintln!(
        "homac_gate: FAIL — the packet passes reached {:.2}x / {:.2}x (seal / open, 1 lane) and \
         {:.2}x / {:.2}x (5 lanes) the scalar reference (floor {floor:.2}x); the HoMAC packet \
         passes have regressed",
        best[0], best[1], best[2], best[3]
    );
    std::process::exit(1);
}

/// `--gate`, third part: the fused float cipher must beat its scalar
/// reference by [`FLOAT_MIN_SPEEDUP`] on encrypt and decrypt, and the ⊕
/// fold the reference fold by [`FLOAT_ADD_MIN_SPEEDUP`] (each within
/// [`GATE_TOLERANCE`]). Reached only where the HoMAC gate ran (AES-NI; it
/// prints this gate's SKIP otherwise): on a software PRF the block cipher,
/// not the staging and the HFP kernels, is the time.
fn run_float_gate(backend: Backend) -> ! {
    let floors =
        [FLOAT_MIN_SPEEDUP, FLOAT_MIN_SPEEDUP, FLOAT_ADD_MIN_SPEEDUP].map(|f| f / GATE_TOLERANCE);
    let mut best = [0f64; 3];
    for attempt in 1..=3 {
        let mut c = Criterion::default();
        bench_float(&mut c, "gate_float", backend);
        let ns = |row: &str| {
            let stats = c.stats(&format!("gate_float/{row}")).expect("recorded");
            stats.median_ns
        };
        let speedup = [
            ns("encrypt/scalar") / ns("encrypt/fused"),
            ns("decrypt/scalar") / ns("decrypt/fused"),
            ns("add/scalar") / ns("add/fpu"),
        ];
        println!(
            "float_gate attempt {attempt}: fused is {:.2}x (encrypt) / {:.2}x (decrypt) the scalar \
             reference at {FLOAT_ELEMS} fp64(2,2) elements, floor {:.2}x; add fold {:.2}x, \
             floor {:.2}x",
            speedup[0], speedup[1], floors[0], speedup[2], floors[2],
        );
        if speedup.iter().zip(&floors).all(|(s, f)| s >= f) {
            println!("float_gate: OK");
            run_mask_gate(backend);
        }
        best = std::array::from_fn(|i| best[i].max(speedup[i]));
    }
    eprintln!(
        "float_gate: FAIL — fused encrypt/decrypt reached {:.2}x / {:.2}x the scalar reference \
         (floor {:.2}x) and the add fold {:.2}x (floor {:.2}x); the fused float loop or the HFP \
         kernels have regressed",
        best[0], best[1], floors[0], best[2], floors[2]
    );
    std::process::exit(1);
}

/// `--gate`, last part: masking 64 MiB out of place with both noise streams
/// folded in one pass must beat copy + two in-place passes by
/// [`MASK_MIN_SPEEDUP`] (within [`GATE_TOLERANCE`]) — the data path the plain
/// integer allreduce stands on. AES-NI only, like the two gates before it.
fn run_mask_gate(backend: Backend) -> ! {
    let floor = MASK_MIN_SPEEDUP / GATE_TOLERANCE;
    let mut best = 0f64;
    for attempt in 1..=3 {
        let mut c = Criterion::default();
        bench_mask(&mut c, "gate_mask", 64 << 20, backend);
        let ns = |row: &str| {
            let stats = c.stats(&format!("gate_mask/{row}")).expect("recorded");
            stats.median_ns
        };
        let speedup = ns("two_stream/copy_then_in_place") / ns("two_stream/fused");
        println!(
            "mask_gate attempt {attempt}: the two-stream out-of-place pass is {speedup:.2}x copy + \
             two in-place passes at 64 MiB of u32, floor {floor:.2}x; one stream {:.2}x (not gated)",
            ns("one_stream/copy_then_in_place") / ns("one_stream/fused"),
        );
        if speedup >= floor {
            println!("mask_gate: OK");
            run_tile_gate(backend);
        }
        best = best.max(speedup);
    }
    eprintln!(
        "mask_gate: FAIL — the two-stream out-of-place mask reached {best:.2}x copy + two in-place \
         passes (floor {floor:.2}x); the one-read-one-write data path has regressed"
    );
    std::process::exit(1);
}

/// `--gate` floor for the VAES keystream tile over the 128-bit AES-NI tile
/// on the two-stream mask at 1 MiB, where the pass is cipher-bound (before
/// [`GATE_TOLERANCE`]). Measured ≈ 1.4–1.6× on a Xeon whose AES unit retires
/// four blocks a cycle.
const TILE_MIN_SPEEDUP: f64 = 1.2;

/// `--gate`, last part: where the CPU has VAES, the wide tile must beat the
/// narrow one by [`TILE_MIN_SPEEDUP`] (within [`GATE_TOLERANCE`]); elsewhere
/// there is one tile and nothing to compare.
fn run_tile_gate(backend: Backend) -> ! {
    let wide = PrfCipher::new(backend, 0).is_some_and(|prf| prf.has_wide_tile());
    if !wide {
        println!("tile_gate: SKIP — no VAES on this host; the 128-bit tile is the only one");
        std::process::exit(0);
    }
    let floor = TILE_MIN_SPEEDUP / GATE_TOLERANCE;
    let mut best = 0f64;
    for attempt in 1..=3 {
        let mut c = Criterion::default();
        bench_mask(&mut c, "gate_tile", 1 << 20, backend);
        let ns = |row: &str| {
            let stats = c.stats(&format!("gate_tile/{row}")).expect("recorded");
            stats.median_ns
        };
        let speedup = ns("two_stream/fused_narrow_tile") / ns("two_stream/fused");
        println!(
            "tile_gate attempt {attempt}: the VAES tile masks 1 MiB of u32 {speedup:.2}x as fast as \
             the 128-bit tile, floor {floor:.2}x; one stream {:.2}x (not gated)",
            ns("one_stream/fused_narrow_tile") / ns("one_stream/fused"),
        );
        if speedup >= floor {
            println!("tile_gate: OK");
            std::process::exit(0);
        }
        best = best.max(speedup);
    }
    eprintln!(
        "tile_gate: FAIL — the VAES tile reached {best:.2}x the 128-bit tile (floor {floor:.2}x); \
         the wide keystream tile has regressed or is no longer selected"
    );
    std::process::exit(1);
}

fn main() {
    if std::env::args().any(|a| a == "--gate") {
        run_gate();
    }
    let mut c = Criterion::default();
    sweep(&mut c);
    c.emit("crypto");
}
