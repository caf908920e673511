//! Single-thread microbenchmarks of the pure functions under the call:
//! PRF and mask kernels (`hear-prf`), the float codec (`hear-hfp`) and
//! the TCP wire codec (`hear-mpi`). They run on the main thread before any
//! world exists, so nothing competes with them.

use crate::report::Metrics;
use crate::workload::{Call, Inputs, Spec, WORLD};
use hear::core::HfpFormat;
use hear::hfp::{ops, Hfp};
use hear::mpi::tcp::wire::{
    decode_payload, encode_frame, encode_payload, FrameDecoder, FrameHeader, FrameKind,
};
use hear::prf::{par_add_keystream_into, Prf, PrfCipher, WorkerPool};
use std::any::Any;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each kernel repeats for at least this long (and at least three times).
const MIN_TIME: Duration = Duration::from_millis(200);

/// Mean seconds per run of `f`, after one warm-up run.
fn secs_per_run(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut runs = 0u32;
    while runs < 3 || start.elapsed() < MIN_TIME {
        f();
        runs += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(runs)
}

pub fn measure(spec: &Spec, seed: u64, m: &mut Metrics) {
    prf_rates(spec, seed, m);
    if matches!(spec.call, Call::ZeroStep) {
        hfp_codec(spec, seed, m);
    }
    if spec.on_tcp() && matches!(spec.call, Call::Allreduce { .. }) {
        wire_codec(spec, m);
    }
}

/// Keystream and mask-kernel rates over one buffer of the workload's
/// payload size, clamped to 1..64 MiB (below 1 MiB the pool never shards).
fn prf_rates(spec: &Spec, seed: u64, m: &mut Metrics) {
    let bytes = spec.payload_bytes().clamp(1 << 20, 64 << 20);
    let mbps = |secs: f64| bytes as f64 / secs / 1e6;
    let prf = PrfCipher::best(u128::from(seed) | 1 << 64);
    let base = 0x4845_4152u128 << 64;

    let mut blocks = vec![0u128; bytes / 16];
    let keystream = secs_per_run(|| {
        prf.fill_blocks(black_box(base), &mut blocks);
        black_box(&mut blocks);
    });
    drop(blocks);

    let mut buf = vec![0u32; bytes / 4];
    let pooled = secs_per_run(|| {
        WorkerPool::with_current(|pool| par_add_keystream_into(pool, &prf, base, 0, &mut buf));
        black_box(&mut buf);
    });
    let single = WorkerPool::new(1);
    let serial = secs_per_run(|| {
        par_add_keystream_into(&single, &prf, base, 0, &mut buf);
        black_box(&mut buf);
    });

    m.insert("prf.keystream_MBps", mbps(keystream));
    m.insert("prf.mask_kernel_MBps", mbps(pooled));
    m.insert("prf.par_speedup_x", serial / pooled);
}

/// `Hfp::from_f64`, `ops::add` and `to_f64`, each over the workload's
/// element count, in the float-SUM scheme's `fp64(2, 2)` layout.
fn hfp_codec(spec: &Spec, seed: u64, m: &mut Metrics) {
    let inputs = Inputs::generate(spec, seed, WORLD);
    let fmt = HfpFormat::fp64(2, 2);
    let (le, lm) = fmt.plain_widths();
    let (cew, cmw) = fmt.cipher_widths();
    let encode = |v: &Vec<f64>, ew, mw| -> Vec<Hfp> {
        v.iter()
            .map(|x| Hfp::from_f64(*x, ew, mw).expect("inputs are finite and in range"))
            .collect()
    };
    let encode_s = secs_per_run(|| {
        black_box(encode(black_box(&inputs.grads[0]), le, lm));
    });
    let a = encode(&inputs.grads[0], cew, cmw);
    let b = encode(&inputs.grads[1], cew, cmw);
    let add_s = secs_per_run(|| {
        let sum: Vec<Hfp> = a.iter().zip(&b).map(|(x, y)| ops::add(x, y)).collect();
        black_box(sum);
    });
    let decode_s = secs_per_run(|| {
        let back: Vec<f64> = a.iter().map(Hfp::to_f64).collect();
        black_box(back);
    });
    m.insert("hfp.encode_us", encode_s * 1e6);
    m.insert("hfp.add_us", add_s * 1e6);
    m.insert("hfp.decode_us", decode_s * 1e6);
}

/// Encode and decode one message of the size the workload's algorithm
/// puts on a socket: the whole vector for recursive doubling, one ring
/// segment of one block otherwise.
fn wire_codec(spec: &Spec, m: &mut Metrics) {
    let hop = spec.hop_elems();
    let payload: Box<dyn Any + Send> = Box::new((0..hop as u32).collect::<Vec<u32>>());
    let header = |type_id| FrameHeader {
        kind: FrameKind::Msg,
        type_id,
        from: 0,
        to: 1,
        tag: 7,
        delay_ns: 0,
        len: 0,
    };
    let encode = || {
        let (type_id, bytes) = encode_payload(payload.as_ref());
        encode_frame(header(type_id), &bytes)
    };
    let encode_s = secs_per_run(|| {
        black_box(encode());
    });
    let frame = encode();
    let mut decoder = FrameDecoder::new();
    let mut round_trips = true;
    let decode_s = secs_per_run(|| {
        decoder.push(black_box(&frame));
        let decoded = match decoder.next_frame() {
            Ok(Some(f)) => decode_payload(f.header.type_id, &f.payload),
            _ => Box::new(()),
        };
        round_trips &= decoded.downcast_ref::<Vec<u32>>() == payload.downcast_ref::<Vec<u32>>();
        black_box(decoded);
    });
    if round_trips {
        m.insert("mpi.wire_encode_us", encode_s * 1e6);
        m.insert("mpi.wire_decode_us", decode_s * 1e6);
    } else {
        // Left at 0, with the reason on stderr: a codec that does not
        // round-trip has no meaningful speed.
        eprintln!("hearbench: wire codec did not round-trip a Vec<u32> of {hop} elements");
    }
}
