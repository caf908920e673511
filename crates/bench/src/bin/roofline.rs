//! Roofline sweep for the parallel mask kernels: where does masking sit
//! relative to this host's memory bandwidth, and how does it scale with
//! worker threads?
//!
//! ```text
//! roofline            # full sweep, writes BENCH_roofline.json
//! roofline --gate     # ≥3× scaling on 4 cores at 64 MiB, or skip
//! ```
//!
//! Three measurements:
//!
//! 1. **STREAM triad** (`a[i] = b[i] + s·c[i]`, f64): the classic memory
//!    bandwidth ceiling. A mask reads the plaintext once and writes the
//!    ciphertext once while generating *both* §5.1.4 keystreams in
//!    registers — 2 w bytes of memory traffic per w-byte element per
//!    call, whatever the stream count (it used to be a copy plus 2 w per
//!    stream) — so a saturated machine masks at a bandwidth-shaped rate.
//!    "% of triad" is that traffic against the ceiling: the roofline the
//!    JSON records.
//! 2. **Masked throughput** at 1/4/16/64 MiB for 1..N worker threads:
//!    the engine's mask as it runs it, the two-stream out-of-place pass
//!    (`par_fused_pass` appending into a `Vec`), each size on an explicit
//!    [`WorkerPool`] (the global pool is left alone so `HEAR_THREADS`
//!    still governs production behavior).
//! 3. **Scaling curve**: throughput(t)/throughput(1) per size. `--gate`
//!    asserts ≥[`GATE_MIN_SPEEDUP`]× at 4 threads on the 64 MiB payload,
//!    best-of-3; on hosts with fewer than 4 cores the gate prints a
//!    skip notice and exits 0 (a 1-core CI runner cannot scale).
//!
//! Every parallel pass is checked bit-for-bit against the serial kernels
//! (copy, then one stream at a time) before timing — a roofline number for
//! a wrong kernel is worthless.

use hear::prf::kernels::{add_keystream_into, sub_keystream_into};
use hear::prf::{par_fused_pass, Backend, Payload, PrfCipher, Stream, WorkerPool};
use std::io::Write as _;
use std::time::Instant;

/// Payload sizes swept (bytes).
const SIZES: [usize; 4] = [1 << 20, 4 << 20, 16 << 20, 64 << 20];

/// `--gate` threshold: parallel masking at 4 threads must reach this
/// speedup over 1 thread on the largest payload. 3× of an ideal 4× leaves
/// room for the memory-bandwidth ceiling the kernel is *supposed* to hit.
const GATE_MIN_SPEEDUP: f64 = 3.0;

/// Gate payload: the largest size, where sharding overhead is negligible
/// and the scaling question is purely bandwidth vs compute.
const GATE_BYTES: usize = 64 << 20;

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// STREAM triad bandwidth in bytes/second (24 bytes traffic per element).
fn stream_triad() -> f64 {
    let n = (32 << 20) / 8; // 32 MiB per array, 3 arrays: out of any cache
    let mut a = vec![0.0f64; n];
    let b: Vec<f64> = (0..n).map(|j| j as f64).collect();
    let c: Vec<f64> = (0..n).map(|j| (j % 17) as f64).collect();
    let s = 3.0f64;
    let secs = best_of(5, || {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        std::hint::black_box(&a);
    });
    (24 * n) as f64 / secs
}

/// Memory traffic of one mask per payload byte: each byte is read once and
/// written once, however many noise streams fold into it.
const TRAFFIC_PER_PAYLOAD_BYTE: f64 = 2.0;

/// Masked throughput in payload bytes/second on `pool`: the two-stream
/// out-of-place pass, after checking it is bit-identical to copy + the
/// serial kernels one stream at a time.
fn masked_bps(pool: &WorkerPool, prf: &PrfCipher, bytes: usize, reps: usize) -> f64 {
    let n = bytes / 4;
    let (own, next): (u128, u128) = (0xf00f, 0xf00f << 64);
    let streams = [own, next].map(|base| Stream::Cipher { prf, base });
    let src: Vec<u32> = (0..n as u32).collect();
    let mut reference = src.clone();
    add_keystream_into(prf, own, 0, &mut reference[..]);
    sub_keystream_into(prf, next, 0, &mut reference[..]);
    let mut buf: Vec<u32> = Vec::with_capacity(n);
    let mask = |buf: &mut Vec<u32>| {
        buf.clear();
        par_fused_pass(
            pool,
            &streams,
            0,
            Payload::Extend(&src, buf),
            |x, [a, b]| x.wrapping_add(a).wrapping_sub(b),
        );
    };
    mask(&mut buf);
    assert!(buf == reference, "parallel mask diverged from serial");
    let secs = best_of(reps, || {
        mask(&mut buf);
        std::hint::black_box(&buf);
    });
    bytes as f64 / secs
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Thread counts swept: 1, 2, 4, ... up to the core count (always
/// including the core count itself).
fn thread_counts() -> Vec<usize> {
    let n = cores();
    let mut ts = vec![];
    let mut t = 1;
    while t < n {
        ts.push(t);
        t *= 2;
    }
    ts.push(n);
    ts
}

fn run_gate() -> ! {
    if cores() < 4 {
        println!(
            "roofline_gate: SKIP — host exposes {} core(s); the ≥{GATE_MIN_SPEEDUP}x \
             4-thread scaling assertion needs 4 (gate passes vacuously)",
            cores()
        );
        std::process::exit(0);
    }
    let prf = PrfCipher::new(Backend::best_available(), 0xC0FFEE).expect("best backend constructs");
    let serial_pool = WorkerPool::new(1);
    let quad_pool = WorkerPool::new(4);
    let mut best = 0.0f64;
    for attempt in 1..=3 {
        let t1 = masked_bps(&serial_pool, &prf, GATE_BYTES, 3);
        let t4 = masked_bps(&quad_pool, &prf, GATE_BYTES, 3);
        let speedup = t4 / t1;
        println!(
            "roofline_gate attempt {attempt}: 64 MiB mask {:.2} GB/s @1t vs {:.2} GB/s @4t \
             (speedup {speedup:.2}x, need {GATE_MIN_SPEEDUP}x)",
            t1 / 1e9,
            t4 / 1e9
        );
        if speedup >= GATE_MIN_SPEEDUP {
            println!("roofline_gate: OK");
            std::process::exit(0);
        }
        best = best.max(speedup);
    }
    eprintln!(
        "roofline_gate: FAIL — best 4-thread speedup {best:.2}x < {GATE_MIN_SPEEDUP}x; \
         parallel masking has stopped scaling"
    );
    std::process::exit(1);
}

fn main() {
    if std::env::args().any(|a| a == "--gate") {
        run_gate();
    }
    let backend = Backend::best_available();
    let prf = PrfCipher::new(backend, 0xC0FFEE).expect("best backend constructs");

    println!("# Roofline: {} core(s), backend {backend:?}", cores());
    let triad = stream_triad();
    println!("# STREAM triad: {:.2} GB/s", triad / 1e9);
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>10}",
        "size", "threads", "mask GB/s", "speedup", "% of triad"
    );

    let mut rows = Vec::new();
    for &bytes in &SIZES {
        let reps = if bytes >= 16 << 20 { 3 } else { 5 };
        let mut base_bps = 0.0;
        for &t in &thread_counts() {
            let pool = WorkerPool::new(t);
            let bps = masked_bps(&pool, &prf, bytes, reps);
            if t == 1 {
                base_bps = bps;
            }
            let speedup = bps / base_bps;
            println!(
                "{:<10} {:>8} {:>12.2} {:>11.2}x {:>9.1}%",
                format!("{}MiB", bytes >> 20),
                t,
                bps / 1e9,
                speedup,
                100.0 * TRAFFIC_PER_PAYLOAD_BYTE * bps / triad
            );
            rows.push(format!(
                "{{\"bytes\":{bytes},\"threads\":{t},\"mask_bps\":{bps:.0},\
                 \"traffic_bps\":{:.0},\"speedup\":{speedup:.4}}}",
                TRAFFIC_PER_PAYLOAD_BYTE * bps
            ));
        }
    }

    let dir = std::env::var("HEAR_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_roofline.json");
    let json = format!(
        "{{\n  \"bench\": \"roofline\",\n  \"cores\": {},\n  \"backend\": \"{backend:?}\",\n  \
         \"triad_bps\": {triad:.0},\n  \"points\": [\n    {}\n  ]\n}}\n",
        cores(),
        rows.join(",\n    ")
    );
    let mut f = std::fs::File::create(&path).expect("create BENCH_roofline.json");
    f.write_all(json.as_bytes()).expect("write roofline json");
    println!("# wrote {}", path.display());
}
