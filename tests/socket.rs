//! The socket transport, end to end: the same engine stack that runs on
//! the in-memory fabric, pushed over real TCP connections.
//!
//! Four layers of coverage:
//!
//! 1. **Loopback mesh** (one process, one socket pair per endpoint pair):
//!    verified allreduce for an integer and a float scheme, selected with
//!    a single `SimConfig::with_transport` call — the one-constructor
//!    switch the transport abstraction promises.
//! 2. **Typed failure over sockets**: a type-confused receive must come
//!    back as [`CommError::TypeMismatch`], never a panic, even though the
//!    payload crossed a codec boundary on the way.
//! 3. **Large frames and lazily decoded payloads**: 32 MiB frames both
//!    ways at once, repeated 2 MiB frames of an unchunked ring allreduce,
//!    and a user-codec (`Vec<Hfp>`) message between primitive ones.
//! 4. **Real multi-process world**: the test binary re-spawns itself
//!    through [`hear::mpi::Launcher`] (rank-per-process, ephemeral-port
//!    rendezvous) and runs a verified allreduce across OS processes.
//! 5. **Verified packets of every lane count**: one verified allreduce per
//!    digest-lane count (1–4) over the mesh, and a stale peer process
//!    still framing the retired fixed four-lane packet type — a
//!    `TypeMismatch` for that one receive, never a mis-parsed packet.
//!    (The bit-exact mesh round trip of one packet vector per registered
//!    shape is a unit test in `hear-layer`'s `wire.rs`: the packet type
//!    is private to that crate.)

use hear::core::{
    Backend, CommKeys, FloatProdScheme, FloatSumExpScheme, Hfp, HfpFormat, Homac, IntProdScheme,
    IntSumScheme, IntXorScheme, Scheme,
};
use hear::layer::wire::PacketShape;
use hear::layer::{EngineCfg, ReduceAlgo, SecureComm};
use hear::mpi::tcp::wire::{register_vec_codec, WIRE_ID_USER_BASE};
use hear::mpi::{launch, CommError, Launcher, SimConfig, Simulator, TransportKind};
use std::time::Duration;

const WORLD: usize = 4;
const LEN: usize = 48;

fn tcp_sim(world: usize) -> Simulator {
    Simulator::with_config(
        world,
        SimConfig::default().with_transport(TransportKind::Tcp),
    )
}

/// Verified integer + float allreduce over the loopback socket mesh:
/// the full matrix-suite stack, with only the transport constructor
/// changed.
#[test]
fn tcp_mesh_runs_verified_allreduce() {
    let inputs: Vec<Vec<u32>> = (0..WORLD)
        .map(|r| (0..LEN).map(|j| (r * LEN + j) as u32).collect())
        .collect();
    let expected: Vec<u32> = (0..LEN)
        .map(|j| inputs.iter().map(|row| row[j]).sum())
        .collect();
    let inputs = &inputs;
    let results = tcp_sim(WORLD).run(|comm| {
        assert_eq!(comm.transport_name(), "tcp");
        let keys = CommKeys::generate(WORLD, 0x50C7, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(0x50C7 ^ 0x5a5a, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let mut s = IntSumScheme::<u32>::default();
        let ecfg = EngineCfg::blocked(16)
            .verified()
            .with_algo(ReduceAlgo::Ring);
        sc.allreduce_with(&mut s, &inputs[comm.rank()], ecfg)
            .expect("verified ring allreduce over TCP")
    });
    for (rank, got) in results.iter().enumerate() {
        assert_eq!(got, &expected, "rank {rank} aggregate over sockets");
    }
}

/// The float scheme's `Hfp` ciphertexts (and their verified packets) are
/// codec-registered by `SecureComm::new`; this pins that a pipelined
/// verified float epoch survives the encode→socket→decode round trip.
#[test]
fn tcp_mesh_runs_pipelined_float_allreduce() {
    let inputs: Vec<Vec<f64>> = (0..WORLD)
        .map(|r| {
            (0..LEN)
                .map(|j| ((r * LEN + j) as f64 * 0.37).cos() * 0.3)
                .collect()
        })
        .collect();
    let expected: Vec<f64> = (0..LEN)
        .map(|j| inputs.iter().map(|row| row[j]).sum())
        .collect();
    let inputs = &inputs;
    let results = tcp_sim(WORLD).run(|comm| {
        let keys = CommKeys::generate(WORLD, 0xF10A, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(0xF10A ^ 0x5a5a, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let mut s = FloatSumExpScheme::new(HfpFormat::fp64(0, 0));
        let ecfg = EngineCfg::pipelined(16)
            .verified()
            .with_algo(ReduceAlgo::RecursiveDoubling);
        sc.allreduce_with(&mut s, &inputs[comm.rank()], ecfg)
            .expect("verified pipelined float allreduce over TCP")
    });
    for (rank, got) in results.iter().enumerate() {
        for (j, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert!(
                (g - e).abs() / e.abs().max(1.0) < 1e-3,
                "rank {rank} elem {j}: {g} vs {e}"
            );
        }
    }
}

/// A receive with the wrong element type across the socket boundary is a
/// typed `TypeMismatch`, not a panic: the codec decodes the sender's real
/// type and the downcast rejects it, exactly as on the in-memory fabric.
#[test]
fn tcp_type_confusion_is_a_typed_error() {
    let results = tcp_sim(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, vec![1u32, 2, 3]);
            comm.barrier();
            Ok(vec![])
        } else {
            let r = comm.recv_timeout::<u64>(0, 7, Duration::from_secs(10));
            comm.barrier();
            r
        }
    });
    match &results[1] {
        Err(CommError::TypeMismatch {
            source,
            tag,
            expected,
        }) => {
            assert_eq!(*source, 0);
            assert_eq!(*tag, 7);
            assert!(
                expected.contains("u64"),
                "expected type name, got {expected}"
            );
        }
        other => panic!("wanted TypeMismatch, got {other:?}"),
    }
}

/// Two ranks blocked in a 32 MiB write to each other at the same time:
/// the frames are far larger than both socket buffers together, so this
/// completes only because every inbound byte is drained by a reader thread
/// no matter what the rank threads are doing. Five fresh worlds, each
/// bit-exact, none ending in `PeerDead`.
#[test]
fn tcp_mesh_exchanges_32_mib_frames_both_ways_at_once() {
    const N: usize = (32 << 20) / 4;
    let pattern = |rank: usize, j: usize| (j as u32).wrapping_mul(0x9E37_79B9) ^ rank as u32;
    for world in 0..5 {
        let results = tcp_sim(2).run(|comm| {
            let me = comm.rank();
            comm.send(
                1 - me,
                11,
                (0..N).map(|j| pattern(me, j)).collect::<Vec<u32>>(),
            );
            comm.recv_timeout::<u32>(1 - me, 11, Duration::from_secs(60))
        });
        for (rank, got) in results.iter().enumerate() {
            let got = got
                .as_ref()
                .unwrap_or_else(|e| panic!("world {world} rank {rank}: {e}"));
            assert_eq!(got.len(), N);
            assert!(
                got.iter()
                    .enumerate()
                    .all(|(j, v)| *v == pattern(1 - rank, j)),
                "world {world} rank {rank}: 32 MiB frame not bit-exact"
            );
        }
    }
}

/// An unchunked (`sync()`) ring allreduce of 4 MiB puts 2 MiB frames on
/// the sockets; twenty calls in one world must all succeed and be exact.
#[test]
fn tcp_mesh_sync_ring_allreduce_of_4_mib_repeats() {
    const N: usize = (4 << 20) / 4;
    let results = tcp_sim(2).run(|comm| {
        let keys = CommKeys::generate(2, 0x4A1B, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let mut s = IntSumScheme::<u32>::default();
        let cfg = EngineCfg::sync().with_algo(ReduceAlgo::Ring);
        let mut out = Vec::new();
        for call in 0..20u32 {
            let data: Vec<u32> = (0..N as u32)
                .map(|j| j.wrapping_mul(call + 3) ^ comm.rank() as u32)
                .collect();
            sc.allreduce_with_into(&mut s, &data, &mut out, cfg)
                .unwrap_or_else(|e| panic!("call {call}: {e}"));
            let exact = out.iter().enumerate().all(|(j, v)| {
                let j = j as u32;
                *v == j
                    .wrapping_mul(call + 3)
                    .wrapping_add(j.wrapping_mul(call + 3) ^ 1)
            });
            assert!(exact, "call {call}: aggregate not exact");
        }
    });
    assert_eq!(results.len(), 2);
}

/// A user-codec payload (`Vec<Hfp>`: read off the socket as one exact-size
/// byte buffer, decoded only when the receiver asks) survives the hop as a
/// direct message, ahead of and behind primitive traffic on the same link.
#[test]
fn tcp_mesh_roundtrips_a_lazily_decoded_hfp_message() {
    hear::layer::wire::register_wire_codecs();
    let cells: Vec<Hfp> = (0..257u64)
        .map(|i| Hfp {
            sign: i % 3 == 0,
            exp: 0xFFFF_0000_0000_0000 | i,
            sig: u64::MAX - i,
            ew: 11,
            mw: 52,
        })
        .collect();
    let cells = &cells;
    let results = tcp_sim(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, vec![1u8, 2, 3]);
            comm.send(1, 2, cells.clone());
            comm.send(1, 3, vec![4u64]);
            None
        } else {
            let wait = Duration::from_secs(10);
            let before = comm.recv_timeout::<u8>(0, 1, wait).unwrap();
            let got = comm.recv_timeout::<Hfp>(0, 2, wait).unwrap();
            let after = comm.recv_timeout::<u64>(0, 3, wait).unwrap();
            Some((before, got, after))
        }
    });
    let (before, got, after) = results[1].as_ref().unwrap();
    assert_eq!((before, after), (&vec![1u8, 2, 3], &vec![4u64]));
    assert_eq!(got, cells);
}

/// Rank body for the multi-process test below: joins the world through
/// the environment the launcher set, then runs one verified allreduce
/// across OS process boundaries.
fn multi_process_child(rank: usize) {
    let world = launch::child_world().expect("HEAR_WORLD set by launcher");
    let comm = launch::child_comm()
        .expect("launcher env present")
        .expect("rendezvous and mesh establishment");
    assert_eq!(comm.rank(), rank);
    assert_eq!(comm.world(), world);
    assert_eq!(comm.transport_name(), "tcp");

    // Every process derives the same seeded key set and takes its row.
    let keys = CommKeys::generate(world, 0xBEEF, Backend::best_available())
        .into_iter()
        .nth(rank)
        .unwrap();
    let homac = Homac::generate(0xBEEF ^ 0x5a5a, Backend::best_available());
    let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
    let mut s = IntSumScheme::<u32>::default();
    let input: Vec<u32> = (0..LEN).map(|j| (rank * LEN + j) as u32).collect();
    let expected: Vec<u32> = (0..LEN)
        .map(|j| (0..world).map(|r| (r * LEN + j) as u32).sum())
        .collect();
    let got = sc
        .allreduce_with(
            &mut s,
            &input,
            EngineCfg::blocked(16)
                .verified()
                .with_algo(ReduceAlgo::Ring),
        )
        .expect("verified allreduce across processes");
    assert_eq!(got, expected, "rank {rank} cross-process aggregate");
    // Synchronize before teardown so no rank drops its sockets while a
    // peer still needs them.
    comm.barrier();
}

/// Spawn a 3-process world from this very test binary (each child re-runs
/// exactly this test, detects `HEAR_RANK`, and takes the rank body). The
/// launcher's watchdog bounds the whole thing, so a hung rendezvous fails
/// the test instead of wedging CI.
#[test]
fn tcp_multi_process_verified_allreduce() {
    if let Some(rank) = launch::child_rank() {
        return multi_process_child(rank);
    }
    let exe = std::env::current_exe().expect("test binary path");
    let outcome = Launcher::new(3)
        .watchdog(Duration::from_secs(120))
        .program(exe)
        .args([
            "tcp_multi_process_verified_allreduce",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .spawn()
        .expect("spawn rank processes")
        .wait();
    assert!(
        !outcome.watchdog_fired,
        "multi-process world hung past the watchdog"
    );
    assert!(outcome.success(), "rank exit codes: {:?}", outcome.codes);
}

/// One verified ring allreduce at world 2 over the socket mesh; the
/// scheme's packet shape must be one the layer registered a codec for.
fn verified_over_mesh<S, MS>(mk: MS, lanes: usize, inputs: [Vec<S::Input>; 2]) -> Vec<S::Input>
where
    S: Scheme + 'static,
    S::Input: Send + Sync,
    MS: Fn() -> S + Send + Sync,
{
    assert_eq!(PacketShape::of::<S>().lanes, lanes, "{}", S::NAME);
    let (mk, inputs) = (&mk, &inputs);
    let mut results = tcp_sim(2).run(|comm| {
        let keys = CommKeys::generate(2, 0x1A9E, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(0x1A9F, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let ecfg = EngineCfg::pipelined(5)
            .verified()
            .with_algo(ReduceAlgo::Ring);
        sc.allreduce_with(&mut mk(), &inputs[comm.rank()], ecfg)
            .unwrap_or_else(|e| panic!("{} verified over tcp: {e}", S::NAME))
    });
    results.swap_remove(0)
}

/// Every digest-lane count the schemes use — hence every packet width —
/// survives seal → codec → socket → codec → open.
#[test]
fn tcp_mesh_carries_verified_packets_of_every_lane_count() {
    let ints = |r: u64| (0..13).map(|j| 2 + 3 * j + r).collect::<Vec<u64>>();
    let (a, b) = (ints(0), ints(1));
    let sum = verified_over_mesh(
        IntSumScheme::<u32>::default,
        1,
        [0, 1].map(|r| ints(r).iter().map(|x| *x as u32).collect()),
    );
    let want: Vec<u32> = a.iter().zip(&b).map(|(x, y)| (x + y) as u32).collect();
    assert_eq!(sum, want);
    let prod = verified_over_mesh(
        || FloatProdScheme::new(HfpFormat::fp64(0, 0)),
        2,
        [0, 1].map(|r| ints(r).iter().map(|x| *x as f64 * -0.5).collect()),
    );
    for ((g, x), y) in prod.iter().zip(&a).zip(&b) {
        let e = (*x * *y) as f64 * 0.25;
        assert!((g - e).abs() / e < 1e-3, "float product {g} vs {e}");
    }
    let prod = verified_over_mesh(IntProdScheme::<u64>::default, 3, [0, 1].map(ints));
    let want: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
    assert_eq!(prod, want);
    let xor = verified_over_mesh(IntXorScheme::<u64>::default, 4, [0, 1].map(ints));
    let want: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
    assert_eq!(xor, want);
}

/// The wire image of the retired fixed four-lane `Packet<u32>`: a 4-byte
/// ciphertext, four digest lanes and four tags, under the type id the
/// layer used to bind for it.
#[derive(Clone, Debug, PartialEq)]
struct StalePacket([u8; 68]);
const STALE_WIRE_ID: u32 = WIRE_ID_USER_BASE + 3;

/// Rank 0 is a peer from before the lane-sized packets: it (alone)
/// registers the old packet type under its old id and sends one, then a
/// primitive message. Rank 1 is current. The old frame must fail exactly
/// its own receive as a `TypeMismatch` — not parse as some new packet —
/// and leave the message behind it and the connection intact.
fn stale_peer_child(rank: usize) {
    let comm = launch::child_comm()
        .expect("launcher env present")
        .expect("rendezvous and mesh establishment");
    if rank == 0 {
        register_vec_codec::<StalePacket>(
            STALE_WIRE_ID,
            68,
            |p, out| out.extend_from_slice(&p.0),
            |b| Some(StalePacket(b.try_into().ok()?)),
        );
        comm.send(1, 1, vec![StalePacket([0xA5; 68]); 3]);
        comm.send(1, 2, vec![7u64, 8]);
    } else {
        hear::layer::wire::register_wire_codecs();
        let wait = Duration::from_secs(20);
        let stale = comm.recv_timeout::<u32>(0, 1, wait);
        assert!(
            matches!(
                stale,
                Err(CommError::TypeMismatch {
                    source: 0,
                    tag: 1,
                    ..
                })
            ),
            "a retired packet type id must be a TypeMismatch, got {stale:?}"
        );
        assert_eq!(comm.recv_timeout::<u64>(0, 2, wait), Ok(vec![7, 8]));
        assert!(!comm.is_peer_dead(0));
    }
    comm.barrier();
}

#[test]
fn tcp_stale_peer_with_retired_packet_type_id_is_a_type_mismatch() {
    if let Some(rank) = launch::child_rank() {
        return stale_peer_child(rank);
    }
    let exe = std::env::current_exe().expect("test binary path");
    let outcome = Launcher::new(2)
        .watchdog(Duration::from_secs(120))
        .program(exe)
        .args([
            "tcp_stale_peer_with_retired_packet_type_id_is_a_type_mismatch",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .spawn()
        .expect("spawn rank processes")
        .wait();
    assert!(!outcome.watchdog_fired, "stale-peer world hung");
    assert!(outcome.success(), "rank exit codes: {:?}", outcome.codes);
}

/// The extension collectives (broadcast, gather, scatter, rooted reduce,
/// alltoall) over real sockets: pins that every payload shape they put on
/// the wire — `Vec<u32>` ciphertexts, `u64` length headers, and the
/// engine-routed alltoall's `Vec<u64>` cells — has a registered socket
/// codec, so `HEAR_TRANSPORT=tcp` covers the whole collective surface,
/// not just allreduce.
#[test]
fn tcp_mesh_runs_extension_collectives() {
    const W: usize = 3;
    let results = tcp_sim(W).run(|comm| {
        assert_eq!(comm.transport_name(), "tcp");
        let keys = CommKeys::generate(W, 0xE27, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let mut sc = SecureComm::new(comm.clone(), keys);
        let r = comm.rank() as u32;

        let config = sc.bcast_encrypted(0, if r == 0 { vec![7, 13] } else { vec![] });
        let partial = sc.reduce_sum_u32(2, &[config[0] * (r + 1), r]);
        let diag = sc.gather_encrypted(0, vec![r, r * 10]);
        let shard = sc.scatter_encrypted(
            1,
            if r == 1 {
                (0..W as u32)
                    .map(|dst| vec![dst * 100, dst * 100 + 1])
                    .collect()
            } else {
                Vec::new()
            },
        );
        let transposed =
            sc.alltoall_encrypted((0..W as u32).map(|dst| vec![r * 10 + dst]).collect());
        (config, partial, diag, shard, transposed)
    });
    for (rank, (config, partial, diag, shard, transposed)) in results.iter().enumerate() {
        assert_eq!(*config, vec![7, 13], "bcast over tcp, rank {rank}");
        if rank == 2 {
            assert_eq!(
                partial.as_ref().unwrap(),
                &vec![7 * (1 + 2 + 3), 3],
                "rooted reduce over tcp"
            );
        } else {
            assert!(partial.is_none(), "non-root rank {rank} got a reduction");
        }
        if rank == 0 {
            assert_eq!(
                *diag,
                vec![vec![0, 0], vec![1, 10], vec![2, 20]],
                "gather over tcp"
            );
        }
        let r = rank as u32;
        assert_eq!(
            *shard,
            vec![r * 100, r * 100 + 1],
            "scatter over tcp, rank {rank}"
        );
        let expect: Vec<Vec<u32>> = (0..W as u32).map(|src| vec![src * 10 + r]).collect();
        assert_eq!(*transposed, expect, "alltoall over tcp, rank {rank}");
    }
}
