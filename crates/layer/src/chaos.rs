//! Chaos tests over this crate's private wire types.
//!
//! Every payload type the engine puts on a transport has an entry in the
//! wire-type table ([`crate::wire`]), so any [`FaultPlan`] can corrupt,
//! duplicate and record the verified transport's `Packet` payloads: a
//! flipped ciphertext bit is caught by the digest check, a flipped digest
//! lane or tag by the HoMAC itself. `Packet` is private to this crate, so
//! the tests that name it live here rather than in `tests/chaos.rs`.

use crate::engine::{EngineCfg, EngineError, Packet, RetryPolicy};
use crate::secure::{ReduceAlgo, SecureComm};
use hear_core::{CommKeys, FloatSumScheme, Hfp, HfpFormat, Homac, IntSumScheme, HOMAC_P};
use hear_mpi::{payload, FaultPlan, SimConfig, Simulator};
use hear_prf::Backend;
use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

type IntSumPacket = Packet<u32, [u64; 1]>;
type FloatSumPacket = Packet<Hfp, [u64; 2]>;

fn packets_u32(n: usize) -> Vec<IntSumPacket> {
    (0..n)
        .map(|i| Packet {
            c: i as u32,
            d: [i as u64],
            s: [!(i as u64)],
        })
        .collect()
}

/// Bind the int-sum packet's table entry, as its first verified use would.
fn bind_int_sum_packets() {
    crate::wire::ensure_packet_type::<IntSumScheme<u32>>();
}

/// World-`world` verified int-sum allreduces of `len` elements under
/// `plan`: every rank's result, and the exact sum.
fn verified_sum_under(
    plan: FaultPlan,
    world: usize,
    len: u32,
    cfg: EngineCfg,
) -> (Vec<Result<Vec<u32>, EngineError>>, Vec<u32>) {
    let sim = SimConfig::default().with_switch(4).with_faults(plan);
    let results = Simulator::with_config(world, sim).run(|comm| {
        let keys = CommKeys::generate(world, 0xBEEF, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(0xBEEF ^ 0x5a5a, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let data: Vec<u32> = (0..len).map(|j| j * 3 + comm.rank() as u32).collect();
        sc.allreduce_with(&mut IntSumScheme::<u32>::default(), &data, cfg)
    });
    let expected = (0..len)
        .map(|j| (0..world as u32).map(|r| j * 3 + r).sum())
        .collect();
    (results, expected)
}

/// World-2 fp64(2, 2) float-sum allreduces of 16 elements under `plan`:
/// every rank's result.
fn float_sum_under(plan: FaultPlan, cfg: EngineCfg) -> Vec<Result<Vec<f64>, EngineError>> {
    let sim = SimConfig::default().with_faults(plan);
    Simulator::with_config(2, sim).run(|comm| {
        let keys = CommKeys::generate(2, 0xF0E, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        let homac = Homac::generate(0xF0F, Backend::best_available());
        let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
        let data: Vec<f64> = (0..16)
            .map(|j| j as f64 * 0.5 - comm.rank() as f64)
            .collect();
        let mut scheme = FloatSumScheme::new(HfpFormat::fp64(2, 2));
        sc.allreduce_with(&mut scheme, &data, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruptor_flips_exactly_one_packet() {
        bind_int_sum_packets();
        let clean = packets_u32(4);
        let mut dirty = clean.clone();
        assert!(payload::corrupt(&mut dirty, 0x7));
        let changed = clean.iter().zip(&dirty).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn corruptor_rejects_foreign_payloads() {
        // Two lanes on a u32 word is no scheme's shape: never bound.
        let mut other: Vec<Packet<u32, [u64; 2]>> = vec![Packet {
            c: 1,
            d: [2, 3],
            s: [4, 5],
        }];
        assert!(!payload::corrupt(&mut other, 0));
        assert_eq!(other[0].c, 1);
    }

    #[test]
    fn cloner_deep_copies() {
        bind_int_sum_packets();
        let v = packets_u32(3);
        let copy = payload::duplicate(&v).expect("known type");
        assert_eq!(*copy.downcast::<Vec<IntSumPacket>>().expect("same type"), v);
    }

    /// A plan needs no per-type hooks: a seeded plan damages a packet
    /// vector through the table as soon as the packet type is bound.
    #[test]
    fn hooks_attach_to_a_plan() {
        bind_int_sum_packets();
        let cfg = SimConfig::default().with_faults(FaultPlan::seeded(7).corrupt_one_in(1));
        let got = Simulator::with_config(2, cfg).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, packets_u32(8));
                None
            } else {
                Some(comm.recv_timeout::<IntSumPacket>(0, 1, Duration::from_secs(10)))
            }
        });
        let got = got[1].clone().unwrap().expect("delivered");
        let changed = packets_u32(8)
            .iter()
            .zip(&got)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(changed, 1, "{got:?}");
    }

    #[test]
    fn single_uplink_corruption_heals_by_resend() {
        // The §5.5 resend succeeding end-to-end, deterministically. A
        // one-shot corruptor flips a ciphertext bit in the first packet
        // vector the injector offers — necessarily a rank→switch uplink,
        // since the switch can only start multicasting after all uplinks
        // arrived. The corrupted contribution poisons the aggregate for
        // every rank symmetrically, so all four fail the digest check on
        // the same block, all retry on the next attempt tag, and the
        // clean resend converges: every rank ends Ok and exact.
        const WORLD: usize = 4;
        let reg = hear_telemetry::Registry::new_enabled();
        let _g = reg.install(None);

        let hit = Arc::new(AtomicBool::new(false));
        let one_shot: hear_mpi::Corruptor = Arc::new({
            let hit = Arc::clone(&hit);
            move |payload: &mut dyn Any, _word: u64| {
                let Some(v) = payload.downcast_mut::<Vec<IntSumPacket>>() else {
                    return false;
                };
                if !hit.swap(true, Ordering::SeqCst) {
                    if let Some(p) = v.first_mut() {
                        p.c ^= 1;
                    }
                }
                true // later offers are recognised but left intact
            }
        });
        // corrupt_one_in(1) offers EVERY message to the corruptor, which
        // is tried before the table: exactly one flip.
        let plan = FaultPlan::seeded(11)
            .corrupt_one_in(1)
            .with_corruptor(one_shot);
        let ecfg = EngineCfg::blocked(16)
            .verified()
            .with_algo(ReduceAlgo::Switch)
            .with_retry(RetryPolicy::retries(1).with_attempt_timeout(Duration::from_millis(500)));
        let (results, expected) = verified_sum_under(plan, WORLD, 16, ecfg);
        for (rank, res) in results.iter().enumerate() {
            let got = res
                .as_ref()
                .unwrap_or_else(|e| panic!("rank {rank} failed instead of healing: {e}"));
            assert_eq!(got, &expected, "rank {rank}");
        }
        assert!(hit.load(Ordering::SeqCst), "the corruptor never fired");
        let retries = reg.counter(hear_telemetry::Metric::RetriesTotal);
        assert!(
            retries >= WORLD as u64,
            "expected every rank to retry once, counted {retries}"
        );
    }

    /// The ±p forgery of DESIGN.md "The overflow test", mounted: every
    /// packet's digest lane moves by ±p, the same residue, and its payload
    /// word by ∓1 (p ≡ −1 mod 2³², so a lane checked only modulo p would
    /// agree with the int-sum payload). A field lane shifted by ±p opens to
    /// the honest lane sum, so the payload's ∓1 fails the digest check.
    /// Contract: the exact sum or a `Verification` error on every rank.
    #[test]
    fn a_digest_lane_shifted_by_p_is_not_a_verified_sum() {
        let shift_by_p: hear_mpi::Corruptor = Arc::new(|payload: &mut dyn Any, _| {
            let Some(v) = payload.downcast_mut::<Vec<IntSumPacket>>() else {
                return false;
            };
            for p in v {
                match p.d[0].checked_add(HOMAC_P) {
                    Some(d) => (p.d[0], p.c) = (d, p.c.wrapping_sub(1)),
                    None => (p.d[0], p.c) = (p.d[0] - HOMAC_P, p.c.wrapping_add(1)),
                }
            }
            true
        });
        let plan = FaultPlan::seeded(3)
            .corrupt_one_in(1)
            .with_corruptor(shift_by_p);
        let ecfg = EngineCfg::sync()
            .verified()
            .with_algo(ReduceAlgo::RecursiveDoubling);
        let (results, expected) = verified_sum_under(plan, 2, 64, ecfg);
        for (rank, res) in results.iter().enumerate() {
            match res {
                Ok(got) => {
                    let wrong = got.iter().zip(&expected).filter(|(a, b)| a != b).count();
                    assert_eq!(wrong, 0, "rank {rank}: {wrong} of 64 elements forged");
                }
                Err(e) => assert!(
                    matches!(e, EngineError::Verification(_)),
                    "rank {rank}: {e}"
                ),
            }
        }
    }

    /// One element of another float layer's widths — as a TCP peer can
    /// send, since `(10, 23)` passes the decoder — reaches the combining
    /// rank in place of an fp64(2, 2) ciphertext. ⊕ gives `ops::FOREIGN`
    /// instead of panicking on the width mismatch, the cipher decrypts it
    /// to NaN, and the verified path rejects it: a typed error on every
    /// rank. Unverified, the call completes with NaN in that element.
    #[test]
    fn a_foreign_width_float_element_is_a_typed_error_not_a_panic() {
        let foreign = |c: &mut Hfp| {
            (c.ew, c.mw) = (10, 23);
            (c.exp, c.sig) = (c.exp & 0x3FF, 1 << 23);
        };
        let verified: hear_mpi::Corruptor = Arc::new(move |payload: &mut dyn Any, _| {
            if let Some(v) = payload.downcast_mut::<Vec<FloatSumPacket>>() {
                v.iter_mut().take(1).for_each(|p| foreign(&mut p.c));
            }
            true
        });
        let plan = FaultPlan::seeded(5)
            .corrupt_one_in(1)
            .with_corruptor(verified);
        let ecfg = EngineCfg::sync()
            .verified()
            .with_algo(ReduceAlgo::RecursiveDoubling)
            .with_retry(RetryPolicy::retries(1).with_attempt_timeout(Duration::from_millis(500)));
        for (rank, res) in float_sum_under(plan, ecfg).iter().enumerate() {
            match res {
                Err(EngineError::Verification(_)) => {}
                other => panic!("rank {rank}: {other:?}"),
            }
        }
        let plain: hear_mpi::Corruptor = Arc::new(move |payload: &mut dyn Any, _| {
            if let Some(v) = payload.downcast_mut::<Vec<Hfp>>() {
                v.iter_mut().take(1).for_each(foreign);
            }
            true
        });
        let plan = FaultPlan::seeded(5).corrupt_one_in(1).with_corruptor(plain);
        let ecfg = EngineCfg::sync().with_algo(ReduceAlgo::RecursiveDoubling);
        for (rank, res) in float_sum_under(plan, ecfg).iter().enumerate() {
            let got = res.as_ref().unwrap_or_else(|e| panic!("rank {rank}: {e}"));
            assert!(got[0].is_nan(), "rank {rank}: {got:?}");
            assert!(
                got[1..].iter().all(|v| v.is_finite()),
                "rank {rank}: {got:?}"
            );
        }
    }
}
