//! Fault-plan hooks for this crate's private wire types.
//!
//! The fabric's fault injector mutates `Box<dyn Any>` payloads and only
//! knows the types it has corruptor/cloner hooks for; the built-ins
//! cover primitive vectors. This module teaches a
//! [`FaultPlan`] about the verified transport's [`Packet`] payloads, so
//! chaos suites can corrupt and duplicate §5.5 traffic: a flipped
//! ciphertext bit is caught by the digest check, a flipped digest lane or
//! tag by the HoMAC itself.

use crate::engine::{for_each_packet_shape, Packet};
use hear_core::{Hfp, LaneArray};
use hear_mpi::FaultPlan;
use std::any::Any;
use std::sync::Arc;

macro_rules! packet_hooks {
    ($(($w:ty, $l:literal)),+ $(,)?) => {
        |plan: FaultPlan| plan$(
            .with_corruptor(Arc::new(corrupt_packets::<$w, [u64; $l]>))
            .with_cloner(Arc::new(clone_packets::<$w, [u64; $l]>))
        )+
    };
}

/// Arm `plan` with a corruptor and a cloner for every verified packet
/// shape the seven schemes ship (the engine's one shape list).
pub fn with_packet_hooks(plan: FaultPlan) -> FaultPlan {
    for_each_packet_shape!(packet_hooks)(plan)
}

/// Where [`with_wire_recorder`] shows each payload: its `Debug` rendering.
pub type WireSink = Arc<dyn Fn(String) + Send + Sync>;

/// A "corruptor" that shows `sink` a `Vec<T>` payload and leaves it alone.
fn recorder<T: std::fmt::Debug + 'static>(sink: &WireSink) -> hear_mpi::Corruptor {
    let sink = Arc::clone(sink);
    Arc::new(move |payload, _| {
        let seen = payload.downcast_ref::<Vec<T>>();
        seen.map(|v| sink(format!("{v:?}"))).is_some()
    })
}

macro_rules! packet_recorders {
    ($(($w:ty, $l:literal)),+ $(,)?) => {
        |plan: FaultPlan, sink: &WireSink| plan$(
            .with_corruptor(recorder::<Packet<$w, [u64; $l]>>(sink))
        )+
    };
}

/// Arm `plan` to *show* `sink` every reduction payload the fabric carries
/// — plain ciphertext vectors of every wire word, verified packet vectors
/// of every shape, bare and tagged cells — without touching it. The recorders sit in the
/// corruptor chain, so the plan must select messages with
/// `corrupt_one_in(1)`; what the eavesdropper sees is then exactly what
/// the wire carried. How the test suite checks that a change to the data
/// path left the ciphertext alone.
#[doc(hidden)]
pub fn with_wire_recorder(plan: FaultPlan, sink: WireSink) -> FaultPlan {
    let plan = plan
        .with_corruptor(recorder::<u8>(&sink))
        .with_corruptor(recorder::<u16>(&sink))
        .with_corruptor(recorder::<u32>(&sink))
        .with_corruptor(recorder::<u64>(&sink))
        .with_corruptor(recorder::<Hfp>(&sink))
        .with_corruptor(recorder::<crate::secure::Tagged<u64>>(&sink));
    for_each_packet_shape!(packet_recorders)(plan, &sink)
}

/// Which packet the fault word singles out.
fn pick(len: usize, word: u64) -> Option<usize> {
    if len == 0 {
        None
    } else {
        Some((word as usize) % len)
    }
}

/// A payload ciphertext the corruptor can damage past any tolerance.
pub(crate) trait Damage {
    fn damage(&mut self, word: u64);
}

macro_rules! impl_damage_int {
    ($($t:ty),+) => {$(
        impl Damage for $t {
            fn damage(&mut self, word: u64) {
                *self ^= 1 << (word % <$t>::BITS as u64);
            }
        }
    )+};
}
impl_damage_int!(u8, u16, u32, u64);

impl Damage for Hfp {
    /// An exponent bit-flip stays inside the `ew`-bit ring and shifts the
    /// decoded value by a power of two — far past any Table 2 tolerance.
    fn damage(&mut self, _word: u64) {
        self.exp ^= 1;
    }
}

/// Flip one bit of one packet: payload ciphertext, one digest lane, or
/// that lane's tag, as `word`'s high bits pick. `false` for a payload of
/// any other type.
pub(crate) fn corrupt_packets<W: Damage + 'static, L: LaneArray>(
    payload: &mut dyn Any,
    word: u64,
) -> bool {
    let Some(v) = payload.downcast_mut::<Vec<Packet<W, L>>>() else {
        return false;
    };
    if let Some(i) = pick(v.len(), word) {
        let lane = (word >> 40) as usize % L::LANES;
        // The high bits choose the channel so a seed sweep exercises all
        // three detection paths.
        match (word >> 61) % 3 {
            0 => v[i].c.damage(word >> 32),
            1 => v[i].d.as_mut()[lane] ^= 1,
            _ => v[i].s.as_mut()[lane] ^= 1,
        }
    }
    true
}

fn clone_packets<W: Clone + Send + 'static, L: LaneArray>(
    payload: &(dyn Any + Send),
) -> Option<Box<dyn Any + Send>> {
    payload
        .downcast_ref::<Vec<Packet<W, L>>>()
        .map(|v| Box::new(v.clone()) as Box<dyn Any + Send>)
}

#[cfg(test)]
mod tests {
    use super::*;

    type IntSumPacket = Packet<u32, [u64; 1]>;

    fn packets_u32(n: usize) -> Vec<IntSumPacket> {
        (0..n)
            .map(|i| Packet {
                c: i as u32,
                d: [i as u64],
                s: [!(i as u64)],
            })
            .collect()
    }

    #[test]
    fn corruptor_flips_exactly_one_packet() {
        let clean = packets_u32(4);
        let mut dirty = clean.clone();
        assert!(corrupt_packets::<u32, [u64; 1]>(
            &mut dirty as &mut dyn Any,
            0x7
        ));
        let changed = clean.iter().zip(&dirty).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn corruptor_rejects_foreign_payloads() {
        let mut other = vec![1u32, 2, 3];
        assert!(!corrupt_packets::<u32, [u64; 1]>(
            &mut other as &mut dyn Any,
            0
        ));
    }

    #[test]
    fn cloner_deep_copies() {
        let v = packets_u32(3);
        let boxed: Box<dyn Any + Send> = Box::new(v.clone());
        let copy = clone_packets::<u32, [u64; 1]>(boxed.as_ref()).expect("known type");
        assert_eq!(*copy.downcast::<Vec<IntSumPacket>>().expect("same type"), v);
    }

    #[test]
    fn hooks_attach_to_a_plan() {
        // Debug output carries the hook counts: one custom corruptor and
        // one custom cloner per packet shape on top of the seeded built-ins.
        let plan = with_packet_hooks(FaultPlan::seeded(7));
        let dbg = format!("{plan:?}");
        assert!(dbg.contains("corruptors"), "{dbg}");
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
        use crate::engine::{EngineCfg, RetryPolicy};
        use crate::secure::{ReduceAlgo, SecureComm};
        use hear_core::{CommKeys, Homac, IntSumScheme};
        use hear_mpi::{SimConfig, Simulator};
        use hear_prf::Backend;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;

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
        // corrupt_one_in(1) routes EVERY message through the corruptor
        // chain; the one-shot hook (tried first) makes exactly one flip.
        let plan =
            with_packet_hooks(FaultPlan::seeded(11).corrupt_one_in(1)).with_corruptor(one_shot);

        let cfg = SimConfig::default().with_switch(4).with_faults(plan);
        let results = Simulator::with_config(WORLD, cfg).run(|comm| {
            let keys = CommKeys::generate(WORLD, 0xBEEF, Backend::best_available())
                .into_iter()
                .nth(comm.rank())
                .unwrap();
            let homac = Homac::generate(0xBEEF ^ 0x5a5a, Backend::best_available());
            let mut sc = SecureComm::new(comm.clone(), keys).with_homac(homac);
            let data: Vec<u32> = (0..16).map(|j| j * 3 + comm.rank() as u32).collect();
            let ecfg = EngineCfg::blocked(16)
                .verified()
                .with_algo(ReduceAlgo::Switch)
                .with_retry(
                    RetryPolicy::retries(1).with_attempt_timeout(Duration::from_millis(500)),
                );
            let mut s = IntSumScheme::<u32>::default();
            sc.allreduce_with(&mut s, &data, ecfg)
        });
        let expected: Vec<u32> = (0..16)
            .map(|j| (0..WORLD as u32).map(|r| j * 3 + r).sum())
            .collect();
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
}
