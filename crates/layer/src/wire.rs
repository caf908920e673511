//! TCP wire codecs for this crate's private transport payloads.
//!
//! The TCP backend ([`hear_mpi::tcp`]) serializes `Box<dyn Any>` payloads
//! through a runtime codec registry; the primitive `Vec<uN>` payloads of
//! the host collectives are built in, but the HEAR engine additionally
//! puts three of its own types on the wire:
//!
//! * `Vec<Hfp>` — unverified float-scheme ciphertexts (one HFP ring
//!   element per value);
//! * `Vec<Packet<W, [u64; L]>>` — the verified path's §5.5 `(c, d, σ)`
//!   triples, for every `(wire word, lane count)` shape the schemes
//!   produce (`u8/u16/u32/u64` integer rings with 1, 3 or 4 digest lanes,
//!   the `Hfp` float ring with 1 or 2) — generated from the engine's one
//!   shape list, on type ids that do not overlap the retired fixed
//!   four-lane packets', so a stale peer's frame is a `TypeMismatch`.
//!   A shape's codec is bound when a communicator first runs a verified
//!   reduction of a scheme that ships it ([`ensure_packet_codec`]):
//!   binding all fourteen up front costs every program ≈ 60 KiB of
//!   resident code it may never run;
//! * `Vec<Tagged<u64>>` — the verified single-origin cell transport of
//!   allgather/alltoall (padded cell + shared-stream MAC tag).
//!
//! [`register_wire_codecs`] (the `Hfp` and `Tagged` codecs) is idempotent
//! (guarded by a [`Once`]) and is invoked from `SecureComm::new`, so any
//! program that constructs a secure communicator can run over sockets
//! without extra wiring — the mirror of how
//! [`crate::chaos::with_packet_hooks`] teaches the fault injector about
//! the same types.

use crate::engine::{for_each_packet_shape, Packet, SchemePacket};
use crate::secure::Tagged;
use hear_core::{Hfp, LaneArray, Scheme};
use hear_mpi::tcp::wire::{can_encode, register_vec_codec, WIRE_ID_USER_BASE};
use std::sync::Once;

/// Fixed-width wire image for one element: the codec registry encodes
/// `Vec<T>` as a flat run of equal-sized cells.
trait WireElem: Sized {
    const BYTES: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(b: &[u8]) -> Option<Self>;
}

macro_rules! impl_wire_elem_int {
    ($($t:ty),+) => {$(
        impl WireElem for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(b: &[u8]) -> Option<$t> {
                Some(<$t>::from_le_bytes(b.try_into().ok()?))
            }
        }
    )+};
}
impl_wire_elem_int!(u8, u16, u32, u64);

/// 25 bytes: sign, exp, sig, ew, mw. The exponent/significand are ring
/// elements, so every bit pattern is admissible; only a non-boolean sign
/// byte marks the cell undecodable.
impl WireElem for Hfp {
    const BYTES: usize = 25;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.sign as u8);
        out.extend_from_slice(&self.exp.to_le_bytes());
        out.extend_from_slice(&self.sig.to_le_bytes());
        out.extend_from_slice(&self.ew.to_le_bytes());
        out.extend_from_slice(&self.mw.to_le_bytes());
    }
    fn get(b: &[u8]) -> Option<Hfp> {
        let sign = match b[0] {
            0 => false,
            1 => true,
            _ => return None,
        };
        Some(Hfp {
            sign,
            exp: u64::from_le_bytes(b[1..9].try_into().ok()?),
            sig: u64::from_le_bytes(b[9..17].try_into().ok()?),
            ew: u32::from_le_bytes(b[17..21].try_into().ok()?),
            mw: u32::from_le_bytes(b[21..25].try_into().ok()?),
        })
    }
}

fn hfp_put(v: &Hfp, out: &mut Vec<u8>) {
    v.put(out);
}

fn hfp_get(b: &[u8]) -> Option<Hfp> {
    Hfp::get(b)
}

/// `c`, then the `L` digest lanes, then their `L` tags, all little-endian.
fn packet_put<W: WireElem, L: LaneArray>(p: &Packet<W, L>, out: &mut Vec<u8>) {
    p.c.put(out);
    for x in p.d.as_ref().iter().chain(p.s.as_ref()) {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn packet_get<W: WireElem, L: LaneArray>(b: &[u8]) -> Option<Packet<W, L>> {
    let c = W::get(&b[..W::BYTES])?;
    let (mut d, mut s) = (L::ZERO, L::ZERO);
    let lanes = d.as_mut().iter_mut().chain(s.as_mut());
    for (lane, bytes) in lanes.zip(b[W::BYTES..].chunks_exact(8)) {
        *lane = u64::from_le_bytes(bytes.try_into().ok()?);
    }
    Some(Packet { c, d, s })
}

/// Type ids `WIRE_ID_USER_BASE + 1 ..= + 5` carried the fixed four-lane
/// packets; they stay unbound, and the lane-sized shapes start here.
const PACKET_WIRE_ID_BASE: u32 = WIRE_ID_USER_BASE + 0x10;

/// One registered verified-packet shape: what a scheme's `(c, d, σ)`
/// packet costs in memory (what the in-process fabric moves, padding
/// included) and on the TCP wire (packed).
#[derive(Debug, Clone, Copy)]
pub struct PacketShape {
    /// Type name of the payload wire word.
    pub wire: &'static str,
    /// Digest lanes carried (each with one tag).
    pub lanes: usize,
    pub mem_bytes: usize,
    pub wire_bytes: usize,
    /// TCP codec type id.
    pub wire_id: u32,
    register: fn(u32),
}

impl PacketShape {
    /// The shape scheme `S`'s verified transport ships.
    pub fn of<S: Scheme>() -> PacketShape {
        let key = (std::any::type_name::<S::Wire>(), S::Lanes::LANES);
        let found = packet_shapes()
            .into_iter()
            .find(|s| (s.wire, s.lanes) == key);
        found.unwrap_or_else(|| panic!("{} ships an unlisted packet shape {key:?}", S::NAME))
    }

    /// Register this shape's codec under its type id (idempotent).
    fn bind(&self) {
        (self.register)(self.wire_id);
    }
}

/// Packed size: the wire word, then a lane and a tag per digest lane.
const fn packet_wire_bytes<W: WireElem, L: LaneArray>() -> usize {
    W::BYTES + 2 * L::LANES * 8
}

fn packet_shape<W: WireElem + Send + 'static, L: LaneArray>(index: usize) -> PacketShape {
    PacketShape {
        wire: std::any::type_name::<W>(),
        lanes: L::LANES,
        mem_bytes: std::mem::size_of::<Packet<W, L>>(),
        wire_bytes: packet_wire_bytes::<W, L>(),
        wire_id: PACKET_WIRE_ID_BASE + index as u32,
        register: |wire_id| {
            let bytes = packet_wire_bytes::<W, L>();
            register_vec_codec::<Packet<W, L>>(wire_id, bytes, packet_put, packet_get);
        },
    }
}

macro_rules! packet_shape_rows {
    ($(($w:ty, $l:literal)),+ $(,)?) => {
        [$(packet_shape::<$w, [u64; $l]> as fn(usize) -> PacketShape),+]
    };
}

/// Every verified-packet shape the seven schemes produce, in type-id
/// order — the engine's one shape list, with sizes.
pub fn packet_shapes() -> Vec<PacketShape> {
    let rows = for_each_packet_shape!(packet_shape_rows);
    rows.iter().enumerate().map(|(i, row)| row(i)).collect()
}

/// Bind the TCP codec for scheme `S`'s verified packets unless it is bound
/// already (one registry read per call in steady state). The receiving
/// side decodes at its own receive, inside the same verified call, so both
/// ends have bound the codec by the time a frame needs it.
pub(crate) fn ensure_packet_codec<S: Scheme + 'static>() {
    let probe: Vec<SchemePacket<S>> = Vec::new();
    if !can_encode(&probe) {
        PacketShape::of::<S>().bind();
    }
}

/// 16 bytes: padded cell + shared-stream MAC tag, the verified
/// single-origin transport of allgather/alltoall.
fn tagged_put(t: &Tagged<u64>, out: &mut Vec<u8>) {
    out.extend_from_slice(&t.c.to_le_bytes());
    out.extend_from_slice(&t.sigma.to_le_bytes());
}

fn tagged_get(b: &[u8]) -> Option<Tagged<u64>> {
    Some(Tagged {
        c: u64::from_le_bytes(b[..8].try_into().ok()?),
        sigma: u64::from_le_bytes(b[8..16].try_into().ok()?),
    })
}

/// Register the `Vec<Hfp>` and `Vec<Tagged<u64>>` codecs with the TCP
/// transport's registry (the packet codecs follow on first verified use).
/// Idempotent and thread-safe; called by `SecureComm::new`, and callable
/// directly by tests that drive the transport below the engine.
pub fn register_wire_codecs() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        register_vec_codec::<Hfp>(WIRE_ID_USER_BASE, Hfp::BYTES, hfp_put, hfp_get);
        register_vec_codec::<Tagged<u64>>(WIRE_ID_USER_BASE + 6, 16, tagged_put, tagged_get);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear_mpi::tcp::wire::{decode_payload, encode_payload};

    #[test]
    fn hfp_vectors_roundtrip_bitexact() {
        register_wire_codecs();
        let v: Vec<Hfp> = (0..9)
            .map(|i| Hfp {
                sign: i % 2 == 0,
                exp: 0xABCD_0000 + i,
                sig: (1 << 20) + i,
                ew: 10,
                mw: 20,
            })
            .collect();
        let (id, bytes) = encode_payload(&v);
        assert_eq!(id, WIRE_ID_USER_BASE);
        let back = decode_payload(id, &bytes);
        assert_eq!(back.downcast_ref::<Vec<Hfp>>(), Some(&v));
    }

    /// Bind every packet shape, as a program using all seven schemes would.
    fn register_all_codecs() {
        register_wire_codecs();
        packet_shapes().iter().for_each(PacketShape::bind);
    }

    /// Test values for a packet's payload word.
    trait Sample: WireElem + Clone + PartialEq + std::fmt::Debug + Send + 'static {
        fn sample(i: u64) -> Self;
    }
    macro_rules! impl_sample_int {
        ($($t:ty),+) => {$(
            impl Sample for $t {
                fn sample(i: u64) -> $t {
                    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7) as $t
                }
            }
        )+};
    }
    impl_sample_int!(u8, u16, u32, u64);
    impl Sample for Hfp {
        fn sample(i: u64) -> Hfp {
            Hfp {
                sign: i % 2 == 1,
                exp: u64::MAX - i,
                sig: (1 << 21) + i,
                ew: 8,
                mw: 21,
            }
        }
    }

    /// `n` packets with every lane and tag distinct, extremes included.
    fn packets<W: Sample, L: LaneArray>(n: u64) -> Vec<Packet<W, L>> {
        let lanes = |seed: u64| {
            let mut l = L::ZERO;
            for (k, x) in l.as_mut().iter_mut().enumerate() {
                *x = (seed ^ u64::MAX).wrapping_sub(k as u64 * 0x0101_0101);
            }
            l
        };
        (0..n)
            .map(|i| Packet {
                c: W::sample(i),
                d: lanes(i),
                s: lanes(!i),
            })
            .collect()
    }

    fn codec_roundtrip<W: Sample, L: LaneArray>() {
        let sent = packets::<W, L>(5);
        let (id, bytes) = encode_payload(&sent);
        assert_eq!(bytes.len(), 5 * (W::BYTES + 16 * L::LANES));
        let back = decode_payload(id, &bytes);
        assert_eq!(back.downcast_ref::<Vec<Packet<W, L>>>(), Some(&sent));
    }

    macro_rules! codec_roundtrip_each {
        ($(($w:ty, $l:literal)),+ $(,)?) => {$( codec_roundtrip::<$w, [u64; $l]>(); )+};
    }

    #[test]
    fn packet_vectors_roundtrip_in_every_shape() {
        register_all_codecs();
        for_each_packet_shape!(codec_roundtrip_each);
    }

    /// The verified path's packets cross a real socket as direct
    /// messages, one vector of each registered shape: read whole into one
    /// byte buffer by the connection's reader, decoded when the receiver
    /// asks (`Packet` is private to this crate, so this row lives here and
    /// not in `tests/socket.rs`).
    #[test]
    fn packet_vectors_of_every_shape_cross_the_tcp_mesh() {
        use hear_mpi::{NetConfig, TcpTransport, Transport};
        fn cross<W: Sample, L: LaneArray>(t: &TcpTransport, tag: u64) {
            let sent = packets::<W, L>(300);
            let bytes = std::mem::size_of_val(sent.as_slice());
            t.send_boxed(0, 1, tag, Box::new(sent.clone()), bytes);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let env = t.recv_on(1, 0, tag, Some(deadline)).expect("delivered");
            let got = env.payload.downcast::<Vec<Packet<W, L>>>().expect("typed");
            assert_eq!(*got, sent);
        }
        macro_rules! cross_each {
            ($(($w:ty, $l:literal)),+ $(,)?) => {
                |t: &TcpTransport| { let mut tag = 0; $( tag += 1; cross::<$w, [u64; $l]>(t, tag); )+ }
            };
        }
        register_all_codecs();
        let t = TcpTransport::mesh(2, NetConfig::instant(), None).expect("loopback mesh");
        for_each_packet_shape!(cross_each)(&t);
    }

    /// The shape list covers every scheme, ids are fresh, and the packet
    /// is as small as its lanes: 24 bytes in memory for a `u32` int-sum
    /// word against 72 with four fixed lanes.
    #[test]
    fn every_scheme_ships_a_listed_shape_on_a_fresh_type_id() {
        use hear_core::{
            FixedSumScheme, FloatProdScheme, FloatSumExpScheme, FloatSumScheme, IntProdScheme,
            IntSumScheme, IntXorScheme,
        };
        fn int_rows<W: hear_core::RingWord>() -> [PacketShape; 3] {
            [
                PacketShape::of::<IntSumScheme<W>>(),
                PacketShape::of::<IntProdScheme<W>>(),
                PacketShape::of::<IntXorScheme<W>>(),
            ]
        }
        let mut rows = vec![
            PacketShape::of::<FixedSumScheme>(),
            PacketShape::of::<FloatSumScheme>(),
            PacketShape::of::<FloatSumExpScheme>(),
            PacketShape::of::<FloatProdScheme>(),
        ];
        rows.extend(int_rows::<u8>());
        rows.extend(int_rows::<u16>());
        rows.extend(int_rows::<u32>());
        rows.extend(int_rows::<u64>());
        assert!(rows.iter().all(|r| r.wire_id > WIRE_ID_USER_BASE + 6));
        // Every listed shape is some scheme's: nothing stale in the list.
        for shape in packet_shapes() {
            assert!(rows.iter().any(|r| r.wire_id == shape.wire_id), "{shape:?}");
        }
        assert_eq!(std::mem::size_of::<Packet<u32, [u64; 1]>>(), 24);
        let sum = PacketShape::of::<IntSumScheme<u32>>();
        assert_eq!((sum.lanes, sum.mem_bytes, sum.wire_bytes), (1, 24, 20));
        let xor = PacketShape::of::<IntXorScheme<u32>>();
        assert_eq!((xor.lanes, xor.mem_bytes, xor.wire_bytes), (4, 72, 68));
    }

    /// A stale peer still framing the fixed four-lane packets uses type
    /// ids nobody binds any more: its payload poisons to `WireUndecodable`
    /// (a `TypeMismatch` at the receive) instead of being mis-parsed.
    #[test]
    fn retired_four_lane_type_ids_are_undecodable() {
        register_all_codecs();
        for retired in 1..=5 {
            let back = decode_payload(WIRE_ID_USER_BASE + retired, &[0u8; 68]);
            assert!(back
                .downcast_ref::<hear_mpi::tcp::wire::WireUndecodable>()
                .is_some());
        }
    }

    #[test]
    fn tagged_cell_vectors_roundtrip_bitexact() {
        register_wire_codecs();
        let v: Vec<Tagged<u64>> = (0..5)
            .map(|i| Tagged {
                c: 0xDEAD_BEEF_0000_0000 | i,
                sigma: u64::MAX - i,
            })
            .collect();
        let (id, bytes) = encode_payload(&v);
        assert_eq!(id, WIRE_ID_USER_BASE + 6);
        let back = decode_payload(id, &bytes);
        assert_eq!(back.downcast_ref::<Vec<Tagged<u64>>>(), Some(&v));
    }

    #[test]
    fn corrupt_sign_byte_poisons_the_message() {
        register_wire_codecs();
        let v = vec![Hfp::zero(8, 23)];
        let (id, mut bytes) = encode_payload(&v);
        bytes[0] = 9; // not a boolean
        let back = decode_payload(id, &bytes);
        assert!(back.downcast_ref::<Vec<Hfp>>().is_none());
        assert!(back
            .downcast_ref::<hear_mpi::tcp::wire::WireUndecodable>()
            .is_some());
    }
}
