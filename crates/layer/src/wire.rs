//! The engine's entries in the wire-type table ([`hear_mpi::payload`]).
//!
//! hear-mpi declares the primitive vectors of the host collectives; the
//! HEAR engine puts three more kinds of payload on a transport, and each
//! is declared here once, as one [`WireType`] — its TCP codec, the damage
//! a corrupt fault does to it, its clone and its recorder rendering all
//! come from that one entry:
//!
//! * `Vec<Hfp>` — unverified float-scheme ciphertexts (one HFP ring
//!   element per value);
//! * `Vec<Packet<W, [u64; L]>>` — the verified path's §5.5 `(c, d, σ)`
//!   triples, for every `(wire word, lane count)` shape the schemes
//!   produce (`u8/u16/u32/u64` integer rings with 1, 2, 5 or 8 field
//!   lanes, the `Hfp` float ring with 2 or 4) — generated from the
//!   engine's one shape list, on type ids that overlap neither the retired
//!   fixed four-lane packets' nor the retired 64-bit-lane shapes', so a
//!   stale peer's frame is a `TypeMismatch`.
//!   A shape is bound when a communicator first runs a verified reduction
//!   of a scheme that ships it (`ensure_packet_type`): binding all
//!   fourteen up front costs every program ≈ 60 KiB of resident code it
//!   may never run;
//! * `Vec<Tagged<u64>>` — the verified single-origin cell transport of
//!   allgather/alltoall (padded cell + shared-stream MAC tag).
//!
//! [`register_wire_types`] (the `Hfp` and `Tagged` entries) is idempotent
//! and is invoked from `SecureComm::new`, so any program that constructs a
//! secure communicator can run over sockets and under a fault plan without
//! extra wiring.

use crate::engine::{for_each_packet_shape, Packet, SchemePacket};
use crate::secure::Tagged;
use hear_core::{Hfp, LaneArray, Scheme};
use hear_mpi::payload::{self, WireType, WIRE_ID_USER_BASE};

/// A packet's payload word: its fixed-width wire image, and the damage a
/// corrupt fault does to it — past any scheme's tolerance.
trait WireElem: Clone + std::fmt::Debug + Send + Sized + 'static {
    const BYTES: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(b: &[u8]) -> Option<Self>;
    fn damage(&mut self, word: u64);
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
            fn damage(&mut self, word: u64) {
                *self ^= 1 << (word % <$t>::BITS as u64);
            }
        }
    )+};
}
impl_wire_elem_int!(u8, u16, u32, u64);

/// 25 bytes: sign, exp, sig, ew, mw. An element is decodable when its
/// widths are ones an `HfpFormat` ciphertext can have (`ew` 2..=16, `mw`
/// at most 52), its exponent lies on its `ew`-bit ring and its sign byte
/// is a boolean; any significand is admissible. What a peer sends past
/// that is `WireUndecodable` at the receive, before the combiner sees it.
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
        let h = Hfp {
            sign,
            exp: u64::from_le_bytes(b[1..9].try_into().ok()?),
            sig: u64::from_le_bytes(b[9..17].try_into().ok()?),
            ew: u32::from_le_bytes(b[17..21].try_into().ok()?),
            mw: u32::from_le_bytes(b[21..25].try_into().ok()?),
        };
        let in_range = (2..=16).contains(&h.ew) && h.mw <= 52 && h.exp >> h.ew == 0;
        in_range.then_some(h)
    }
    /// An exponent bit-flip stays inside the `ew`-bit ring and shifts the
    /// decoded value by a power of two — far past any Table 2 tolerance.
    fn damage(&mut self, _word: u64) {
        self.exp ^= 1;
    }
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

/// Flip one bit of the packet: payload ciphertext, one digest lane, or
/// that lane's tag, as `word`'s high bits pick — so a seed sweep
/// exercises all three detection paths.
fn packet_damage<W: WireElem, L: LaneArray>(p: &mut Packet<W, L>, word: u64) {
    let lane = (word >> 8) as usize % L::LANES;
    match (word >> 29) % 3 {
        0 => p.c.damage(word),
        1 => p.d.as_mut()[lane] ^= 1,
        _ => p.s.as_mut()[lane] ^= 1,
    }
}

/// Type ids `WIRE_ID_USER_BASE + 1 ..= + 5` carried the fixed four-lane
/// packets and `+ 0x10 ..= + 0x1D` the shapes whose lanes were 64-bit
/// ring words; they stay unbound, and the field-lane shapes start here.
const PACKET_WIRE_ID_BASE: u32 = WIRE_ID_USER_BASE + 0x20;

/// One verified-packet shape: what a scheme's `(c, d, σ)` packet costs in
/// memory (what the in-process fabric moves, padding included) and on the
/// TCP wire (packed).
#[derive(Debug, Clone, Copy)]
pub struct PacketShape {
    /// Type name of the payload wire word.
    pub wire: &'static str,
    /// Field lanes carried (each with one tag).
    pub lanes: usize,
    pub mem_bytes: usize,
    pub wire_bytes: usize,
    /// TCP codec type id.
    pub wire_id: u32,
    bind: fn(u32),
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

    /// Add this shape to the wire-type table under its type id
    /// (idempotent).
    fn bind(&self) {
        (self.bind)(self.wire_id);
    }
}

/// Packed size: the wire word, then a lane and a tag per digest lane.
const fn packet_wire_bytes<W: WireElem, L: LaneArray>() -> usize {
    W::BYTES + 2 * L::LANES * 8
}

fn packet_shape<W: WireElem, L: LaneArray>(index: usize) -> PacketShape {
    PacketShape {
        wire: std::any::type_name::<W>(),
        lanes: L::LANES,
        mem_bytes: std::mem::size_of::<Packet<W, L>>(),
        wire_bytes: packet_wire_bytes::<W, L>(),
        wire_id: PACKET_WIRE_ID_BASE + index as u32,
        bind: |id| {
            WireType::<Packet<W, L>> {
                id,
                bytes: packet_wire_bytes::<W, L>(),
                put: packet_put,
                get: packet_get,
                damage: packet_damage,
            }
            .register()
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
fn packet_shapes() -> Vec<PacketShape> {
    let rows = for_each_packet_shape!(packet_shape_rows);
    rows.iter().enumerate().map(|(i, row)| row(i)).collect()
}

/// Bind scheme `S`'s verified packet type on first use (one table read per
/// call afterwards). The receiving side decodes at its own receive, inside
/// the same verified call, so both ends have bound the type by the time a
/// frame needs it, and the fault injector, which sees the payload at the
/// sender, after the sender bound it.
pub(crate) fn ensure_packet_type<S: Scheme + 'static>() {
    if !payload::knows::<SchemePacket<S>>() {
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

/// Flip one bit of the cell, or the low bit of its tag, as `word`'s top
/// bit picks.
fn tagged_damage(t: &mut Tagged<u64>, word: u64) {
    match (word >> 31) & 1 {
        0 => t.c ^= 1 << (word % 64),
        _ => t.sigma ^= 1,
    }
}

/// Add `Vec<Hfp>` and `Vec<Tagged<u64>>` to the wire-type table (the
/// packet types follow on first verified use). Idempotent and
/// thread-safe; called by `SecureComm::new`, and callable directly by
/// tests that drive the transport below the engine.
pub fn register_wire_types() {
    WireType::<Hfp> {
        id: WIRE_ID_USER_BASE,
        bytes: Hfp::BYTES,
        put: <Hfp as WireElem>::put,
        get: <Hfp as WireElem>::get,
        damage: <Hfp as WireElem>::damage,
    }
    .register();
    WireType::<Tagged<u64>> {
        id: WIRE_ID_USER_BASE + 6,
        bytes: 16,
        put: tagged_put,
        get: tagged_get,
        damage: tagged_damage,
    }
    .register();
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear_mpi::payload::Row;
    use hear_mpi::tcp::wire::{decode_payload, encode_payload, WireUndecodable};
    use hear_testkit::TestRng;

    #[test]
    fn hfp_vectors_roundtrip_bitexact() {
        register_wire_types();
        let v: Vec<Hfp> = (0..9)
            .map(|i| Hfp {
                sign: i % 2 == 0,
                exp: 0x3F0 + i,
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

    /// A hostile peer's `Hfp` — widths no `HfpFormat` gives a ciphertext,
    /// or an exponent off its ring — is `WireUndecodable` at the receive,
    /// so the combiner never sees it; the honest element beside it decodes.
    #[test]
    fn an_out_of_range_hfp_is_undecodable() {
        register_wire_types();
        let honest = Hfp::one(13, 52);
        let (id, bytes) = encode_payload(&vec![honest]);
        let back = decode_payload(id, &bytes);
        assert_eq!(back.downcast_ref::<Vec<Hfp>>(), Some(&vec![honest]));
        for hostile in [
            Hfp { ew: 40, ..honest },
            Hfp { ew: 1, ..honest },
            Hfp { ew: 0, ..honest },
            Hfp { mw: 53, ..honest },
            Hfp { mw: 4000, ..honest },
            Hfp {
                exp: 1 << 13,
                ..honest
            },
        ] {
            let (id, bytes) = encode_payload(&vec![honest, hostile]);
            let got = decode_payload(id, &bytes);
            assert!(got.is::<WireUndecodable>(), "{hostile:?}");
        }
    }

    /// Bind every packet shape, as a program using all seven schemes would.
    fn register_all_types() {
        register_wire_types();
        packet_shapes().iter().for_each(PacketShape::bind);
    }

    fn random_bytes(rng: &mut TestRng, n: usize) -> Vec<u8> {
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    /// Random bytes for one element of `row`'s type. An element that leads
    /// with an `Hfp` (its own entry and the float packet shapes) gets
    /// widths and an exponent in range after its sign byte: random bytes
    /// almost never have them.
    fn random_elem(rng: &mut TestRng, row: &Row) -> Vec<u8> {
        let mut b = random_bytes(rng, row.bytes);
        let hfp_led = row.id == WIRE_ID_USER_BASE
            || packet_shapes()
                .iter()
                .any(|s| s.wire_id == row.id && s.wire == std::any::type_name::<Hfp>());
        if hfp_led {
            let ew = 2 + (rng.next_u64() % 15) as u32;
            let h = Hfp {
                sign: false,
                exp: rng.next_u64() & ((1 << ew) - 1),
                sig: rng.next_u64(),
                ew,
                mw: (rng.next_u64() % 53) as u32,
            };
            let mut head = Vec::new();
            h.put(&mut head);
            b[1..Hfp::BYTES].copy_from_slice(&head[1..]);
        }
        b
    }

    /// A valid wire image of `n` elements of `row`'s type: each element's
    /// bytes are drawn at random until the table's codec accepts them.
    fn valid_image(rng: &mut TestRng, row: &Row, n: usize) -> Vec<u8> {
        let mut image = Vec::with_capacity(n * row.bytes);
        for _ in 0..n {
            let elem = std::iter::repeat_with(|| random_elem(rng, row))
                .find(|b| !decode_payload(row.id, b).is::<WireUndecodable>())
                .expect("an endless search");
            image.extend(elem);
        }
        image
    }

    /// The wire-type table, walked entry by entry once every type is
    /// bound: the codec round-trips, the cloner's copy encodes the same,
    /// and every corrupt fault changes the value.
    #[test]
    fn every_table_entry_round_trips_damages_and_clones() {
        register_all_types();
        let rows = payload::rows();
        // 14 primitives, `Hfp`, `Tagged<u64>` and the packet shapes.
        assert_eq!(rows.len(), 16 + packet_shapes().len(), "{rows:?}");
        let mut rng = TestRng::new(0x7AB1E);
        for row in &rows {
            let image = valid_image(&mut rng, row, 5);
            let sent = decode_payload(row.id, &image);
            assert_eq!(
                encode_payload(sent.as_ref()),
                (row.id, image.clone()),
                "{row:?}"
            );
            let copy = payload::duplicate(sent.as_ref()).expect("a registered type");
            assert_eq!(encode_payload(copy.as_ref()).1, image, "{row:?} clone");
            for _ in 0..16 {
                let mut hit = payload::duplicate(sent.as_ref()).expect("a registered type");
                assert!(payload::corrupt(hit.as_mut(), rng.next_u64()), "{row:?}");
                assert_ne!(encode_payload(hit.as_ref()).1, image, "{row:?} damage");
            }
            assert!(payload::show(sent.as_ref()).is_some(), "{row:?}");
        }
    }

    /// Every registered decoder, fed random bytes, a valid image cut by
    /// one byte and a valid image with one byte added, returns a value or
    /// `WireUndecodable` — never panics — and a torn element is always
    /// undecodable.
    #[test]
    fn every_registered_decoder_survives_fuzzing() {
        register_all_types();
        let mut rng = TestRng::new(0xF022);
        for row in payload::rows() {
            let torn = |len: usize| row.bytes > 1 && !len.is_multiple_of(row.bytes);
            for _ in 0..64 {
                let len = (rng.next_u64() % (4 * row.bytes as u64 + 4)) as usize;
                let got = decode_payload(row.id, &random_bytes(&mut rng, len));
                assert!(!torn(len) || got.is::<WireUndecodable>(), "{row:?} {len} B");
            }
            let mut image = valid_image(&mut rng, &row, 3);
            let cut = decode_payload(row.id, &image[..image.len() - 1]);
            assert!(
                !torn(image.len() - 1) || cut.is::<WireUndecodable>(),
                "{row:?} cut"
            );
            image.push(rng.next_u64() as u8);
            let long = decode_payload(row.id, &image);
            assert!(
                !torn(image.len()) || long.is::<WireUndecodable>(),
                "{row:?} long"
            );
        }
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
                exp: 0xFF_u64.wrapping_sub(i) & 0xFF,
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
        register_all_types();
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
        register_all_types();
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
        assert_eq!((xor.lanes, xor.mem_bytes, xor.wire_bytes), (8, 136, 132));
    }

    /// A stale peer still framing the fixed four-lane packets uses type
    /// ids nobody binds any more: its payload poisons to `WireUndecodable`
    /// (a `TypeMismatch` at the receive) instead of being mis-parsed.
    #[test]
    fn retired_four_lane_type_ids_are_undecodable() {
        register_all_types();
        for retired in 1..=5 {
            let back = decode_payload(WIRE_ID_USER_BASE + retired, &[0u8; 68]);
            assert!(back
                .downcast_ref::<hear_mpi::tcp::wire::WireUndecodable>()
                .is_some());
        }
    }

    /// Likewise for a peer still framing the shapes whose digest lanes
    /// were 64-bit ring words: their ids stay unbound.
    #[test]
    fn retired_ring_lane_shape_ids_are_undecodable() {
        register_all_types();
        for retired in 0x10..=0x1D {
            let back = decode_payload(WIRE_ID_USER_BASE + retired, &[0u8; 24]);
            assert!(back
                .downcast_ref::<hear_mpi::tcp::wire::WireUndecodable>()
                .is_some());
        }
    }

    #[test]
    fn tagged_cell_vectors_roundtrip_bitexact() {
        register_wire_types();
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
        register_wire_types();
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
