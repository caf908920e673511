//! TCP wire codecs for this crate's private transport payloads.
//!
//! The TCP backend ([`hear_mpi::tcp`]) serializes `Box<dyn Any>` payloads
//! through a runtime codec registry; the primitive `Vec<uN>` payloads of
//! the host collectives are built in, but the HEAR engine additionally
//! puts three of its own types on the wire:
//!
//! * `Vec<Hfp>` — unverified float-scheme ciphertexts (one HFP ring
//!   element per value);
//! * `Vec<Packet<W>>` — the verified path's §5.5 `(c, d, σ)` triples, for
//!   every wire word the schemes use (`u8/u16/u32/u64` integer rings,
//!   `Hfp` float ring);
//! * `Vec<Tagged<u64>>` — the verified single-origin cell transport of
//!   allgather/alltoall (padded cell + shared-stream MAC tag).
//!
//! [`register_wire_codecs`] is idempotent (guarded by a [`Once`]) and is
//! invoked from `SecureComm::new`, so any program that constructs a
//! secure communicator can run over sockets without extra wiring — the
//! mirror of how [`crate::chaos::with_packet_hooks`] teaches the fault
//! injector about the same types.

use crate::engine::Packet;
use crate::secure::Tagged;
use hear_core::{Hfp, DIGEST_LANES};
use hear_mpi::tcp::wire::{register_vec_codec, WIRE_ID_USER_BASE};
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

fn packet_put<W: WireElem>(p: &Packet<W>, out: &mut Vec<u8>) {
    p.c.put(out);
    for d in &p.d {
        out.extend_from_slice(&d.to_le_bytes());
    }
    for s in &p.s {
        out.extend_from_slice(&s.to_le_bytes());
    }
}

fn packet_get<W: WireElem>(b: &[u8]) -> Option<Packet<W>> {
    let c = W::get(&b[..W::BYTES])?;
    let mut d = [0u64; DIGEST_LANES];
    let mut s = [0u64; DIGEST_LANES];
    for (i, lane) in d.iter_mut().enumerate() {
        let at = W::BYTES + i * 8;
        *lane = u64::from_le_bytes(b[at..at + 8].try_into().ok()?);
    }
    for (i, lane) in s.iter_mut().enumerate() {
        let at = W::BYTES + (DIGEST_LANES + i) * 8;
        *lane = u64::from_le_bytes(b[at..at + 8].try_into().ok()?);
    }
    Some(Packet { c, d, s })
}

const fn packet_bytes<W: WireElem>() -> usize {
    W::BYTES + 2 * DIGEST_LANES * 8
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

/// Register every hear-layer payload codec with the TCP transport's
/// registry. Idempotent and thread-safe; called by `SecureComm::new`, and
/// callable directly by tests that drive the transport below the engine.
pub fn register_wire_codecs() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        register_vec_codec::<Hfp>(WIRE_ID_USER_BASE, Hfp::BYTES, hfp_put, hfp_get);
        register_vec_codec::<Packet<u8>>(
            WIRE_ID_USER_BASE + 1,
            packet_bytes::<u8>(),
            packet_put::<u8>,
            packet_get::<u8>,
        );
        register_vec_codec::<Packet<u16>>(
            WIRE_ID_USER_BASE + 2,
            packet_bytes::<u16>(),
            packet_put::<u16>,
            packet_get::<u16>,
        );
        register_vec_codec::<Packet<u32>>(
            WIRE_ID_USER_BASE + 3,
            packet_bytes::<u32>(),
            packet_put::<u32>,
            packet_get::<u32>,
        );
        register_vec_codec::<Packet<u64>>(
            WIRE_ID_USER_BASE + 4,
            packet_bytes::<u64>(),
            packet_put::<u64>,
            packet_get::<u64>,
        );
        register_vec_codec::<Packet<Hfp>>(
            WIRE_ID_USER_BASE + 5,
            packet_bytes::<Hfp>(),
            packet_put::<Hfp>,
            packet_get::<Hfp>,
        );
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

    #[test]
    fn packet_vectors_roundtrip_all_wire_words() {
        register_wire_codecs();
        fn packet<W: WireElem>(c: W) -> Packet<W> {
            Packet {
                c,
                d: [11, 22, 33, 44],
                s: [u64::MAX, 0, 1, 0x8000_0000_0000_0000],
            }
        }
        let vu32 = vec![packet(7u32), packet(u32::MAX)];
        let (id, bytes) = encode_payload(&vu32);
        let back = decode_payload(id, &bytes);
        let back = back.downcast_ref::<Vec<Packet<u32>>>().unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].c, 7);
        assert_eq!(back[1].c, u32::MAX);
        assert_eq!(back[1].d, [11, 22, 33, 44]);
        assert_eq!(back[1].s[0], u64::MAX);

        let h = Hfp {
            sign: true,
            exp: 3,
            sig: 1 << 21,
            ew: 8,
            mw: 21,
        };
        let vh = vec![packet(h)];
        let (id, bytes) = encode_payload(&vh);
        let back = decode_payload(id, &bytes);
        assert_eq!(back.downcast_ref::<Vec<Packet<Hfp>>>().unwrap()[0].c, h);
    }

    /// The verified path's packets cross a real socket as a direct
    /// message: read whole into one byte buffer by the connection's reader,
    /// decoded when the receiver asks (`Packet` is private to this crate,
    /// so this row lives here and not in `tests/socket.rs`).
    #[test]
    fn packet_vector_crosses_the_tcp_mesh() {
        use hear_mpi::{NetConfig, TcpTransport, Transport};
        register_wire_codecs();
        let t = TcpTransport::mesh(2, NetConfig::instant(), None).expect("loopback mesh");
        let sent: Vec<Packet<u32>> = (0..300u32)
            .map(|i| Packet {
                c: i.wrapping_mul(0x9E37_79B9),
                d: [i as u64, 1, 2, u64::MAX],
                s: [3, 4, u64::MAX - i as u64, 5],
            })
            .collect();
        let bytes = sent.len() * std::mem::size_of::<Packet<u32>>();
        t.send_boxed(0, 1, 9, Box::new(sent.clone()), bytes);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let env = t.recv_on(1, 0, 9, Some(deadline)).expect("delivered");
        let got = env.payload.downcast::<Vec<Packet<u32>>>().expect("typed");
        assert_eq!(got.len(), sent.len());
        for (g, s) in got.iter().zip(&sent) {
            assert_eq!((g.c, g.d, g.s), (s.c, s.d, s.s));
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
