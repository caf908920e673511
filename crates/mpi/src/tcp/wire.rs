//! Wire framing and the payload codec registry for the TCP transport.
//!
//! Every message on a socket is one *frame*: a fixed 32-byte little-endian
//! header followed by `len` payload bytes.
//!
//! ```text
//!  offset  size  field     meaning
//!  ------  ----  --------  ------------------------------------------
//!       0     2  magic     0xAE57, guards against stream desync
//!       2     1  version   wire protocol version (currently 1)
//!       3     1  kind      Msg | Hello | Table | Ping | Pong
//!       4     4  type_id   payload codec id (Msg frames only)
//!       8     4  from      sending endpoint
//!      12     4  to        receiving endpoint
//!      16     8  tag       full wire tag (context | collective | attempt)
//!      24     4  delay_ns  injected extra delay, honoured at deposit
//!      28     4  len       payload byte count (≤ 256 MiB)
//! ```
//!
//! Failure philosophy, pinned by the tests at the bottom:
//!
//! * a *corrupt header* (bad magic/version/kind, oversize length) means the
//!   byte stream itself can no longer be trusted — [`FrameDecoder`] returns
//!   a [`WireError`] and the connection owner marks the peer dead
//!   ([`CommError::PeerDead`](crate::CommError::PeerDead)); it never panics;
//! * an *undecodable payload* (unknown `type_id`, or bytes the codec
//!   rejects) poisons only that one message: the decoder deposits a
//!   [`WireUndecodable`] envelope, so the receiver's typed downcast fails
//!   and surfaces [`CommError::TypeMismatch`](crate::CommError::TypeMismatch).
//!
//! Payloads are `Box<dyn Any + Send>` above this layer, so the codec for
//! each concrete `Vec<T>` and its stable `type_id` come from the
//! wire-type table ([`crate::payload`]).

use crate::payload::{self, WIRE_ID_USER_BASE};
use std::any::Any;

/// First two bytes of every frame.
const MAGIC: u16 = 0xAE57;
/// Current wire protocol version.
const VERSION: u8 = 1;
/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Upper bound on a single frame's payload; anything larger is treated as
/// a corrupt header (a genuine 256 MiB message should be chunked far
/// upstream of the transport).
pub const MAX_FRAME_LEN: u32 = 256 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A typed point-to-point message (the only kind with a payload codec).
    Msg = 0,
    /// Connection preamble: `{rank, data_port}` of the dialing side.
    Hello = 1,
    /// Rendezvous answer: the full rank→port table.
    Table = 2,
    /// RTT probe.
    Ping = 3,
    /// RTT probe answer.
    Pong = 4,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            0 => Some(FrameKind::Msg),
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Table),
            3 => Some(FrameKind::Ping),
            4 => Some(FrameKind::Pong),
            _ => None,
        }
    }
}

/// Why a byte stream stopped being parseable. All variants are
/// connection-fatal: the decoder cannot resynchronise, so the owning
/// connection marks its peer dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    BadMagic(u16),
    BadVersion(u8),
    BadKind(u8),
    Oversize(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x} (expected {MAGIC:#06x})"),
            WireError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {VERSION})")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
        }
    }
}

impl std::error::Error for WireError {}

/// For connection owners that read frames off a socket: a corrupt header
/// ends the stream the same way an I/O error does.
impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// The parsed fixed-size frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub kind: FrameKind,
    pub type_id: u32,
    pub from: u32,
    pub to: u32,
    pub tag: u64,
    pub delay_ns: u32,
    pub len: u32,
}

impl FrameHeader {
    /// A control-frame header (no payload codec, no tag).
    pub fn control(kind: FrameKind, from: usize) -> FrameHeader {
        FrameHeader {
            kind,
            type_id: 0,
            from: from as u32,
            to: 0,
            tag: 0,
            delay_ns: 0,
            len: 0,
        }
    }

    /// Serialize into the 32-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        h[2] = VERSION;
        h[3] = self.kind as u8;
        h[4..8].copy_from_slice(&self.type_id.to_le_bytes());
        h[8..12].copy_from_slice(&self.from.to_le_bytes());
        h[12..16].copy_from_slice(&self.to.to_le_bytes());
        h[16..24].copy_from_slice(&self.tag.to_le_bytes());
        h[24..28].copy_from_slice(&self.delay_ns.to_le_bytes());
        h[28..32].copy_from_slice(&self.len.to_le_bytes());
        h
    }

    /// Parse and validate a 32-byte wire header.
    pub fn decode(h: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
        let magic = u16::from_le_bytes([h[0], h[1]]);
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if h[2] != VERSION {
            return Err(WireError::BadVersion(h[2]));
        }
        let kind = FrameKind::from_u8(h[3]).ok_or(WireError::BadKind(h[3]))?;
        let len = u32::from_le_bytes([h[28], h[29], h[30], h[31]]);
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversize(len));
        }
        Ok(FrameHeader {
            kind,
            type_id: u32::from_le_bytes([h[4], h[5], h[6], h[7]]),
            from: u32::from_le_bytes([h[8], h[9], h[10], h[11]]),
            to: u32::from_le_bytes([h[12], h[13], h[14], h[15]]),
            tag: u64::from_le_bytes([h[16], h[17], h[18], h[19], h[20], h[21], h[22], h[23]]),
            delay_ns: u32::from_le_bytes([h[24], h[25], h[26], h[27]]),
            len,
        })
    }
}

/// One complete reassembled frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub header: FrameHeader,
    pub payload: Vec<u8>,
}

/// Serialize a whole frame (header stamped with `payload.len()`).
pub fn encode_frame(mut header: FrameHeader, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "frame payload too large"
    );
    header.len = payload.len() as u32;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame reassembly over an arbitrary byte stream.
///
/// `push` whatever the socket produced — any split, down to one byte at a
/// time — then drain complete frames with `next_frame`. Parsing state is a
/// single buffer with a consumed-prefix offset; the prefix is compacted
/// away once it outgrows 64 KiB so long-lived connections don't grow
/// unboundedly.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    off: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append raw bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are needed,
    /// or a fatal [`WireError`] if the stream is corrupt.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = self.buf.len() - self.off;
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let mut raw = [0u8; HEADER_LEN];
        raw.copy_from_slice(&self.buf[self.off..self.off + HEADER_LEN]);
        let header = FrameHeader::decode(&raw)?;
        let total = HEADER_LEN + header.len as usize;
        if avail < total {
            return Ok(None);
        }
        let payload = self.buf[self.off + HEADER_LEN..self.off + total].to_vec();
        self.off += total;
        if self.off == self.buf.len() {
            self.buf.clear();
            self.off = 0;
        } else if self.off > 64 << 10 {
            self.buf.drain(..self.off);
            self.off = 0;
        }
        Ok(Some(Frame { header, payload }))
    }
}

/// Poison payload deposited when a `Msg` frame's `type_id` is unknown or
/// its bytes fail to decode. The receiver's typed downcast then fails the
/// normal way, yielding `CommError::TypeMismatch` instead of a panic or a
/// silently wrong value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireUndecodable {
    /// The `type_id` the frame claimed.
    pub wire_id: u32,
    /// Payload length of the rejected frame.
    pub len: usize,
}

/// Encode a boxed payload for a `Msg` frame: `(type_id, bytes)`.
///
/// Panics when the concrete type has no entry in the wire-type table —
/// that is a build wiring bug (a new payload type reached the TCP backend
/// without a [`WireType::register`](payload::WireType::register) call), not
/// a runtime condition.
pub fn encode_payload(payload: &(dyn Any + Send)) -> (u32, Vec<u8>) {
    let mut bytes = Vec::new();
    let wire_id = encode_payload_into(payload, &mut bytes);
    (wire_id, bytes)
}

/// [`encode_payload`] into a caller-owned buffer (cleared first), so the
/// transport can reuse one scratch allocation per connection.
pub(super) fn encode_payload_into(payload: &(dyn Any + Send), out: &mut Vec<u8>) -> u32 {
    out.clear();
    payload::encode(payload, out).unwrap_or_else(|| {
        panic!(
            "payload type {:?} has no TCP wire codec; register one with \
             hear_mpi::payload::WireType::register (ids >= {WIRE_ID_USER_BASE:#x})",
            (*payload).type_id()
        )
    })
}

/// Decode a `Msg` frame's payload. Unknown `type_id`s and codec rejections
/// degrade to a [`WireUndecodable`] poison value rather than an error —
/// only the receive that matches this message should fail, as a
/// `TypeMismatch`, not the connection.
pub fn decode_payload(wire_id: u32, bytes: &[u8]) -> Box<dyn Any + Send> {
    payload::decode(wire_id, bytes).unwrap_or_else(|| {
        Box::new(WireUndecodable {
            wire_id,
            len: bytes.len(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear_testkit::prelude::*;
    // Both globs export an `Any` (the trait here, a strategy there).
    use std::any::Any;

    fn roundtrip_header(h: FrameHeader) -> FrameHeader {
        FrameHeader::decode(&h.encode()).expect("self-encoded header must decode")
    }

    proptest! {
        #[test]
        fn header_roundtrips_bitexact(
            kind_idx in 0u8..5,
            type_id in any::<u32>(),
            from in any::<u32>(),
            to in any::<u32>(),
            tag in any::<u64>(),
            delay_ns in any::<u32>(),
            len in 0u32..=MAX_FRAME_LEN,
        ) {
            let h = FrameHeader {
                kind: FrameKind::from_u8(kind_idx).unwrap(),
                type_id,
                from,
                to,
                tag,
                delay_ns,
                len,
            };
            prop_assert_eq!(roundtrip_header(h), h);
        }

        #[test]
        fn primitive_payloads_roundtrip_bitexact(
            vu64 in hear_testkit::collection::vec(any::<u64>(), 0..40),
            vu8 in hear_testkit::collection::vec(any::<u8>(), 0..40),
            vi32 in hear_testkit::collection::vec(any::<i32>(), 0..40),
            vf64 in hear_testkit::collection::vec(any::<f64>(), 0..40),
            vus in hear_testkit::collection::vec(0usize..=usize::MAX >> 1, 0..40),
        ) {
            let (id, bytes) = encode_payload(&vu64);
            let back = decode_payload(id, &bytes);
            prop_assert_eq!(back.downcast_ref::<Vec<u64>>(), Some(&vu64));

            let (id, bytes) = encode_payload(&vu8);
            let back = decode_payload(id, &bytes);
            prop_assert_eq!(back.downcast_ref::<Vec<u8>>(), Some(&vu8));

            let (id, bytes) = encode_payload(&vi32);
            let back = decode_payload(id, &bytes);
            prop_assert_eq!(back.downcast_ref::<Vec<i32>>(), Some(&vi32));

            // f64 must round-trip *bit-for-bit*, NaN payloads included.
            let (id, bytes) = encode_payload(&vf64);
            let back = decode_payload(id, &bytes);
            let back = back.downcast_ref::<Vec<f64>>().unwrap();
            prop_assert_eq!(back.len(), vf64.len());
            for (a, b) in back.iter().zip(&vf64) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }

            let (id, bytes) = encode_payload(&vus);
            let back = decode_payload(id, &bytes);
            prop_assert_eq!(back.downcast_ref::<Vec<usize>>(), Some(&vus));
        }

        #[test]
        fn whole_frames_roundtrip_through_decoder(
            tag in any::<u64>(),
            from in 0u32..64,
            to in 0u32..64,
            payload in hear_testkit::collection::vec(any::<u8>(), 0..200),
        ) {
            let header = FrameHeader {
                kind: FrameKind::Msg,
                type_id: 0x01,
                from,
                to,
                tag,
                delay_ns: 0,
                len: 0,
            };
            let bytes = encode_frame(header, &payload);
            let mut dec = FrameDecoder::new();
            dec.push(&bytes);
            let frame = dec.next_frame().unwrap().expect("one whole frame");
            prop_assert_eq!(frame.header.tag, tag);
            prop_assert_eq!(frame.header.from, from);
            prop_assert_eq!(&frame.payload, &payload);
            prop_assert!(dec.next_frame().unwrap().is_none());
            prop_assert_eq!(dec.buf.len() - dec.off, 0);
        }
    }

    /// Torn reads: a multi-frame stream split at *every* byte boundary
    /// (and additionally dribbled one byte at a time) reassembles to the
    /// identical frame sequence.
    #[test]
    fn torn_reads_reassemble_at_every_boundary() {
        let frames: Vec<Vec<u8>> = vec![
            encode_frame(FrameHeader::control(FrameKind::Ping, 3), &[]),
            encode_frame(
                FrameHeader {
                    kind: FrameKind::Msg,
                    type_id: 0x04,
                    from: 1,
                    to: 2,
                    tag: 0xDEAD_BEEF,
                    delay_ns: 17,
                    len: 0,
                },
                &7u64.to_le_bytes(),
            ),
            encode_frame(FrameHeader::control(FrameKind::Hello, 9), &[1, 2, 3]),
        ];
        let stream: Vec<u8> = frames.concat();

        let drain = |dec: &mut FrameDecoder| {
            let mut out = Vec::new();
            while let Some(f) = dec.next_frame().expect("clean stream") {
                out.push(f);
            }
            out
        };

        let mut reference = FrameDecoder::new();
        reference.push(&stream);
        let expected = drain(&mut reference);
        assert_eq!(expected.len(), 3);

        for split in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            dec.push(&stream[..split]);
            let mut got = drain(&mut dec);
            dec.push(&stream[split..]);
            got.extend(drain(&mut dec));
            assert_eq!(got, expected, "split at byte {split} changed the decode");
        }

        let mut dribble = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dribble.push(std::slice::from_ref(b));
            got.extend(drain(&mut dribble));
        }
        assert_eq!(got, expected);
    }

    /// Pin: corrupt headers are typed [`WireError`]s — never panics, never
    /// silently skipped bytes.
    #[test]
    fn malformed_headers_are_typed_errors() {
        let good = encode_frame(FrameHeader::control(FrameKind::Ping, 0), &[]);

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.push(&bad_magic);
        assert!(matches!(dec.next_frame(), Err(WireError::BadMagic(_))));

        let mut bad_version = good.clone();
        bad_version[2] = VERSION + 9;
        let mut dec = FrameDecoder::new();
        dec.push(&bad_version);
        assert_eq!(dec.next_frame(), Err(WireError::BadVersion(VERSION + 9)));

        let mut bad_kind = good.clone();
        bad_kind[3] = 0x7F;
        let mut dec = FrameDecoder::new();
        dec.push(&bad_kind);
        assert_eq!(dec.next_frame(), Err(WireError::BadKind(0x7F)));

        let mut oversize = good.clone();
        oversize[28..32].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&oversize);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::Oversize(MAX_FRAME_LEN + 1))
        );
    }

    /// Pin: undecodable *payloads* poison just that message, so the
    /// eventual typed receive fails as `TypeMismatch` — the stream and
    /// connection stay healthy.
    #[test]
    fn undecodable_payload_poisons_not_panics() {
        // Unknown wire id.
        let poison = decode_payload(0x3FFF_FFFF, &[1, 2, 3]);
        let u = poison
            .downcast_ref::<WireUndecodable>()
            .expect("unknown id must produce the poison marker");
        assert_eq!((u.wire_id, u.len), (0x3FFF_FFFF, 3));
        assert!(poison.downcast_ref::<Vec<u64>>().is_none());

        // Known codec, torn width: 5 bytes is not a whole number of u64s.
        let poison = decode_payload(0x04, &[0, 1, 2, 3, 4]);
        assert!(poison.downcast_ref::<WireUndecodable>().is_some());

        // Known codec, invalid bit pattern (bool 0x02).
        let poison = decode_payload(0x0D, &[0, 1, 2]);
        assert!(poison.downcast_ref::<WireUndecodable>().is_some());
    }

    #[test]
    fn registration_is_idempotent_but_conflicts_panic() {
        let ty = |id| payload::WireType::<u64> {
            id,
            bytes: 8,
            put: |v, out| out.extend_from_slice(&v.to_le_bytes()),
            get: |b| Some(u64::from_le_bytes(b.try_into().ok()?)),
            damage: |v, _| *v ^= 1,
        };
        // Same binding twice: fine.
        ty(0x04).register();
        ty(0x04).register();
        // Same type under a new id: refused.
        let clash = std::panic::catch_unwind(|| ty(0x99).register());
        assert!(
            clash.is_err(),
            "rebinding Vec<u64> to a second id must panic"
        );
    }

    #[test]
    fn unregistered_type_panics_with_register_hint() {
        #[derive(Debug)]
        struct Private;
        let payload: Box<dyn Any + Send> = Box::new(vec![Private]);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| encode_payload(&*payload)))
                .expect_err("unregistered type must panic at send");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("WireType::register"),
            "panic must name the fix: {msg}"
        );
    }
}
