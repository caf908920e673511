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
//! Payloads are `Box<dyn Any + Send>` above this layer, so encoding needs a
//! runtime registry: [`register_vec_codec`] maps a concrete `Vec<T>` to a
//! stable `type_id` with fixed-width per-element encode/decode functions.
//! Primitive vectors are pre-registered; downstream crates (hear-layer's
//! HoMAC packets, `Vec<Hfp>`) register theirs at startup using ids at or
//! above [`WIRE_ID_USER_BASE`].

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::io::Read;
use std::sync::{LazyLock, RwLock};

/// First two bytes of every frame.
pub const MAGIC: u16 = 0xAE57;
/// Current wire protocol version.
pub const VERSION: u8 = 1;
/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 32;
/// Upper bound on a single frame's payload; anything larger is treated as
/// a corrupt header (a genuine 256 MiB message should be chunked far
/// upstream of the transport).
pub const MAX_FRAME_LEN: u32 = 256 << 20;
/// First `type_id` available to codecs registered outside this crate.
pub const WIRE_ID_USER_BASE: u32 = 0x40;

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

    /// Bytes buffered but not yet parsed into a frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.off
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

/// Appends the payload's wire image to the buffer; `false` when handed a
/// type other than the one it was registered for.
type EncodeFn = Box<dyn Fn(&(dyn Any + Send), &mut Vec<u8>) -> bool + Send + Sync>;
type DecodeFn = Box<dyn Fn(&[u8]) -> Option<Box<dyn Any + Send>> + Send + Sync>;

struct Registry {
    by_type: HashMap<TypeId, (u32, EncodeFn)>,
    by_wire: HashMap<u32, (&'static str, DecodeFn)>,
}

static REGISTRY: LazyLock<RwLock<Registry>> = LazyLock::new(|| {
    let mut reg = Registry {
        by_type: HashMap::new(),
        by_wire: HashMap::new(),
    };
    builtin_codecs(&mut reg);
    RwLock::new(reg)
});

/// Bind `Vec<T>` to `wire_id` in both directions, refusing a second,
/// different binding of either.
fn registry_bind<T: Send + 'static>(
    reg: &mut Registry,
    wire_id: u32,
    encode: EncodeFn,
    decode: DecodeFn,
) {
    let name = std::any::type_name::<Vec<T>>();
    if let Some((existing, _)) = reg.by_type.get(&TypeId::of::<Vec<T>>()) {
        assert!(
            *existing == wire_id,
            "codec for {name} already registered under wire id {existing:#x}, now {wire_id:#x}"
        );
        return; // idempotent re-registration
    }
    if let Some((other, _)) = reg.by_wire.get(&wire_id) {
        panic!("wire id {wire_id:#x} already taken by {other}, cannot assign it to {name}");
    }
    reg.by_type
        .insert(TypeId::of::<Vec<T>>(), (wire_id, encode));
    reg.by_wire.insert(wire_id, (name, decode));
}

fn registry_insert<T: Send + 'static>(
    reg: &mut Registry,
    wire_id: u32,
    elem_bytes: usize,
    write: fn(&T, &mut Vec<u8>),
    read: fn(&[u8]) -> Option<T>,
) {
    let name = std::any::type_name::<Vec<T>>();
    let encode: EncodeFn = Box::new(move |payload, out| {
        let Some(v) = payload.downcast_ref::<Vec<T>>() else {
            return false;
        };
        out.reserve(v.len() * elem_bytes);
        for item in v {
            let before = out.len();
            write(item, out);
            debug_assert_eq!(
                out.len() - before,
                elem_bytes,
                "codec {name} wrote a wrong-width element"
            );
        }
        true
    });
    let decode: DecodeFn = Box::new(move |bytes| {
        if elem_bytes == 0 || bytes.len() % elem_bytes != 0 {
            return None;
        }
        let mut v: Vec<T> = Vec::with_capacity(bytes.len() / elem_bytes);
        for chunk in bytes.chunks_exact(elem_bytes) {
            v.push(read(chunk)?);
        }
        Some(Box::new(v) as Box<dyn Any + Send>)
    });
    registry_bind::<T>(reg, wire_id, encode, decode);
}

/// Register a codec for `Vec<T>` under `wire_id`, where every element
/// occupies exactly `elem_bytes` on the wire. `write` must append exactly
/// `elem_bytes`; `read` gets exactly `elem_bytes` and returns `None` for
/// bit patterns that are not a valid `T` (the whole message then poisons
/// to [`WireUndecodable`]).
///
/// Idempotent for an identical re-registration; panics if `Vec<T>` or
/// `wire_id` is already bound differently. Downstream crates must use ids
/// at or above [`WIRE_ID_USER_BASE`].
pub fn register_vec_codec<T: Send + 'static>(
    wire_id: u32,
    elem_bytes: usize,
    write: fn(&T, &mut Vec<u8>),
    read: fn(&[u8]) -> Option<T>,
) {
    let mut reg = REGISTRY.write().unwrap_or_else(|e| e.into_inner());
    registry_insert(&mut reg, wire_id, elem_bytes, write, read);
}

/// A built-in primitive element: fixed width, no padding, every bit
/// pattern valid, and a wire image that is the value's little-endian
/// bytes — so a whole `Vec<T>` moves as one byte run instead of element
/// by element.
///
/// # Safety
///
/// Implementors must be primitive integers or floats: [`bytes_of`] and
/// [`bytes_of_mut`] reinterpret slices of them as bytes, which is sound
/// only without padding and without invalid bit patterns.
unsafe trait Pod: Copy + Default + Send + 'static {
    /// Native value ↔ little-endian wire image: the identity on
    /// little-endian hosts, a byte swap on big-endian ones.
    fn swap_le(self) -> Self;
}

fn bytes_of<T: Pod>(v: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` has no padding, so all `size_of_val(v)` bytes are
    // initialised; `u8` has alignment 1; the result borrows `v`.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast(), std::mem::size_of_val(v)) }
}

fn bytes_of_mut<T: Pod>(v: &mut [T]) -> &mut [u8] {
    // SAFETY: as `bytes_of`; every bit pattern is a valid `T`, so no write
    // through the byte view can leave an invalid value behind, and the
    // result holds the exclusive borrow of `v`.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast(), std::mem::size_of_val(v)) }
}

fn pod_encode<T: Pod>(payload: &(dyn Any + Send), out: &mut Vec<u8>) -> bool {
    let Some(v) = payload.downcast_ref::<Vec<T>>() else {
        return false;
    };
    if cfg!(target_endian = "little") {
        out.extend_from_slice(bytes_of(v));
    } else {
        for x in v {
            out.extend_from_slice(bytes_of(&[x.swap_le()]));
        }
    }
    true
}

/// A zeroed `Vec<T>` whose byte image is `bytes` long, ready to be filled
/// through [`bytes_of_mut`]; `None` when `bytes` is not a whole number of
/// elements.
fn pod_zeroed<T: Pod>(bytes: usize) -> Option<Vec<T>> {
    bytes
        .is_multiple_of(std::mem::size_of::<T>())
        .then(|| vec![T::default(); bytes / std::mem::size_of::<T>()])
}

/// Turn a wire image just written through [`bytes_of_mut`] into native
/// values (nothing to do on a little-endian host).
fn pod_from_wire<T: Pod>(v: &mut [T]) {
    if cfg!(target_endian = "big") {
        for x in v {
            *x = x.swap_le();
        }
    }
}

fn pod_decode<T: Pod>(bytes: &[u8]) -> Option<Box<dyn Any + Send>> {
    let mut v = pod_zeroed::<T>(bytes.len())?;
    bytes_of_mut(&mut v).copy_from_slice(bytes);
    pod_from_wire(&mut v);
    Some(Box::new(v))
}

fn pod_read<T: Pod>(len: usize, r: &mut impl Read) -> Option<std::io::Result<Box<dyn Any + Send>>> {
    let mut v = pod_zeroed::<T>(len)?;
    Some(r.read_exact(bytes_of_mut(&mut v)).map(|()| {
        pod_from_wire(&mut v);
        Box::new(v) as Box<dyn Any + Send>
    }))
}

/// The primitive codecs, once: `(wire id, element type)`. Everything that
/// moves these as bulk bytes — the registry entries, the transport's
/// borrowed send and its typed receive — is generated from this one list.
macro_rules! le_primitives {
    ($(($id:literal, $t:ty)),+ $(,)?) => {
        $(
            // SAFETY: a primitive number — no padding, every bit pattern valid.
            unsafe impl Pod for $t {
                fn swap_le(self) -> Self {
                    <$t>::from_le_bytes(self.to_ne_bytes())
                }
            }
        )+

        fn primitive_codecs(reg: &mut Registry) {
            $(registry_bind::<$t>(reg, $id, Box::new(pod_encode::<$t>), Box::new(pod_decode::<$t>));)+
        }

        /// The payload's wire image borrowed in place: `(type_id, bytes)`
        /// when it is a primitive vector on a little-endian host, where
        /// memory already holds the wire form. `None` sends the caller to
        /// [`encode_payload_into`].
        pub(super) fn primitive_bytes(payload: &(dyn Any + Send)) -> Option<(u32, &[u8])> {
            if cfg!(target_endian = "big") {
                return None;
            }
            $(
                if let Some(v) = payload.downcast_ref::<Vec<$t>>() {
                    return Some(($id, bytes_of(v)));
                }
            )+
            None
        }

        /// Read a `len`-byte primitive payload from `r` straight into the
        /// typed, aligned `Vec<T>` the receiver will downcast to. `None`
        /// (nothing consumed) when `type_id` is not a primitive codec or
        /// `len` is not a whole number of elements.
        pub(super) fn read_primitive(
            type_id: u32,
            len: usize,
            r: &mut impl Read,
        ) -> Option<std::io::Result<Box<dyn Any + Send>>> {
            match type_id {
                $($id => pod_read::<$t>(len, r),)+
                _ => None,
            }
        }
    };
}

le_primitives!(
    (0x01, u8),
    (0x02, u16),
    (0x03, u32),
    (0x04, u64),
    (0x05, u128),
    (0x06, i8),
    (0x07, i16),
    (0x08, i32),
    (0x09, i64),
    (0x0A, f32),
    (0x0B, f64),
);

fn builtin_codecs(reg: &mut Registry) {
    primitive_codecs(reg);
    // usize travels as u64 so 32- and 64-bit peers agree on the width.
    registry_insert::<usize>(
        reg,
        0x0C,
        8,
        |v, out| out.extend_from_slice(&(*v as u64).to_le_bytes()),
        |b| usize::try_from(u64::from_le_bytes(b.try_into().ok()?)).ok(),
    );
    registry_insert::<bool>(
        reg,
        0x0D,
        1,
        |v, out| out.push(*v as u8),
        |b| match b[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        },
    );
    // The (color, key, rank) triple Communicator::split allgathers.
    registry_insert::<(u64, i64, usize)>(
        reg,
        0x0E,
        24,
        |(c, k, r), out| {
            out.extend_from_slice(&c.to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&(*r as u64).to_le_bytes());
        },
        |b| {
            let c = u64::from_le_bytes(b[0..8].try_into().ok()?);
            let k = i64::from_le_bytes(b[8..16].try_into().ok()?);
            let r = usize::try_from(u64::from_le_bytes(b[16..24].try_into().ok()?)).ok()?;
            Some((c, k, r))
        },
    );
}

/// Encode a boxed payload for a `Msg` frame: `(type_id, bytes)`.
///
/// Panics when the concrete type has no registered codec — that is a build
/// wiring bug (a new payload type reached the TCP backend without a
/// matching [`register_vec_codec`] call), not a runtime condition.
pub fn encode_payload(payload: &(dyn Any + Send)) -> (u32, Vec<u8>) {
    let mut bytes = Vec::new();
    let wire_id = encode_payload_into(payload, &mut bytes);
    (wire_id, bytes)
}

/// [`encode_payload`] into a caller-owned buffer (cleared first), so the
/// transport can reuse one scratch allocation per connection.
pub(super) fn encode_payload_into(payload: &(dyn Any + Send), out: &mut Vec<u8>) -> u32 {
    out.clear();
    let reg = REGISTRY.read().unwrap_or_else(|e| e.into_inner());
    let tid = payload.type_id();
    match reg.by_type.get(&tid) {
        Some((wire_id, encode)) => {
            assert!(
                encode(payload, out),
                "codec registered for {tid:?} refused its own type"
            );
            *wire_id
        }
        None => panic!(
            "payload type {tid:?} has no TCP wire codec; register one with \
             hear_mpi::tcp::wire::register_vec_codec (ids >= {WIRE_ID_USER_BASE:#x})"
        ),
    }
}

/// True if `payload`'s concrete type has a registered codec.
pub fn can_encode(payload: &(dyn Any + Send)) -> bool {
    let reg = REGISTRY.read().unwrap_or_else(|e| e.into_inner());
    reg.by_type.contains_key(&payload.type_id())
}

/// Decode a `Msg` frame's payload. Unknown `type_id`s and codec rejections
/// degrade to a [`WireUndecodable`] poison value rather than an error —
/// only the receive that matches this message should fail, as a
/// `TypeMismatch`, not the connection.
pub fn decode_payload(wire_id: u32, bytes: &[u8]) -> Box<dyn Any + Send> {
    let reg = REGISTRY.read().unwrap_or_else(|e| e.into_inner());
    match reg.by_wire.get(&wire_id) {
        Some((_, decode)) => match decode(bytes) {
            Some(payload) => payload,
            None => Box::new(WireUndecodable {
                wire_id,
                len: bytes.len(),
            }),
        },
        None => Box::new(WireUndecodable {
            wire_id,
            len: bytes.len(),
        }),
    }
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
            prop_assert_eq!(dec.pending(), 0);
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
        fn w(v: &u64, out: &mut Vec<u8>) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn r(b: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }
        // Same binding twice: fine.
        register_vec_codec::<u64>(0x04, 8, w, r);
        register_vec_codec::<u64>(0x04, 8, w, r);
        // Same type under a new id: refused.
        let clash = std::panic::catch_unwind(|| register_vec_codec::<u64>(0x99, 8, w, r));
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
            msg.contains("register_vec_codec"),
            "panic must name the fix: {msg}"
        );
    }
}
