//! The wire-type table: every payload type that may cross a transport,
//! declared once.
//!
//! Payloads travel as `Box<dyn Any + Send>`, which can be neither
//! serialized, damaged, copied nor shown without knowing the concrete
//! type. One [`WireType`] per element type `T` — a type id, the fixed
//! element width, and `put` / `get` / `damage` function pointers — is the
//! whole declaration; from that one entry the table serves, for `Vec<T>`:
//!
//! * the TCP codec ([`crate::tcp::wire::encode_payload`] and
//!   [`crate::tcp::wire::decode_payload`]);
//! * the corruptor a [`FaultPlan`](crate::FaultPlan) applies on a corrupt
//!   fault ([`corrupt`]: one element, picked by the fault word, goes
//!   through `damage`);
//! * the cloner it applies on a duplicate fault ([`duplicate`]);
//! * the wire recorder a plan's
//!   [`with_wire_recorder`](crate::FaultPlan::with_wire_recorder) observer
//!   sees ([`show`], the vector's `Debug` rendering).
//!
//! The primitive vectors are built in. The eleven fixed-width numbers move
//! as bulk bytes — their wire image is their little-endian memory image,
//! so on a little-endian host an encode (or the TCP send) borrows the
//! vector in place (`primitive_bytes`) and a decode (or the TCP
//! receive) fills a typed `Vec<T>` directly (`read_primitive`).
//! Downstream crates register their own types (the HEAR engine's float
//! ciphertexts, tagged cells and verified packets) under ids at or above
//! [`WIRE_ID_USER_BASE`]; a type a program may never use can be bound on
//! first use, behind a [`knows`] check.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt::Debug;
use std::io::Read;
use std::sync::{LazyLock, RwLock};

/// First type id available to types registered outside this crate.
pub const WIRE_ID_USER_BASE: u32 = 0x40;

/// One payload element type's declaration: how a `Vec<T>` crosses a
/// socket and how the fault injector damages it.
pub struct WireType<T> {
    /// The TCP frame's `type_id` for `Vec<T>`.
    pub id: u32,
    /// Wire bytes per element.
    pub bytes: usize,
    /// Append exactly `bytes` bytes: the element's wire image.
    pub put: fn(&T, &mut Vec<u8>),
    /// Parse exactly `bytes` bytes; `None` for a bit pattern that is not a
    /// valid `T` (the whole message then poisons to
    /// [`WireUndecodable`](crate::tcp::wire::WireUndecodable)).
    pub get: fn(&[u8]) -> Option<T>,
    /// Change the element, as the per-message fault word picks, so that
    /// it no longer equals what was sent.
    pub damage: fn(&mut T, u64),
}

impl<T: Clone + Debug + Send + 'static> WireType<T> {
    /// Add `Vec<T>` to the table under [`WireType::id`]. Idempotent for
    /// the same id; panics if `Vec<T>` or the id is already bound
    /// differently.
    pub fn register(self) {
        self.add_to(&mut TABLE.write().unwrap_or_else(|e| e.into_inner()));
    }

    fn add_to(self, table: &mut Table) {
        let name = std::any::type_name::<Vec<T>>();
        let row = Row {
            id: self.id,
            name,
            bytes: self.bytes,
        };
        table.insert(row, TypeId::of::<Vec<T>>(), Box::new(self));
    }
}

/// The services the table derives from one entry, over `Vec<T>` behind
/// `dyn Any`. The table looks entries up by the payload's own `TypeId`,
/// so the downcasts inside cannot miss.
trait Services: Send + Sync {
    fn encode(&self, payload: &dyn Any, out: &mut Vec<u8>);
    fn decode(&self, bytes: &[u8]) -> Option<Box<dyn Any + Send>>;
    fn corrupt(&self, payload: &mut dyn Any, word: u64);
    fn duplicate(&self, payload: &dyn Any) -> Box<dyn Any + Send>;
    fn show(&self, payload: &dyn Any) -> String;
}

const KEYED: &str = "table entries are keyed by TypeId";

fn vec_of<T: 'static>(payload: &dyn Any) -> &Vec<T> {
    payload.downcast_ref().expect(KEYED)
}

fn vec_of_mut<T: 'static>(payload: &mut dyn Any) -> &mut Vec<T> {
    payload.downcast_mut().expect(KEYED)
}

impl<T: Clone + Debug + Send + 'static> Services for WireType<T> {
    fn encode(&self, payload: &dyn Any, out: &mut Vec<u8>) {
        let v = vec_of::<T>(payload);
        out.reserve(v.len() * self.bytes);
        for x in v {
            (self.put)(x, out);
        }
    }

    fn decode(&self, bytes: &[u8]) -> Option<Box<dyn Any + Send>> {
        if self.bytes == 0 || !bytes.len().is_multiple_of(self.bytes) {
            return None;
        }
        let mut v = Vec::with_capacity(bytes.len() / self.bytes);
        for b in bytes.chunks_exact(self.bytes) {
            v.push((self.get)(b)?);
        }
        Some(Box::new(v))
    }

    /// Element `word mod len` goes through `damage` with the word's high
    /// half; an empty vector is recognised and left alone.
    fn corrupt(&self, payload: &mut dyn Any, word: u64) {
        let v = vec_of_mut::<T>(payload);
        if !v.is_empty() {
            let i = (word % v.len() as u64) as usize;
            (self.damage)(&mut v[i], word >> 32);
        }
    }

    fn duplicate(&self, payload: &dyn Any) -> Box<dyn Any + Send> {
        Box::new(vec_of::<T>(payload).clone())
    }

    fn show(&self, payload: &dyn Any) -> String {
        format!("{:?}", vec_of::<T>(payload))
    }
}

/// One row of the table, as [`rows`] lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The TCP frame's `type_id`.
    pub id: u32,
    /// The payload type, `Vec<T>`.
    pub name: &'static str,
    /// Wire bytes per element.
    pub bytes: usize,
}

struct Entry {
    row: Row,
    services: Box<dyn Services>,
}

#[derive(Default)]
struct Table {
    entries: Vec<Entry>,
    by_type: HashMap<TypeId, usize>,
    by_id: HashMap<u32, usize>,
}

impl Table {
    /// Bind the payload type `ty` to `row.id` in both directions, refusing
    /// a second, different binding of either.
    fn insert(&mut self, row: Row, ty: TypeId, services: Box<dyn Services>) {
        let Row { id, name, .. } = row;
        if let Some(&at) = self.by_type.get(&ty) {
            let existing = self.entries[at].row.id;
            assert!(
                existing == id,
                "{name} is already registered under wire id {existing:#x}, now {id:#x}"
            );
            return;
        }
        if let Some(&at) = self.by_id.get(&id) {
            let other = self.entries[at].row.name;
            panic!("wire id {id:#x} is already taken by {other}, cannot assign it to {name}");
        }
        self.by_type.insert(ty, self.entries.len());
        self.by_id.insert(id, self.entries.len());
        self.entries.push(Entry { row, services });
    }
}

static TABLE: LazyLock<RwLock<Table>> = LazyLock::new(|| {
    let mut table = Table::default();
    builtin_types(&mut table);
    RwLock::new(table)
});

/// Run `f` on the entry for `payload`'s concrete type, if there is one.
fn with_entry<R>(ty: TypeId, f: impl FnOnce(&Entry) -> R) -> Option<R> {
    let table = TABLE.read().unwrap_or_else(|e| e.into_inner());
    table.by_type.get(&ty).map(|&at| f(&table.entries[at]))
}

/// Every registered type, in registration order.
pub fn rows() -> Vec<Row> {
    let table = TABLE.read().unwrap_or_else(|e| e.into_inner());
    table.entries.iter().map(|e| e.row).collect()
}

/// Whether `Vec<T>` has an entry.
pub fn knows<T: 'static>() -> bool {
    with_entry(TypeId::of::<Vec<T>>(), |_| ()).is_some()
}

/// Append `payload`'s wire image to `out`: its type id, or `None` for a
/// type with no entry. A primitive vector is one bulk copy.
pub(crate) fn encode(payload: &dyn Any, out: &mut Vec<u8>) -> Option<u32> {
    if let Some((id, image)) = primitive_bytes(payload) {
        out.extend_from_slice(image);
        return Some(id);
    }
    with_entry((*payload).type_id(), |e| {
        e.services.encode(payload, out);
        e.row.id
    })
}

/// Parse a payload of type id `id`: `None` for an unknown id or bytes its
/// codec rejects.
pub(crate) fn decode(id: u32, bytes: &[u8]) -> Option<Box<dyn Any + Send>> {
    if let Some(typed) = read_primitive(id, bytes.len(), &mut &*bytes) {
        return typed.ok();
    }
    let table = TABLE.read().unwrap_or_else(|e| e.into_inner());
    let &at = table.by_id.get(&id)?;
    table.entries[at].services.decode(bytes)
}

/// Damage one element of `payload` as `word` picks; `false` (payload
/// untouched) for a type with no entry.
pub fn corrupt(payload: &mut dyn Any, word: u64) -> bool {
    let ty = (*payload).type_id();
    with_entry(ty, |e| e.services.corrupt(payload, word)).is_some()
}

/// A deep copy of `payload`, or `None` for a type with no entry.
pub fn duplicate(payload: &dyn Any) -> Option<Box<dyn Any + Send>> {
    with_entry((*payload).type_id(), |e| e.services.duplicate(payload))
}

/// `payload`'s `Debug` rendering, or `None` for a type with no entry.
pub fn show(payload: &dyn Any) -> Option<String> {
    with_entry((*payload).type_id(), |e| e.services.show(payload))
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

/// The most a receive allocates before the bytes that fill it arrive. A
/// frame header may claim up to `MAX_FRAME_LEN`; a peer that claims
/// 200 MiB and sends 1 KiB must not cost 200 MiB. Frames up to this size
/// keep one exact allocation.
pub(crate) const UPFRONT_BYTES: usize = 1 << 20;

/// Read `bytes` bytes of wire image into a `Vec<T>`: zeroed, at most
/// [`UPFRONT_BYTES`] up front, doubled (capped at `bytes`) only once what
/// it holds has arrived — no allocation exceeds the bytes received plus
/// one growth step. `None` (nothing consumed) when `bytes` is not a whole
/// number of elements; a stream that ends early is `UnexpectedEof`.
fn pod_read_exact<T: Pod>(bytes: usize, r: &mut impl Read) -> Option<std::io::Result<Vec<T>>> {
    let size = std::mem::size_of::<T>();
    if !bytes.is_multiple_of(size) {
        return None;
    }
    let n = bytes / size;
    let mut v = vec![T::default(); n.min(UPFRONT_BYTES / size)];
    let mut filled = 0;
    Some(loop {
        if let Err(e) = r.read_exact(bytes_of_mut(&mut v[filled..])) {
            break Err(e);
        }
        filled = v.len();
        if filled == n {
            break Ok(v);
        }
        v.resize(n.min(2 * filled), T::default());
    })
}

/// A frame's `len` payload bytes as they arrived, for a codec to decode
/// later ([`pod_read_exact`]'s growth bound).
pub(crate) fn read_bytes(len: usize, r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    pod_read_exact::<u8>(len, r).expect("every length is whole bytes")
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

fn pod_put<T: Pod>(x: &T, out: &mut Vec<u8>) {
    out.extend_from_slice(bytes_of(&[x.swap_le()]));
}

fn pod_get<T: Pod>(b: &[u8]) -> Option<T> {
    let mut x = [T::default()];
    bytes_of_mut(&mut x).copy_from_slice(b);
    Some(x[0].swap_le())
}

/// Flip bit `word mod width` of the value's memory image.
fn pod_damage<T: Pod>(x: &mut T, word: u64) {
    let image = bytes_of_mut(std::slice::from_mut(x));
    let bit = (word % (8 * image.len() as u64)) as usize;
    image[bit / 8] ^= 1 << (bit % 8);
}

fn pod_read<T: Pod>(len: usize, r: &mut impl Read) -> Option<std::io::Result<Box<dyn Any + Send>>> {
    Some(pod_read_exact::<T>(len, r)?.map(|mut v| {
        pod_from_wire(&mut v);
        Box::new(v) as Box<dyn Any + Send>
    }))
}

/// The primitive numbers, once: `(type id, element type)`. Their table
/// entries and the transport's borrowed send and typed receive are all
/// generated from this one list.
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

        fn primitive_types(table: &mut Table) {
            $(
                WireType::<$t> {
                    id: $id,
                    bytes: std::mem::size_of::<$t>(),
                    put: pod_put,
                    get: pod_get,
                    damage: pod_damage,
                }
                .add_to(table);
            )+
        }

        /// The payload's wire image borrowed in place: `(type_id, bytes)`
        /// when it is a primitive vector on a little-endian host, where
        /// memory already holds the wire form. `None` sends the caller to
        /// the table's element-wise codec.
        pub(crate) fn primitive_bytes(payload: &dyn Any) -> Option<(u32, &[u8])> {
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
        /// (nothing consumed) when `type_id` is not a primitive or `len`
        /// is not a whole number of elements.
        pub(crate) fn read_primitive(
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

fn u64_at(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

fn builtin_types(table: &mut Table) {
    primitive_types(table);
    // usize travels as u64 so 32- and 64-bit peers agree on the width.
    WireType::<usize> {
        id: 0x0C,
        bytes: 8,
        put: |v, out| out.extend_from_slice(&(*v as u64).to_le_bytes()),
        get: |b| usize::try_from(u64_at(b, 0)?).ok(),
        damage: |v, word| *v ^= 1 << (word % usize::BITS as u64),
    }
    .add_to(table);
    WireType::<bool> {
        id: 0x0D,
        bytes: 1,
        put: |v, out| out.push(*v as u8),
        get: |b| match b[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        },
        damage: |v, _| *v = !*v,
    }
    .add_to(table);
    // The (color, key, rank) triple Communicator::split allgathers.
    WireType::<(u64, i64, usize)> {
        id: 0x0E,
        bytes: 24,
        put: |(c, k, r), out| {
            out.extend_from_slice(&c.to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&(*r as u64).to_le_bytes());
        },
        get: |b| {
            let r = usize::try_from(u64_at(b, 16)?).ok()?;
            Some((u64_at(b, 0)?, u64_at(b, 8)? as i64, r))
        },
        damage: |(c, _, _), word| *c ^= 1 << (word % 64),
    }
    .add_to(table);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_types_are_refused_by_every_service() {
        let mut foreign = vec![String::from("x")];
        assert!(!knows::<String>());
        assert!(!corrupt(&mut foreign, 0));
        assert!(duplicate(&foreign).is_none());
        assert!(show(&foreign).is_none());
        assert_eq!(encode(&foreign, &mut Vec::new()), None);
        assert!(decode(0x3FFF_FFFF, &[]).is_none());
    }
}
