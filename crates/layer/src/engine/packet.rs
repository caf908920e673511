//! Wire shapes and seal/open codecs for the engine's two transports.
//!
//! *Reductions* (allreduce, reduce-scatter) ship [`Packet`]s: the payload
//! ciphertext plus the encrypted digest lanes the scheme uses and their
//! HoMAC tags, all of which the network combines homomorphically.
//! *Single-origin* collectives (allgather, alltoall) ship plain `u64` cells
//! — each element bit-encoded losslessly ([`Scheme::cell_encode`]) and
//! XOR-padded on the epoch's collective keystream — optionally as
//! [`Tagged`] pairs carrying a shared-stream HoMAC tag per cell.

use super::cfg::EngineError;
use super::make_room;
use super::phases::share_bounds;
use crate::arena::ScratchArena;
use crate::secure::{Tagged, VerificationError};
use hear_core::{CommKeys, Homac, IntSum, LaneArray, Scheme, Scratch, DIGEST_BASE, DIGEST_LANES};
use hear_prf::keystream_u64;

/// What the network reduces in verified mode: the payload ciphertext plus
/// the encrypted digest lanes and their HoMAC tags (§5.5's "(σ, c)" pair,
/// widened with the digest channel). `L` is the scheme's
/// [`Scheme::Lanes`] — only the lanes its digest fills exist at all.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Packet<W, L> {
    pub(crate) c: W,
    pub(crate) d: L,
    pub(crate) s: L,
}

/// The packet a scheme's verified transport carries.
pub(crate) type SchemePacket<S> = Packet<<S as Scheme>::Wire, <S as Scheme>::Lanes>;

/// Every `(wire word, lane count)` shape a [`SchemePacket`] takes across
/// the seven schemes — the one list the TCP codecs ([`crate::wire`]) and
/// the fault hooks ([`crate::chaos`]) are generated from. A shape's
/// position is part of its TCP type id: append, never reorder.
macro_rules! for_each_packet_shape {
    ($m:ident) => {
        $m! {
            (u8, 1), (u16, 1), (u32, 1), (u64, 1), // int-sum; fixed-sum (u64)
            (u8, 3), (u16, 3), (u32, 3), (u64, 3), // int-prod
            (u8, 4), (u16, 4), (u32, 4), (u64, 4), // int-xor
            (hear_core::Hfp, 1),                   // float-sum v1, v2
            (hear_core::Hfp, 2),                   // float-prod
        }
    };
}
pub(crate) use for_each_packet_shape;

/// The combiner for [`Packet`] streams. A non-capturing generic `fn`, so
/// every transport — including the key-less switch service threads — can
/// carry it as a plain function pointer.
pub(crate) fn packet_op<S: Scheme>(a: &SchemePacket<S>, b: &SchemePacket<S>) -> SchemePacket<S> {
    let (mut d, mut s) = (a.d, a.s);
    for (d, bd) in d.as_mut().iter_mut().zip(b.d.as_ref()) {
        *d = d.wrapping_add(*bd);
    }
    for (s, bs) in s.as_mut().iter_mut().zip(b.s.as_ref()) {
        *s = Homac::combine(*s, *bs);
    }
    Packet {
        c: S::op(&a.c, &b.c),
        d,
        s,
    }
}

/// PRF index of the first digest lane of the block starting at `offset`:
/// element `j`'s `L` lanes sit at `DIGEST_BASE + j·L + lane`, so a block's
/// lanes are one contiguous run of the digest stream. Indices stay
/// distinct within the epoch and at or above 2^48, as with four lanes.
#[inline]
pub(crate) fn digest_first<S: Scheme>(offset: usize) -> u64 {
    DIGEST_BASE + (offset * S::Lanes::LANES) as u64
}

/// The verified path's staging set, leased from the [`ScratchArena`] for
/// one call: wire ciphertexts, the decrypted block, digest lanes and tags
/// (seal side), aggregate lane/tag splits (open side), and the packet
/// vector that shuttles to and from the transport.
pub(crate) struct VerifyScratch<S: Scheme + 'static> {
    pub(crate) wire: Vec<S::Wire>,
    pub(crate) dec: Vec<S::Input>,
    pub(crate) dlanes: Vec<u64>,
    pub(crate) sigmas: Vec<u64>,
    pub(crate) d_agg: Vec<u64>,
    pub(crate) s_agg: Vec<u64>,
    pub(crate) packets: Vec<SchemePacket<S>>,
    pub(crate) dscratch: Scratch<u64>,
}

impl<S: Scheme + 'static> VerifyScratch<S> {
    pub(crate) fn lease(arena: &mut ScratchArena) -> Self {
        VerifyScratch {
            wire: arena.take_vec(),
            dec: arena.take_vec(),
            dlanes: arena.take_vec(),
            sigmas: arena.take_vec(),
            d_agg: arena.take_vec(),
            s_agg: arena.take_vec(),
            packets: arena.take_vec(),
            dscratch: Scratch::default(),
        }
    }

    pub(crate) fn restore(self, arena: &mut ScratchArena) {
        arena.put_vec(self.wire);
        arena.put_vec(self.dec);
        arena.put_vec(self.dlanes);
        arena.put_vec(self.sigmas);
        arena.put_vec(self.d_agg);
        arena.put_vec(self.s_agg);
        arena.put_vec(self.packets);
    }
}

/// Copy one element's lanes out of a flat lane vector.
#[inline]
fn lanes_at<L: LaneArray>(flat: &[u64], i: usize) -> L {
    let mut lanes = L::ZERO;
    lanes
        .as_mut()
        .copy_from_slice(&flat[i * L::LANES..(i + 1) * L::LANES]);
    lanes
}

/// Mask one block and wrap it into verified-transport packets (left in
/// `vs.packets`). Only the scheme's used digest lanes are sealed: the
/// lane cipher and the tags each run once over one contiguous vector.
pub(crate) fn seal_block<S: Scheme + 'static>(
    scheme: &mut S,
    homac: &Homac,
    keys: &CommKeys,
    offset: usize,
    input: &[S::Input],
    vs: &mut VerifyScratch<S>,
) -> Result<(), EngineError> {
    scheme.mask_block(keys, offset as u64, input, &mut vs.wire)?;
    vs.dlanes.clear();
    let mut lanes = [0u64; DIGEST_LANES];
    for x in input {
        scheme.digest(x, &mut lanes);
        debug_assert!(lanes[S::Lanes::LANES..].iter().all(|l| *l == 0));
        vs.dlanes.extend_from_slice(&lanes[..S::Lanes::LANES]);
    }
    let first_d = digest_first::<S>(offset);
    IntSum::encrypt_in_place(keys, first_d, &mut vs.dlanes, &mut vs.dscratch);
    homac.tag_into(keys, first_d, &vs.dlanes, &mut vs.sigmas);
    vs.packets.clear();
    vs.packets
        .extend(vs.wire.drain(..).enumerate().map(|(i, c)| Packet {
            c,
            d: lanes_at(&vs.dlanes, i),
            s: lanes_at(&vs.sigmas, i),
        }));
    Ok(())
}

/// [`seal_block`] chunk by chunk into the vectors the transport moves:
/// chunk `c` of the block `input` (at global `offset`) is sealed at
/// `offset + s_c`, so payload pads, digest-lane pads and tag indices are
/// the whole block's — the packets on the wire do not change. Like
/// [`super::mask_chunks`], every vector gets room for the largest chunk.
pub(crate) fn seal_chunks<S: Scheme + 'static>(
    scheme: &mut S,
    homac: &Homac,
    keys: &CommKeys,
    offset: usize,
    input: &[S::Input],
    vs: &mut VerifyScratch<S>,
    chunks: &mut [Vec<SchemePacket<S>>],
) -> Result<(), EngineError> {
    let n = chunks.len();
    let room = input.len().div_ceil(n);
    for (c, chunk) in chunks.iter_mut().enumerate() {
        let (s, e) = share_bounds(input.len(), n, c);
        std::mem::swap(&mut vs.packets, chunk);
        make_room(&mut vs.packets, room);
        seal_block(scheme, homac, keys, offset + s, &input[s..e], vs)?;
        std::mem::swap(&mut vs.packets, chunk);
    }
    Ok(())
}

/// Verify, decrypt and digest-check one aggregated block into `vs.dec`.
pub(crate) fn open_block<S: Scheme + 'static>(
    scheme: &mut S,
    homac: &Homac,
    keys: &CommKeys,
    world: usize,
    offset: usize,
    agg: &[SchemePacket<S>],
    vs: &mut VerifyScratch<S>,
) -> Result<(), EngineError> {
    vs.wire.clear();
    vs.d_agg.clear();
    vs.s_agg.clear();
    for p in agg {
        vs.wire.push(p.c.clone());
        vs.d_agg.extend_from_slice(p.d.as_ref());
        vs.s_agg.extend_from_slice(p.s.as_ref());
    }
    let first_d = digest_first::<S>(offset);
    if !homac.verify(keys, first_d, &vs.d_agg, &vs.s_agg) {
        return Err(EngineError::Verification(VerificationError));
    }
    IntSum::decrypt_in_place(keys, first_d, &mut vs.d_agg, &mut vs.dscratch);
    scheme.unmask_block(keys, offset as u64, &vs.wire, &mut vs.dec);
    // The lanes the scheme never fills were never sent: zero-extend.
    let mut lanes = [0u64; DIGEST_LANES];
    for (r, used) in vs.dec.iter().zip(vs.d_agg.chunks_exact(S::Lanes::LANES)) {
        lanes[..S::Lanes::LANES].copy_from_slice(used);
        if !scheme.digest_check(r, &lanes, world) {
            return Err(EngineError::Verification(VerificationError));
        }
    }
    Ok(())
}

// ---- single-origin cell transport (allgather / alltoall) ----------------

/// Staging set for the cell transport, leased for one call: the XOR pad
/// slice, the outbound/recycled cell buffer, and (verified mode) the
/// split ciphertext/tag buffers.
pub(crate) struct CellScratch {
    pub(crate) pad: Vec<u64>,
    pub(crate) cells: Vec<u64>,
    pub(crate) sigmas: Vec<u64>,
    pub(crate) tagged: Vec<Tagged<u64>>,
}

impl CellScratch {
    pub(crate) fn lease(arena: &mut ScratchArena) -> CellScratch {
        CellScratch {
            pad: arena.take_vec(),
            cells: arena.take_vec(),
            sigmas: arena.take_vec(),
            tagged: arena.take_vec(),
        }
    }

    pub(crate) fn restore(self, arena: &mut ScratchArena) {
        arena.put_vec(self.pad);
        arena.put_vec(self.cells);
        arena.put_vec(self.sigmas);
        arena.put_vec(self.tagged);
    }
}

/// Fill `cs.pad` with `n` words of the epoch's collective keystream
/// starting at word index `first`.
fn fill_pad(keys: &CommKeys, first: u64, n: usize, cs: &mut CellScratch) {
    cs.pad.clear();
    cs.pad.resize(n, 0);
    keystream_u64(keys.prf(), keys.base_collective(), first, &mut cs.pad);
}

/// Encode `input` into padded cells (left in `cs.cells`): cell `j` is
/// `cell_encode(input[j]) XOR pad(first + j)`. Pad word indices are the
/// element's position in the collective's global coordinate space, so
/// every (origin, position) pair draws a distinct keystream word.
pub(crate) fn seal_cells<S: Scheme>(
    keys: &CommKeys,
    first: u64,
    input: &[S::Input],
    cs: &mut CellScratch,
) {
    fill_pad(keys, first, input.len(), cs);
    cs.cells.clear();
    cs.cells.extend(
        input
            .iter()
            .zip(&cs.pad)
            .map(|(x, p)| S::cell_encode(x) ^ p),
    );
}

/// Decode padded cells into `out` (which must be pre-sized to
/// `cells.len()`), the inverse of [`seal_cells`] at the same `first`.
pub(crate) fn open_cells<S: Scheme>(
    keys: &CommKeys,
    first: u64,
    cells: &[u64],
    cs: &mut CellScratch,
    out: &mut [S::Input],
) {
    debug_assert_eq!(cells.len(), out.len());
    fill_pad(keys, first, cells.len(), cs);
    for ((o, c), p) in out.iter_mut().zip(cells).zip(&cs.pad) {
        *o = S::cell_decode(c ^ p);
    }
}

/// [`seal_cells`] plus a shared-stream HoMAC tag per cell (left in
/// `cs.tagged`). Tags are computed over the *padded* cell at MAC index
/// `DIGEST_BASE + first + j` — offset from the pad indices so the tag
/// stream never reuses a pad word — and verify on any rank, because the
/// collective stream is common to the whole communicator.
pub(crate) fn seal_cells_tagged<S: Scheme>(
    keys: &CommKeys,
    homac: &Homac,
    first: u64,
    input: &[S::Input],
    cs: &mut CellScratch,
) {
    seal_cells::<S>(keys, first, input, cs);
    homac.tag_shared(
        keys.base_collective(),
        DIGEST_BASE + first,
        &cs.cells,
        &mut cs.sigmas,
    );
    cs.tagged.clear();
    cs.tagged.extend(
        cs.cells
            .iter()
            .zip(&cs.sigmas)
            .map(|(c, s)| Tagged { c: *c, sigma: *s }),
    );
}

/// Verify and decode tagged cells into `out` (pre-sized to
/// `cells.len()`); rejects the whole segment if any tag fails.
pub(crate) fn open_cells_tagged<S: Scheme>(
    keys: &CommKeys,
    homac: &Homac,
    first: u64,
    cells: &[Tagged<u64>],
    cs: &mut CellScratch,
    out: &mut [S::Input],
) -> Result<(), EngineError> {
    cs.cells.clear();
    cs.sigmas.clear();
    for t in cells {
        cs.cells.push(t.c);
        cs.sigmas.push(t.sigma);
    }
    if !homac.verify_shared(
        keys.base_collective(),
        DIGEST_BASE + first,
        &cs.cells,
        &cs.sigmas,
    ) {
        return Err(EngineError::Verification(VerificationError));
    }
    fill_pad(keys, first, cells.len(), cs);
    for ((o, t), p) in out.iter_mut().zip(cells).zip(&cs.pad) {
        *o = S::cell_decode(t.c ^ p);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{corrupt_packets, Damage};
    use hear_core::{FloatProdScheme, HfpFormat, IntProdScheme, IntSumScheme, IntXorScheme};
    use hear_prf::Backend;

    /// Two ranks seal a block, the "network" folds the packets, rank 0
    /// opens the aggregate — then again with one bit flipped in every
    /// channel the chaos corruptor knows (payload, each used digest lane,
    /// each lane's tag): the honest aggregate opens, no tampered one does.
    fn every_channel_is_guarded<S, MS>(mk: MS, inputs: [Vec<S::Input>; 2])
    where
        S: Scheme + 'static,
        S::Wire: Damage,
        MS: Fn() -> S,
    {
        let keys = CommKeys::generate(2, 0x7A3B, Backend::best_available());
        let homac = Homac::generate(0x7A3C, Backend::best_available());
        let mut arena = ScratchArena::default();
        let mut vs = VerifyScratch::<S>::lease(&mut arena);
        let (mut scheme, offset) = (mk(), 5);
        let sealed = [0, 1].map(|r| {
            seal_block(&mut scheme, &homac, &keys[r], offset, &inputs[r], &mut vs).unwrap();
            std::mem::take(&mut vs.packets)
        });
        let agg: Vec<SchemePacket<S>> = (sealed[0].iter().zip(&sealed[1]))
            .map(|(a, b)| packet_op::<S>(a, b))
            .collect();
        open_block(&mut scheme, &homac, &keys[0], 2, offset, &agg, &mut vs)
            .unwrap_or_else(|e| panic!("{}: honest aggregate rejected: {e}", S::NAME));
        assert_eq!(vs.dec.len(), inputs[0].len());
        for channel in 0..3u64 {
            for lane in 0..S::Lanes::LANES as u64 {
                let mut bad: Vec<SchemePacket<S>> = agg.clone();
                let word = channel << 61 | lane << 40 | 9 << 32 | 2;
                assert!(corrupt_packets::<S::Wire, S::Lanes>(&mut bad, word));
                assert_eq!(bad.iter().zip(&agg).filter(|(a, b)| a != b).count(), 1);
                let opened = open_block(&mut scheme, &homac, &keys[0], 2, offset, &bad, &mut vs);
                assert!(
                    matches!(opened, Err(EngineError::Verification(_))),
                    "{}: channel {channel} lane {lane} tampering opened: {opened:?}",
                    S::NAME
                );
            }
        }
    }

    /// What the ring ships must not depend on how a block is cut: masking
    /// or sealing it chunk by chunk into the transport's vectors yields,
    /// concatenated, exactly the whole-block ciphertext / packets — for
    /// every scheme, at every rank position, for chunk counts that leave
    /// chunks empty, uneven and unaligned to the 128-bit PRF block.
    fn chunked_wire_equals_whole_block<S: Scheme + 'static>(
        mk: impl Fn() -> S,
        input: Vec<S::Input>,
    ) {
        let world = 3;
        let homac = Homac::generate(0x5EA1, Backend::best_available());
        let mut arena = ScratchArena::default();
        for keys in CommKeys::generate(world, 0x5EA0, Backend::best_available()) {
            let (mut scheme, offset) = (mk(), 13);
            let mut whole = Vec::new();
            scheme
                .mask_slice(&keys, offset as u64, &input, &mut whole)
                .unwrap();
            let mut vs = VerifyScratch::<S>::lease(&mut arena);
            seal_block(&mut scheme, &homac, &keys, offset, &input, &mut vs).unwrap();
            let sealed = std::mem::take(&mut vs.packets);
            for nchunks in [1, 2, 3, 5, input.len() + 2] {
                let mut plain: Vec<Vec<S::Wire>> = vec![vec![]; nchunks];
                crate::engine::mask_chunks(&mut scheme, &keys, offset, &input, &mut plain).unwrap();
                assert_eq!(plain.concat(), whole, "{} mask, {nchunks} chunks", S::NAME);
                let mut packets: Vec<Vec<SchemePacket<S>>> = vec![vec![]; nchunks];
                seal_chunks(
                    &mut scheme,
                    &homac,
                    &keys,
                    offset,
                    &input,
                    &mut vs,
                    &mut packets,
                )
                .unwrap();
                assert_eq!(
                    packets.concat(),
                    sealed,
                    "{} seal, {nchunks} chunks",
                    S::NAME
                );
                let lens: Vec<usize> = packets.iter().map(Vec::len).collect();
                let want: Vec<usize> = (0..nchunks)
                    .map(|c| share_bounds(input.len(), nchunks, c))
                    .map(|(s, e)| e - s)
                    .collect();
                assert_eq!(lens, want, "{} chunk layout", S::NAME);
            }
            vs.restore(&mut arena);
        }
    }

    #[test]
    fn the_wire_does_not_depend_on_the_chunking() {
        use hear_core::{FixedCodec, FixedSumScheme, FloatSumExpScheme, FloatSumScheme};
        let ints: Vec<u64> = (1..24u64)
            .map(|j| j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let floats: Vec<f64> = (0..23).map(|j| 0.5 + 0.125 * j as f64).collect();
        chunked_wire_equals_whole_block(
            IntSumScheme::<u8>::default,
            ints.iter().map(|x| *x as u8).collect(),
        );
        chunked_wire_equals_whole_block(
            IntSumScheme::<u32>::default,
            ints.iter().map(|x| *x as u32).collect(),
        );
        chunked_wire_equals_whole_block(IntProdScheme::<u64>::default, ints.clone());
        chunked_wire_equals_whole_block(IntXorScheme::<u64>::default, ints);
        chunked_wire_equals_whole_block(
            || FixedSumScheme::new(FixedCodec::new(20)),
            floats.clone(),
        );
        chunked_wire_equals_whole_block(
            || FloatSumScheme::new(HfpFormat::fp32(2, 2)),
            floats.clone(),
        );
        chunked_wire_equals_whole_block(
            || FloatSumExpScheme::new(HfpFormat::fp64(0, 0)),
            floats.clone(),
        );
        chunked_wire_equals_whole_block(|| FloatProdScheme::new(HfpFormat::fp64(0, 0)), floats);
    }

    #[test]
    fn tampering_is_caught_in_every_channel_of_every_lane_count() {
        let ints = |r: u64| (0..7).map(|j| 3 + 2 * j + r).collect::<Vec<u64>>();
        every_channel_is_guarded(
            IntSumScheme::<u32>::default,
            [0, 1].map(|r| ints(r).iter().map(|x| *x as u32).collect()),
        );
        every_channel_is_guarded(
            || FloatProdScheme::new(HfpFormat::fp64(0, 0)),
            [0, 1].map(|r| ints(r).iter().map(|x| *x as f64 * -0.75).collect()),
        );
        every_channel_is_guarded(IntProdScheme::<u64>::default, [0, 1].map(ints));
        every_channel_is_guarded(IntXorScheme::<u64>::default, [0, 1].map(ints));
    }
}
