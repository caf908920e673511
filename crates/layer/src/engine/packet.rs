//! Wire shapes and seal/open codecs for the engine's two transports.
//!
//! *Reductions* (allreduce, reduce-scatter) ship [`Packet`]s: the payload
//! ciphertext plus the sealed digest lanes the scheme uses and their
//! HoMAC tags, all of which the network combines homomorphically — the
//! payload with the scheme's operation, lanes and tags alike modulo the
//! HoMAC prime.
//! *Single-origin* collectives (allgather, alltoall) ship plain `u64` cells
//! — each element bit-encoded losslessly ([`Scheme::cell_encode`]) and
//! XOR-padded on the epoch's collective keystream — optionally as
//! [`Tagged`] pairs carrying a shared-stream HoMAC tag per cell; a
//! [`CellCodec`] ([`BareCells`] or [`TaggedCells`]) is all those
//! collectives know of the difference.

use super::allreduce::Codec;
use super::cfg::EngineError;
use super::make_room;
use super::phases::share_bounds;
use crate::arena::ScratchArena;
use crate::secure::{Tagged, VerificationError};
use hear_core::{join_lanes, CommKeys, Homac, LaneArray, Scheme, DIGEST_BASE};
use hear_prf::{par_fused_pass, KernelWord, Payload, Stream, WorkerPool};

/// What the network reduces in verified mode: the payload ciphertext plus
/// the sealed digest lanes and their HoMAC tags (§5.5's "(σ, c)" pair,
/// widened with the digest channel). `L` is the scheme's
/// [`Scheme::Lanes`] — only the lanes its digest fills exist at all. A
/// lane is a field element: one 32-bit half of a digest word under a pad,
/// sealed and opened by the HoMAC kernel ([`Homac::seal_lanes`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Packet<W, L> {
    pub(crate) c: W,
    pub(crate) d: L,
    pub(crate) s: L,
}

/// The packet a scheme's verified transport carries.
pub(crate) type SchemePacket<S> = Packet<<S as Scheme>::Wire, <S as Scheme>::Lanes>;

/// Every `(wire word, lane count)` shape a [`SchemePacket`] takes across
/// the seven schemes — the one list the packets' wire-type entries
/// ([`crate::wire`]) are generated from. A shape's position is part of its
/// TCP type id: append, never reorder.
macro_rules! for_each_packet_shape {
    ($m:ident) => {
        $m! {
            (u8, 1), (u16, 1), (u32, 1), (u64, 2), // int-sum; fixed-sum (u64)
            (u8, 5), (u16, 5), (u32, 5), (u64, 5), // int-prod
            (u8, 8), (u16, 8), (u32, 8), (u64, 8), // int-xor
            (hear_core::Hfp, 2),                   // float-sum v1, v2
            (hear_core::Hfp, 4),                   // float-prod
        }
    };
}
pub(crate) use for_each_packet_shape;

/// The combiner for [`Packet`] streams: the scheme's operation on the
/// payload, field addition on every lane and tag. A non-capturing generic
/// `fn`, so every transport — including the key-less switch service
/// threads — can carry it as a plain function pointer.
#[inline(always)]
pub(crate) fn packet_op<S: Scheme>(a: &SchemePacket<S>, b: &SchemePacket<S>) -> SchemePacket<S> {
    let (mut d, mut s) = (a.d, a.s);
    for (d, bd) in d.as_mut().iter_mut().zip(b.d.as_ref()) {
        *d = Homac::combine(*d, *bd);
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
/// distinct within the epoch and at or above 2^48.
#[inline]
pub(crate) fn digest_first<S: Scheme>(offset: usize) -> u64 {
    DIGEST_BASE + (offset * S::Lanes::LANES) as u64
}

/// The verified transport's codec for one call (§5.5): the HoMAC keys,
/// and the staging set leased from the [`ScratchArena`] — the block's wire
/// ciphertexts (masked on the seal side, the aggregate's on the open side)
/// and, on the open side, each element's opened lane sums. The packets
/// themselves are sealed straight into the transport's chunk vectors, and
/// opened straight out of them: a chunk's tags are checked first, then it
/// is unmasked straight into its place and digest-checked there, like the
/// plain codec with no staging copy. A rejected chunk fails the attempt,
/// whose retry overwrites the place, and a failed call leaves `out` empty;
/// the ring still forwards it (the next rank runs its own check). A
/// verification failure is retryable: the per-block digest already
/// localized the damage to this block, so the resend retransmits exactly
/// the failing packets (re-sealed to the identical ciphertext).
pub(crate) struct Verified<S: Scheme + 'static> {
    homac: Homac,
    wire: Vec<S::Wire>,
    lanes: Vec<S::Lanes>,
}

impl<S: Scheme + 'static> Verified<S> {
    pub(crate) fn lease(homac: Homac, arena: &mut ScratchArena) -> Self {
        Verified {
            homac,
            wire: arena.take_vec(),
            lanes: arena.take_vec(),
        }
    }

    pub(crate) fn restore(self, arena: &mut ScratchArena) {
        arena.put_vec(self.wire);
        arena.put_vec(self.lanes);
    }

    /// Mask one block and seal it into verified-transport `packets`
    /// (cleared first): the scheme's mask pass into `wire`, then one HoMAC
    /// pass ([`Homac::seal_pass`]) over the input and its ciphertext that
    /// digests each element in registers and appends its finished packet.
    fn seal_block(
        &mut self,
        scheme: &mut S,
        keys: &CommKeys,
        offset: usize,
        input: &[S::Input],
        packets: &mut Vec<SchemePacket<S>>,
    ) -> Result<(), EngineError> {
        scheme.mask_slice(keys, offset as u64, input, &mut self.wire)?;
        packets.clear();
        let (scheme, src) = (&*scheme, (input, &self.wire[..]));
        let digest = |(x, _): &(S::Input, S::Wire)| scheme.digest_lanes(x);
        let put = |(_, c), d, s| Packet { c, d, s };
        let first = digest_first::<S>(offset);
        (self.homac).seal_pass(keys, first, src, packets, digest, put);
        Ok(())
    }
}

impl<S: Scheme + 'static> Codec<S> for Verified<S> {
    type Wire = SchemePacket<S>;

    #[inline(always)]
    fn op(a: &SchemePacket<S>, b: &SchemePacket<S>) -> SchemePacket<S> {
        packet_op::<S>(a, b)
    }

    /// [`Verified::seal_block`] chunk by chunk into the vectors the
    /// transport moves; like [`super::mask_chunks`], every vector gets room
    /// for the largest chunk.
    fn seal(
        &mut self,
        scheme: &mut S,
        keys: &CommKeys,
        offset: usize,
        input: &[S::Input],
        chunks: &mut [Vec<SchemePacket<S>>],
    ) -> Result<(), EngineError> {
        let n = chunks.len();
        let room = input.len().div_ceil(n);
        for (c, chunk) in chunks.iter_mut().enumerate() {
            let (s, e) = share_bounds(input.len(), n, c);
            make_room(chunk, room);
            self.seal_block(scheme, keys, offset + s, &input[s..e], chunk)?;
        }
        Ok(())
    }

    /// One HoMAC pass ([`Homac::open_pass`]) checks every tag and splits
    /// the packets into the wire ciphertexts and the opened lane sums, the
    /// scheme unmasks the ciphertexts straight into `dst`, and each result
    /// is checked there against its sums, rejoined into the wrapping
    /// digest-word sums [`Scheme::digest_check`] takes.
    fn open(
        &mut self,
        scheme: &mut S,
        keys: &CommKeys,
        world: usize,
        first: usize,
        agg: &[SchemePacket<S>],
        dst: &mut [S::Input],
    ) -> Result<(), EngineError> {
        let rejected = Err(EngineError::Verification(VerificationError));
        self.wire.clear();
        self.lanes.clear();
        let columns = (&mut self.wire, &mut self.lanes);
        let sealed = |p: &SchemePacket<S>| (p.d, p.s);
        let split = |p: SchemePacket<S>, sums| (p.c, sums);
        let lanes_at = digest_first::<S>(first);
        if !(self.homac).open_pass(keys, lanes_at, agg, columns, sealed, split) {
            return rejected;
        }
        scheme.unmask_into(keys, first as u64, &self.wire, dst);
        // The lanes the scheme never fills were never sent: `join_lanes`
        // zero-extends.
        for (r, sums) in dst.iter().zip(&self.lanes) {
            if !scheme.digest_check(r, &join_lanes(sums.as_ref()), world) {
                return rejected;
            }
        }
        Ok(())
    }
}

// ---- single-origin cell transport (allgather / alltoall) ----------------

/// Staging set for the cell transport, leased for one call: the cells a
/// piece is opened from and (verified mode) their tags.
pub(crate) struct CellScratch {
    cells: Vec<u64>,
    sigmas: Vec<u64>,
}

impl CellScratch {
    pub(crate) fn lease(arena: &mut ScratchArena) -> CellScratch {
        CellScratch {
            cells: arena.take_vec(),
            sigmas: arena.take_vec(),
        }
    }

    pub(crate) fn restore(self, arena: &mut ScratchArena) {
        arena.put_vec(self.cells);
        arena.put_vec(self.sigmas);
    }
}

/// XOR word `first + i` of the epoch's collective keystream into word `i`
/// of `payload`, in one fused pass sharded across the current pool (the
/// rank's lane) once it is large enough to pay for it: the one generator
/// of every single-origin pad — the cells here and the extension
/// collectives' payloads.
pub(crate) fn collective_pad<W: KernelWord>(keys: &CommKeys, first: u64, payload: Payload<'_, W>) {
    let streams = [Stream {
        prf: keys.prf(),
        base: keys.base_collective(),
    }];
    WorkerPool::with_current(|pool| {
        par_fused_pass(pool, &streams, first, payload, |c, [p]| c.bxor(p));
    });
}

/// `sealed` ← the bare cells of `piece`: cell `j` is
/// `cell_encode(piece[j]) XOR pad(first + j)`. Pad word indices are the
/// element's position in the collective's global coordinate space, so
/// every (origin, position) pair draws a distinct keystream word.
fn pad_cells<S: Scheme>(keys: &CommKeys, first: u64, piece: &[S::Input], sealed: &mut Vec<u64>) {
    sealed.clear();
    sealed.extend(piece.iter().map(S::cell_encode));
    collective_pad(keys, first, Payload::InPlace(sealed));
}

/// `out[j] ← cell_decode(cells[j])`: the last step of opening a piece,
/// once its cells are unpadded.
fn decode_cells<S: Scheme>(cells: &[u64], out: &mut [S::Input]) {
    debug_assert_eq!(cells.len(), out.len());
    for (o, c) in out.iter_mut().zip(cells) {
        *o = S::cell_decode(*c);
    }
}

/// How the single-origin transport ships a cell: bare ([`BareCells`]), or
/// with its shared-stream HoMAC tag ([`TaggedCells`], which holds the HoMAC
/// state). The two differ only in how a piece is sealed and opened.
pub(crate) trait CellCodec {
    type Cell: Clone + Send + 'static;

    /// Seal `piece`, whose first cell sits at global index `first`, into
    /// `sealed` (cleared first).
    fn seal<S: Scheme>(
        &self,
        keys: &CommKeys,
        first: u64,
        piece: &[S::Input],
        cs: &mut CellScratch,
        sealed: &mut Vec<Self::Cell>,
    );

    /// Open `cells` (sealed at `first`) into `out`, of the same length;
    /// nothing is written unless the whole piece checks out.
    fn open<S: Scheme>(
        &self,
        keys: &CommKeys,
        first: u64,
        cells: &[Self::Cell],
        cs: &mut CellScratch,
        out: &mut [S::Input],
    ) -> Result<(), EngineError>;
}

/// Padded `u64` cells ([`pad_cells`]), nothing else; a piece opens with
/// one fused pass from the received cells into the scratch cells.
pub(crate) struct BareCells;

impl CellCodec for BareCells {
    type Cell = u64;

    fn seal<S: Scheme>(
        &self,
        keys: &CommKeys,
        first: u64,
        piece: &[S::Input],
        _: &mut CellScratch,
        sealed: &mut Vec<u64>,
    ) {
        pad_cells::<S>(keys, first, piece, sealed);
    }

    fn open<S: Scheme>(
        &self,
        keys: &CommKeys,
        first: u64,
        cells: &[u64],
        cs: &mut CellScratch,
        out: &mut [S::Input],
    ) -> Result<(), EngineError> {
        cs.cells.clear();
        collective_pad(keys, first, Payload::Extend(cells, &mut cs.cells));
        decode_cells::<S>(&cs.cells, out);
        Ok(())
    }
}

/// Padded cells, each with its shared-stream HoMAC tag. Tags are computed
/// over the *padded* cell at MAC index `DIGEST_BASE + first + j` — offset
/// from the pad indices so the tag stream never reuses a pad word — and
/// verify on any rank, because the collective stream is common to the
/// whole communicator. A piece is rejected whole if any tag fails.
pub(crate) struct TaggedCells(pub(crate) Homac);

impl CellCodec for TaggedCells {
    type Cell = Tagged<u64>;

    fn seal<S: Scheme>(
        &self,
        keys: &CommKeys,
        first: u64,
        piece: &[S::Input],
        cs: &mut CellScratch,
        sealed: &mut Vec<Tagged<u64>>,
    ) {
        pad_cells::<S>(keys, first, piece, &mut cs.cells);
        let collective = keys.base_collective();
        self.0
            .tag_shared(collective, DIGEST_BASE + first, &cs.cells, &mut cs.sigmas);
        sealed.clear();
        let tagged = cs.cells.iter().zip(&cs.sigmas);
        sealed.extend(tagged.map(|(c, s)| Tagged { c: *c, sigma: *s }));
    }

    fn open<S: Scheme>(
        &self,
        keys: &CommKeys,
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
        let collective = keys.base_collective();
        if !self
            .0
            .verify_shared(collective, DIGEST_BASE + first, &cs.cells, &cs.sigmas)
        {
            return Err(EngineError::Verification(VerificationError));
        }
        collective_pad(keys, first, Payload::InPlace(&mut cs.cells));
        decode_cells::<S>(&cs.cells, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hear_core::{
        FixedCodec, FixedSumScheme, FloatProdScheme, FloatSumExpScheme, FloatSumScheme, HfpFormat,
        IntProdScheme, IntSumScheme, IntXorScheme, RingWord, HOMAC_P,
    };
    use hear_prf::{with_pool, Backend, PAR_MIN_BYTES};
    use hear_testkit::prelude::*;

    /// Two ranks seal `inputs` at `offset`, and the "network" folds the
    /// packets: the honest aggregate.
    fn honest_aggregate<S: Scheme + 'static>(
        scheme: &mut S,
        v: &mut Verified<S>,
        keys: &[CommKeys],
        offset: usize,
        inputs: &[Vec<S::Input>; 2],
    ) -> Vec<SchemePacket<S>> {
        let sealed = [0, 1].map(|r| {
            let mut packets = Vec::new();
            (v.seal_block(scheme, &keys[r], offset, &inputs[r], &mut packets)).unwrap();
            packets
        });
        (sealed[0].iter().zip(&sealed[1]))
            .map(|(a, b)| packet_op::<S>(a, b))
            .collect()
    }

    /// Two ranks seal a block, the "network" folds the packets, rank 0
    /// opens the aggregate — then again with one bit flipped in every
    /// channel the packet's wire-type entry damages (payload, each used
    /// digest lane, each lane's tag): the honest aggregate opens, no
    /// tampered one does.
    fn every_channel_is_guarded<S, MS>(mk: MS, inputs: [Vec<S::Input>; 2])
    where
        S: Scheme + 'static,
        MS: Fn() -> S,
    {
        crate::wire::ensure_packet_type::<S>();
        let keys = CommKeys::generate(2, 0x7A3B, Backend::best_available());
        let homac = Homac::generate(0x7A3C, Backend::best_available());
        let mut v = Verified::<S>::lease(homac, &mut ScratchArena::default());
        let (mut scheme, offset) = (mk(), 5);
        let agg = honest_aggregate(&mut scheme, &mut v, &keys, offset, &inputs);
        let mut out = vec![S::cell_decode(0); agg.len()];
        v.open(&mut scheme, &keys[0], 2, offset, &agg, &mut out)
            .unwrap_or_else(|e| panic!("{}: honest aggregate rejected: {e}", S::NAME));
        assert_eq!(out.len(), inputs[0].len());
        for channel in 0..3u64 {
            for lane in 0..S::Lanes::LANES as u64 {
                let mut bad: Vec<SchemePacket<S>> = agg.clone();
                let word = channel << 61 | lane << 40 | 9 << 32 | 2;
                assert!(hear_mpi::payload::corrupt(&mut bad, word));
                assert_eq!(bad.iter().zip(&agg).filter(|(a, b)| a != b).count(), 1);
                let opened = v.open(&mut scheme, &keys[0], 2, offset, &bad, &mut out);
                assert!(
                    matches!(opened, Err(EngineError::Verification(_))),
                    "{}: channel {channel} lane {lane} tampering opened: {opened:?}",
                    S::NAME
                );
            }
        }
    }

    /// The forgeries of DESIGN.md "The overflow test", on an honest
    /// two-rank aggregate: for every element and every lane, the lane moved
    /// by δ and the payload word by δ mod 2ᵇ, δ ∈ {±8, ±p, ±2p}. To an
    /// overflow test on 64-bit words ±8 is one honest wrap more or less
    /// (2⁶⁴ ≡ 8 mod p), and ±p keeps a word's residue. A field lane either
    /// changes residue (the MAC fails) or opens to the honest sum (the
    /// digest check sees the payload move): every shift must be rejected.
    fn no_lane_shift_opens<S, MS>(mk: MS, inputs: [Vec<S::Input>; 2])
    where
        S: Scheme + 'static,
        S::Wire: RingWord,
        MS: Fn() -> S,
    {
        let keys = CommKeys::generate(2, 0x8E1F, Backend::best_available());
        let homac = Homac::generate(0x8E20, Backend::best_available());
        let mut v = Verified::<S>::lease(homac, &mut ScratchArena::default());
        let (mut scheme, offset) = (mk(), 3);
        let agg = honest_aggregate(&mut scheme, &mut v, &keys, offset, &inputs);
        let mut out = vec![S::cell_decode(0); agg.len()];
        v.open(&mut scheme, &keys[0], 2, offset, &agg, &mut out)
            .unwrap_or_else(|e| panic!("{}: honest aggregate rejected: {e}", S::NAME));
        let p = HOMAC_P;
        let deltas = [8, p, 2 * p].map(|d| [d, d.wrapping_neg()]).concat();
        let mut forged = Vec::new();
        for (i, lane, delta) in (0..agg.len())
            .flat_map(|i| (0..S::Lanes::LANES).map(move |lane| (i, lane)))
            .flat_map(|(i, lane)| deltas.iter().map(move |d| (i, lane, *d)))
        {
            let mut bad = agg.clone();
            let d = &mut bad[i].d.as_mut()[lane];
            *d = d.wrapping_add(delta);
            bad[i].c = S::Wire::from_u64_trunc(bad[i].c.to_u64().wrapping_add(delta));
            match v.open(&mut scheme, &keys[0], 2, offset, &bad, &mut out) {
                Err(EngineError::Verification(_)) => {}
                other => forged.push((i, lane, delta as i64, other.is_ok())),
            }
        }
        assert!(
            forged.is_empty(),
            "{}: {} of {} shifts not rejected (element, lane, δ, opened): {forged:?}",
            S::NAME,
            forged.len(),
            agg.len() * S::Lanes::LANES * deltas.len()
        );
    }

    #[test]
    fn a_lane_and_payload_shifted_together_never_open() {
        let ints = |r: u64| -> Vec<u64> {
            (0..40u64)
                .map(|j| (j + 1 + 40 * r).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect()
        };
        no_lane_shift_opens(
            IntSumScheme::<u32>::default,
            [0, 1].map(|r| ints(r).iter().map(|x| *x as u32).collect()),
        );
        no_lane_shift_opens(IntSumScheme::<u64>::default, [0, 1].map(ints));
        no_lane_shift_opens(
            || FixedSumScheme::new(FixedCodec::new(20)),
            [0, 1].map(|r| {
                ints(r)
                    .iter()
                    .map(|x| (*x >> 24) as f64 * 1e-6 - 5e5)
                    .collect()
            }),
        );
        no_lane_shift_opens(IntXorScheme::<u64>::default, [0, 1].map(ints));
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
            let mut v = Verified::<S>::lease(homac.clone(), &mut arena);
            let mut sealed = Vec::new();
            (v.seal_block(&mut scheme, &keys, offset, &input, &mut sealed)).unwrap();
            for nchunks in [1, 2, 3, 5, input.len() + 2] {
                let mut plain: Vec<Vec<S::Wire>> = vec![vec![]; nchunks];
                crate::engine::mask_chunks(&mut scheme, &keys, offset, &input, &mut plain).unwrap();
                assert_eq!(plain.concat(), whole, "{} mask, {nchunks} chunks", S::NAME);
                let mut packets: Vec<Vec<SchemePacket<S>>> = vec![vec![]; nchunks];
                (v.seal(&mut scheme, &keys, offset, &input, &mut packets)).unwrap();
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
            v.restore(&mut arena);
        }
    }

    #[test]
    fn the_wire_does_not_depend_on_the_chunking() {
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

    /// A pool of each size, made once for every case.
    fn pools() -> &'static [WorkerPool; 3] {
        static POOLS: std::sync::OnceLock<[WorkerPool; 3]> = std::sync::OnceLock::new();
        POOLS.get_or_init(|| [1, 2, 4].map(WorkerPool::new))
    }

    /// One case of the fused packet passes: `len` elements a rank at
    /// global `offset`, sealed in `nchunks` chunks on `pool`.
    struct Case<'a> {
        len: usize,
        offset: usize,
        nchunks: usize,
        pool: &'a WorkerPool,
        seed: u64,
    }

    /// Two ranks seal `case`'s inputs chunk by chunk, the "network" folds
    /// the packets and rank 0 opens every chunk of the aggregate into its
    /// place, all on `case.pool`. Each rank's packets must be `mask_slice`
    /// zipped with `seal_lanes_scalar` of the digest's lanes, and the open
    /// must yield what `open_lanes_scalar` and `unmask_slice` do. Returns
    /// the packet shape the scheme ships.
    fn fused_equals_scalar<S: Scheme + 'static>(
        mk: impl Fn() -> S,
        input: impl Fn(u64) -> S::Input,
        case: &Case<'_>,
    ) -> Result<(&'static str, usize), TestCaseError>
    where
        S::Input: PartialEq + std::fmt::Debug,
    {
        let (n, offset, lanes) = (case.len, case.offset, S::Lanes::LANES);
        let keys = CommKeys::generate(2, case.seed, Backend::best_available());
        let homac = Homac::generate(case.seed ^ 1, Backend::best_available());
        let mut arena = ScratchArena::default();
        let mut v = Verified::<S>::lease(homac.clone(), &mut arena);
        let mut scheme = mk();
        let inputs: [Vec<S::Input>; 2] = [0u64, 1].map(|r| {
            (0..n as u64)
                .map(|j| input((case.seed ^ (r << 40) ^ j).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect()
        });
        let (first, jobs) = (digest_first::<S>(offset), case.pool.jobs());
        let mut agg: Vec<SchemePacket<S>> = Vec::new();
        for (r, input) in inputs.iter().enumerate() {
            let mut chunks: Vec<Vec<SchemePacket<S>>> = vec![vec![]; case.nchunks];
            with_pool(case.pool, || {
                v.seal(&mut scheme, &keys[r], offset, input, &mut chunks)
            })
            .unwrap();
            let mut wire = Vec::new();
            (scheme.mask_slice(&keys[r], offset as u64, input, &mut wire)).unwrap();
            let mut words = [0u64; hear_core::DIGEST_LANES];
            let halves: Vec<u64> = (input.iter())
                .flat_map(|x| {
                    scheme.digest(x, &mut words);
                    hear_core::split_lanes(&words)[..lanes].to_vec()
                })
                .collect();
            let sealed = homac.seal_lanes_scalar(&keys[r], first, &halves);
            let want: Vec<SchemePacket<S>> = (wire.iter().zip(sealed.chunks_exact(lanes.max(1))))
                .map(|(c, pairs)| {
                    let (mut d, mut s) = (S::Lanes::ZERO, S::Lanes::ZERO);
                    for (b, [lane, tag]) in pairs.iter().enumerate() {
                        (d.as_mut()[b], s.as_mut()[b]) = (*lane, *tag);
                    }
                    Packet { c: *c, d, s }
                })
                .collect();
            prop_assert!(
                chunks.concat() == want,
                "{} rank {r}: sealed packets",
                S::NAME
            );
            agg = match r {
                0 => want,
                _ => (agg.iter().zip(&want))
                    .map(|(a, b)| packet_op::<S>(a, b))
                    .collect(),
            };
        }
        let mut out = vec![S::cell_decode(0); n];
        let mut sums = Vec::new();
        for c in (0..case.nchunks).rev() {
            let (s, e) = share_bounds(n, case.nchunks, c);
            let opened = with_pool(case.pool, || {
                v.open(
                    &mut scheme,
                    &keys[0],
                    2,
                    offset + s,
                    &agg[s..e],
                    &mut out[s..e],
                )
            });
            prop_assert!(opened.is_ok(), "{} chunk {c}: {opened:?}", S::NAME);
            sums.splice(0..0, v.lanes.iter().flat_map(|l| l.as_ref().to_vec()));
        }
        let flat: Vec<[u64; 2]> = (agg.iter())
            .flat_map(|p| p.d.as_ref().iter().zip(p.s.as_ref()).map(|(d, s)| [*d, *s]))
            .collect();
        let want_sums = homac.open_lanes_scalar(&keys[0], first, &flat);
        prop_assert!(
            want_sums.as_ref() == Some(&sums),
            "{}: opened lane sums",
            S::NAME
        );
        let (wire, mut want) = (agg.iter().map(|p| p.c).collect::<Vec<_>>(), Vec::new());
        scheme.unmask_slice(&keys[0], offset as u64, &wire, &mut want);
        prop_assert!(out == want, "{}: opened values", S::NAME);
        // Past the open's fan-out point a chunk's passes shard.
        let sharded = n / case.nchunks >= PAR_MIN_BYTES / (16 * lanes);
        if sharded && case.pool.threads() > 1 {
            prop_assert!(case.pool.jobs() > jobs, "{}: no pass fanned out", S::NAME);
        }
        v.restore(&mut arena);
        Ok((std::any::type_name::<S::Wire>(), lanes))
    }

    type Subject = fn(&Case<'_>) -> Result<(&'static str, usize), TestCaseError>;

    /// One scheme of every packet shape (`for_each_packet_shape!`), with
    /// inputs from a random word.
    const SUBJECTS: [Subject; 16] = [
        |c| fused_equals_scalar(IntSumScheme::<u8>::default, |w| w as u8, c),
        |c| fused_equals_scalar(IntSumScheme::<u16>::default, |w| w as u16, c),
        |c| fused_equals_scalar(IntSumScheme::<u32>::default, |w| w as u32, c),
        |c| fused_equals_scalar(IntSumScheme::<u64>::default, |w| w, c),
        |c| fused_equals_scalar(|| FixedSumScheme::new(FixedCodec::new(20)), small_float, c),
        |c| fused_equals_scalar(IntProdScheme::<u8>::default, |w| w as u8, c),
        |c| fused_equals_scalar(IntProdScheme::<u16>::default, |w| w as u16, c),
        |c| fused_equals_scalar(IntProdScheme::<u32>::default, |w| w as u32, c),
        |c| fused_equals_scalar(IntProdScheme::<u64>::default, |w| w, c),
        |c| fused_equals_scalar(IntXorScheme::<u8>::default, |w| w as u8, c),
        |c| fused_equals_scalar(IntXorScheme::<u16>::default, |w| w as u16, c),
        |c| fused_equals_scalar(IntXorScheme::<u32>::default, |w| w as u32, c),
        |c| fused_equals_scalar(IntXorScheme::<u64>::default, |w| w, c),
        |c| {
            fused_equals_scalar(
                || FloatSumScheme::new(HfpFormat::fp32(2, 2)),
                small_float,
                c,
            )
        },
        |c| {
            fused_equals_scalar(
                || FloatSumExpScheme::new(HfpFormat::fp64(0, 0)),
                small_float,
                c,
            )
        },
        |c| {
            fused_equals_scalar(
                || FloatProdScheme::new(HfpFormat::fp64(0, 0)),
                small_float,
                c,
            )
        },
    ];

    /// A float in ±[0.5, 2) from a random word: its sums and products over
    /// two ranks stay far from every format's range.
    fn small_float(w: u64) -> f64 {
        let m = 0.5 + (w >> 11) as f64 / (1u64 << 53) as f64 * 1.5;
        if w & 1 == 0 {
            m
        } else {
            -m
        }
    }

    /// The subjects cover every packet shape the wire carries.
    #[test]
    fn the_fused_passes_are_checked_on_every_packet_shape() {
        macro_rules! shapes {
            ($(($w:ty, $l:literal)),+ $(,)?) => {
                [$((std::any::type_name::<$w>(), $l)),+]
            };
        }
        let mut want = for_each_packet_shape!(shapes).to_vec();
        let case = |pool| Case {
            len: 3,
            offset: 1,
            nchunks: 2,
            pool,
            seed: 7,
        };
        let mut got: Vec<_> = (SUBJECTS.iter())
            .map(|subject| subject(&case(&pools()[0])).unwrap())
            .collect();
        want.sort();
        got.sort();
        got.dedup();
        assert_eq!(got, want);
    }

    proptest! {
        /// The fused seal and open against their scalar references
        /// ([`fused_equals_scalar`]) for every packet shape, at ragged
        /// lengths, odd offsets and chunk cuts that leave chunks empty, on
        /// 1-, 2- and 4-thread pools; a fifth of the cases run past the
        /// open's fan-out point, where the passes shard.
        #[test]
        fn fused_packet_passes_equal_the_scalar_references(
            subject in 0usize..16,
            len in 0usize..600,
            big in 0usize..5,
            offset in 0usize..1 << 20,
            nchunks in 1usize..5,
            pool in 0usize..3,
            seed in any::<u64>(),
        ) {
            let (offset, pool) = (2 * offset + 1, &pools()[pool]);
            let case = match big {
                // One chunk, just past the subject's fan-out point.
                0 => {
                    let lanes = [1, 1, 1, 2, 2, 5, 5, 5, 5, 8, 8, 8, 8, 2, 2, 4][subject];
                    let len = PAR_MIN_BYTES / (16 * lanes) + len % 300;
                    Case { len, offset, nchunks: 1, pool, seed }
                }
                _ => Case { len, offset, nchunks, pool, seed },
            };
            SUBJECTS[subject](&case)?;
        }
    }

    /// `run`'s result, the PRF blocks it counted on the software AES
    /// backend, and the HoMAC verdicts (pass, fail) it recorded, on a
    /// registry of its own.
    fn counted<R>(run: impl FnOnce() -> R) -> (R, u64, [u64; 2]) {
        use hear_telemetry::{Metric, Registry};
        let reg = Registry::new_enabled();
        let r = {
            let _ctx = reg.install(Some(0));
            run()
        };
        let verdicts = [Metric::HomacVerifyPass, Metric::HomacVerifyFail].map(|m| reg.counter(m));
        (r, reg.counter(Metric::PrfBlocksAesSoft), verdicts)
    }

    /// A seal and an open of `n` elements count exactly `n·L` HoMAC blocks
    /// per stream on top of the payload pass — a sealing rank with a next
    /// stream draws from two, the last rank and the opening rank from one —
    /// and the open ticks one verdict: pass for the honest aggregate, fail
    /// for a tampered one.
    fn homac_telemetry_is_exact<S: Scheme + 'static>(
        mk: impl Fn() -> S,
        input: impl Fn(u64) -> S::Input,
    ) {
        let (n, offset, lanes) = (37, 11, S::Lanes::LANES as u64);
        let keys = CommKeys::generate(2, 0x7E1E, Backend::AesSoft);
        let homac = Homac::generate(0x7E1F, Backend::AesSoft);
        let mut v = Verified::<S>::lease(homac, &mut ScratchArena::default());
        let mut scheme = mk();
        let mut agg: Vec<SchemePacket<S>> = Vec::new();
        for (r, streams) in [(0, 2), (1, 1)] {
            let x: Vec<S::Input> = (0..n).map(|j| input(j * 7 + r + 1)).collect();
            let (_, payload, _) =
                counted(|| scheme.mask_slice(&keys[r as usize], offset, &x, &mut Vec::new()));
            let mut packets = Vec::new();
            let (sealed, blocks, _) = counted(|| {
                v.seal_block(
                    &mut scheme,
                    &keys[r as usize],
                    offset as usize,
                    &x,
                    &mut packets,
                )
            });
            assert!(sealed.is_ok());
            assert_eq!(
                blocks - payload,
                streams * n * lanes,
                "{} rank {r} seal",
                S::NAME
            );
            agg = match r {
                0 => packets,
                _ => (agg.iter().zip(&packets))
                    .map(|(a, b)| packet_op::<S>(a, b))
                    .collect(),
            };
        }
        let wire: Vec<S::Wire> = agg.iter().map(|p| p.c).collect();
        let mut out = vec![S::cell_decode(0); n as usize];
        let (_, payload, _) = counted(|| scheme.unmask_into(&keys[0], offset, &wire, &mut out));
        let (opened, blocks, verdicts) =
            counted(|| v.open(&mut scheme, &keys[0], 2, offset as usize, &agg, &mut out));
        assert!(opened.is_ok(), "{}: {opened:?}", S::NAME);
        assert_eq!(blocks - payload, n * lanes, "{} open", S::NAME);
        assert_eq!(verdicts, [1, 0], "{} honest verdict", S::NAME);
        agg[5].s.as_mut()[0] ^= 1;
        let (opened, blocks, verdicts) =
            counted(|| v.open(&mut scheme, &keys[0], 2, offset as usize, &agg, &mut out));
        assert!(matches!(opened, Err(EngineError::Verification(_))));
        assert_eq!(blocks, n * lanes, "{} rejected open", S::NAME);
        assert_eq!(verdicts, [0, 1], "{} tampered verdict", S::NAME);
    }

    #[test]
    fn a_seal_and_open_count_one_homac_block_per_lane_and_stream() {
        homac_telemetry_is_exact(IntSumScheme::<u32>::default, |w| w as u32);
        homac_telemetry_is_exact(IntSumScheme::<u64>::default, |w| w << 40);
        homac_telemetry_is_exact(IntProdScheme::<u64>::default, |w| w);
        homac_telemetry_is_exact(IntXorScheme::<u64>::default, |w| w);
    }

    /// A packet tampered on either side of a shard cut, or at the end, is
    /// caught by an open that shards: eight lanes an element, past the
    /// open's fan-out point, on a 2-thread pool.
    #[test]
    fn tampering_is_caught_in_a_sharded_open() {
        let n = PAR_MIN_BYTES / (16 * 8) + 5;
        let keys = CommKeys::generate(2, 0x5A4D, Backend::best_available());
        let homac = Homac::generate(0x5A4E, Backend::best_available());
        let mut v = Verified::<IntXorScheme<u64>>::lease(homac, &mut ScratchArena::default());
        let mut scheme = IntXorScheme::<u64>::default();
        let pool = &pools()[1];
        let inputs = [0u64, 1].map(|r| (0..n as u64).map(|j| j * 3 + r).collect::<Vec<u64>>());
        let agg = with_pool(pool, || {
            honest_aggregate(&mut scheme, &mut v, &keys, 9, &inputs)
        });
        let mut out = vec![0u64; n];
        let mut open = |agg: &[SchemePacket<IntXorScheme<u64>>]| {
            let jobs = pool.jobs();
            let opened = with_pool(pool, || v.open(&mut scheme, &keys[0], 2, 9, agg, &mut out));
            assert!(pool.jobs() > jobs, "the open did not fan out");
            opened
        };
        open(&agg).expect("honest aggregate");
        for i in [n / 2 - 1, n / 2, n - 1] {
            let mut bad = agg.clone();
            bad[i].d.as_mut()[7] ^= 1 << 9;
            let opened = open(&bad);
            assert!(
                matches!(opened, Err(EngineError::Verification(_))),
                "element {i}: {opened:?}"
            );
        }
    }
}
