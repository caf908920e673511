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

use super::cfg::EngineError;
use super::make_room;
use super::phases::share_bounds;
use crate::arena::ScratchArena;
use crate::secure::{Tagged, VerificationError};
use hear_core::{
    join_lanes, split_lanes, CommKeys, Homac, LaneArray, Scheme, DIGEST_BASE, DIGEST_LANES,
};
use hear_prf::{par_fused_pass, KernelWord, Payload, Stream, WorkerPool};

/// What the network reduces in verified mode: the payload ciphertext plus
/// the sealed digest lanes and their HoMAC tags (§5.5's "(σ, c)" pair,
/// widened with the digest channel). `L` is the scheme's
/// [`Scheme::Lanes`] — only the lanes its digest fills exist at all. A
/// lane is a field element: one 32-bit half of a digest word under a pad,
/// sealed and opened by the HoMAC kernel ([`Homac::seal_lanes`]).
#[derive(Debug, Clone, PartialEq)]
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

/// The verified path's staging set, leased from the [`ScratchArena`] for
/// one call: wire ciphertexts, the decrypted block, the digest lanes
/// (plain halves on the seal side, opened sums on the open side) and the
/// `[lane, tag]` pairs (sealed on one side, the aggregate's on the
/// other). The packets themselves are sealed straight into the
/// transport's chunk vectors.
pub(crate) struct VerifyScratch<S: Scheme + 'static> {
    pub(crate) wire: Vec<S::Wire>,
    pub(crate) dec: Vec<S::Input>,
    pub(crate) lanes: Vec<u64>,
    pub(crate) sealed: Vec<[u64; 2]>,
}

impl<S: Scheme + 'static> VerifyScratch<S> {
    pub(crate) fn lease(arena: &mut ScratchArena) -> Self {
        VerifyScratch {
            wire: arena.take_vec(),
            dec: arena.take_vec(),
            lanes: arena.take_vec(),
            sealed: arena.take_vec(),
        }
    }

    pub(crate) fn restore(self, arena: &mut ScratchArena) {
        arena.put_vec(self.wire);
        arena.put_vec(self.dec);
        arena.put_vec(self.lanes);
        arena.put_vec(self.sealed);
    }
}

/// One column (`0`: lane, `1`: tag) of an element's sealed pairs.
#[inline]
fn column<L: LaneArray>(sealed: &[[u64; 2]], at: usize) -> L {
    let mut out = L::ZERO;
    for (o, pair) in out.as_mut().iter_mut().zip(sealed) {
        *o = pair[at];
    }
    out
}

/// Mask one block and wrap it into verified-transport `packets` (cleared
/// first). Each element's digest words are split into 32-bit halves
/// ([`split_lanes`]), of which the scheme's used lanes are sealed in one
/// HoMAC kernel pass over one contiguous vector.
pub(crate) fn seal_block<S: Scheme + 'static>(
    scheme: &mut S,
    homac: &Homac,
    keys: &CommKeys,
    offset: usize,
    input: &[S::Input],
    vs: &mut VerifyScratch<S>,
    packets: &mut Vec<SchemePacket<S>>,
) -> Result<(), EngineError> {
    scheme.mask_slice(keys, offset as u64, input, &mut vs.wire)?;
    vs.lanes.clear();
    let mut words = [0u64; DIGEST_LANES];
    for x in input {
        scheme.digest(x, &mut words);
        let lanes = split_lanes(&words);
        debug_assert!(lanes[S::Lanes::LANES..].iter().all(|l| *l == 0));
        vs.lanes.extend_from_slice(&lanes[..S::Lanes::LANES]);
    }
    homac.seal_lanes(keys, digest_first::<S>(offset), &vs.lanes, &mut vs.sealed);
    packets.clear();
    let sealed = vs.sealed.chunks_exact(S::Lanes::LANES);
    packets.extend(vs.wire.drain(..).zip(sealed).map(|(c, lanes)| Packet {
        c,
        d: column(lanes, 0),
        s: column(lanes, 1),
    }));
    Ok(())
}

/// [`seal_block`] chunk by chunk into the vectors the transport moves:
/// chunk `c` of the block `input` (at global `offset`) is sealed at
/// `offset + s_c`, so payload pads and lane indices are the whole block's
/// — the packets on the wire do not change. Like [`super::mask_chunks`],
/// every vector gets room for the largest chunk.
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
        make_room(chunk, room);
        seal_block(scheme, homac, keys, offset + s, &input[s..e], vs, chunk)?;
    }
    Ok(())
}

/// Verify, decrypt and digest-check one aggregated block into `vs.dec`:
/// one HoMAC pass opens the lanes to exact sums, which are rejoined into
/// the wrapping digest-word sums [`Scheme::digest_check`] takes.
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
    vs.sealed.clear();
    for p in agg {
        vs.wire.push(p.c.clone());
        let pairs = p.d.as_ref().iter().zip(p.s.as_ref());
        vs.sealed.extend(pairs.map(|(d, s)| [*d, *s]));
    }
    let first = digest_first::<S>(offset);
    if !homac.open_lanes(keys, first, &vs.sealed, &mut vs.lanes) {
        return Err(EngineError::Verification(VerificationError));
    }
    scheme.unmask_slice(keys, offset as u64, &vs.wire, &mut vs.dec);
    // The lanes the scheme never fills were never sent: `join_lanes`
    // zero-extends.
    for (r, sums) in vs.dec.iter().zip(vs.lanes.chunks_exact(S::Lanes::LANES)) {
        if !scheme.digest_check(r, &join_lanes(sums), world) {
            return Err(EngineError::Verification(VerificationError));
        }
    }
    Ok(())
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
        FloatProdScheme, HfpFormat, IntProdScheme, IntSumScheme, IntXorScheme, RingWord, HOMAC_P,
    };
    use hear_prf::Backend;

    /// Two ranks seal `inputs` at `offset`, and the "network" folds the
    /// packets: the honest aggregate.
    fn honest_aggregate<S: Scheme + 'static>(
        scheme: &mut S,
        homac: &Homac,
        keys: &[CommKeys],
        offset: usize,
        inputs: &[Vec<S::Input>; 2],
        vs: &mut VerifyScratch<S>,
    ) -> Vec<SchemePacket<S>> {
        let sealed = [0, 1].map(|r| {
            let mut packets = Vec::new();
            seal_block(
                scheme,
                homac,
                &keys[r],
                offset,
                &inputs[r],
                vs,
                &mut packets,
            )
            .unwrap();
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
        let mut arena = ScratchArena::default();
        let mut vs = VerifyScratch::<S>::lease(&mut arena);
        let (mut scheme, offset) = (mk(), 5);
        let agg = honest_aggregate(&mut scheme, &homac, &keys, offset, &inputs, &mut vs);
        open_block(&mut scheme, &homac, &keys[0], 2, offset, &agg, &mut vs)
            .unwrap_or_else(|e| panic!("{}: honest aggregate rejected: {e}", S::NAME));
        assert_eq!(vs.dec.len(), inputs[0].len());
        for channel in 0..3u64 {
            for lane in 0..S::Lanes::LANES as u64 {
                let mut bad: Vec<SchemePacket<S>> = agg.clone();
                let word = channel << 61 | lane << 40 | 9 << 32 | 2;
                assert!(hear_mpi::payload::corrupt(&mut bad, word));
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
        let mut arena = ScratchArena::default();
        let mut vs = VerifyScratch::<S>::lease(&mut arena);
        let (mut scheme, offset) = (mk(), 3);
        let agg = honest_aggregate(&mut scheme, &homac, &keys, offset, &inputs, &mut vs);
        open_block(&mut scheme, &homac, &keys[0], 2, offset, &agg, &mut vs)
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
            match open_block(&mut scheme, &homac, &keys[0], 2, offset, &bad, &mut vs) {
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
        use hear_core::{FixedCodec, FixedSumScheme};
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
            let mut vs = VerifyScratch::<S>::lease(&mut arena);
            let mut sealed = Vec::new();
            seal_block(
                &mut scheme,
                &homac,
                &keys,
                offset,
                &input,
                &mut vs,
                &mut sealed,
            )
            .unwrap();
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
