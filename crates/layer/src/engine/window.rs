//! The place in the caller's result vector that one block's chunks are
//! decrypted into.
//!
//! A ring allreduce hands the engine each fully reduced chunk exactly once,
//! in arrival order — the own chunk first, then `rank − 1`, `rank − 2`, … —
//! and then forwards it by move, so a chunk is decrypted when it passes or
//! not at all. [`OutWindow`] is the next `len` elements of `out`'s *spare
//! capacity*, cut with the ring's chunk layout: each chunk is unmasked (or,
//! on the verified path, copied after its digest check) straight into its
//! place, and the vector's length moves once, in [`OutWindow::commit`],
//! after the last chunk. Until then `out` is exactly as long as on entry —
//! which is how "`out` is empty on `Err`" holds by construction, and why a
//! retry simply opens a new window over the same memory.

use super::phases::share_bounds;
use hear_core::{CommKeys, Scheme};
use std::mem::MaybeUninit;

pub(crate) struct OutWindow<'a, T> {
    out: &'a mut Vec<T>,
    len: usize,
    nchunks: usize,
    /// Chunks placed so far, and the last one placed.
    placed: usize,
    last: usize,
}

impl<'a, T> OutWindow<'a, T> {
    /// A window of `len` elements past the end of `out`, in `nchunks`
    /// chunks ([`hear_mpi::ring_chunk_bounds`] layout; one chunk for the
    /// whole-vector algorithms).
    pub(crate) fn new(out: &'a mut Vec<T>, len: usize, nchunks: usize) -> Self {
        assert!(nchunks > 0, "a block travels as at least one chunk");
        out.reserve(len);
        OutWindow {
            out,
            len,
            nchunks,
            placed: 0,
            last: 0,
        }
    }

    /// Chunk `c`'s start in the window and its uninitialised place. Each
    /// chunk can be claimed once: the first claim is free, every later one
    /// must be the cyclic predecessor of the one before — the ring's arrival
    /// order — so `nchunks` claims are `nchunks` distinct chunks, i.e. the
    /// whole window. The memory safety of [`OutWindow::commit`] rests on
    /// this check, not on the transport's good behaviour.
    fn claim(&mut self, c: usize) -> (usize, &mut [MaybeUninit<T>]) {
        assert!(
            c < self.nchunks && self.placed < self.nchunks,
            "chunk {c} of {}",
            self.nchunks
        );
        assert!(
            self.placed == 0 || c == (self.last + self.nchunks - 1) % self.nchunks,
            "chunk {c} after chunk {}: ring chunks arrive in descending order, each once",
            self.last
        );
        self.placed += 1;
        self.last = c;
        let (s, e) = share_bounds(self.len, self.nchunks, c);
        (s, &mut self.out.spare_capacity_mut()[s..e])
    }

    /// Decrypt aggregated chunk `c` of the block at global `offset` into
    /// its place. The pad coordinate of its element `j` is `offset + s + j`
    /// — what a whole-block unmask would have used.
    pub(crate) fn unmask<S: Scheme<Input = T>>(
        &mut self,
        scheme: &mut S,
        keys: &CommKeys,
        offset: usize,
        c: usize,
        agg: &[S::Wire],
    ) {
        let (s, dst) = self.claim(c);
        assert_eq!(
            agg.len(),
            dst.len(),
            "chunk {c} arrived with a wrong length"
        );
        scheme.unmask_into(keys, (offset + s) as u64, agg, dst);
    }

    /// Copy the already decrypted (and, on the verified path, already
    /// digest-checked) chunk `c` into its place.
    pub(crate) fn place(&mut self, c: usize, plain: &[T])
    where
        T: Clone,
    {
        let (_, dst) = self.claim(c);
        assert_eq!(
            plain.len(),
            dst.len(),
            "chunk {c} decrypted to a wrong length"
        );
        for (d, x) in dst.iter_mut().zip(plain) {
            d.write(x.clone());
        }
    }

    /// Every chunk is in place: the window becomes part of `out`.
    pub(crate) fn commit(self) {
        assert_eq!(self.placed, self.nchunks, "a chunk never arrived");
        // SAFETY: `claim` handed out each of the `nchunks` chunks exactly
        // once (distinct by its order check), their bounds partition
        // `0..len`, and `unmask` / `place` initialised every element of the
        // chunk they claimed — `place` by writing each, `unmask` by the
        // contract of `unsafe trait Scheme` after checking the lengths.
        // `new` reserved the capacity.
        unsafe { self.out.set_len(self.out.len() + self.len) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_land_in_place_in_ring_order_and_commit_once() {
        let mut out = vec![7u32, 8];
        let mut w = OutWindow::new(&mut out, 10, 3); // chunks 0..4, 4..7, 7..10
        w.place(1, &[14, 15, 16]);
        w.place(0, &[10, 11, 12, 13]);
        w.place(2, &[17, 18, 19]);
        w.commit();
        assert_eq!(out, [7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19]);
    }

    #[test]
    fn an_abandoned_window_leaves_out_untouched() {
        let mut out = vec![1u8];
        OutWindow::new(&mut out, 4, 2).place(0, &[9, 9]);
        assert_eq!(out, [1]);
    }

    #[test]
    #[should_panic(expected = "descending order")]
    fn a_repeated_chunk_is_refused() {
        let mut out: Vec<u8> = Vec::new();
        let mut w = OutWindow::new(&mut out, 4, 2);
        w.place(0, &[1, 2]);
        w.place(0, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "never arrived")]
    fn a_missing_chunk_refuses_the_commit() {
        let mut out: Vec<u8> = Vec::new();
        let mut w = OutWindow::new(&mut out, 4, 2);
        w.place(1, &[3, 4]);
        w.commit();
    }
}
