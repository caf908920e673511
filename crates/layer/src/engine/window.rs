//! The place in the caller's result vector that one block's chunks are
//! decrypted into.
//!
//! A ring allreduce hands the engine each fully reduced chunk exactly once,
//! in arrival order — the own chunk first, then `rank − 1`, `rank − 2`, … —
//! and then forwards it by move, so a chunk is decrypted when it passes or
//! not at all. The reduction sizes `out` to its result's length at entry;
//! [`OutWindow`] is the next block's `len` elements of it, from the cursor
//! `done` on, cut with the ring's chunk layout: each chunk is unmasked (or,
//! on the verified path, copied after its digest check) straight into its
//! place, and the cursor moves once, in [`OutWindow::commit`], after the
//! last chunk. A retry opens a new window over the same elements and
//! overwrites them; a call that fails leaves `out` empty (its entry
//! point's `run_into` clears it).

use super::phases::share_bounds;
use hear_core::{CommKeys, Scheme};

pub(crate) struct OutWindow<'a, T> {
    /// `out[done..done + len]`.
    out: &'a mut [T],
    /// Elements of `out` already committed.
    done: &'a mut usize,
    /// Global index of the window's first element.
    at: usize,
    nchunks: usize,
    /// Chunks placed so far, and the last one placed.
    placed: usize,
    last: usize,
}

impl<'a, T> OutWindow<'a, T> {
    /// A window over the `len` elements of `out` from `*done` on, holding
    /// global elements `at..at + len` in `nchunks` chunks
    /// ([`hear_mpi::ring_chunk_bounds`] layout; one chunk for the
    /// whole-vector algorithms).
    pub(crate) fn new(
        out: &'a mut [T],
        done: &'a mut usize,
        at: usize,
        len: usize,
        nchunks: usize,
    ) -> Self {
        assert!(nchunks > 0, "a block travels as at least one chunk");
        OutWindow {
            out: &mut out[*done..*done + len],
            done,
            at,
            nchunks,
            placed: 0,
            last: 0,
        }
    }

    /// Global index of chunk `c`'s first element — its pad coordinate.
    pub(crate) fn first(&self, c: usize) -> usize {
        self.at + share_bounds(self.out.len(), self.nchunks, c).0
    }

    /// Chunk `c`'s global first index and its place. Each chunk can be
    /// claimed once: the first claim is free, every later one must be the
    /// cyclic predecessor of the one before — the ring's arrival order — so
    /// `nchunks` claims are `nchunks` distinct chunks, i.e. the whole
    /// window. That [`OutWindow::commit`] never keeps an element an earlier
    /// attempt or call left rests on this check, not on the transport's
    /// good behaviour.
    fn claim(&mut self, c: usize) -> (usize, &mut [T]) {
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
        let (s, e) = share_bounds(self.out.len(), self.nchunks, c);
        (self.at + s, &mut self.out[s..e])
    }

    /// Decrypt aggregated chunk `c` into its place. The pad coordinate of
    /// its element `j` is [`OutWindow::first`]` + j` — what a whole-block
    /// unmask would have used.
    pub(crate) fn unmask<S: Scheme<Input = T>>(
        &mut self,
        scheme: &mut S,
        keys: &CommKeys,
        c: usize,
        agg: &[S::Wire],
    ) {
        let (first, dst) = self.claim(c);
        assert_eq!(
            agg.len(),
            dst.len(),
            "chunk {c} arrived with a wrong length"
        );
        scheme.unmask_into(keys, first as u64, agg, dst);
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
        dst.clone_from_slice(plain);
    }

    /// Every chunk is in place: the cursor moves past the window.
    pub(crate) fn commit(self) {
        assert_eq!(self.placed, self.nchunks, "a chunk never arrived");
        *self.done += self.out.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_land_in_place_in_ring_order_and_commit_once() {
        let (mut out, mut done) = (vec![7u32, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 2);
        let mut w = OutWindow::new(&mut out, &mut done, 0, 10, 3); // chunks 0..4, 4..7, 7..10
        w.place(1, &[14, 15, 16]);
        w.place(0, &[10, 11, 12, 13]);
        w.place(2, &[17, 18, 19]);
        w.commit();
        assert_eq!(out, [7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19]);
        assert_eq!(done, 12);
    }

    #[test]
    fn an_abandoned_window_leaves_the_cursor_in_place() {
        let (mut out, mut done) = (vec![1u8; 5], 1);
        OutWindow::new(&mut out, &mut done, 0, 4, 2).place(0, &[9, 9]);
        assert_eq!(done, 1);
    }

    #[test]
    #[should_panic(expected = "descending order")]
    fn a_repeated_chunk_is_refused() {
        let (mut out, mut done) = (vec![0u8; 4], 0);
        let mut w = OutWindow::new(&mut out, &mut done, 0, 4, 2);
        w.place(0, &[1, 2]);
        w.place(0, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "never arrived")]
    fn a_missing_chunk_refuses_the_commit() {
        let (mut out, mut done) = (vec![0u8; 4], 0);
        let mut w = OutWindow::new(&mut out, &mut done, 0, 4, 2);
        w.place(1, &[3, 4]);
        w.commit();
    }
}
