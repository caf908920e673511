//! The place in the caller's result vector that one block's chunks are
//! decrypted into.
//!
//! A ring allreduce hands the engine each fully reduced chunk exactly once,
//! in arrival order — the own chunk first, then `rank − 1`, `rank − 2`, … —
//! and then forwards it by move, so a chunk is decrypted when it passes or
//! not at all. The reduction sizes `out` to its result's length at entry;
//! [`OutWindow`] is the next block's `len` elements of it, from the cursor
//! `done` on, cut with the ring's chunk layout: each chunk is opened
//! straight into its place (unmasked, and on the verified path
//! digest-checked there), and the cursor moves once, in
//! [`OutWindow::commit`], after the last chunk. A chunk that fails its
//! check may leave anything in its place: a retry opens a new window over
//! the same elements and overwrites them, and a call that fails leaves
//! `out` empty (its entry point's `run_into` clears it).

use super::phases::share_bounds;

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

    /// Open aggregated chunk `c`, which arrived `len` elements long, into
    /// its place: `open(first, dst)`, where `first` is the global index of
    /// its first element — its pad coordinate, what a whole-block pass
    /// would have used. Each chunk can be opened once: the first is free,
    /// every later one must be the cyclic predecessor of the one before —
    /// the ring's arrival order — so `nchunks` opens are `nchunks` distinct
    /// chunks, i.e. the whole window. That [`OutWindow::commit`] never
    /// keeps an element an earlier attempt or call left rests on this
    /// check, not on the transport's good behaviour.
    pub(crate) fn open<E>(
        &mut self,
        c: usize,
        len: usize,
        open: impl FnOnce(usize, &mut [T]) -> Result<(), E>,
    ) -> Result<(), E> {
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
        assert_eq!(len, e - s, "chunk {c} arrived with a wrong length");
        open(self.at + s, &mut self.out[s..e])
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

    impl<T: Copy> OutWindow<'_, T> {
        /// Open chunk `c` as the values `plain`.
        fn place(&mut self, c: usize, plain: &[T]) {
            let put = |_, dst: &mut [T]| {
                dst.copy_from_slice(plain);
                Ok::<_, ()>(())
            };
            self.open(c, plain.len(), put).unwrap();
        }
    }

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
