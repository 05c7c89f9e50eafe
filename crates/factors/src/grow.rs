//! Append-only segmented factor matrix for live serving snapshots.
//!
//! A hot-swappable serving path republishes its scan state on every
//! catalog change. Recopying an `items × K` [`FactorMatrix`] per publish
//! would make publish cost proportional to the *whole* catalog instead
//! of the *change*; [`GrowMatrix`] splits the matrix into an immutable
//! shared **base** (an `Arc<FactorMatrix>`, shared by every snapshot
//! that descends from it) and a **tail** of appended rows held as a
//! [`CowMatrix`] — [`COW_CHUNK_ROWS`]-row `Arc` chunks, shared between
//! snapshots the same way.
//!
//! * [`GrowMatrix::push_row`] appends to the tail — `O(K)`, plus one
//!   copy of the last tail chunk when an earlier clone still holds it;
//! * [`Clone`] bumps one refcount per segment — no row is copied, so a
//!   publish costs the same however many rows were added since the
//!   last compaction;
//! * [`GrowMatrix::row`] picks the segment by index — one branch;
//! * [`GrowMatrix::segments`] yields the base and then each tail chunk,
//!   every one contiguous row-major storage, so blocked scans run over
//!   whole blocks with no per-row indirection;
//! * [`GrowMatrix::compact`] folds the tail into a fresh base once it
//!   grows past a caller-chosen fraction, restoring one contiguous
//!   segment for scan-heavy readers.

use crate::cow::{CowMatrix, COW_CHUNK_ROWS};
use crate::matrix::FactorMatrix;
use std::sync::Arc;

/// A `rows × k` factor matrix stored as a shared immutable base plus a
/// chunk-shared growable tail (see the module docs).
#[derive(Debug, Clone)]
pub struct GrowMatrix {
    base: Arc<FactorMatrix>,
    tail: CowMatrix,
}

impl GrowMatrix {
    /// Wrap an owned matrix as the (initially tail-free) base.
    pub fn from_owned(m: FactorMatrix) -> GrowMatrix {
        GrowMatrix::from_shared(Arc::new(m))
    }

    /// Wrap an already-shared matrix as the base without copying.
    pub fn from_shared(m: Arc<FactorMatrix>) -> GrowMatrix {
        let k = m.k();
        GrowMatrix {
            base: m,
            tail: CowMatrix::zeros(0, k),
        }
    }

    /// Total logical rows (base + tail).
    #[inline]
    pub fn rows(&self) -> usize {
        self.base.rows() + self.tail.rows()
    }

    /// Rows in the shared base segment.
    #[inline]
    pub fn base_rows(&self) -> usize {
        self.base.rows()
    }

    /// Rows in the appended tail.
    #[inline]
    pub fn tail_rows(&self) -> usize {
        self.tail.rows()
    }

    /// Factor dimensionality `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.base.k()
    }

    /// Row `r`, wherever it lives.
    ///
    /// # Panics
    /// If `r >= rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let b = self.base.rows();
        if r < b {
            self.base.row(r)
        } else {
            self.tail.row(r - b)
        }
    }

    /// Append one row to the tail.
    ///
    /// # Panics
    /// If `row.len() != k()`.
    pub fn push_row(&mut self, row: &[f32]) {
        self.tail.push_row(row);
    }

    /// The segments in row order as `(first_row, segment)` pairs — the
    /// base, then every tail chunk; empty segments are skipped, so scan
    /// loops never see a zero-length block.
    pub fn segments(&self) -> impl Iterator<Item = (usize, &FactorMatrix)> {
        let base_rows = self.base.rows();
        let tail = self
            .tail
            .chunks()
            .iter()
            .enumerate()
            .map(move |(i, c)| (base_rows + i * COW_CHUNK_ROWS, &**c));
        std::iter::once((0usize, &*self.base))
            .chain(tail)
            .filter(|(_, m)| m.rows() > 0)
    }

    /// Fold the tail into a freshly allocated base so the matrix is one
    /// contiguous segment again. `O(rows × k)` — call when the tail has
    /// outgrown the segment-per-chunk cost, not on every append.
    pub fn compact(&mut self) {
        if self.tail.rows() == 0 {
            return;
        }
        let mut merged = FactorMatrix::zeros(self.rows(), self.k());
        let mut done = 0;
        for (_, seg) in self.segments() {
            let n = seg.as_slice().len();
            merged.as_mut_slice()[done..done + n].copy_from_slice(seg.as_slice());
            done += n;
        }
        *self = GrowMatrix::from_owned(merged);
    }

    /// Materialise one contiguous owned copy (tests, serialisation).
    pub fn to_dense(&self) -> FactorMatrix {
        let mut copy = self.clone();
        copy.compact();
        Arc::try_unwrap(copy.base).unwrap_or_else(|a| (*a).clone())
    }

    /// `(segments, bytes)` of this matrix that are *not* shared by
    /// pointer with `prev` — what deriving `self` from `prev` had to
    /// copy or append: at most one tail chunk per append run, the whole
    /// matrix after a [`compact`](Self::compact).
    pub fn copied_since(&self, prev: &GrowMatrix) -> (u64, u64) {
        let (mut segments, mut bytes) = self.tail.copied_since(&prev.tail);
        if !Arc::ptr_eq(&self.base, &prev.base) {
            segments += 1;
            bytes += std::mem::size_of_val(self.base.as_slice()) as u64;
        }
        (segments, bytes)
    }
}

impl PartialEq for GrowMatrix {
    /// Logical equality: same shape and same row contents, regardless of
    /// how rows are split between base and tail.
    fn eq(&self, other: &Self) -> bool {
        self.rows() == other.rows()
            && self.k() == other.k()
            && (0..self.rows()).all(|r| self.row(r) == other.row(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, k: usize) -> FactorMatrix {
        let mut m = FactorMatrix::zeros(rows, k);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        m
    }

    #[test]
    fn rows_span_base_and_tail() {
        let mut g = GrowMatrix::from_owned(filled(3, 2));
        g.push_row(&[10.0, 11.0]);
        g.push_row(&[12.0, 13.0]);
        assert_eq!(g.rows(), 5);
        assert_eq!(g.base_rows(), 3);
        assert_eq!(g.tail_rows(), 2);
        assert_eq!(g.row(0), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[4.0, 5.0]);
        assert_eq!(g.row(3), &[10.0, 11.0]);
        assert_eq!(g.row(4), &[12.0, 13.0]);
    }

    #[test]
    fn clone_shares_base_storage() {
        let mut g = GrowMatrix::from_owned(filled(4, 3));
        g.push_row(&[9.0; 3]);
        let c = g.clone();
        assert!(Arc::ptr_eq(&g.base, &c.base), "base must be shared");
        assert_eq!(g, c);
    }

    /// `base_rows` filled rows plus `extra` appended ones, row `r`
    /// holding `[r, r]`.
    fn grown(base_rows: usize, extra: usize) -> GrowMatrix {
        let mut base = FactorMatrix::zeros(base_rows, 2);
        for r in 0..base_rows {
            base.row_mut(r).fill(r as f32);
        }
        let mut g = GrowMatrix::from_owned(base);
        for r in base_rows..base_rows + extra {
            g.push_row(&[r as f32; 2]);
        }
        g
    }

    #[test]
    fn clone_shares_every_tail_chunk() {
        let g = grown(10, 2 * COW_CHUNK_ROWS + 5);
        let c = g.clone();
        assert_eq!(g.tail.num_chunks(), 3);
        for (a, b) in g.tail.chunks().iter().zip(c.tail.chunks()) {
            assert!(Arc::ptr_eq(a, b), "tail chunks must be shared");
        }
        assert_eq!(c.copied_since(&g), (0, 0));
    }

    #[test]
    fn push_after_clone_copies_exactly_one_chunk() {
        let prev = grown(10, 2 * COW_CHUNK_ROWS + 5);
        let mut next = prev.clone();
        next.push_row(&[-1.0; 2]);
        let chunk_bytes = |rows: usize| (rows * 2 * std::mem::size_of::<f32>()) as u64;
        assert_eq!(next.copied_since(&prev), (1, chunk_bytes(6)));
        assert_eq!(prev.rows() + 1, next.rows(), "clone must not grow");
        // A second push lands in the now-unique chunk: still one.
        next.push_row(&[-2.0; 2]);
        assert_eq!(next.copied_since(&prev).0, 1);
        // A push that opens a fresh chunk shares every older one.
        let full = grown(10, COW_CHUNK_ROWS);
        let mut opened = full.clone();
        opened.push_row(&[0.0; 2]);
        assert_eq!(opened.copied_since(&full), (1, chunk_bytes(1)));
        // Compaction copies the lot into one new base.
        let mut compacted = next.clone();
        compacted.compact();
        assert_eq!(
            compacted.copied_since(&next),
            (1, chunk_bytes(compacted.rows()))
        );
    }

    #[test]
    fn segments_tile_rows_exactly_once() {
        for (base_rows, extra) in [
            (0, 0),
            (0, 3),
            (7, 0),
            (7, COW_CHUNK_ROWS - 1),
            (7, COW_CHUNK_ROWS),
            (300, 2 * COW_CHUNK_ROWS + 9),
        ] {
            let mut g = grown(base_rows, extra);
            for compacted in [false, true] {
                if compacted {
                    g.compact();
                    assert!(g.segments().count() <= 1);
                }
                let mut next_row = 0;
                for (start, seg) in g.segments() {
                    assert_eq!(start, next_row, "segments must be gap-free and ordered");
                    assert!(seg.rows() > 0);
                    assert!(start == 0 || seg.rows() <= COW_CHUNK_ROWS);
                    for r in 0..seg.rows() {
                        assert_eq!(seg.row(r), &[(start + r) as f32; 2]);
                        assert_eq!(seg.row(r), g.row(start + r));
                    }
                    next_row += seg.rows();
                }
                assert_eq!(next_row, g.rows());
                assert_eq!(g.rows(), base_rows + extra);
            }
        }
    }

    #[test]
    fn clone_then_diverge() {
        let mut a = GrowMatrix::from_owned(filled(2, 2));
        let mut b = a.clone();
        a.push_row(&[1.0, 1.0]);
        b.push_row(&[2.0, 2.0]);
        assert_eq!(a.rows(), 3);
        assert_eq!(b.rows(), 3);
        assert_eq!(a.row(2), &[1.0, 1.0]);
        assert_eq!(b.row(2), &[2.0, 2.0]);
        assert_ne!(a, b);
    }

    #[test]
    fn compact_preserves_contents() {
        let mut g = GrowMatrix::from_owned(filled(3, 2));
        g.push_row(&[7.0, 8.0]);
        let before: Vec<Vec<f32>> = (0..g.rows()).map(|r| g.row(r).to_vec()).collect();
        g.compact();
        assert_eq!(g.tail_rows(), 0);
        assert_eq!(g.segments().count(), 1);
        for (r, row) in before.iter().enumerate() {
            assert_eq!(g.row(r), row.as_slice());
        }
    }

    #[test]
    fn segments_skip_empty() {
        let g = GrowMatrix::from_owned(filled(2, 2));
        let segs: Vec<(usize, usize)> = g.segments().map(|(s, m)| (s, m.rows())).collect();
        assert_eq!(segs, vec![(0, 2)]);
        let mut g = GrowMatrix::from_owned(FactorMatrix::zeros(0, 2));
        g.push_row(&[1.0, 2.0]);
        let segs: Vec<(usize, usize)> = g.segments().map(|(s, m)| (s, m.rows())).collect();
        assert_eq!(segs, vec![(0, 1)]);
    }

    #[test]
    fn logical_equality_ignores_segmentation() {
        let mut a = GrowMatrix::from_owned(filled(2, 2));
        a.push_row(&[4.0, 5.0]);
        let b = GrowMatrix::from_owned(filled(3, 2));
        assert_eq!(a, b);
        assert_eq!(a.to_dense(), filled(3, 2));
    }

    #[test]
    #[should_panic]
    fn push_row_checks_width() {
        let mut g = GrowMatrix::from_owned(filled(1, 3));
        g.push_row(&[1.0, 2.0]);
    }
}
