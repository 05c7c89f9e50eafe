//! Chunked copy-on-write factor storage for persistent models.
//!
//! The live-serving path derives a successor model from the current one
//! on every publish. Deep-copying an `N × K` [`FactorMatrix`] there
//! makes publish cost `O(model)`; [`CowMatrix`] makes it `O(rows
//! touched)` by splitting the rows into fixed-size chunks, each behind
//! an `Arc`:
//!
//! * [`Clone`] bumps one refcount per chunk — no factor is copied;
//! * [`CowMatrix::row_mut`] copies **one chunk** if (and only if) it is
//!   shared with another clone, then mutates in place;
//! * [`CowMatrix::push_row`] appends to the last (tail) chunk, opening
//!   a fresh chunk when the tail is full — `O(K)` amortised, `O(chunk)`
//!   worst case when the tail is shared;
//! * chunk boundaries depend only on the row count, so two logically
//!   equal matrices always agree on layout (replay reproduces not just
//!   the values but the chunking).
//!
//! The chunk size trades publish cost against read indirection: every
//! mutation copies at most `COW_CHUNK_ROWS × K` floats, while `row()`
//! pays one division + one extra pointer chase over a flat matrix.
//! Chunks are always full except the tail, so a long-lived update
//! stream never fragments the storage and nothing ever needs
//! compacting; a blocked scan walks [`CowMatrix::chunks`] as whole
//! contiguous blocks with no per-row indirection.

use crate::matrix::FactorMatrix;
use std::sync::Arc;

/// Rows per chunk. A power of two so the row→chunk split compiles to a
/// shift+mask. At `K = 32` a chunk is 32 KiB — one mutation copies at
/// most that, independent of catalog size.
pub const COW_CHUNK_ROWS: usize = 256;

/// A `rows × k` matrix stored as `Arc`-shared fixed-size row chunks
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct CowMatrix {
    chunks: Vec<Arc<FactorMatrix>>,
    rows: usize,
    k: usize,
}

impl CowMatrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, k: usize) -> CowMatrix {
        let chunks = (0..rows)
            .step_by(COW_CHUNK_ROWS)
            .map(|first| FactorMatrix::zeros(COW_CHUNK_ROWS.min(rows - first), k))
            .collect();
        CowMatrix::from_chunks(k, chunks)
    }

    /// Split a dense matrix into chunks (one copy; startup/decode path).
    pub fn from_dense(m: FactorMatrix) -> CowMatrix {
        let k = m.k();
        let chunks = m
            .as_slice()
            .chunks(COW_CHUNK_ROWS * k)
            .map(|flat| {
                let mut chunk = FactorMatrix::zeros(flat.len() / k, k);
                chunk.as_mut_slice().copy_from_slice(flat);
                chunk
            })
            .collect();
        CowMatrix::from_chunks(k, chunks)
    }

    /// Take ownership of row chunks built in row order (the bulk path:
    /// a table computed chunk by chunk is shared as-is, never copied).
    ///
    /// # Panics
    /// If `k == 0`, a chunk is not `k` wide, or the chunks break the
    /// layout every other constructor keeps: each holds exactly
    /// [`COW_CHUNK_ROWS`] rows except the last, which holds `1..=`
    /// that many.
    pub fn from_chunks(k: usize, chunks: Vec<FactorMatrix>) -> CowMatrix {
        assert!(k > 0, "factor dimension must be positive");
        let last = chunks.len().saturating_sub(1);
        let mut rows = 0;
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.k(), k, "chunk {i} width {} != K {k}", c.k());
            let full = c.rows() == COW_CHUNK_ROWS;
            assert!(
                full || (i == last && c.rows() > 0),
                "chunk {i} of {} holds {} rows: only the last may be short, and none empty",
                chunks.len(),
                c.rows()
            );
            rows += c.rows();
        }
        CowMatrix {
            chunks: chunks.into_iter().map(Arc::new).collect(),
            rows,
            k,
        }
    }

    /// Materialise one contiguous owned copy (training, tests).
    pub fn to_dense(&self) -> FactorMatrix {
        let mut m = FactorMatrix::zeros(self.rows, self.k);
        let mut done = 0;
        for chunk in &self.chunks {
            let n = chunk.as_slice().len();
            m.as_mut_slice()[done..done + n].copy_from_slice(chunk.as_slice());
            done += n;
        }
        m
    }

    /// A fully independent copy: every chunk is reallocated, nothing is
    /// shared with `self`. This is what `Clone` *would* cost without
    /// structural sharing — benches use it as the O(model) baseline.
    pub fn deep_clone(&self) -> CowMatrix {
        CowMatrix {
            chunks: self
                .chunks
                .iter()
                .map(|c| Arc::new(FactorMatrix::clone(c)))
                .collect(),
            rows: self.rows,
            k: self.k,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Factor dimensionality `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Immutable row view.
    ///
    /// # Panics
    /// If `r >= rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        self.chunks[r / COW_CHUNK_ROWS].row(r % COW_CHUNK_ROWS)
    }

    /// Mutable row view. Copies the owning chunk first if it is shared
    /// with another clone (`O(COW_CHUNK_ROWS × K)` worst case, nothing
    /// if the chunk is already unique).
    ///
    /// # Panics
    /// If `r >= rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        Arc::make_mut(&mut self.chunks[r / COW_CHUNK_ROWS]).row_mut(r % COW_CHUNK_ROWS)
    }

    /// Append one row. Opens a fresh tail chunk, with room for a full
    /// chunk of rows, when the current one is full; otherwise copies
    /// the tail chunk if shared, then appends.
    ///
    /// # Panics
    /// If `row.len() != k()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.k, "row width {} != K {}", row.len(), self.k);
        if self.rows.is_multiple_of(COW_CHUNK_ROWS) {
            let mut chunk = FactorMatrix::with_capacity(COW_CHUNK_ROWS, self.k);
            chunk.push_row(row);
            self.chunks.push(Arc::new(chunk));
        } else {
            Arc::make_mut(self.chunks.last_mut().expect("partial tail chunk")).push_row(row);
        }
        self.rows += 1;
    }

    /// The chunks in row order (each chunk is contiguous row-major
    /// storage; serialisation walks these instead of materialising).
    pub fn chunks(&self) -> &[Arc<FactorMatrix>] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Iterate every value in row-major order.
    pub fn values(&self) -> impl Iterator<Item = f32> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.as_slice().iter().copied())
    }

    /// Factor-storage bytes split into `(shared, owned)`: a chunk whose
    /// `Arc` has more than one strong reference is *shared* (another
    /// clone or snapshot also holds it); a uniquely held chunk is
    /// *owned*. The memory-footprint surface behind the
    /// `taxrec_model_bytes` gauges.
    pub fn byte_sizes(&self) -> (u64, u64) {
        let mut shared = 0u64;
        let mut owned = 0u64;
        for c in &self.chunks {
            let bytes = std::mem::size_of_val(c.as_slice()) as u64;
            if Arc::strong_count(c) > 1 {
                shared += bytes;
            } else {
                owned += bytes;
            }
        }
        (shared, owned)
    }

    /// How much storage this matrix shares with `other`, by pointer:
    /// `(shared, unshared)` chunk counts over `self`'s chunks. A chunk
    /// is *shared* when the same `Arc` appears at the same position in
    /// `other` — the proof that deriving `self` from `other` copied
    /// only the unshared ones.
    pub fn shared_chunks_with(&self, other: &CowMatrix) -> (u64, u64) {
        let (copied, _) = self.copied_since(other);
        (self.chunks.len() as u64 - copied, copied)
    }

    /// `(chunks, bytes)` of this matrix that are *not* shared by
    /// pointer with `prev` at the same position — what deriving `self`
    /// from `prev` had to copy or append.
    pub fn copied_since(&self, prev: &CowMatrix) -> (u64, u64) {
        let mut prev_chunks = prev.chunks.iter();
        let (mut chunks, mut bytes) = (0u64, 0u64);
        for c in &self.chunks {
            if !prev_chunks.next().is_some_and(|p| Arc::ptr_eq(c, p)) {
                chunks += 1;
                bytes += std::mem::size_of_val(c.as_slice()) as u64;
            }
        }
        (chunks, bytes)
    }
}

impl PartialEq for CowMatrix {
    /// Logical equality: same shape, same row contents. (Chunk layout is
    /// determined by the row count, so it always agrees too.)
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.k == other.k
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a.as_slice() == b.as_slice())
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
    fn from_dense_roundtrips_across_chunk_boundaries() {
        for rows in [
            0,
            1,
            COW_CHUNK_ROWS - 1,
            COW_CHUNK_ROWS,
            COW_CHUNK_ROWS + 1,
            1000,
        ] {
            let dense = filled(rows, 3);
            let cow = CowMatrix::from_dense(dense.clone());
            assert_eq!(cow.rows(), rows);
            assert_eq!(cow.num_chunks(), rows.div_ceil(COW_CHUNK_ROWS));
            assert_eq!(cow.to_dense(), dense);
            for r in 0..rows {
                assert_eq!(cow.row(r), dense.row(r));
            }
        }
    }

    #[test]
    fn clone_shares_every_chunk_mutation_copies_one() {
        let mut a = CowMatrix::from_dense(filled(3 * COW_CHUNK_ROWS, 2));
        let b = a.clone();
        assert_eq!(a.shared_chunks_with(&b), (3, 0));
        a.row_mut(COW_CHUNK_ROWS + 1)[0] = -1.0;
        assert_eq!(a.shared_chunks_with(&b), (2, 1));
        assert!(Arc::ptr_eq(&a.chunks()[0], &b.chunks()[0]));
        assert!(!Arc::ptr_eq(&a.chunks()[1], &b.chunks()[1]));
        assert!(Arc::ptr_eq(&a.chunks()[2], &b.chunks()[2]));
        // b is untouched by a's write.
        assert_eq!(
            b.row(COW_CHUNK_ROWS + 1)[0],
            (COW_CHUNK_ROWS as f32 + 1.0) * 2.0
        );
        assert_eq!(a.row(COW_CHUNK_ROWS + 1)[0], -1.0);
    }

    #[test]
    fn push_row_grows_tail_and_opens_chunks() {
        let mut m = CowMatrix::zeros(0, 2);
        assert_eq!(m.num_chunks(), 0);
        for i in 0..(COW_CHUNK_ROWS + 2) {
            m.push_row(&[i as f32, 0.0]);
        }
        assert_eq!(m.rows(), COW_CHUNK_ROWS + 2);
        assert_eq!(m.num_chunks(), 2);
        assert_eq!(m.row(COW_CHUNK_ROWS)[0], COW_CHUNK_ROWS as f32);
        // Appending to a shared tail copies only the tail chunk.
        let before = m.clone();
        m.push_row(&[9.0, 9.0]);
        let (shared, copied) = m.shared_chunks_with(&before);
        assert_eq!((shared, copied), (1, 1));
        assert_eq!(before.rows(), COW_CHUNK_ROWS + 2, "clone must not grow");
    }

    #[test]
    fn push_after_clone_copies_exactly_one_chunk() {
        let chunk_bytes = |rows: usize| (rows * 2 * std::mem::size_of::<f32>()) as u64;
        let prev = CowMatrix::from_dense(filled(2 * COW_CHUNK_ROWS + 5, 2));
        assert_eq!(prev.clone().copied_since(&prev), (0, 0));
        let mut next = prev.clone();
        next.push_row(&[-1.0; 2]);
        assert_eq!(next.copied_since(&prev), (1, chunk_bytes(6)));
        // A second push lands in the now-unique chunk: still one.
        next.push_row(&[-2.0; 2]);
        assert_eq!(next.copied_since(&prev), (1, chunk_bytes(7)));
        // A push that opens a fresh chunk shares every older one.
        let full = CowMatrix::from_dense(filled(COW_CHUNK_ROWS, 2));
        let mut opened = full.clone();
        opened.push_row(&[0.0; 2]);
        assert_eq!(opened.copied_since(&full), (1, chunk_bytes(1)));
    }

    #[test]
    fn chunk_layout_is_determined_by_row_count() {
        // Built by split, by append and from chunks filled in place:
        // identical layout and values.
        for rows in [
            0,
            1,
            COW_CHUNK_ROWS,
            COW_CHUNK_ROWS + 1,
            2 * COW_CHUNK_ROWS + 7,
        ] {
            let dense = filled(rows, 2);
            let split = CowMatrix::from_dense(dense.clone());
            let mut pushed = CowMatrix::zeros(0, 2);
            for r in 0..rows {
                pushed.push_row(dense.row(r));
            }
            let mut chunks: Vec<FactorMatrix> = Vec::new();
            for r in 0..rows {
                if r % COW_CHUNK_ROWS == 0 {
                    chunks.push(FactorMatrix::with_capacity(COW_CHUNK_ROWS, 2));
                }
                chunks.last_mut().unwrap().push_row(dense.row(r));
            }
            let from_chunks = CowMatrix::from_chunks(2, chunks);
            for built in [&pushed, &from_chunks] {
                assert_eq!(&split, built, "{rows} rows");
                assert_eq!(split.rows(), built.rows());
                assert_eq!(split.num_chunks(), built.num_chunks());
                for (a, b) in split.chunks().iter().zip(built.chunks()) {
                    assert_eq!(a.rows(), b.rows());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "only the last may be short")]
    fn from_chunks_rejects_a_short_middle_chunk() {
        let _ = CowMatrix::from_chunks(
            2,
            vec![
                filled(COW_CHUNK_ROWS, 2),
                filled(COW_CHUNK_ROWS - 1, 2),
                filled(3, 2),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "none empty")]
    fn from_chunks_rejects_an_empty_tail_chunk() {
        let _ = CowMatrix::from_chunks(2, vec![filled(COW_CHUNK_ROWS, 2), filled(0, 2)]);
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let a = CowMatrix::from_dense(filled(COW_CHUNK_ROWS + 5, 2));
        let b = a.deep_clone();
        assert_eq!(a, b);
        assert_eq!(a.shared_chunks_with(&b), (0, 2));
    }

    #[test]
    fn values_iterates_row_major() {
        let dense = filled(COW_CHUNK_ROWS + 3, 2);
        let cow = CowMatrix::from_dense(dense.clone());
        let vals: Vec<f32> = cow.values().collect();
        assert_eq!(vals.as_slice(), dense.as_slice());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_row_checks_width() {
        let mut m = CowMatrix::zeros(0, 3);
        m.push_row(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn row_bounds_checked() {
        let m = CowMatrix::zeros(5, 2);
        let _ = m.row(5);
    }
}
