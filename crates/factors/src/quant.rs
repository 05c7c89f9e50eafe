//! Chunked int8-quantized factor storage for first-pass scans.
//!
//! [`QuantMatrix`] is the int8 shadow of a table of item factors:
//! each row is affinely quantized on its own — per-row `min` and
//! `scale`, 256 levels — and the codes are stored in the same
//! fixed-size `Arc`-shared chunk layout as [`crate::CowMatrix`]
//! ([`COW_CHUNK_ROWS`] rows per chunk, boundaries a pure function of
//! the row count). That mirroring is the point: deriving a successor
//! matrix after a live catalog append re-quantizes **only the touched
//! tail chunk** ([`QuantMatrix::push_row`] copies a shared tail via
//! `Arc::make_mut`, exactly like `CowMatrix`), so O(change) publishes
//! keep holding for the quantized table too.
//!
//! ## Encoding
//!
//! A row `x` with minimum `min` and range `range = max − min` stores,
//! per element, the code `c = round((x − min) / scale) − 128` as `i8`,
//! where `scale = range / 255` (so the 256 levels tile the range).
//! Dequantization is `x̂ = min + scale · (c + 128)`; the −128 shift
//! keeps codes in `i8` so an `i8 × i8 → i32` integer dot product (the
//! scan kernel) stays exact. Constant rows (range 0, including all-zero
//! rows) store `scale = 0` and codes of 0 — dequantization returns
//! `min` exactly and every scale-dependent term degenerates to 0.
//!
//! Per-element round-trip error is bounded by `scale / 2` (the
//! quantization grid's half step) plus float rounding on the order of
//! an ulp — see `crates/core/tests/proptest_quant.rs` for the law as
//! tested. Inputs must be finite.
//!
//! ## Error-bound stats
//!
//! Each row also stores its Σ|x̂| over the dequantized values
//! ([`QuantChunk::abs_sum`]): together with the row's `scale` this
//! lets a scan that pairs a quantized query with this table compute a
//! rigorous **per-row** upper bound on the exact score and *prove*
//! its candidate pool covered the exact top-K (see the quantized
//! backend in `taxrec-core`). The matrix additionally maintains two
//! monotone running maxima — [`max_scale`](QuantMatrix::max_scale)
//! (coarsest quantization grid) and
//! [`max_abs_sum`](QuantMatrix::max_abs_sum) (largest per-row Σ|x̂|) —
//! the table-wide, conservative form of the same bound.

use crate::cow::COW_CHUNK_ROWS;
use std::sync::Arc;

/// One chunk of up to [`COW_CHUNK_ROWS`] quantized rows: the `i8`
/// codes plus the per-row `(min, scale)` dequantization parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantChunk {
    codes: Vec<i8>,
    mins: Vec<f32>,
    scales: Vec<f32>,
    abs_sums: Vec<f32>,
    k: usize,
}

impl QuantChunk {
    fn new(k: usize) -> QuantChunk {
        QuantChunk {
            codes: Vec::new(),
            mins: Vec::new(),
            scales: Vec::new(),
            abs_sums: Vec::new(),
            k,
        }
    }

    /// Rows held by this chunk.
    #[inline]
    pub fn rows(&self) -> usize {
        self.mins.len()
    }

    /// The `i8` codes of row `r` (length `k`).
    #[inline]
    pub fn codes(&self, r: usize) -> &[i8] {
        &self.codes[r * self.k..(r + 1) * self.k]
    }

    /// All codes of this chunk, row-major (`rows() * k` values) — the
    /// layout block scan kernels consume directly.
    #[inline]
    pub fn flat_codes(&self) -> &[i8] {
        &self.codes
    }

    /// Row `r`'s dequantization offset (the row minimum).
    #[inline]
    pub fn min(&self, r: usize) -> f32 {
        self.mins[r]
    }

    /// All row minima of this chunk (length [`rows`](Self::rows)) —
    /// the contiguous layout block combines consume directly.
    #[inline]
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// All row scales of this chunk (length [`rows`](Self::rows)).
    #[inline]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Row `r`'s dequantization step (0 for constant rows).
    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Row `r`'s Σ|x̂| over its dequantized values — the per-row
    /// ingredient of the scan's rigorous score upper bound (rounded
    /// once to f32; consumers inflate for the cast).
    #[inline]
    pub fn abs_sum(&self, r: usize) -> f32 {
        self.abs_sums[r]
    }
}

/// Quantize one row into `codes`, returning `(min, scale, abs_sum)`
/// where `abs_sum = Σ |x̂|` over the *dequantized* values (computed in
/// f64 so extreme-range rows cannot overflow).
fn quantize_into(row: &[f32], codes: &mut [i8]) -> (f32, f32, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in row {
        lo = lo.min(x as f64);
        hi = hi.max(x as f64);
    }
    let range = hi - lo;
    if range > 0.0 {
        // `scale` is rounded to f32 once and then used (widened) for
        // both encode and decode, so the grid the codes were rounded
        // to is exactly the grid dequantization reads back.
        let scale = (range / 255.0) as f32;
        let s64 = scale as f64;
        let mut abs_sum = 0.0f64;
        for (c, &x) in codes.iter_mut().zip(row) {
            let q = ((x as f64 - lo) / s64).round().clamp(0.0, 255.0);
            *c = (q as i32 - 128) as i8;
            abs_sum += (lo + s64 * q).abs();
        }
        (lo as f32, scale, abs_sum)
    } else {
        // Constant row (range 0): scale 0 makes dequantization exact
        // (`min` itself) and zeroes the code term of any integer-dot
        // combine, whatever the codes say.
        codes.fill(0);
        let min = if lo.is_finite() { lo } else { 0.0 };
        (min as f32, 0.0, min.abs() * row.len() as f64)
    }
}

/// A `rows × k` int8-quantized matrix in `Arc`-shared
/// [`COW_CHUNK_ROWS`]-row chunks (see the module docs).
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    chunks: Vec<Arc<QuantChunk>>,
    rows: usize,
    k: usize,
    max_scale: f64,
    max_abs_sum: f64,
}

impl QuantMatrix {
    /// An empty matrix of width `k`.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(k: usize) -> QuantMatrix {
        assert!(k > 0, "factor dimension must be positive");
        QuantMatrix {
            chunks: Vec::new(),
            rows: 0,
            k,
            max_scale: 0.0,
            max_abs_sum: 0.0,
        }
    }

    /// Quantize every row of an iterator of `&[f32]` rows (the bulk
    /// construction path — engine build / replay).
    pub fn from_rows<'a, I>(k: usize, rows: I) -> QuantMatrix
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut m = QuantMatrix::new(k);
        for row in rows {
            m.push_row(row);
        }
        m
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

    /// The chunks in row order.
    pub fn chunks(&self) -> &[Arc<QuantChunk>] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Largest per-row quantization step ever held (monotone).
    #[inline]
    pub fn max_scale(&self) -> f64 {
        self.max_scale
    }

    /// Largest per-row Σ|x̂| over dequantized values ever held
    /// (monotone).
    #[inline]
    pub fn max_abs_sum(&self) -> f64 {
        self.max_abs_sum
    }

    /// Quantize and append one row. Opens a fresh tail chunk at chunk
    /// boundaries; otherwise copies the tail chunk if shared, then
    /// appends — identical sharing discipline to
    /// [`crate::CowMatrix::push_row`].
    ///
    /// # Panics
    /// If `row.len() != k()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.k, "row width {} != K {}", row.len(), self.k);
        let mut codes = vec![0i8; self.k];
        let (min, scale, abs_sum) = quantize_into(row, &mut codes);
        self.max_scale = self.max_scale.max(scale as f64);
        self.max_abs_sum = self.max_abs_sum.max(abs_sum);
        let chunk = if self.rows.is_multiple_of(COW_CHUNK_ROWS) {
            self.chunks.push(Arc::new(QuantChunk::new(self.k)));
            Arc::make_mut(self.chunks.last_mut().expect("just pushed"))
        } else {
            Arc::make_mut(self.chunks.last_mut().expect("partial tail chunk"))
        };
        chunk.codes.extend_from_slice(&codes);
        chunk.mins.push(min);
        chunk.scales.push(scale);
        chunk.abs_sums.push(abs_sum as f32);
        self.rows += 1;
    }

    /// The `i8` codes of row `r`.
    ///
    /// # Panics
    /// If `r >= rows()`.
    #[inline]
    pub fn codes(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        self.chunks[r / COW_CHUNK_ROWS].codes(r % COW_CHUNK_ROWS)
    }

    /// Row `r`'s `(min, scale)` dequantization parameters.
    ///
    /// # Panics
    /// If `r >= rows()`.
    #[inline]
    pub fn params(&self, r: usize) -> (f32, f32) {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        let c = &self.chunks[r / COW_CHUNK_ROWS];
        (c.min(r % COW_CHUNK_ROWS), c.scale(r % COW_CHUNK_ROWS))
    }

    /// Dequantize row `r`: `x̂_j = min + scale · (c_j + 128)`, computed
    /// in f64 and rounded once to f32.
    ///
    /// # Panics
    /// If `r >= rows()`.
    pub fn dequantize_row(&self, r: usize) -> Vec<f32> {
        let (min, scale) = self.params(r);
        let (min, scale) = (min as f64, scale as f64);
        self.codes(r)
            .iter()
            .map(|&c| (min + scale * (c as i32 + 128) as f64) as f32)
            .collect()
    }

    /// `(shared, unshared)` chunk counts vs `other`, by pointer —
    /// the same sharing proof as
    /// [`crate::CowMatrix::shared_chunks_with`].
    pub fn shared_chunks_with(&self, other: &QuantMatrix) -> (u64, u64) {
        let shared = self
            .chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count() as u64;
        (shared, self.chunks.len() as u64 - shared)
    }
}

impl PartialEq for QuantMatrix {
    /// Logical equality: same shape, same codes and parameters. The
    /// running maxima are derived state and not compared.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.k == other.k
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rowf(i: usize, k: usize) -> Vec<f32> {
        (0..k).map(|j| (i * k + j) as f32 * 0.37 - 3.0).collect()
    }

    #[test]
    fn round_trip_error_is_within_half_a_step() {
        let row: Vec<f32> = vec![-1.5, 0.0, 0.25, 7.75, 3.3, -0.01];
        let m = QuantMatrix::from_rows(row.len(), [row.as_slice()]);
        let (_, scale) = m.params(0);
        let back = m.dequantize_row(0);
        for (x, x2) in row.iter().zip(&back) {
            assert!(
                (x - x2).abs() <= scale / 2.0 * 1.0001,
                "{x} -> {x2} (scale {scale})"
            );
        }
    }

    #[test]
    fn constant_and_zero_rows_are_exact_with_zero_scale() {
        for row in [vec![0.0f32; 5], vec![2.5f32; 5], vec![-7.0f32; 5]] {
            let m = QuantMatrix::from_rows(5, [row.as_slice()]);
            let (min, scale) = m.params(0);
            assert_eq!(scale, 0.0);
            assert_eq!(min, row[0]);
            assert_eq!(m.dequantize_row(0), row);
            assert_eq!(m.codes(0), &[0i8; 5]);
        }
    }

    #[test]
    fn extreme_range_rows_stay_finite() {
        let row = [f32::MIN, f32::MAX, 0.0];
        let m = QuantMatrix::from_rows(3, [row.as_slice()]);
        let (_, scale) = m.params(0);
        assert!(scale.is_finite() && scale > 0.0);
        for v in m.dequantize_row(0) {
            assert!(v.is_finite());
        }
        assert!(m.max_abs_sum().is_finite());
    }

    #[test]
    fn chunk_layout_is_determined_by_row_count() {
        let n = 2 * COW_CHUNK_ROWS + 7;
        let rows: Vec<Vec<f32>> = (0..n).map(|i| rowf(i, 3)).collect();
        let bulk = QuantMatrix::from_rows(3, rows.iter().map(Vec::as_slice));
        let mut live = QuantMatrix::new(3);
        for r in &rows {
            live.push_row(r);
        }
        assert_eq!(bulk, live);
        assert_eq!(bulk.num_chunks(), n.div_ceil(COW_CHUNK_ROWS));
        assert_eq!(bulk.num_chunks(), live.num_chunks());
        assert_eq!(bulk.max_scale(), live.max_scale());
        assert_eq!(bulk.max_abs_sum(), live.max_abs_sum());
    }

    #[test]
    fn push_on_a_clone_copies_only_the_tail_chunk() {
        let n = COW_CHUNK_ROWS + 3;
        let rows: Vec<Vec<f32>> = (0..n).map(|i| rowf(i, 2)).collect();
        let base = QuantMatrix::from_rows(2, rows.iter().map(Vec::as_slice));
        let mut grown = base.clone();
        grown.push_row(&[9.0, -9.0]);
        let (shared, copied) = grown.shared_chunks_with(&base);
        assert_eq!((shared, copied), (1, 1));
        assert_eq!(base.rows(), n, "clone must not grow");
        assert_eq!(grown.rows(), n + 1);
    }

    #[test]
    fn running_maxima_are_monotone() {
        let mut m = QuantMatrix::new(2);
        m.push_row(&[0.0, 255.0]); // scale 1.0
        assert!((m.max_scale() - 1.0).abs() < 1e-9);
        m.push_row(&[0.0, 2.55]); // finer grid must not lower the max
        assert!((m.max_scale() - 1.0).abs() < 1e-9);
        assert!(m.max_abs_sum() >= 255.0);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_row_checks_width() {
        let mut m = QuantMatrix::new(3);
        m.push_row(&[1.0, 2.0]);
    }
}
