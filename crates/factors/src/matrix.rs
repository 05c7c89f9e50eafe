//! Plain dense factor matrix.

use rand::Rng;

/// A `rows × k` matrix of `f32` factors in contiguous row-major storage.
///
/// Rows are user/node latent vectors. Factors are initialised from a
/// Gaussian `N(0, σ)` as in the paper's prior; σ defaults to `0.1`.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorMatrix {
    data: Vec<f32>,
    rows: usize,
    k: usize,
}

impl FactorMatrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, k: usize) -> Self {
        assert!(k > 0, "factor dimension must be positive");
        FactorMatrix {
            data: vec![0.0; rows * k],
            rows,
            k,
        }
    }

    /// Empty (zero-row) matrix with room for `rows` rows, so filling it
    /// by [`push_row`](Self::push_row) never reallocates.
    pub fn with_capacity(rows: usize, k: usize) -> Self {
        assert!(k > 0, "factor dimension must be positive");
        FactorMatrix {
            data: Vec::with_capacity(rows * k),
            rows: 0,
            k,
        }
    }

    /// Gaussian-initialised matrix, entries `~ N(0, sigma)`.
    pub fn gaussian<R: Rng + ?Sized>(rows: usize, k: usize, sigma: f32, rng: &mut R) -> Self {
        let mut m = Self::zeros(rows, k);
        // Box–Muller, two values per draw; avoids a distributions dep.
        let mut i = 0;
        while i < m.data.len() {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0f32..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            m.data[i] = sigma * r * theta.cos();
            if i + 1 < m.data.len() {
                m.data[i + 1] = sigma * r * theta.sin();
            }
            i += 2;
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

    /// Immutable row view.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.k..(r + 1) * self.k]
    }

    /// Mutable row view.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.k..(r + 1) * self.k]
    }

    /// Two distinct mutable rows at once (for pairwise updates).
    ///
    /// # Panics
    /// If `a == b`.
    pub fn rows_mut2(&mut self, a: usize, b: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(a, b, "rows_mut2 requires distinct rows");
        let k = self.k;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * k);
            (&mut lo[a * k..(a + 1) * k], &mut hi[..k])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * k);
            let (bs, as_) = (&mut lo[b * k..(b + 1) * k], &mut hi[..k]);
            (as_, bs)
        }
    }

    /// Append one row (the dynamic-catalog path: new items and folded-in
    /// users arrive one row at a time).
    ///
    /// # Panics
    /// If `row.len() != k()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.k, "row width {} != K {}", row.len(), self.k);
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Raw storage (row-major), e.g. for serialisation or t-SNE input.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Raw mutable storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Frobenius norm squared (the regulariser over a whole matrix).
    pub fn frob_norm_sq(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// Mean of all entries (used in tests to sanity-check init).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape() {
        let m = FactorMatrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.k(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_views_are_disjoint_slices() {
        let mut m = FactorMatrix::zeros(3, 2);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        assert_eq!(m.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn rows_mut2_both_orders() {
        let mut m = FactorMatrix::zeros(4, 2);
        {
            let (a, b) = m.rows_mut2(0, 3);
            a[0] = 1.0;
            b[0] = 2.0;
        }
        {
            let (a, b) = m.rows_mut2(3, 0);
            assert_eq!(a[0], 2.0);
            assert_eq!(b[0], 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn rows_mut2_same_row_panics() {
        let mut m = FactorMatrix::zeros(2, 2);
        let _ = m.rows_mut2(1, 1);
    }

    #[test]
    fn gaussian_statistics() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = FactorMatrix::gaussian(200, 50, 0.1, &mut rng);
        let n = m.as_slice().len() as f64;
        let mean = m.mean();
        let var = m
            .as_slice()
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "sd {}", var.sqrt());
    }

    #[test]
    fn gaussian_deterministic_per_seed() {
        let a = FactorMatrix::gaussian(5, 3, 0.1, &mut StdRng::seed_from_u64(9));
        let b = FactorMatrix::gaussian(5, 3, 0.1, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn gaussian_odd_element_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = FactorMatrix::gaussian(3, 3, 1.0, &mut rng); // 9 entries, odd
        assert_eq!(m.as_slice().len(), 9);
        assert!(m.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn frob_norm() {
        let mut m = FactorMatrix::zeros(2, 2);
        m.row_mut(0).copy_from_slice(&[3.0, 0.0]);
        m.row_mut(1).copy_from_slice(&[0.0, 4.0]);
        assert!((m.frob_norm_sq() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn with_capacity_fills_by_push_without_reallocating() {
        let mut m = FactorMatrix::with_capacity(3, 2);
        assert_eq!(m.rows(), 0);
        let reserved = m.as_slice().as_ptr();
        for r in 0..3 {
            m.push_row(&[r as f32, -(r as f32)]);
        }
        assert_eq!(m.as_slice().as_ptr(), reserved);
        assert_eq!(m.row(2), &[2.0, -2.0]);
    }

    #[test]
    fn zero_rows_allowed() {
        let m = FactorMatrix::zeros(0, 4);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.frob_norm_sq(), 0.0);
    }
}
