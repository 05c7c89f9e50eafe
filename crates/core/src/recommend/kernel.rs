//! Runtime-dispatched scan kernels: explicit SIMD f32 dot products and
//! the exact int8 kernels behind the quantized first-pass scan.
//!
//! ## Bit-invariant dispatch
//!
//! Every f32 kernel here reproduces [`ops::dot`]'s lane-split
//! summation **bit for bit**: [`ops::DOT_LANES`] independent
//! accumulators walked in stride, the tail folded into lanes
//! `0..tail_len`, and [`ops::reduce_lanes`]' fixed pairwise tree. The
//! AVX2 variant vertically accumulates one 8-lane vector with
//! `mul + add` (never FMA — fusing changes the rounding) in the same
//! per-lane order, so forcing the kernel with
//! [`TAXREC_SCAN_KERNEL`](F32Kernel::select) can never change a served
//! score, id, or tie-break. The int8 kernels are exact integer
//! arithmetic, so they are dispatch-invariant trivially.
//!
//! Selection happens **once at engine construction**
//! ([`F32Kernel::select`]): the `TAXREC_SCAN_KERNEL` environment
//! variable (`scalar` | `simd`) wins, otherwise runtime CPU feature
//! detection picks the widest available kernel. Tests force both sides
//! through the env var or
//! [`RecommendEngine::set_scan_kernel`](super::RecommendEngine::set_scan_kernel).

use super::topk::score_block_into;
use taxrec_factors::ops;

/// Environment variable that forces the f32 scan kernel: `scalar`
/// pins the portable loop, `simd` (or `avx2`) pins the widest SIMD
/// kernel the CPU supports. Unknown values fall back to detection.
pub const SCAN_KERNEL_ENV: &str = "TAXREC_SCAN_KERNEL";

/// The f32 dot-product kernel an engine scans with (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F32Kernel {
    /// Portable lane-split scalar loop ([`ops::dot`]); always available.
    Scalar,
    /// 8-lane AVX2 vertical accumulation; constructed only after
    /// runtime detection succeeds.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl F32Kernel {
    /// The widest kernel this CPU supports.
    pub fn detect() -> F32Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return F32Kernel::Avx2;
        }
        F32Kernel::Scalar
    }

    /// Parse a kernel name: `scalar`, or `simd`/`avx2` for the widest
    /// detected SIMD kernel (falling back to scalar on CPUs without
    /// one, so a forced-SIMD test matrix still runs everywhere).
    pub fn parse(name: &str) -> Result<F32Kernel, String> {
        match name {
            "scalar" => Ok(F32Kernel::Scalar),
            "simd" | "avx2" => Ok(F32Kernel::detect()),
            other => Err(format!(
                "unknown scan kernel '{other}' (expected 'scalar' or 'simd')"
            )),
        }
    }

    /// The kernel an engine construction should use: the
    /// [`SCAN_KERNEL_ENV`] override if set and valid, otherwise
    /// [`detect`](F32Kernel::detect).
    pub fn select() -> F32Kernel {
        match std::env::var(SCAN_KERNEL_ENV) {
            Ok(v) => F32Kernel::parse(&v).unwrap_or_else(|_| F32Kernel::detect()),
            Err(_) => F32Kernel::detect(),
        }
    }

    /// Stable name for stats, metrics, and reports.
    pub fn name(&self) -> &'static str {
        match self {
            F32Kernel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            F32Kernel::Avx2 => "avx2",
        }
    }

    /// Dot product through this kernel — bit-identical to
    /// [`ops::dot`] by construction.
    #[inline]
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            F32Kernel::Scalar => ops::dot(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the Avx2 variant is only constructed after
            // `is_x86_feature_detected!("avx2")` succeeded.
            F32Kernel::Avx2 => unsafe { avx2::dot_f32(a, b) },
        }
    }

    /// Score a contiguous block of rows against one query — the
    /// kernel-dispatched form of [`score_block_into`].
    #[inline]
    pub fn score_block(&self, query: &[f32], rows: &[f32], out: &mut [f32]) {
        match self {
            F32Kernel::Scalar => score_block_into(query, rows, out),
            #[cfg(target_arch = "x86_64")]
            F32Kernel::Avx2 => {
                let k = query.len();
                debug_assert_eq!(rows.len(), out.len() * k);
                for (o, row) in out.iter_mut().zip(rows.chunks_exact(k)) {
                    // SAFETY: as in `dot` — variant implies detection.
                    *o = unsafe { avx2::dot_f32(query, row) };
                }
            }
        }
    }

    /// Exact `i8 × i8 → i32` dot product (the quantized first pass).
    /// Integer arithmetic: every kernel returns the identical value.
    #[inline]
    pub fn dot_i8(&self, a: &[i8], b: &[i8]) -> i32 {
        match self {
            F32Kernel::Scalar => dot_i8_scalar(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `dot` — variant implies detection.
            F32Kernel::Avx2 => unsafe { avx2::dot_i8(a, b) },
        }
    }

    /// Integer dots of one query against every row of a row-major
    /// `i8` block (`rows.len() / q.len()` rows, e.g. one
    /// [`taxrec_factors::QuantChunk`]'s flat codes). Keeping the row
    /// loop inside the SIMD-enabled function is what makes the int8
    /// first pass fast: per-row calls into a `target_feature` function
    /// cannot inline into a generic caller.
    #[inline]
    pub fn dot_i8_block(&self, q: &[i8], rows: &[i8], out: &mut [i32]) {
        debug_assert_eq!(rows.len(), out.len() * q.len());
        if q.is_empty() {
            out.fill(0);
            return;
        }
        match self {
            F32Kernel::Scalar => {
                for (o, row) in out.iter_mut().zip(rows.chunks_exact(q.len())) {
                    *o = dot_i8_scalar(q, row);
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `dot` — variant implies detection.
            F32Kernel::Avx2 => unsafe { avx2::dot_i8_block(q, rows, out) },
        }
    }
}

fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// A query quantized for the int8 first pass: symmetric per-query
/// scale (`u_j ≈ uscale · c_j`, codes in `[-127, 127]`), plus the
/// precomputed sums the affine combine and the error bound need.
///
/// With item codes `r_j` (zero-point −128, row params `min`/`scale` —
/// see [`taxrec_factors::QuantMatrix`]) the approximate score is
///
/// ```text
/// ŝ = uscale · (min · Σc  +  scale · (Σ c_j r_j + 128 · Σc))
/// ```
///
/// where the inner integer dot `Σ c_j r_j` is exact, so ŝ is a pure
/// function of the codes — identical under every kernel dispatch.
#[derive(Debug, Clone)]
pub struct QuantQuery {
    codes: Vec<i8>,
    uscale: f32,
    /// Σ codes (exact).
    code_sum: i32,
    /// Σ |u_j| of the original f32 query, in f64.
    abs_sum: f64,
}

impl QuantQuery {
    /// Quantize a query. An all-zero query gets `uscale = 0` and zero
    /// codes (every approximate score is then 0 and the scan falls
    /// back to the exact path via the sufficiency check).
    pub fn from_query(query: &[f32]) -> QuantQuery {
        let max_abs = query.iter().fold(0.0f64, |m, &u| m.max((u as f64).abs()));
        let abs_sum = query.iter().map(|&u| (u as f64).abs()).sum();
        if max_abs > 0.0 {
            let uscale = (max_abs / 127.0) as f32;
            let s64 = uscale as f64;
            let mut code_sum = 0i32;
            let codes = query
                .iter()
                .map(|&u| {
                    let c = ((u as f64) / s64).round().clamp(-127.0, 127.0) as i32;
                    code_sum += c;
                    c as i8
                })
                .collect();
            QuantQuery {
                codes,
                uscale,
                code_sum,
                abs_sum,
            }
        } else {
            QuantQuery {
                codes: vec![0; query.len()],
                uscale: 0.0,
                code_sum: 0,
                abs_sum,
            }
        }
    }

    /// The query codes (length `K`).
    #[inline]
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The approximate score for a row with integer dot `d` and
    /// dequantization params `(min, scale)` (see the type docs).
    #[inline]
    pub fn approx_score(&self, d: i32, min: f32, scale: f32) -> f32 {
        self.uscale * (min * self.code_sum as f32 + scale * (d + 128 * self.code_sum) as f32)
    }

    /// Block form of [`approx_score`](Self::approx_score): combine a
    /// chunk's integer dots with its dequantization params in one
    /// auto-vectorizable pass over contiguous slices.
    ///
    /// Same arithmetic as the scalar form up to float reassociation;
    /// the few-ulp reassociation slack is covered by
    /// [`error_bound`](Self::error_bound)'s magnitude term. Pure f32
    /// arithmetic on integer inputs with no dispatch branch, so the
    /// output is identical under every kernel selection.
    pub fn approx_block(&self, dots: &[i32], mins: &[f32], scales: &[f32], out: &mut [f32]) {
        debug_assert_eq!(dots.len(), out.len());
        debug_assert_eq!(mins.len(), out.len());
        debug_assert_eq!(scales.len(), out.len());
        let a = self.uscale * self.code_sum as f32;
        let c128 = (128 * self.code_sum) as f32;
        let u = self.uscale;
        for (((o, &d), &mn), &sc) in out.iter_mut().zip(dots).zip(mins).zip(scales) {
            *o = a * mn + u * sc * (d as f32 + c128);
        }
    }

    /// Rigorous **per-row** upper bound on the exact f32 score of the
    /// row with integer dot `d`, dequantization params `(min, scale)`
    /// and dequantized absolute sum `abs_row`
    /// ([`taxrec_factors::QuantChunk::abs_sum`]):
    ///
    /// ```text
    /// s ≤ ŝ + Σ|u_j| · scale/2 + uscale/2 · Σ|x̂_j|
    /// ```
    ///
    /// (row-quantization error + query-quantization error). Evaluated
    /// in f64 — the combine's own rounding is then below 1 ulp of f32
    /// — inflated by a small relative slack covering both the f32
    /// rounding of the stored `abs_row` and the f32 summation error of
    /// the *exact* lane-split dot the bound is compared against
    /// (≤ K·ε·Σ|u||x|, three orders below the err terms themselves),
    /// and rounded **up** on the final cast.
    /// Integer `d` makes the result a pure function of the codes:
    /// identical under every kernel dispatch.
    ///
    /// This is what the quantized scan ranks its candidate pool by:
    /// if the k-th *exact* rescored score beats the pool's smallest
    /// upper bound, no row outside the pool can belong to the exact
    /// top-K.
    #[inline]
    pub fn score_upper_bound(&self, d: i32, min: f32, scale: f32, abs_row: f32) -> f32 {
        let c = self.code_sum as f64;
        let u = self.uscale as f64;
        let s = u * (min as f64 * c + scale as f64 * (d as f64 + 128.0 * c));
        let err = 0.5 * (self.abs_sum * scale as f64 + u * abs_row as f64);
        (((s + err * (1.0 + 1e-3)) as f32).next_up()).next_up()
    }

    /// Rigorous upper bound on `|exact − approximate|` for any row of
    /// a table with the given running maxima
    /// ([`QuantMatrix::max_scale`] / [`QuantMatrix::max_abs_sum`]):
    ///
    /// ```text
    /// |s − ŝ| ≤ Σ|u_j| · max_scale/2        (row quantization)
    ///         + uscale/2 · max_abs_sum      (query quantization)
    /// ```
    ///
    /// inflated by a small relative + magnitude-scaled slack for the
    /// f32 rounding of the combine itself.
    ///
    /// [`QuantMatrix::max_scale`]: taxrec_factors::QuantMatrix::max_scale
    /// [`QuantMatrix::max_abs_sum`]: taxrec_factors::QuantMatrix::max_abs_sum
    pub fn error_bound(&self, max_scale: f64, max_abs_sum: f64) -> f64 {
        let uscale = self.uscale as f64;
        let eps = 0.5 * (self.abs_sum * max_scale + uscale * max_abs_sum);
        // Magnitude of the scores involved, for the float-rounding
        // slack: |ŝ| ≤ max|x̂| · Σ|û_j| ≤ max_abs_sum · (Σ|u_j| + K·uscale/2).
        let magnitude = max_abs_sum * (self.abs_sum + 0.5 * uscale * self.codes.len() as f64);
        eps * (1.0 + 1e-3) + magnitude * 1e-5
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_castsi256_si128,
        _mm256_cvtepi8_epi16, _mm256_extracti128_si256, _mm256_hadd_epi32, _mm256_loadu_ps,
        _mm256_madd_epi16, _mm256_mul_ps, _mm256_setzero_ps, _mm256_setzero_si256,
        _mm256_storeu_ps, _mm256_storeu_si256, _mm_add_epi32, _mm_loadu_si128, _mm_storeu_si128,
    };
    use taxrec_factors::ops::{reduce_lanes, DOT_LANES};

    /// AVX2 lane-split dot — bit-identical to [`taxrec_factors::ops::dot`]:
    /// vertical `mul + add` per 8-lane chunk accumulates each lane in
    /// the same order as the scalar loop, the tail lands in lanes
    /// `0..tail_len`, and the reduction is the shared pairwise tree.
    ///
    /// # Safety
    /// AVX2 must be available (checked at kernel construction).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / DOT_LANES;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let pa = _mm256_loadu_ps(a.as_ptr().add(c * DOT_LANES));
            let pb = _mm256_loadu_ps(b.as_ptr().add(c * DOT_LANES));
            // mul then add — FMA would fuse the rounding step the
            // scalar kernel performs, breaking bit-identity.
            acc = _mm256_add_ps(acc, _mm256_mul_ps(pa, pb));
        }
        let mut lanes = [0.0f32; DOT_LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (l, i) in (chunks * DOT_LANES..n).enumerate() {
            lanes[l] += a[i] * b[i];
        }
        reduce_lanes(&lanes)
    }

    /// Exact AVX2 int8 dot: sign-extend 16 codes to i16
    /// (`cvtepi8_epi16` — *not* `maddubs`, whose i16 saturation would
    /// lose exactness), multiply-add pairs into i32 lanes, reduce.
    ///
    /// # Safety
    /// AVX2 must be available (checked at kernel construction).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 16;
        let mut acc = _mm256_setzero_si256();
        for c in 0..chunks {
            let pa = _mm_loadu_si128(a.as_ptr().add(c * 16).cast::<__m128i>());
            let pb = _mm_loadu_si128(b.as_ptr().add(c * 16).cast::<__m128i>());
            let prod = _mm256_madd_epi16(_mm256_cvtepi8_epi16(pa), _mm256_cvtepi8_epi16(pb));
            acc = _mm256_add_epi32(acc, prod);
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), acc);
        let mut sum: i32 = lanes.iter().sum();
        for i in chunks * 16..n {
            sum += a[i] as i32 * b[i] as i32;
        }
        sum
    }

    /// Widest query (in 16-code chunks) the pre-widened register set
    /// of [`dot_i8_block`] covers; longer rows take the per-row path.
    const MAX_Q_CHUNKS: usize = 16;

    /// [`dot_i8`] against every row of a row-major block, organised
    /// for throughput (integer arithmetic is exact, so any evaluation
    /// order returns the identical dots): the query codes are widened
    /// to i16 **once**, four rows accumulate concurrently, and one
    /// `hadd` tree reduces all four sums — per-row horizontal
    /// reductions are what made the naive loop slower than the f32
    /// scan it was meant to beat.
    ///
    /// # Safety
    /// AVX2 must be available (checked at kernel construction).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_block(q: &[i8], rows: &[i8], out: &mut [i32]) {
        let k = q.len();
        debug_assert!(k > 0);
        debug_assert_eq!(rows.len(), out.len() * k);
        let chunks = k / 16;
        if chunks == 0 || chunks > MAX_Q_CHUNKS {
            for (o, row) in out.iter_mut().zip(rows.chunks_exact(k)) {
                *o = dot_i8(q, row);
            }
            return;
        }
        let mut qw = [_mm256_setzero_si256(); MAX_Q_CHUNKS];
        for (c, slot) in qw.iter_mut().enumerate().take(chunks) {
            *slot = _mm256_cvtepi8_epi16(_mm_loadu_si128(q.as_ptr().add(c * 16).cast::<__m128i>()));
        }
        let n = out.len();
        let mut r = 0usize;
        while r + 4 <= n {
            let mut acc = [_mm256_setzero_si256(); 4];
            for (c, &qc) in qw.iter().enumerate().take(chunks) {
                for (i, a) in acc.iter_mut().enumerate() {
                    let p =
                        _mm_loadu_si128(rows.as_ptr().add((r + i) * k + c * 16).cast::<__m128i>());
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(qc, _mm256_cvtepi8_epi16(p)));
                }
            }
            // hadd pairs fold the four 8-lane accumulators into one
            // vector whose 128-bit halves hold the per-row partial
            // sums in order; one cross-half add finishes all four.
            let h01 = _mm256_hadd_epi32(acc[0], acc[1]);
            let h23 = _mm256_hadd_epi32(acc[2], acc[3]);
            let h = _mm256_hadd_epi32(h01, h23);
            let mut four = [0i32; 4];
            _mm_storeu_si128(
                four.as_mut_ptr().cast::<__m128i>(),
                _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1)),
            );
            for (i, f) in four.into_iter().enumerate() {
                let mut sum = f;
                for j in chunks * 16..k {
                    sum += q[j] as i32 * rows[(r + i) * k + j] as i32;
                }
                out[r + i] = sum;
            }
            r += 4;
        }
        while r < n {
            out[r] = dot_i8(q, &rows[r * k..(r + 1) * k]);
            r += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        // Deterministic awkward values: mixed signs and magnitudes so
        // summation order matters (catches any non-lane-split kernel).
        let a: Vec<f32> = (0..n)
            .map(|i| ((i * 37 % 97) as f32 - 48.0) * 0.731)
            .collect();
        let b: Vec<f32> = (0..n)
            .map(|i| ((i * 61 % 89) as f32 - 44.0) * -0.413)
            .collect();
        (a, b)
    }

    #[test]
    fn every_kernel_matches_scalar_bit_for_bit() {
        // Lengths straddling every tail case of both the 8-lane f32
        // and the 16-lane i8 main loops.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100] {
            let (a, b) = vecs(n);
            let want = ops::dot(&a, &b);
            for kernel in [F32Kernel::Scalar, F32Kernel::detect()] {
                let got = kernel.dot(&a, &b);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "kernel {} at n={n}: {got} != {want}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn score_block_matches_scalar_for_ragged_blocks() {
        for (rows, k) in [(5usize, 3usize), (4, 8), (3, 13), (7, 16), (2, 20)] {
            let (flat, _) = vecs(rows * k);
            let (query, _) = vecs(k);
            let mut scalar_out = vec![0.0f32; rows];
            F32Kernel::Scalar.score_block(&query, &flat, &mut scalar_out);
            let mut simd_out = vec![0.0f32; rows];
            F32Kernel::detect().score_block(&query, &flat, &mut simd_out);
            for (s, v) in scalar_out.iter().zip(&simd_out) {
                assert_eq!(s.to_bits(), v.to_bits(), "rows={rows} k={k}");
            }
        }
    }

    #[test]
    fn int8_kernels_agree_exactly() {
        for n in [0usize, 1, 5, 15, 16, 17, 32, 47, 64] {
            let a: Vec<i8> = (0..n)
                .map(|i| ((i * 83 % 255) as i32 - 128) as i8)
                .collect();
            let b: Vec<i8> = (0..n)
                .map(|i| ((i * 29 % 255) as i32 - 127) as i8)
                .collect();
            let want = dot_i8_scalar(&a, &b);
            assert_eq!(F32Kernel::detect().dot_i8(&a, &b), want, "n={n}");
            assert_eq!(F32Kernel::Scalar.dot_i8(&a, &b), want, "n={n}");
        }
    }

    #[test]
    fn int8_block_kernel_matches_per_row_dots() {
        // Widths straddling the 16-code chunking (tails, exact
        // multiples, the >MAX_Q_CHUNKS spill path) × row counts
        // straddling the 4-row unroll.
        for k in [1usize, 5, 16, 20, 32, 33, 48, 260] {
            for n_rows in [0usize, 1, 3, 4, 5, 8, 11] {
                let q: Vec<i8> = (0..k)
                    .map(|i| ((i * 83 % 255) as i32 - 128) as i8)
                    .collect();
                let rows: Vec<i8> = (0..k * n_rows)
                    .map(|i| ((i * 29 % 255) as i32 - 127) as i8)
                    .collect();
                let want: Vec<i32> = (0..n_rows)
                    .map(|r| dot_i8_scalar(&q, &rows[r * k..(r + 1) * k]))
                    .collect();
                for kernel in [F32Kernel::Scalar, F32Kernel::detect()] {
                    let mut got = vec![0i32; n_rows];
                    kernel.dot_i8_block(&q, &rows, &mut got);
                    assert_eq!(got, want, "kernel {} k={k} rows={n_rows}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn parse_and_names() {
        assert_eq!(F32Kernel::parse("scalar"), Ok(F32Kernel::Scalar));
        let simd = F32Kernel::parse("simd").unwrap();
        assert_eq!(simd, F32Kernel::detect());
        assert!(F32Kernel::parse("turbo").is_err());
        assert_eq!(F32Kernel::Scalar.name(), "scalar");
    }

    #[test]
    fn quant_query_zero_and_error_bound() {
        let q = QuantQuery::from_query(&[0.0, 0.0, 0.0]);
        assert_eq!(q.approx_score(0, 1.0, 1.0), 0.0);
        assert_eq!(q.error_bound(1.0, 1.0), 0.0);

        let q = QuantQuery::from_query(&[1.0, -2.0, 0.5]);
        assert!(q.error_bound(0.01, 10.0) > 0.0);
        // Codes recover the query up to uscale/2 per element.
        let uscale = 2.0 / 127.0;
        for (c, u) in q.codes().iter().zip([1.0f32, -2.0, 0.5]) {
            assert!((*c as f32 * uscale - u).abs() <= uscale / 2.0 + 1e-6);
        }
    }
}
