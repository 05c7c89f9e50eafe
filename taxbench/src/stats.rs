//! Order statistics over latency samples.

/// Median of `values` (mean of the two middle elements for an even
/// count); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last
/// cut point. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Negative when the clamp moved `j` up (extrapolation).
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest rank (1-based) of percentile `p` in `(0, 1]` among `n`
/// samples: `⌈p · n⌉`, with `p · n` read as exact when it is a whole
/// number up to floating-point error.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` in `(0, 1]` of **sorted** samples.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// The tail percentiles a report may name, lowest first.
const TAIL_LADDER: [f64; 4] = [0.50, 0.90, 0.95, 0.99];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond its nearest rank; the median when even p90 does not.
/// A p99 therefore needs 1000 samples, a p95 200.
pub fn supported_tail(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= 10 && n - rank(p, n) >= 10)
        .unwrap_or(0.50)
}

/// Samples per tail slice of [`summarize`]: the fewest a p95 may rest on.
pub const TAIL_SLICE: usize = 200;
/// Most slices the median is taken over, and the fewest samples in one.
const MEDIAN_SLICES: usize = 16;
const MEDIAN_SLICE_MIN: usize = 32;

/// One request of the open loop: when it was due (nanoseconds into the
/// phase) and how long it took from then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    pub at_ns: u64,
    pub latency_ns: u64,
}

/// Median and supported tail of a sample set, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub n: usize,
    /// Median over slices of each slice's median at reference speed.
    pub p50: f64,
    /// The median of all samples as the clock read them.
    pub raw_p50: f64,
    /// Which percentile `tail` is (0.95 once `n ≥ 200`).
    pub tail_p: f64,
    /// Median over tail slices of each slice's tail at reference speed.
    pub tail: f64,
    /// How many slices `tail` is the median of.
    pub slices: usize,
    /// The highest supported percentile of all samples pooled, as the
    /// clock read them: which one, and its value.
    pub raw_tail: (f64, f64),
}

/// `0..n` cut into consecutive slices of `width` (the last takes the
/// remainder); one slice when `n < 2 * width`.
fn slices_of(n: usize, width: usize) -> Vec<std::ops::Range<usize>> {
    let count = (n / width.max(1)).max(1);
    (0..count)
        .map(|i| i * width..if i + 1 == count { n } else { (i + 1) * width })
        .collect()
}

/// Summarise samples given **in arrival order**; `None` when there are
/// none. `slowdown(from_ns, to_ns)` is how much slower than the
/// reference the box ran over that stretch of the phase (see `calib`).
///
/// Both figures are taken per slice of consecutive samples, divided by
/// the slice's slowdown, and the median over slices is reported: the
/// box changes speed every few seconds and stalls now and then, and a
/// slice is short enough to sit in one mode while the median over
/// slices passes over the one a stall landed in. The median uses up to
/// 16 slices of at least 32 samples; the tail is the highest supported
/// percentile of slices of [`TAIL_SLICE`] samples.
pub fn summarize(samples: &[Timed], slowdown: impl Fn(u64, u64) -> f64) -> Option<LatencySummary> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let per_slice = |width: usize, p: f64| -> Vec<f64> {
        slices_of(n, width)
            .into_iter()
            .map(|range| {
                let slice = &samples[range];
                let mut ns: Vec<u64> = slice.iter().map(|s| s.latency_ns).collect();
                ns.sort_unstable();
                let from = slice.iter().map(|s| s.at_ns).min().unwrap_or(0);
                let to = slice
                    .iter()
                    .map(|s| s.at_ns + s.latency_ns)
                    .max()
                    .unwrap_or(from);
                percentile_sorted(&ns, p) as f64 / slowdown(from, to)
            })
            .collect()
    };
    let medians = per_slice(n.div_ceil(MEDIAN_SLICES).max(MEDIAN_SLICE_MIN), 0.50);
    // Every tail slice holds at least this many samples.
    let tail_p = supported_tail(n.min(TAIL_SLICE));
    let tails = per_slice(TAIL_SLICE, tail_p);
    let mut all: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    all.sort_unstable();
    Some(LatencySummary {
        n,
        p50: median(&medians),
        raw_p50: percentile_sorted(&all, 0.50) as f64,
        tail_p,
        tail: median(&tails),
        slices: tails.len(),
        raw_tail: (
            supported_tail(n),
            percentile_sorted(&all, supported_tail(n)) as f64,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(999), 0.95);
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(199), 0.90);
        assert_eq!(supported_tail(100), 0.90);
        assert_eq!(supported_tail(99), 0.50);
        assert_eq!(supported_tail(5), 0.50);
    }

    fn timed(latencies: impl IntoIterator<Item = u64>) -> Vec<Timed> {
        latencies
            .into_iter()
            .enumerate()
            .map(|(i, latency_ns)| Timed {
                at_ns: i as u64 * 1_000_000,
                latency_ns,
            })
            .collect()
    }

    #[test]
    fn summary_reports_count_and_nearest_rank() {
        let s = summarize(&timed((1..=200).rev()), |_, _| 1.0).unwrap();
        assert_eq!(
            (s.n, s.raw_p50, s.tail_p, s.tail, s.slices, s.raw_tail),
            (200, 100.0, 0.95, 190.0, 1, (0.95, 190.0))
        );
        // Six slices of 32 (the last of 40) hold 200..=169, 168..=137, …:
        // their medians are 184, 152, 120, 88, 56 and 20.
        assert_eq!(s.p50, (120.0 + 88.0) / 2.0);
        let few = summarize(&timed([7, 3, 5]), |_, _| 1.0).unwrap();
        assert_eq!(
            (few.n, few.p50, few.raw_p50, few.tail_p, few.tail),
            (3, 5.0, 5.0, 0.50, 5.0)
        );
        assert_eq!(summarize(&[], |_, _| 1.0), None);
    }

    #[test]
    fn sliced_tail_passes_over_one_stalled_slice() {
        // Three slices of 200; the middle one holds a stall.
        let mut samples = timed((0..600).map(|i| 100 + i % 50));
        for s in &mut samples[240..260] {
            s.latency_ns = 50_000;
        }
        let s = summarize(&samples, |_, _| 1.0).unwrap();
        assert_eq!((s.n, s.slices, s.tail_p), (600, 3, 0.95));
        assert_eq!(s.tail, 147.0, "the stalled slice's p95 is 50 000");
        // 399 samples are one slice: the pooled p95.
        let one = summarize(&samples[..399], |_, _| 1.0).unwrap();
        assert_eq!((one.slices, one.tail), (1, 50_000.0));
    }

    #[test]
    fn slices_are_read_at_reference_speed() {
        // The box runs at half speed for the second half of the phase:
        // every latency there reads double.
        let half = 320 * 1_000_000;
        let samples = timed((0..640).map(|i| if i < 320 { 100 } else { 200 }));
        let raw = summarize(&samples, |_, _| 1.0).unwrap();
        assert_eq!((raw.p50, raw.tail), (150.0, 200.0));
        let s = summarize(&samples, |from, _| if from < half { 1.0 } else { 2.0 }).unwrap();
        assert_eq!((s.p50, s.tail, s.raw_p50), (100.0, 100.0, 100.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
    }
}
