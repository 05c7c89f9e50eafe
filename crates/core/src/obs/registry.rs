//! The unified metrics registry: named counter/gauge/histogram
//! families with static labels, rendered as Prometheus text exposition
//! here and as JSON by the server's `/live/stats`, both from one walk
//! ([`MetricsRegistry::for_each_family`]).
//!
//! Same idiom as [`crate::histogram`]: handles are `Arc`-shared
//! atomics, recording is a relaxed `fetch_add` with no locks on the hot
//! path. The registry itself holds a `Mutex`ed catalog of families, but
//! that lock is taken only at registration (startup) and render
//! (scrape) time — never while serving.
//!
//! Every latency family is a [`crate::histogram::Histogram`] under the
//! hood, so quantiles have exactly one implementation: the cumulative
//! bucket walk in [`HistogramSnapshot::quantile_us`].

use crate::histogram::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What a family's series measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone count.
    Counter,
    /// Settable value.
    Gauge,
    /// Latency distribution ([`crate::histogram::Histogram`] buckets).
    Histogram,
}

impl MetricKind {
    fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotone counter handle. Cloning shares the underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle. Cloning shares the underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add one (e.g. a connection opened).
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one, saturating at zero (e.g. a connection closed).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket counts plus a full-resolution sum, so the Prometheus
/// exposition can emit `_sum` without truncating sub-µs samples.
#[derive(Debug, Default)]
struct TimedHistogram {
    hist: Histogram,
    sum_ns: AtomicU64,
}

/// A latency-histogram handle backed by [`crate::histogram::Histogram`].
/// Cloning shares the underlying buckets.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Arc<TimedHistogram>);

impl HistogramHandle {
    /// Record one latency.
    pub fn record(&self, d: Duration) {
        self.0.hist.record(d);
        self.0
            .sum_ns
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Bucket snapshot — the single source of truth for quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.hist.snapshot()
    }

    /// The `p`-quantile in µs (see [`HistogramSnapshot::quantile_us`]).
    pub fn quantile_us(&self, p: f64) -> u64 {
        self.snapshot().quantile_us(p)
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.snapshot().total()
    }

    /// Sum of all recorded latencies, µs (accumulated in ns internally).
    pub fn sum_us(&self) -> u64 {
        self.0.sum_ns.load(Ordering::Relaxed) / 1_000
    }

    fn sum_seconds(&self) -> f64 {
        self.0.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// One series' live handle, as [`MetricsRegistry::for_each_family`]
/// hands it out.
#[derive(Debug, Clone)]
pub enum SeriesValue {
    /// A [`MetricKind::Counter`] series.
    Counter(Counter),
    /// A [`MetricKind::Gauge`] series.
    Gauge(Gauge),
    /// A [`MetricKind::Histogram`] series.
    Histogram(HistogramHandle),
}

/// One labelled series of a [`Family`].
#[derive(Debug)]
pub struct Series {
    /// Static label pairs, in registration order (empty when unlabelled).
    pub labels: Vec<(String, String)>,
    /// The shared handle the owner records into.
    pub value: SeriesValue,
}

/// One named family: its help text, kind and every registered series.
#[derive(Debug)]
pub struct Family {
    /// Prometheus metric name.
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// What the series measure.
    pub kind: MetricKind,
    /// Series in registration order (at least one).
    pub series: Vec<Series>,
}

/// The process-wide metric catalog. One instance is shared by the HTTP
/// layer, the live applier, and the scan instrumentation; `GET
/// /metrics` renders it with [`MetricsRegistry::render_prometheus`].
///
/// Registration is idempotent: asking for a `(name, labels)` pair that
/// already exists returns a handle to the same series, so components
/// that restart (tests, successive engines) cannot double-count.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register (or look up) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, MetricKind::Counter, labels, || {
            SeriesValue::Counter(Counter::default())
        }) {
            SeriesValue::Counter(c) => c,
            _ => unreachable!("kind checked by series()"),
        }
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, MetricKind::Gauge, labels, || {
            SeriesValue::Gauge(Gauge::default())
        }) {
            SeriesValue::Gauge(g) => g,
            _ => unreachable!("kind checked by series()"),
        }
    }

    /// Register (or look up) a latency-histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        match self.series(name, help, MetricKind::Histogram, labels, || {
            SeriesValue::Histogram(HistogramHandle::default())
        }) {
            SeriesValue::Histogram(h) => h,
            _ => unreachable!("kind checked by series()"),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> SeriesValue,
    ) -> SeriesValue {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().expect("registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(
                    f.kind, kind,
                    "metric {name} registered twice with different kinds"
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter().find(|s| s.labels == labels) {
            return existing.value.clone();
        }
        let value = make();
        family.series.push(Series {
            labels,
            value: value.clone(),
        });
        value
    }

    /// The one read-only walk over the catalog, families in
    /// registration order. Both renderings of the registry — the
    /// Prometheus text of `GET /metrics` and the JSON of `GET
    /// /live/stats` — are built from it, so they list the same series.
    /// The catalog lock is held for the walk: `f` must not register.
    pub fn for_each_family(&self, f: impl FnMut(&Family)) {
        self.families
            .lock()
            .expect("registry poisoned")
            .iter()
            .for_each(f);
    }

    /// Render the whole catalog as Prometheus text exposition (v0.0.4):
    /// `# HELP` / `# TYPE` comments, then one sample line per series —
    /// histograms expand to cumulative `_bucket{le=...}` lines (bucket
    /// upper bounds in seconds) plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.for_each_family(|f| {
            out.push_str(&format!("# HELP {} {}\n", f.name, escape_help(&f.help)));
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.prom_type()));
            for s in &f.series {
                match &s.value {
                    SeriesValue::Counter(c) => {
                        out.push_str(&sample(&f.name, &s.labels, None, &c.get().to_string()));
                    }
                    SeriesValue::Gauge(g) => {
                        out.push_str(&sample(&f.name, &s.labels, None, &g.get().to_string()));
                    }
                    SeriesValue::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cum = 0u64;
                        for (i, &c) in snap.counts.iter().enumerate() {
                            cum += c;
                            // Bucket i counts [2^i, 2^(i+1)) µs; the
                            // `le` bound is the upper edge in seconds.
                            let le = (1u64 << (i + 1)) as f64 / 1e6;
                            out.push_str(&sample(
                                &format!("{}_bucket", f.name),
                                &s.labels,
                                Some(("le", &format_le(le))),
                                &cum.to_string(),
                            ));
                        }
                        out.push_str(&sample(
                            &format!("{}_bucket", f.name),
                            &s.labels,
                            Some(("le", "+Inf")),
                            &cum.to_string(),
                        ));
                        out.push_str(&sample(
                            &format!("{}_sum", f.name),
                            &s.labels,
                            None,
                            &format!("{}", h.sum_seconds()),
                        ));
                        out.push_str(&sample(
                            &format!("{}_count", f.name),
                            &s.labels,
                            None,
                            &cum.to_string(),
                        ));
                        debug_assert_eq!(snap.counts.len(), HISTOGRAM_BUCKETS);
                    }
                }
            }
        });
        out
    }
}

/// One exposition sample line: `name{labels} value`.
fn sample(
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{}}} {value}\n", pairs.join(","))
    }
}

/// `le` bounds render without exponent notation so any text-format
/// consumer parses them (0.000002, not 2e-6).
fn format_le(seconds: f64) -> String {
    let s = format!("{seconds:.9}");
    let s = s.trim_end_matches('0');
    let s = s.trim_end_matches('.');
    if s.is_empty() {
        "0".to_string()
    } else {
        s.to_string()
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*`
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*`
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Per-shard scan instrumentation: rows scanned, blocks scored, and
/// cumulative scan time per catalog shard, registered as labelled
/// counter families. One instance is created when the live subsystem
/// builds its first engine and carried (by `Arc`) across every
/// successor epoch, so counters survive publishes.
#[derive(Debug)]
pub struct ScanMetrics {
    shards: Vec<ShardScanCounters>,
    quant_scans: Counter,
    quant_sufficient: Counter,
    quant_insufficient: Counter,
    quant_rescored_rows: Counter,
    cascade_requests: Counter,
    cascade_scored_nodes: Counter,
    cascade_kept_leaves: Counter,
    walk_requests: Counter,
    walk_rows_scored: Counter,
    walk_categories_visited: Counter,
}

#[derive(Debug)]
struct ShardScanCounters {
    rows: Counter,
    blocks: Counter,
    busy_us: Counter,
}

impl ScanMetrics {
    /// Register `shards` per-shard counter triples into `registry`.
    pub fn register(registry: &MetricsRegistry, shards: usize) -> Arc<ScanMetrics> {
        let shards = (0..shards)
            .map(|i| {
                let shard = i.to_string();
                let labels = [("shard", shard.as_str())];
                ShardScanCounters {
                    rows: registry.counter(
                        "taxrec_scan_rows_total",
                        "Catalog rows scanned (blocked f32 scan or int8 first pass), per shard",
                        &labels,
                    ),
                    blocks: registry.counter(
                        "taxrec_scan_blocks_total",
                        "SCORE_BLOCK-sized blocks scored, per shard",
                        &labels,
                    ),
                    busy_us: registry.counter(
                        "taxrec_scan_busy_us_total",
                        "Cumulative per-shard scan time, microseconds",
                        &labels,
                    ),
                }
            })
            .collect();
        Arc::new(ScanMetrics {
            shards,
            quant_scans: registry.counter(
                "taxrec_quant_pool_scans_total",
                "Quantized first-pass shard scans served",
                &[],
            ),
            quant_sufficient: registry.counter(
                "taxrec_quant_pool_sufficient_total",
                "Quantized scans whose exact-rescore work stayed within the pool budget",
                &[],
            ),
            quant_insufficient: registry.counter(
                "taxrec_quant_pool_insufficient_total",
                "Quantized scans whose exact-rescore work overran the pool budget",
                &[],
            ),
            quant_rescored_rows: registry.counter(
                "taxrec_quant_rescored_rows_total",
                "Catalog rows the quantized scans rescored in exact f32",
                &[],
            ),
            cascade_requests: registry.counter(
                "taxrec_cascade_requests_total",
                "Per-user cascaded (taxonomy beam) reads served",
                &[],
            ),
            cascade_scored_nodes: registry.counter(
                "taxrec_cascade_scored_nodes_total",
                "Taxonomy nodes the cascaded reads scored (one gather-dot each)",
                &[],
            ),
            cascade_kept_leaves: registry.counter(
                "taxrec_cascade_kept_leaves_total",
                "Leaves the cascaded reads ranked after the final cut (at most top + excluded)",
                &[],
            ),
            walk_requests: registry.counter(
                "taxrec_walk_requests_total",
                "Per-user exact reads served by the radius-bound walk",
                &[],
            ),
            walk_rows_scored: registry.counter(
                "taxrec_walk_rows_scored_total",
                "Item rows the walk reads scored exactly (one kernel dot each)",
                &[],
            ),
            walk_categories_visited: registry.counter(
                "taxrec_walk_categories_visited_total",
                "Category rows the walk reads scored to bound the items below them",
                &[],
            ),
        })
    }

    /// Register the `taxrec_scan_kernel` info metric: value 1 on the
    /// series labelled with the active f32 kernel's name.
    pub fn register_kernel_info(registry: &MetricsRegistry, kernel: &str) {
        registry
            .gauge(
                "taxrec_scan_kernel",
                "Active f32 scan kernel (info metric: 1 on the labelled series)",
                &[("kernel", kernel)],
            )
            .set(1);
    }

    /// Record one quantized first-pass scan: how many rows it rescored
    /// in exact f32 and whether that stayed within the rescore budget.
    pub fn record_quant(&self, sufficient: bool, rescored_rows: u64) {
        self.quant_rescored_rows.add(rescored_rows);
        self.quant_scans.inc();
        if sufficient {
            self.quant_sufficient.inc();
        } else {
            self.quant_insufficient.inc();
        }
    }

    /// Record one cascaded read: the taxonomy nodes its beam scored and
    /// the leaves it ranked after the final cut.
    pub fn record_cascade(&self, scored_nodes: u64, kept_leaves: u64) {
        self.cascade_requests.inc();
        self.cascade_scored_nodes.add(scored_nodes);
        self.cascade_kept_leaves.add(kept_leaves);
    }

    /// Record one walk read: the item rows it scored exactly and the
    /// category rows it scored for bounds.
    pub fn record_walk(&self, rows_scored: u64, categories_visited: u64) {
        self.walk_requests.inc();
        self.walk_rows_scored.add(rows_scored);
        self.walk_categories_visited.add(categories_visited);
    }

    /// Quantized first-pass scans recorded.
    pub fn quant_scans(&self) -> u64 {
        self.quant_scans.get()
    }

    /// Quantized scans that fell back to the exact f32 path.
    pub fn quant_insufficient(&self) -> u64 {
        self.quant_insufficient.get()
    }

    /// Record one shard scan. Out-of-range indices (an engine rebuilt
    /// with a different layout than the metrics were registered for)
    /// are ignored rather than miscounted.
    pub fn record(&self, shard: usize, rows: u64, blocks: u64, took: Duration) {
        if let Some(s) = self.shards.get(shard) {
            s.rows.add(rows);
            s.blocks.add(blocks);
            s.busy_us.add(took.as_micros().min(u64::MAX as u128) as u64);
        }
    }

    /// Shard count the counters were registered for.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total rows scanned across all shards (tests, reporting).
    pub fn rows_total(&self) -> u64 {
        self.shards.iter().map(|s| s.rows.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("taxrec_test_total", "help", &[("route", "/x")]);
        let b = reg.counter("taxrec_test_total", "help", &[("route", "/x")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same (name, labels) must share the atomic");
        let other = reg.counter("taxrec_test_total", "help", &[("route", "/y")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn prometheus_rendering_escapes_and_accumulates() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("taxrec_req_total", "requests\nserved \\ total", &[]);
        c.add(7);
        let g = reg.gauge("taxrec_workers", "workers", &[("pool", "a\"b\\c")]);
        g.set(4);
        let h = reg.histogram("taxrec_lat_seconds", "latency", &[]);
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(3));
        let text = reg.render_prometheus();
        assert!(
            text.contains("# HELP taxrec_req_total requests\\nserved \\\\ total"),
            "{text}"
        );
        assert!(text.contains("# TYPE taxrec_req_total counter"), "{text}");
        assert!(text.contains("taxrec_req_total 7"), "{text}");
        assert!(
            text.contains("taxrec_workers{pool=\"a\\\"b\\\\c\"} 4"),
            "{text}"
        );
        // Histogram: cumulative buckets, +Inf, sum and count.
        assert!(
            text.contains("taxrec_lat_seconds_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("taxrec_lat_seconds_count 2"), "{text}");
        assert!(text.contains("taxrec_lat_seconds_sum 0.000103"), "{text}");
        // The 100 µs sample lands in the [64,128) µs bucket: every le
        // at or above 128 µs (0.000128 s) must already include it.
        assert!(
            text.contains("taxrec_lat_seconds_bucket{le=\"0.000128\"} 2"),
            "{text}"
        );
        // No exponent notation in le bounds.
        assert!(!text.contains("le=\"2e"), "{text}");
    }

    #[test]
    fn histogram_quantiles_come_from_core_histogram() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("taxrec_q_seconds", "q", &[]);
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.quantile_us(0.50), 128);
        assert_eq!(h.quantile_us(1.0), 65536);
        assert_eq!(h.count(), 100);
        assert!(h.sum_us() >= 99 * 100 + 50_000);
    }

    #[test]
    fn scan_metrics_record_per_shard() {
        let reg = MetricsRegistry::new();
        let sm = ScanMetrics::register(&reg, 2);
        sm.record(0, 100, 2, Duration::from_micros(5));
        sm.record(1, 50, 1, Duration::from_micros(3));
        sm.record(9, 1, 1, Duration::from_micros(1)); // ignored
        assert_eq!(sm.rows_total(), 150);
        let text = reg.render_prometheus();
        assert!(
            text.contains("taxrec_scan_rows_total{shard=\"0\"} 100"),
            "{text}"
        );
        assert!(
            text.contains("taxrec_scan_rows_total{shard=\"1\"} 50"),
            "{text}"
        );
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("taxrec_http_requests_total"));
        assert!(valid_metric_name("_x:y"));
        assert!(!valid_metric_name("1bad"));
        assert!(!valid_metric_name("has space"));
        assert!(valid_label_name("route"));
        assert!(!valid_label_name("le bad"));
    }
}
