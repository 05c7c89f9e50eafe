//! Lock-free serving metrics: per-route counters and a latency
//! histogram, registered into the unified [`MetricsRegistry`] — `GET
//! /metrics` and `GET /live/stats` render them as the `taxrec_http_*`
//! families.
//!
//! Everything here is a registry handle over `AtomicU64` with relaxed
//! ordering — workers record concurrently without coordination, and a
//! reader gets a coherent-enough snapshot for reporting. The latency
//! histogram is [`taxrec_core::histogram::Histogram`] — the same
//! power-of-two-bucket structure the live applier uses for publish and
//! WAL cost — so recording is one `leading_zeros` plus one `fetch_add`
//! (no locks, no allocation) and quantiles are read by walking the
//! cumulative counts in exactly one place.

use std::time::Duration;
use taxrec_core::obs::{Counter, Gauge, HistogramHandle, MetricsRegistry};

pub use taxrec_core::histogram::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};

/// Routes tracked individually; anything else lands in `"other"`.
/// Order matters only for display.
pub const ROUTE_LABELS: &[&str] = &[
    "/health",
    "/model",
    "/recommend",
    "/recommend/batch",
    "/categories",
    "/live/stats",
    "/live/trace",
    "/metrics",
    "/items",
    "/users/fold-in",
    "other",
];

/// Counters for one route, each a labelled series of the
/// `taxrec_http_*` families.
#[derive(Debug)]
struct RouteCounters {
    requests: Counter,
    status_4xx: Counter,
    status_5xx: Counter,
}

/// Plain-data per-route counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteSnapshot {
    /// Requests routed here (any status).
    pub requests: u64,
    /// Responses with a 4xx status.
    pub status_4xx: u64,
    /// Responses with a 5xx status.
    pub status_5xx: u64,
}

/// All serving-layer metrics, shared across workers and the accept
/// loop. One instance lives inside the `LiveServer`; construct with
/// [`HttpMetrics::new`] to register into the server's registry (the
/// `Default` impl registers into a private throwaway one).
#[derive(Debug)]
pub struct HttpMetrics {
    routes: Vec<RouteCounters>,
    latency: HistogramHandle,
    connections: Counter,
    dropped: Counter,
    queue_full: Counter,
    workers: Gauge,
    queue_depth: Gauge,
}

impl Default for HttpMetrics {
    fn default() -> HttpMetrics {
        HttpMetrics::new(&MetricsRegistry::new())
    }
}

impl HttpMetrics {
    /// Register every HTTP family into `registry` and return the handle
    /// bundle. Idempotent per registry.
    pub fn new(registry: &MetricsRegistry) -> HttpMetrics {
        HttpMetrics {
            routes: ROUTE_LABELS
                .iter()
                .map(|route| {
                    let labels = [("route", *route)];
                    RouteCounters {
                        requests: registry.counter(
                            "taxrec_http_requests_total",
                            "Requests handled, by route (any status)",
                            &labels,
                        ),
                        status_4xx: registry.counter(
                            "taxrec_http_responses_4xx_total",
                            "Responses with a 4xx status, by route",
                            &labels,
                        ),
                        status_5xx: registry.counter(
                            "taxrec_http_responses_5xx_total",
                            "Responses with a 5xx status, by route",
                            &labels,
                        ),
                    }
                })
                .collect(),
            latency: registry.histogram(
                "taxrec_http_request_seconds",
                "Server-side request handling latency (parse-to-write)",
                &[],
            ),
            connections: registry.counter(
                "taxrec_http_connections_total",
                "Connections handed to a worker",
                &[],
            ),
            dropped: registry.counter(
                "taxrec_http_dropped_total",
                "Connections closed without a response (bad head, timeout, peer gone)",
                &[],
            ),
            queue_full: registry.counter(
                "taxrec_http_queue_full_total",
                "Connections 503-rejected at the accept loop (backpressure)",
                &[],
            ),
            workers: registry.gauge(
                "taxrec_http_workers",
                "Worker-thread count, as configured at serve time",
                &[],
            ),
            queue_depth: registry.gauge(
                "taxrec_http_queue_depth",
                "Connection-queue capacity, as configured at serve time",
                &[],
            ),
        }
    }

    /// Index into [`ROUTE_LABELS`] for a request path (query string
    /// already stripped or not — both work).
    pub fn route_index(path: &str) -> usize {
        let path = path.split('?').next().unwrap_or(path);
        ROUTE_LABELS
            .iter()
            .position(|&l| l == path)
            .unwrap_or(ROUTE_LABELS.len() - 1)
    }

    /// Record one completed request: route, response status, and the
    /// server-side handling latency (parse-to-write, excluding the
    /// client's own upload time).
    pub fn record_response(&self, path: &str, status: u16, latency: Duration) {
        let r = &self.routes[Self::route_index(path)];
        r.requests.inc();
        match status {
            400..=499 => r.status_4xx.inc(),
            500..=599 => r.status_5xx.inc(),
            _ => {}
        }
        self.latency.record(latency);
    }

    /// A connection reached a worker.
    pub fn inc_connection(&self) {
        self.connections.inc();
    }

    /// A connection was closed without a response (bad head, timeout,
    /// peer gone).
    pub fn inc_dropped(&self) {
        self.dropped.inc();
    }

    /// A connection was refused at the accept loop because the work
    /// queue was full (the backpressure 503).
    pub fn inc_queue_full(&self) {
        self.queue_full.inc();
    }

    /// Record the pool shape for reporting (`serve_on` calls this).
    pub fn set_pool(&self, workers: usize, queue_depth: usize) {
        self.workers.set(workers as u64);
        self.queue_depth.set(queue_depth as u64);
    }

    /// Copy every counter.
    pub fn snapshot(&self) -> HttpMetricsSnapshot {
        let latency = self.latency.snapshot();
        HttpMetricsSnapshot {
            routes: self
                .routes
                .iter()
                .map(|r| RouteSnapshot {
                    requests: r.requests.get(),
                    status_4xx: r.status_4xx.get(),
                    status_5xx: r.status_5xx.get(),
                })
                .collect(),
            connections: self.connections.get(),
            dropped: self.dropped.get(),
            queue_full: self.queue_full.get(),
            workers: self.workers.get(),
            queue_depth: self.queue_depth.get(),
            p50_us: latency.quantile_us(0.50),
            p99_us: latency.quantile_us(0.99),
            requests: latency.total(),
        }
    }
}

/// Plain-data copy of [`HttpMetrics`] at one read point.
pub struct HttpMetricsSnapshot {
    /// Per-route counts, in [`ROUTE_LABELS`] order.
    pub routes: Vec<RouteSnapshot>,
    /// Connections handed to a worker.
    pub connections: u64,
    /// Connections closed without a response.
    pub dropped: u64,
    /// Connections 503-rejected because the queue was full.
    pub queue_full: u64,
    /// Worker-thread count (as configured at serve time).
    pub workers: u64,
    /// Queue capacity (as configured at serve time).
    pub queue_depth: u64,
    /// Latency p50, microseconds (bucket upper bound).
    pub p50_us: u64,
    /// Latency p99, microseconds (bucket upper bound).
    pub p99_us: u64,
    /// Total responses with a recorded latency.
    pub requests: u64,
}

impl HttpMetricsSnapshot {
    /// The [`RouteSnapshot`] for a labelled route.
    pub fn route(&self, label: &str) -> RouteSnapshot {
        self.routes[HttpMetrics::route_index(label)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_histogram_is_the_core_one() {
        // The serving layer and the live applier must bucket latencies
        // identically; the re-export keeps a single implementation.
        let h = Histogram::new();
        h.record(Duration::from_micros(100));
        assert_eq!(h.snapshot().quantile_us(0.5), 128);
        assert_eq!(HISTOGRAM_BUCKETS, 40);
        let _: HistogramSnapshot = h.snapshot();
    }

    #[test]
    fn routes_and_statuses_are_attributed() {
        let m = HttpMetrics::default();
        m.record_response("/recommend?user=1", 200, Duration::from_micros(10));
        m.record_response("/recommend", 400, Duration::from_micros(10));
        m.record_response("/unknown", 404, Duration::from_micros(10));
        m.record_response("/items", 503, Duration::from_micros(10));
        let s = m.snapshot();
        assert_eq!(s.route("/recommend").requests, 2);
        assert_eq!(s.route("/recommend").status_4xx, 1);
        assert_eq!(s.route("other").status_4xx, 1);
        assert_eq!(s.route("/items").status_5xx, 1);
        assert_eq!(s.requests, 4);
    }

    #[test]
    fn http_families_render_in_the_registry() {
        let reg = MetricsRegistry::new();
        let m = HttpMetrics::new(&reg);
        m.record_response("/recommend", 200, Duration::from_micros(50));
        m.set_pool(4, 64);
        let text = reg.render_prometheus();
        assert!(
            text.contains("taxrec_http_requests_total{route=\"/recommend\"} 1"),
            "{text}"
        );
        assert!(text.contains("taxrec_http_workers 4"), "{text}");
        assert!(
            text.contains("taxrec_http_request_seconds_count 1"),
            "{text}"
        );
    }
}
