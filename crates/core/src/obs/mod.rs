//! Observability: the unified metrics registry and request tracing.
//!
//! Everything the system measures flows through one [`Obs`] bundle:
//!
//! - [`MetricsRegistry`] — named counter/gauge/histogram families with
//!   static labels. The HTTP layer, the live applier, and the per-shard
//!   scan kernels all register here; `GET /metrics` renders the whole
//!   catalog as Prometheus text exposition and `GET /live/stats` as
//!   JSON, both from one walk ([`MetricsRegistry::for_each_family`]).
//! - [`Tracer`] — request-scoped structured spans for the recommend
//!   pipeline (per-shard scan → merge → rescore → framing) and the
//!   write path (validate/apply → WAL append → fsync → publish),
//!   buffered in a lock-free ring with probabilistic sampling plus
//!   always-capture-above-threshold slow capture; served by
//!   `GET /live/trace?n=K`.
//!
//! Both are hand-rolled in the same idiom as [`crate::histogram`]:
//! relaxed atomics on the hot path, no locks while serving, no
//! external dependencies. See `docs/guide/observability.md` for the
//! metric catalog, trace schema, and scrape configuration.

pub mod registry;
pub mod trace;

pub use registry::{
    Counter, Family, Gauge, HistogramHandle, MetricKind, MetricsRegistry, ScanMetrics, Series,
    SeriesValue,
};
pub use trace::{SampleReason, SpanRec, TraceBuilder, TraceRecord, Tracer, TRACE_RING_SLOTS};

use std::sync::Arc;
use std::time::Instant;

/// The process-wide observability bundle: one registry, one tracer,
/// and the process start time (for `uptime_seconds`). Shared by `Arc`
/// between the live subsystem and the HTTP layer; the default
/// instance has tracing disabled, so tests and benches that don't
/// care pay one relaxed load per request.
#[derive(Debug)]
pub struct Obs {
    registry: MetricsRegistry,
    tracer: Tracer,
    started: Instant,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs {
            registry: MetricsRegistry::new(),
            tracer: Tracer::new(),
            started: Instant::now(),
        }
    }
}

impl Obs {
    /// Fresh bundle with tracing disabled.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Fresh shared bundle, tracing configured (see
    /// [`Tracer::configure`]).
    pub fn shared_with_tracing(sample_rate: f64, slow_ms: u64) -> Arc<Obs> {
        let obs = Obs::new();
        obs.tracer.configure(sample_rate, slow_ms);
        Arc::new(obs)
    }

    /// The metric catalog.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The trace collector.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Seconds since this bundle was created (process uptime for all
    /// practical purposes — the bundle is built at startup).
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_obs_has_tracing_off() {
        let obs = Obs::new();
        assert!(!obs.tracer().enabled());
        assert!(obs.tracer().start("recommend").is_none());
    }

    #[test]
    fn shared_with_tracing_enables_sampling() {
        let obs = Obs::shared_with_tracing(1.0, 250);
        assert!(obs.tracer().enabled());
        let b = obs.tracer().start("recommend").unwrap();
        obs.tracer().finish(b);
        assert_eq!(obs.tracer().captured(), 1);
    }
}
