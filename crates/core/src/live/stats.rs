//! Counters the applier maintains.
//!
//! Every counter and latency histogram here is a handle into the
//! unified [`MetricsRegistry`], which `GET /metrics` and `GET
//! /live/stats` render; quantiles come from the one
//! [`crate::histogram`] implementation.

use super::state::Applied;
use crate::obs::{Counter, Gauge, HistogramHandle, MetricsRegistry};
use std::time::Duration;

/// Shared, lock-free counters describing the live subsystem's activity.
/// All counters are monotone; read them individually or grab a
/// coherent-enough [`snapshot`](LiveStats::snapshot) for reporting.
///
/// Construct with [`LiveStats::new`] to register every series into a
/// [`MetricsRegistry`]; `Default` registers into a private throwaway
/// registry (tests, benches that don't scrape).
#[derive(Debug)]
pub struct LiveStats {
    enqueued: Counter,
    applied: Counter,
    rejected: Counter,
    items_added: Counter,
    users_folded: Counter,
    users_refolded: Counter,
    publishes: Counter,
    snapshots_written: Counter,
    log_bytes: Counter,
    log_errors: Counter,
    /// Per-publish cost of deriving + swapping the successor snapshot
    /// (the structural-sharing block, not the per-event apply).
    publish_latency: HistogramHandle,
    /// `LiveState::apply` per event, by event type (`add_item`,
    /// `fold_in`, `refold`), leader and follower alike.
    apply_latency: [HistogramHandle; 3],
    /// WAL buffer write (`write_all`) — the first half of the ack
    /// critical path.
    wal_append: HistogramHandle,
    /// WAL flush — the second half of the ack critical path.
    wal_fsync: HistogramHandle,
    /// Factor chunks the successor model shared with its predecessor by
    /// pointer, summed over publishes — the proof COW is engaged.
    model_shared_chunks: Counter,
    /// Factor chunks the successor model did *not* share (copied for a
    /// mutation or freshly appended), summed over publishes.
    model_copied_chunks: Counter,
    /// Factor bytes a publish did not share with its predecessor —
    /// model chunks plus the derived scorer/scan tables (see
    /// [`super::LiveEngine::copied_bytes_since`]).
    publish_copied_bytes: Counter,
    /// `AddItem` applies that reused the retired epoch's taxonomy arena
    /// (see [`super::LiveState::arena_recycles`]).
    arena_recycles: Counter,
    /// `AddItem` applies that copied the arena because no spare was
    /// free — keeps growing only while a snapshot is pinned.
    arena_copies: Counter,
    /// 1 once the applier has dropped to read-only degraded mode after a
    /// WAL append/rotation failure; never clears without a restart.
    degraded: Gauge,
    /// Resident factor bytes per table × sharing kind
    /// (`taxrec_model_bytes{table,kind}`), refreshed at every publish —
    /// what tiering saves is visible as the user table's bytes.
    model_bytes: [[Gauge; 2]; 3],
}

impl Default for LiveStats {
    fn default() -> LiveStats {
        LiveStats::new(&MetricsRegistry::new())
    }
}

/// A plain-data copy of every counter at one read point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveStatsSnapshot {
    /// Events accepted into the queue.
    pub enqueued: u64,
    /// Events applied to the model.
    pub applied: u64,
    /// Events rejected (invalid parent, unknown item, …).
    pub rejected: u64,
    /// `AddItem` events applied.
    pub items_added: u64,
    /// `FoldInUser` events applied.
    pub users_folded: u64,
    /// `RefoldUser` events applied (an existing folded user's factor
    /// recomputed from a replacement history).
    pub users_refolded: u64,
    /// Snapshot publishes (equals the current epoch).
    pub publishes: u64,
    /// `.tfm` snapshots written by the applier.
    pub snapshots_written: u64,
    /// Bytes appended to the event log.
    pub log_bytes: u64,
    /// Event-log write failures (durability is then degraded; the
    /// in-memory state is still correct).
    pub log_errors: u64,
    /// Publish-cost p50, microseconds (power-of-two bucket upper bound).
    pub publish_p50_us: u64,
    /// Publish-cost p99, microseconds (power-of-two bucket upper bound).
    pub publish_p99_us: u64,
    /// Sum of all publish latencies, microseconds (accumulated in
    /// nanoseconds internally, so many sub-µs publishes still add up).
    pub publish_us_total: u64,
    /// WAL append (`write_all`) p50, microseconds.
    pub wal_append_p50_us: u64,
    /// WAL append (`write_all`) p99, microseconds.
    pub wal_append_p99_us: u64,
    /// WAL fsync/flush p50, microseconds.
    pub wal_fsync_p50_us: u64,
    /// WAL fsync/flush p99, microseconds.
    pub wal_fsync_p99_us: u64,
    /// Model factor chunks shared with the predecessor across all
    /// publishes (see [`crate::TfModel::chunk_sharing_with`]).
    pub model_shared_chunks: u64,
    /// Model factor chunks copied/appended across all publishes. For an
    /// O(change) publish path this stays near the event count while
    /// `model_shared_chunks` grows with catalog × publishes.
    pub model_copied_chunks: u64,
    /// Resident factor bytes per table, `(shared, owned)` by chunk
    /// refcount, in `(user, node, next)` order. Updated at publish time.
    pub model_bytes: [(u64, u64); 3],
}

impl LiveStats {
    /// Register every live-subsystem series into `registry` and return
    /// the handle bundle. Idempotent per registry: a second call hands
    /// back handles onto the same atomics.
    pub fn new(registry: &MetricsRegistry) -> LiveStats {
        let c = |name: &str, help: &str| registry.counter(name, help, &[]);
        let h = |name: &str, help: &str| registry.histogram(name, help, &[]);
        LiveStats {
            enqueued: c(
                "taxrec_live_events_enqueued_total",
                "Update events accepted into the live queue",
            ),
            applied: c(
                "taxrec_live_events_applied_total",
                "Update events applied to the model",
            ),
            rejected: c(
                "taxrec_live_events_rejected_total",
                "Update events rejected (invalid parent, unknown item, ...)",
            ),
            items_added: c("taxrec_live_items_added_total", "AddItem events applied"),
            users_folded: c(
                "taxrec_live_users_folded_total",
                "FoldInUser events applied",
            ),
            users_refolded: c(
                "taxrec_live_users_refolded_total",
                "RefoldUser events applied (existing folded user recomputed)",
            ),
            publishes: c(
                "taxrec_live_publishes_total",
                "Model snapshot publishes (equals the current epoch)",
            ),
            snapshots_written: c(
                "taxrec_live_snapshots_written_total",
                ".tfm snapshots written by the applier",
            ),
            log_bytes: c(
                "taxrec_live_wal_bytes_total",
                "Bytes appended to the event log",
            ),
            log_errors: c(
                "taxrec_live_wal_errors_total",
                "Event-log write failures (durability degraded)",
            ),
            publish_latency: h(
                "taxrec_live_publish_seconds",
                "Per-publish cost of deriving + swapping the successor snapshot",
            ),
            apply_latency: ["add_item", "fold_in", "refold"].map(|event| {
                registry.histogram(
                    "taxrec_live_apply_seconds",
                    "LiveState::apply cost per event, by event type",
                    &[("event", event)],
                )
            }),
            wal_append: h(
                "taxrec_wal_append_seconds",
                "WAL buffer write (write_all) latency, first half of the ack critical path",
            ),
            wal_fsync: h(
                "taxrec_wal_fsync_seconds",
                "WAL flush latency, second half of the ack critical path",
            ),
            model_shared_chunks: c(
                "taxrec_live_model_shared_chunks_total",
                "Factor chunks shared with the predecessor model across publishes",
            ),
            model_copied_chunks: c(
                "taxrec_live_model_copied_chunks_total",
                "Factor chunks copied or appended across publishes",
            ),
            publish_copied_bytes: c(
                "taxrec_live_publish_copied_bytes_total",
                "Factor bytes not shared with the predecessor snapshot, summed over publishes",
            ),
            arena_recycles: c(
                "taxrec_live_arena_recycles_total",
                "AddItem applies that reused the retired epoch's taxonomy arena",
            ),
            arena_copies: c(
                "taxrec_live_arena_copies_total",
                "AddItem applies that copied the taxonomy arena (no free spare: first adds, or a pinned snapshot)",
            ),
            degraded: registry.gauge(
                "taxrec_live_degraded",
                "1 when the applier is read-only degraded after a WAL failure",
                &[],
            ),
            model_bytes: ["user", "node", "next"].map(|table| {
                ["shared", "owned"].map(|kind| {
                    registry.gauge(
                        "taxrec_model_bytes",
                        "Resident factor bytes by table and chunk-sharing kind",
                        &[("table", table), ("kind", kind)],
                    )
                })
            }),
        }
    }

    pub(crate) fn inc_enqueued(&self) {
        self.enqueued.inc();
    }
    pub(crate) fn inc_applied(&self) {
        self.applied.inc();
    }
    pub(crate) fn inc_rejected(&self) {
        self.rejected.inc();
    }
    pub(crate) fn inc_items_added(&self) {
        self.items_added.inc();
    }
    pub(crate) fn inc_users_folded(&self) {
        self.users_folded.inc();
    }
    pub(crate) fn inc_users_refolded(&self) {
        self.users_refolded.inc();
    }
    /// Refresh the `taxrec_model_bytes{table,kind}` gauges from the
    /// published model's chunk refcounts.
    pub(crate) fn set_model_bytes(&self, model: &crate::model::TfModel) {
        for (gauges, m) in self.model_bytes.iter().zip(model.cow_matrices()) {
            let (shared, owned) = m.byte_sizes();
            gauges[0].set(shared);
            gauges[1].set(owned);
        }
    }
    pub(crate) fn inc_publishes(&self) {
        self.publishes.inc();
    }
    pub(crate) fn inc_snapshots(&self) {
        self.snapshots_written.inc();
    }
    pub(crate) fn add_log_bytes(&self, n: u64) {
        self.log_bytes.add(n);
    }
    pub(crate) fn inc_log_errors(&self) {
        self.log_errors.inc();
    }
    pub(crate) fn record_publish(
        &self,
        took: Duration,
        shared_chunks: u64,
        copied_chunks: u64,
        copied_bytes: u64,
    ) {
        self.publish_latency.record(took);
        self.model_shared_chunks.add(shared_chunks);
        self.model_copied_chunks.add(copied_chunks);
        self.publish_copied_bytes.add(copied_bytes);
    }
    /// Record one `LiveState::apply` of the given event type.
    pub(crate) fn record_apply(&self, applied: &Applied, took: Duration) {
        let kind = match applied {
            Applied::ItemAdded { .. } => 0,
            Applied::UserFolded { .. } => 1,
            Applied::UserRefolded { .. } => 2,
        };
        self.apply_latency[kind].record(took);
    }
    /// Add what the last apply moved of the state's arena counters.
    pub(crate) fn add_arena(&self, recycles: u64, copies: u64) {
        self.arena_recycles.add(recycles);
        self.arena_copies.add(copies);
    }
    /// Record one WAL append+flush on the ack critical path.
    pub(crate) fn record_wal(&self, append: Duration, fsync: Duration) {
        self.wal_append.record(append);
        self.wal_fsync.record(fsync);
    }
    pub(crate) fn set_degraded(&self) {
        self.degraded.set(1);
    }

    /// Events enqueued but not yet applied or rejected (approximate —
    /// the counters are read independently).
    pub fn pending(&self) -> u64 {
        let done = self.applied.get() + self.rejected.get();
        self.enqueued.get().saturating_sub(done)
    }

    /// Copy every counter.
    pub fn snapshot(&self) -> LiveStatsSnapshot {
        LiveStatsSnapshot {
            enqueued: self.enqueued.get(),
            applied: self.applied.get(),
            rejected: self.rejected.get(),
            items_added: self.items_added.get(),
            users_folded: self.users_folded.get(),
            users_refolded: self.users_refolded.get(),
            publishes: self.publishes.get(),
            snapshots_written: self.snapshots_written.get(),
            log_bytes: self.log_bytes.get(),
            log_errors: self.log_errors.get(),
            publish_p50_us: self.publish_latency.quantile_us(0.50),
            publish_p99_us: self.publish_latency.quantile_us(0.99),
            publish_us_total: self.publish_latency.sum_us(),
            wal_append_p50_us: self.wal_append.quantile_us(0.50),
            wal_append_p99_us: self.wal_append.quantile_us(0.99),
            wal_fsync_p50_us: self.wal_fsync.quantile_us(0.50),
            wal_fsync_p99_us: self.wal_fsync.quantile_us(0.99),
            model_shared_chunks: self.model_shared_chunks.get(),
            model_copied_chunks: self.model_copied_chunks.get(),
            model_bytes: [0, 1, 2].map(|i| {
                let g = &self.model_bytes[i];
                (g[0].get(), g[1].get())
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_register_into_the_shared_registry() {
        let reg = MetricsRegistry::new();
        let stats = LiveStats::new(&reg);
        stats.inc_applied();
        stats.record_wal(Duration::from_micros(40), Duration::from_micros(900));
        stats.record_publish(Duration::from_micros(7), 10, 2, 4096);
        stats.record_apply(&Applied::UserFolded { user: 0 }, Duration::from_micros(300));
        stats.add_arena(3, 1);
        let text = reg.render_prometheus();
        assert!(
            text.contains("taxrec_live_arena_recycles_total 3")
                && text.contains("taxrec_live_arena_copies_total 1"),
            "{text}"
        );
        assert!(
            text.contains("taxrec_live_publish_copied_bytes_total 4096"),
            "{text}"
        );
        assert!(
            text.contains("taxrec_live_apply_seconds_count{event=\"fold_in\"} 1")
                && text.contains("taxrec_live_apply_seconds_count{event=\"add_item\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("taxrec_live_events_applied_total 1"),
            "{text}"
        );
        assert!(text.contains("taxrec_wal_append_seconds_count 1"), "{text}");
        assert!(text.contains("taxrec_wal_fsync_seconds_count 1"), "{text}");
        assert!(
            text.contains("taxrec_live_publish_seconds_count 1"),
            "{text}"
        );
        let snap = stats.snapshot();
        assert_eq!(snap.applied, 1);
        assert_eq!(snap.wal_append_p50_us, 64);
        assert_eq!(snap.wal_fsync_p50_us, 1024);
        assert_eq!(snap.model_shared_chunks, 10);
        assert_eq!(snap.model_copied_chunks, 2);
    }

    #[test]
    fn default_stats_still_work_standalone() {
        let stats = LiveStats::default();
        stats.inc_enqueued();
        stats.inc_enqueued();
        stats.inc_applied();
        assert_eq!(stats.pending(), 1);
        let snap = stats.snapshot();
        assert_eq!(snap.enqueued, 2);
        assert_eq!(snap.publish_p50_us, 0, "empty histogram quantile is 0");
    }
}
