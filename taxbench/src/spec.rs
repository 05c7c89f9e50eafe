//! What the benchmark runs and what it reports: the four workloads and
//! the metric tables. `BENCHMARK.json` at the repository root carries
//! the same names in the same order (a unit test holds the two
//! together).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The twelve end-to-end metrics, in output order.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("train_steps_per_s", "1/s", Better::Higher, 0.25),
    e2e("read_p50_us", "us", Better::Lower, 0.25),
    e2e("read_p95_us", "us", Better::Lower, 0.25),
    e2e("add_item_p50_us", "us", Better::Lower, 0.25),
    e2e("fold_in_p50_us", "us", Better::Lower, 0.25),
    e2e("write_p95_us", "us", Better::Lower, 0.25),
    e2e("read_max_rps", "1/s", Better::Higher, 0.25),
    e2e("batch_users_per_s", "1/s", Better::Higher, 0.25),
    e2e("catchup_events_per_s", "1/s", Better::Higher, 0.25),
    e2e("recover_s", "s", Better::Lower, 0.25),
    e2e("rss_peak_mb", "MB", Better::Lower, 0.25),
];

/// Per-layer metrics `(name, unit, better)`, in output order. The part
/// of a name before the first dot is the module it measures.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("kernel.score_block_ns_per_row", "ns", Better::Lower),
    ("kernel.scalar_over_simd", "ratio", Better::Higher),
    ("kernel.dot_i8_block_ns_per_row", "ns", Better::Lower),
    ("kernel.bytes_per_row", "B", Better::Lower),
    ("topk.offer_ns_per_row", "ns", Better::Lower),
    ("scoring.query_us", "us", Better::Lower),
    ("scoring.grown_from_us", "us", Better::Lower),
    ("shards.scan_us", "us", Better::Lower),
    ("shards.slowest_over_mean", "ratio", Better::Lower),
    ("shards.merge_us", "us", Better::Lower),
    ("shards.plan_us", "us", Better::Lower),
    ("shards.rows_scanned_per_req", "count", Better::Lower),
    ("engine.recommend_us", "us", Better::Lower),
    ("engine.quantized_us", "us", Better::Lower),
    ("engine.cascaded_us", "us", Better::Lower),
    ("engine.self_us", "us", Better::Lower),
    ("engine.batch_users_per_s_1t", "1/s", Better::Higher),
    ("engine.batch_scaling", "ratio", Better::Higher),
    ("engine.build_ms", "ms", Better::Lower),
    ("engine.grown_from_us", "us", Better::Lower),
    ("engine.quant_sufficient_ratio", "ratio", Better::Higher),
    ("tier.hit_ratio", "ratio", Better::Higher),
    ("tier.fault_p50_us", "us", Better::Lower),
    ("tier.fault_p99_us", "us", Better::Lower),
    ("tier.evictions_per_s", "1/s", Better::Lower),
    ("tier.refolds_per_s", "1/s", Better::Lower),
    ("tier.build_ms", "ms", Better::Lower),
    ("cell.load_ns", "ns", Better::Lower),
    ("cell.load_ns_churn", "ns", Better::Lower),
    ("cell.publish_us", "us", Better::Lower),
    ("state.validate_ns", "ns", Better::Lower),
    ("state.apply_add_item_us", "us", Better::Lower),
    ("state.apply_fold_in_us", "us", Better::Lower),
    ("state.apply_refold_us", "us", Better::Lower),
    ("state.copied_chunks_per_event", "count", Better::Lower),
    ("live_engine.next_from_us", "us", Better::Lower),
    ("event.encode_ns", "ns", Better::Lower),
    ("event.decode_mb_per_s", "MB/s", Better::Higher),
    ("queue.submit_us", "us", Better::Lower),
    ("queue.wal_append_p50_us", "us", Better::Lower),
    ("queue.wal_fsync_p50_us", "us", Better::Lower),
    ("queue.publish_p50_us", "us", Better::Lower),
    ("queue.publish_p99_us", "us", Better::Lower),
    ("queue.batch_mean", "count", Better::Higher),
    ("queue.rejected", "count", Better::Lower),
    ("queue.snapshot_ms", "ms", Better::Lower),
    ("snapshot.encode_ms", "ms", Better::Lower),
    ("snapshot.decode_ms", "ms", Better::Lower),
    ("persist.encode_mb_per_s", "MB/s", Better::Higher),
    ("persist.decode_mb_per_s", "MB/s", Better::Higher),
    ("replication.frame_codec_ns", "ns", Better::Lower),
    ("replication.hub_commit_us", "us", Better::Lower),
    ("replication.lag_max", "count", Better::Lower),
    ("replication.lag_p99_ms", "ms", Better::Lower),
    ("replication.reconnects", "count", Better::Lower),
    ("serve.load_ms", "ms", Better::Lower),
    ("serve.replay_events_per_s", "1/s", Better::Higher),
    ("router.route_recommend_us", "us", Better::Lower),
    ("router.self_us", "us", Better::Lower),
    ("router.stats_render_us", "us", Better::Lower),
    ("router.metrics_render_us", "us", Better::Lower),
    ("http.roundtrip_us", "us", Better::Lower),
    ("http.self_us", "us", Better::Lower),
    ("http.connect_us", "us", Better::Lower),
    ("http.server_p50_us", "us", Better::Lower),
    ("http.queue_full", "count", Better::Lower),
    ("http.busy_503", "count", Better::Lower),
    ("http.dropped", "count", Better::Lower),
    ("train.steps_per_s_1t", "1/s", Better::Higher),
    ("train.parallel_speedup", "ratio", Better::Higher),
    ("train.deterministic_steps_per_s", "1/s", Better::Higher),
    ("train.cache_speedup", "ratio", Better::Higher),
    ("train.auc", "ratio", Better::Higher),
    ("factors.cow_clone_ns", "ns", Better::Lower),
    ("factors.cow_row_mut_us", "us", Better::Lower),
    ("factors.quant_grow_us", "us", Better::Lower),
    ("factors.model_bytes_per_item", "B", Better::Lower),
    ("dataset.generate_ms", "ms", Better::Lower),
    ("gen.late_p99_us", "us", Better::Lower),
    ("gen.achieved_over_scheduled", "ratio", Better::Higher),
    ("trace.overhead_ratio", "ratio", Better::Lower),
];

/// The read request a workload's steady traffic is made of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadKind {
    /// `GET /recommend?user=U&top=K` through the server's own backend.
    Single { top: usize },
    /// `GET /recommend/batch?users=<n ids>&top=K&cascade=F&threads=T`.
    CascadedBatch {
        users: usize,
        top: usize,
        cascade: f64,
        threads: usize,
    },
}

impl ReadKind {
    /// How many items a request asks for per user.
    pub fn top(self) -> usize {
        match self {
            ReadKind::Single { top } | ReadKind::CascadedBatch { top, .. } => top,
        }
    }
}

/// One deployment shape: dataset, model, serve configuration and the
/// steady traffic mix. Rates are requests per second.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds its
    /// metrics to their bounds. A workload that is not is run by hand
    /// and by `ci.sh`.
    pub gated: bool,
    pub items: usize,
    pub users: usize,
    /// Interior taxonomy nodes per level, top-down.
    pub levels: [usize; 3],
    pub mean_transactions: f64,
    /// `TF(U, B)`.
    pub tf: (usize, usize),
    pub factors: usize,
    pub epochs: usize,
    pub scan_shards: usize,
    pub tier_budget: Option<usize>,
    pub read: ReadKind,
    pub read_rate: f64,
    pub zipf: f64,
    pub add_item_rate: f64,
    pub fold_in_rate: f64,
    pub refold_rate: f64,
    pub fold_steps: usize,
    /// `train.auc` below this fails the run.
    pub auc_floor: f64,
}

/// Events the leader applies between its last snapshot and the end of
/// the run; recovery replays exactly these, so `recover_s` measures the
/// same tail every run.
pub const RECOVERY_TAIL_EVENTS: usize = 256;
/// Users checked leader ≡ follower ≡ oracle ≡ recovered at quiesce.
pub const VERIFY_USERS: usize = 64;
/// Users the offline batch scores (`batch_users_per_s`).
pub const BATCH_USERS: usize = 4096;
/// Reads sent before any timing starts.
pub const WARM_READS: usize = 200;

const CATALOG_READ: Workload = Workload {
    name: "catalog_read",
    why: "Scan-bound reads: kernel, shard scan, merge and engine are most of a request on a 32k-item K=64 catalog with light writes, so scan work shows here and write-path work should not.",
    gated: true,
    items: 32_000,
    users: 8_000,
    levels: [12, 60, 300],
    mean_transactions: 5.0,
    tf: (4, 1),
    factors: 64,
    epochs: 8,
    scan_shards: 2,
    tier_budget: None,
    read: ReadKind::Single { top: 10 },
    read_rate: 250.0,
    zipf: 1.0,
    add_item_rate: 35.0,
    fold_in_rate: 10.0,
    refold_rate: 0.0,
    fold_steps: 200,
    auc_floor: 0.70,
};

/// All four workloads; the gated ones in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Workload> {
    vec![
        CATALOG_READ,
        Workload {
            name: "catalog_churn",
            why: "Same dataset, model and read schedule as catalog_read with heavy writes beside them: applier, LiveState::apply, WAL, grown_from, publish, snapshots and replication do most of the work.",
            add_item_rate: 50.0,
            fold_in_rate: 11.0,
            refold_rate: 3.0,
            fold_steps: 100,
            ..CATALOG_READ
        },
        Workload {
            name: "users_tiered",
            why: "Small catalog, 40k users behind a 10% hot tier: scan is a small share, so accept/pool/parse/route/JSON and tier hit/fault/refold dominate; kernel work should show no change here.",
            // Its requests are a few hundred microseconds of context
            // switches and cache refills, which this sandbox's memory
            // system moves by a third between runs whatever the code
            // does: its spreads sit at the bounds, not inside them.
            gated: false,
            items: 2_000,
            users: 40_000,
            levels: [8, 30, 120],
            mean_transactions: 5.0,
            tf: (2, 0),
            factors: 16,
            epochs: 12,
            scan_shards: 1,
            tier_budget: Some(4_000),
            read: ReadKind::Single { top: 10 },
            read_rate: 600.0,
            zipf: 0.7,
            add_item_rate: 18.0,
            fold_in_rate: 34.0,
            refold_rate: 18.0,
            fold_steps: 100,
            auc_floor: 0.55,
        },
        Workload {
            name: "batch_cascade",
            why: "The paper's inference and temporal paths: cascaded taxonomy beam, B=2 Markov queries over long histories, batch planner and cross-user threads; exhaustive-scan work shows little here.",
            gated: true,
            items: 8_000,
            users: 10_000,
            levels: [12, 60, 300],
            mean_transactions: 12.0,
            tf: (4, 2),
            factors: 32,
            epochs: 4,
            scan_shards: 2,
            tier_budget: None,
            read: ReadKind::CascadedBatch {
                users: 8,
                top: 20,
                cascade: 0.3,
                threads: 2,
            },
            read_rate: 100.0,
            zipf: 1.0,
            add_item_rate: 58.0,
            fold_in_rate: 12.0,
            refold_rate: 0.0,
            fold_steps: 200,
            auc_floor: 0.75,
        },
    ]
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--smoke` shape: a tenth of the data, same traffic mix.
    pub fn smoke(&self) -> Workload {
        Workload {
            items: self.items / 10,
            users: self.users / 10,
            levels: self.levels.map(|l| (l / 3).max(2)),
            tier_budget: self.tier_budget.map(|b| b / 10),
            epochs: self.epochs.min(3),
            ..self.clone()
        }
    }

    /// Total write rate (add-item + fold-in + refold).
    pub fn write_rate(&self) -> f64 {
        self.add_item_rate + self.fold_in_rate + self.refold_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxrec_cli::json::{self, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a str {
        obj.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn names_and_order_match_benchmark_json() {
        let doc = benchmark_json();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name").to_string(), field(w, "why").to_string()))
            .collect();
        let ours: Vec<(String, String)> = workloads()
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours, "workloads");

        let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }

        let layers = doc.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), *name);
            assert_eq!(field(j, "unit"), *unit, "{name}");
            assert_eq!(field(j, "better"), better.as_str(), "{name}");
        }
    }

    #[test]
    fn churn_differs_from_read_only_in_writes() {
        let all = workloads();
        let (read, churn) = (&all[0], &all[1]);
        let same_but_writes = Workload {
            name: read.name,
            why: read.why,
            add_item_rate: read.add_item_rate,
            fold_in_rate: read.fold_in_rate,
            refold_rate: read.refold_rate,
            fold_steps: read.fold_steps,
            ..churn.clone()
        };
        assert_eq!(&same_but_writes, read);
    }
}
