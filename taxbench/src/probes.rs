//! The per-layer metrics of a traced run. Each layer is measured by
//! timing calls into its public functions on the workload's own final
//! model (same K, same catalog), after the steady phase; counts come
//! from the public stats snapshots of the leader that served it.

use crate::client;
use crate::gen::{ReadGen, WriteGen};
use crate::run::RunConfig;
use crate::spec::Workload;
use crate::stack::{model_config, nproc, Asked, Stack};
use crate::stats::{self, median};
use crate::steady::{GenHealth, SteadyOutcome};
use crate::trace::{self, Span};
use crate::walker::BareApplier;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use taxrec_cli::serve::{route, LiveServer};
use taxrec_core::live::replication::{encode_record_frame, read_frame, ReplicationHub};
use taxrec_core::live::snapshot::{decode_live, encode_live};
use taxrec_core::live::{
    decode_log, encode_event, encode_log_header, replay, LiveEngine, LiveState, LogHeader,
    UpdateEvent,
};
use taxrec_core::obs::{MetricsRegistry, ScanMetrics, Tracer};
use taxrec_core::recommend::shards::{merge_topk, CatalogPartition};
use taxrec_core::recommend::{
    Backend, F32Kernel, QuantQuery, QuantizedConfig, RecommendEngine, RecommendRequest, TopK,
};
use taxrec_core::{persist, CascadeConfig, Scorer, TfModel, TfTrainer, TrainStats, UserTier};
use taxrec_taxonomy::{ItemId, NodeId};

/// Everything the probes read.
pub struct Context<'a> {
    pub cfg: &'a RunConfig,
    pub stack: &'a Stack,
    pub run_dir: &'a Path,
    /// Where the leader keeps its WAL and snapshot.
    pub leader_dir: &'a Path,
    pub outcome: &'a SteadyOutcome<'a>,
    pub health: GenHealth,
    pub tail_events: &'a [UpdateEvent],
    /// `LiveServer::load` on the recovery copy, median.
    pub load_ms: f64,
    pub auc: f64,
    pub generate_ms: f64,
    /// The trained model as written to disk (untiered, no live growth).
    pub base_model: &'a TfModel,
}

type Metrics = BTreeMap<&'static str, f64>;

/// Median time of one call, nanoseconds: `batches` timed batches of
/// `per_batch` calls each, median of the batch means.
fn time_ns(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let means: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&means)
}

/// Median of one timed call per element of `inputs`, nanoseconds.
fn time_each_ns<T>(inputs: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> f64 {
    let each: Vec<f64> = inputs
        .into_iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&each)
}

/// The `q`-quantile, microseconds, of one latency series of `registry`,
/// read from its power-of-two buckets with linear interpolation inside
/// the bucket. (The stats snapshots round a quantile up to its bucket's
/// upper bound, which reads the same on every run.) The lowest bucket
/// also takes everything below a microsecond, so a quantile that lands
/// there says nothing; the series mean is reported in its place.
fn quantile_us(registry: &MetricsRegistry, family: &str, labels: &[(&str, &str)], q: f64) -> f64 {
    // Registration is idempotent: this is a handle onto the live series.
    let series = registry.histogram(family, "", labels);
    let counts = series.snapshot().counts;
    let total: u64 = counts.iter().sum();
    let target = q * total as f64;
    let mut below = counts[0] as f64;
    if target > below {
        for (bucket, &count) in counts.iter().enumerate().skip(1) {
            let count = count as f64;
            if below + count >= target {
                // Bucket `i` holds latencies in [2^i, 2^(i+1)) microseconds.
                return (1u64 << bucket) as f64 * (1.0 + (target - below) / count);
            }
            below += count;
        }
    }
    series.sum_us() as f64 / total.max(1) as f64
}

fn interior_parent(model: &TfModel) -> NodeId {
    let tax = model.taxonomy();
    tax.parent(tax.item_node(ItemId(0))).unwrap_or(NodeId::ROOT)
}

/// What several probes share: the leader's final snapshot and a list of
/// Zipf-drawn trained users to ask about.
struct Probe<'a> {
    ctx: &'a Context<'a>,
    w: &'a Workload,
    leader: &'a LiveServer,
    snap: Arc<LiveEngine>,
    asked: Asked,
    /// Repetitions of a slow call and of a fast one.
    few: usize,
    many: usize,
}

impl<'a> Probe<'a> {
    fn new(ctx: &'a Context<'a>) -> Probe<'a> {
        let w = &ctx.cfg.workload;
        let (few, many) = if ctx.cfg.smoke { (8, 40) } else { (20, 100) };
        let users = ReadGen::new(w, ctx.cfg.seed, 11).users(many);
        let leader: &LiveServer = &ctx.stack.leader.server;
        Probe {
            ctx,
            w,
            leader,
            snap: leader.live().cell().load(),
            asked: Asked::new(users, &ctx.stack.data.train),
            few,
            many,
        }
    }

    fn requests(&self) -> Vec<RecommendRequest<'_>> {
        self.asked.requests(&self.ctx.stack.data.train, 10)
    }

    /// The final model after one more add-item.
    fn grown_model(&self) -> Result<Arc<TfModel>, String> {
        let mut next = self.snap.model().clone();
        next.add_item_mut(interior_parent(self.snap.model()))
            .map_err(|e| e.to_string())?;
        Ok(Arc::new(next))
    }

    fn walk_spans(&self) -> &'a [Span] {
        self.ctx.outcome.walk.as_ref().map_or(&[], |w| &w.spans)
    }
}

/// kernel, topk: one 256-row block of the real catalog.
fn kernel_and_topk(p: &Probe<'_>, m: &mut Metrics) {
    let engine = p.snap.engine();
    let train = &p.ctx.stack.data.train;
    let user = p.asked.users[0];
    let query = engine.scorer().query(user, train.user(user));
    let rows = 256.min(p.snap.model().num_items());
    let block: Vec<f32> = (0..rows)
        .flat_map(|i| engine.dense_item_factor(ItemId(i as u32)).to_vec())
        .collect();
    let mut scores = vec![0.0f32; rows];
    let kernel = F32Kernel::select();
    let simd_ns = time_ns(9, 200, || kernel.score_block(&query, &block, &mut scores));
    let scalar_ns = time_ns(9, 200, || {
        F32Kernel::Scalar.score_block(&query, &block, &mut scores)
    });
    m.insert("kernel.score_block_ns_per_row", simd_ns / rows as f64);
    m.insert("kernel.scalar_over_simd", scalar_ns / simd_ns);

    let qq = QuantQuery::from_query(&query);
    let chunk = &engine.quant_shard(0).chunks()[0];
    let mut dots = vec![0i32; chunk.rows()];
    let i8_ns = time_ns(9, 200, || {
        kernel.dot_i8_block(qq.codes(), chunk.flat_codes(), &mut dots)
    });
    m.insert(
        "kernel.dot_i8_block_ns_per_row",
        i8_ns / chunk.rows() as f64,
    );
    // Computed, not measured: one f32 row of K factors.
    m.insert("kernel.bytes_per_row", (p.snap.model().k() * 4) as f64);

    let mut topk = TopK::new();
    let offer_ns = time_ns(9, 200, || {
        topk.reset(10);
        for (i, &s) in scores.iter().enumerate() {
            topk.offer(ItemId(i as u32), s);
        }
    });
    m.insert("topk.offer_ns_per_row", offer_ns / rows as f64);
}

/// scoring, shards, engine: requests on the final snapshot.
fn read_path(p: &Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let engine = p.snap.engine();
    let model = p.snap.model();
    let requests = p.requests();
    let grown = p.grown_model()?;

    let mut q = vec![0.0f32; model.k()];
    m.insert(
        "scoring.query_us",
        time_each_ns(&requests, |r| {
            engine.scorer().query_into(r.user, r.history, &mut q)
        }) / 1e3,
    );
    m.insert(
        "scoring.grown_from_us",
        time_each_ns(0..p.few, |_| {
            std::hint::black_box(Scorer::grown_from(engine.scorer(), Arc::clone(&grown)));
        }) / 1e3,
    );

    // The engine's own stage spans of exhaustive requests.
    let scan_metrics = ScanMetrics::register(p.leader.obs().registry(), engine.scan_shards());
    let rows_before = scan_metrics.rows_total();
    let tracer = Tracer::new();
    tracer.configure(1.0, 0);
    let (mut scan_us, mut skew, mut self_us) = (Vec::new(), Vec::new(), Vec::new());
    for r in &requests {
        let mut b = tracer
            .start("recommend")
            .expect("tracer samples every request");
        std::hint::black_box(engine.recommend_traced(r, &Backend::Exhaustive, &mut b));
        tracer.finish(b);
        let rec = tracer.recent(1).pop().expect("trace just captured");
        let scans: Vec<f64> = rec
            .spans
            .iter()
            .filter(|s| s.name.starts_with("scan["))
            .map(|s| s.dur_us as f64)
            .collect();
        let of = |name: &str| {
            rec.spans
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, |s| s.dur_us as f64)
        };
        let scan_sum: f64 = scans.iter().sum();
        let mean = scan_sum / scans.len().max(1) as f64;
        scan_us.push(scan_sum);
        skew.push(if mean > 0.0 {
            scans.iter().copied().fold(0.0, f64::max) / mean
        } else {
            1.0
        });
        self_us.push((rec.total_us as f64 - scan_sum - of("merge") - of("query")).max(0.0));
    }
    m.insert("shards.scan_us", median(&scan_us));
    m.insert("shards.slowest_over_mean", median(&skew));
    m.insert("engine.self_us", median(&self_us));
    m.insert(
        "shards.rows_scanned_per_req",
        (scan_metrics.rows_total() - rows_before) as f64 / requests.len() as f64,
    );
    m.insert(
        "shards.plan_us",
        time_ns(5, 4, || {
            std::hint::black_box(CatalogPartition::plan(model.taxonomy(), p.w.scan_shards));
        }) / 1e3,
    );
    // merge_topk on per-shard winner lists of the served size (the
    // engine's own merge span is rounded to whole microseconds).
    let shards = engine.scan_shards();
    let partials: Vec<Vec<(ItemId, f32)>> = (0..shards)
        .map(|s| {
            (0..10)
                .map(|i| (ItemId((i * shards + s) as u32), -(i as f32)))
                .collect()
        })
        .collect();
    let mut merged = Vec::new();
    m.insert(
        "shards.merge_us",
        time_ns(9, 200, || {
            let mut lists = partials.clone();
            merge_topk(&mut lists, 10, &mut merged);
        }) / 1e3,
    );

    m.insert(
        "engine.recommend_us",
        time_each_ns(&requests, |r| {
            std::hint::black_box(engine.recommend_with(r, &Backend::Exhaustive));
        }) / 1e3,
    );
    let cascaded = Backend::Cascaded(CascadeConfig::uniform(model.taxonomy().depth(), 0.3));
    m.insert(
        "engine.cascaded_us",
        time_each_ns(&requests, |r| {
            std::hint::black_box(engine.recommend_with(r, &cascaded));
        }) / 1e3,
    );
    let shared_model = Arc::new(model.clone());
    let build = |backend: Backend| {
        RecommendEngine::with_backend_sharded(Arc::clone(&shared_model), backend, p.w.scan_shards)
    };
    m.insert(
        "engine.build_ms",
        time_ns(3, 1, || {
            std::hint::black_box(build(Backend::Exhaustive));
        }) / 1e6,
    );
    let quant_engine = build(Backend::Quantized(QuantizedConfig::default()));
    m.insert(
        "engine.quantized_us",
        time_each_ns(&requests, |r| {
            std::hint::black_box(quant_engine.recommend(r));
        }) / 1e3,
    );
    let pool = quant_engine.quant_pool_stats();
    m.insert(
        "engine.quant_sufficient_ratio",
        pool.sufficient as f64 / pool.scans.max(1) as f64,
    );
    let batch_rate = |threads: usize| {
        let ns = time_ns(3, 1, || {
            std::hint::black_box(engine.recommend_batch(&requests, threads));
        });
        requests.len() as f64 / (ns / 1e9)
    };
    let one_thread = batch_rate(1);
    m.insert("engine.batch_users_per_s_1t", one_thread);
    m.insert("engine.batch_scaling", batch_rate(nproc()) / one_thread);
    m.insert(
        "engine.grown_from_us",
        time_each_ns(0..p.few, |_| {
            std::hint::black_box(RecommendEngine::grown_from(
                engine,
                Arc::clone(&grown),
                Backend::Exhaustive,
            ));
        }) / 1e3,
    );
    Ok(())
}

/// tier: the leader's own tier over the steady phase when the workload
/// serves tiered; otherwise a probe tier over the same users (a tenth
/// of them hot) under Zipf reads of the workload's skew, with a few
/// folded users so that recompute faults occur. cell.
fn tier_and_cell(p: &Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let ctx = p.ctx;
    let probe_registry = MetricsRegistry::new();
    let t = Instant::now();
    let probe_tier = UserTier::build(
        &ctx.run_dir.join("probe.cold"),
        ctx.base_model.cow_matrices()[0],
        p.w.tier_budget.unwrap_or(p.w.users / 10).max(1),
        &probe_registry,
    )
    .map_err(|e| format!("UserTier::build: {e}"))?;
    m.insert("tier.build_ms", t.elapsed().as_secs_f64() * 1e3);

    let (stats, registry, secs) = match p.snap.model().user_tier_stats() {
        Some(live) => (
            live,
            p.leader.obs().registry(),
            ctx.outcome.elapsed.as_secs_f64(),
        ),
        None => {
            let mut state = LiveState::new(ctx.base_model.clone());
            state.attach_user_tier(probe_tier);
            let only_folds = Workload {
                add_item_rate: 0.0,
                fold_in_rate: 1.0,
                refold_rate: 0.0,
                ..p.w.clone()
            };
            let mut gen = WriteGen::new(&only_folds, &ctx.stack.data, ctx.cfg.seed, 5, 0);
            for _ in 0..p.few {
                state.apply(&gen.next_event()).map_err(|e| e.to_string())?;
            }
            let scorer = Scorer::new(state.model());
            let mut q = vec![0.0f32; state.model().k()];
            let t = Instant::now();
            let reads = ReadGen::new(p.w, ctx.cfg.seed, 13).users(20 * p.many);
            for (i, user) in reads.into_iter().enumerate() {
                scorer.query_into(user, &[], &mut q);
                // Every tenth read asks for a folded user.
                if i % 10 == 0 {
                    scorer.query_into(state.base_users() + (i / 10) % p.few, &[], &mut q);
                }
            }
            let stats = state.model().user_tier_stats().expect("tier was attached");
            (stats, &probe_registry, t.elapsed().as_secs_f64())
        }
    };
    let fault = |source: &str, q: f64| {
        quantile_us(
            registry,
            "taxrec_tier_fault_seconds",
            &[("source", source)],
            q,
        )
    };
    m.insert("tier.hit_ratio", stats.hit_rate());
    m.insert("tier.fault_p50_us", fault("cold_read", 0.50));
    m.insert(
        "tier.fault_p99_us",
        fault("cold_read", 0.99).max(fault("refold", 0.99)),
    );
    m.insert("tier.evictions_per_s", stats.evictions as f64 / secs);
    m.insert("tier.refolds_per_s", stats.refolds as f64 / secs);

    let cell = p.leader.live().cell();
    m.insert(
        "cell.load_ns",
        time_ns(9, 2_000, || {
            std::hint::black_box(cell.load());
        }),
    );
    let churn: Vec<f64> = p
        .walk_spans()
        .iter()
        .filter(|s| s.name == "cell.load")
        .map(|s| s.dur_ns() as f64)
        .collect();
    m.insert("cell.load_ns_churn", median(&churn));
    Ok(())
}

/// state, live_engine, cell.publish, event, snapshot: a bare applier on
/// the base model, fed an even mix of the three event kinds.
fn apply_path(p: &Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let ctx = p.ctx;
    let seed = ctx.cfg.seed;
    let mut bare = BareApplier::new(LiveState::new(ctx.base_model.clone()), p.w);
    let even_mix = Workload {
        add_item_rate: 1.0,
        fold_in_rate: 1.0,
        refold_rate: 1.0,
        ..p.w.clone()
    };
    let mut gen = WriteGen::new(&even_mix, &ctx.stack.data, seed, 3, 0);
    let (mut validate, mut add, mut fold, mut refold) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut next_from, mut publish, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    let mut record = Vec::new();
    while add.len() < p.few || fold.len() < p.few || refold.len() < p.few {
        let ev = gen.next_event();
        let bucket = match &ev {
            UpdateEvent::AddItem { .. } => &mut add,
            UpdateEvent::FoldInUser { .. } => &mut fold,
            UpdateEvent::RefoldUser { .. } => &mut refold,
        };
        // A fold-in is never skipped: later refolds may name its user.
        if bucket.len() >= p.few && !matches!(ev, UpdateEvent::FoldInUser { .. }) {
            continue;
        }
        let t = Instant::now();
        bare.state.validate(&ev).map_err(|e| e.to_string())?;
        validate.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        bare.state.apply(&ev).map_err(|e| e.to_string())?;
        bucket.push(t.elapsed().as_nanos() as f64 / 1e3);
        record.clear();
        let t = Instant::now();
        encode_event(&mut record, &ev);
        encode.push(t.elapsed().as_nanos() as f64);
        let prev = bare.cell.load();
        let t = Instant::now();
        let next = LiveEngine::next_from(&prev, &bare.state);
        next_from.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        bare.cell.publish(next);
        publish.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    m.insert("state.validate_ns", median(&validate));
    m.insert("state.apply_add_item_us", median(&add));
    m.insert("state.apply_fold_in_us", median(&fold));
    m.insert("state.apply_refold_us", median(&refold));
    m.insert("live_engine.next_from_us", median(&next_from));
    m.insert("cell.publish_us", median(&publish));
    m.insert("event.encode_ns", median(&encode));

    // event.decode: a log of 1000 events of the workload's own mix.
    let mut log = Vec::new();
    let header = LogHeader {
        base_users: ctx.base_model.num_users() as u64,
        base_items: ctx.base_model.num_items() as u64,
    };
    encode_log_header(&mut log, &header);
    let mut gen = WriteGen::new(p.w, &ctx.stack.data, seed, 4, 0);
    for _ in 0..1_000 {
        encode_event(&mut log, &gen.next_event());
    }
    let decode_ns = time_ns(5, 4, || {
        std::hint::black_box(decode_log(&log).expect("own log decodes"));
    });
    m.insert(
        "event.decode_mb_per_s",
        log.len() as f64 / 1e6 / (decode_ns / 1e9),
    );

    let mut bytes = Vec::new();
    m.insert(
        "snapshot.encode_ms",
        time_ns(3, 1, || bytes = encode_live(&bare.state)) / 1e6,
    );
    m.insert(
        "snapshot.decode_ms",
        time_ns(3, 1, || {
            std::hint::black_box(decode_live(&bytes).expect("own snapshot decodes"));
        }) / 1e6,
    );
    let mut model_bytes = Vec::new();
    let enc_ns = time_ns(3, 1, || model_bytes = persist::encode(ctx.base_model));
    let dec_ns = time_ns(3, 1, || {
        std::hint::black_box(persist::decode(&model_bytes).expect("own model decodes"));
    });
    let mb = model_bytes.len() as f64 / 1e6;
    m.insert("persist.encode_mb_per_s", mb / (enc_ns / 1e9));
    m.insert("persist.decode_mb_per_s", mb / (dec_ns / 1e9));
    Ok(())
}

/// queue: the leader's applier counters, and timed submits on the
/// walker's shadow server (same model, WAL on). replication. serve.
fn write_path(p: &Probe<'_>, m: &mut Metrics) -> Result<(), String> {
    let ctx = p.ctx;
    let model = p.snap.model();
    let live = p.leader.live().stats().snapshot();
    let applier = |family: &str, q: f64| quantile_us(p.leader.obs().registry(), family, &[], q);
    m.insert(
        "queue.wal_append_p50_us",
        applier("taxrec_wal_append_seconds", 0.50),
    );
    m.insert(
        "queue.wal_fsync_p50_us",
        applier("taxrec_wal_fsync_seconds", 0.50),
    );
    m.insert(
        "queue.publish_p50_us",
        applier("taxrec_live_publish_seconds", 0.50),
    );
    m.insert(
        "queue.publish_p99_us",
        applier("taxrec_live_publish_seconds", 0.99),
    );
    m.insert(
        "queue.batch_mean",
        live.applied as f64 / live.publishes.max(1) as f64,
    );
    m.insert("queue.rejected", live.rejected as f64);
    m.insert(
        "state.copied_chunks_per_event",
        live.model_copied_chunks as f64 / live.applied.max(1) as f64,
    );
    let model_bytes: u64 = live.model_bytes.iter().map(|(s, o)| s + o).sum();
    m.insert(
        "factors.model_bytes_per_item",
        model_bytes as f64 / model.num_items() as f64,
    );

    let walker = ctx.outcome.walk.as_ref();
    let shadow = &walker.ok_or("a traced run has a walker")?.shadow;
    let parent = interior_parent(model);
    m.insert(
        "queue.submit_us",
        time_each_ns(0..p.many, |_| {
            shadow
                .live()
                .submit(UpdateEvent::AddItem { parent })
                .expect("shadow applies an add-item");
        }) / 1e3,
    );
    m.insert(
        "queue.snapshot_ms",
        time_ns(3, 1, || {
            assert_eq!(shadow.live().snapshot_now(), Ok(true), "shadow snapshots");
        }) / 1e6,
    );

    let mut add_record = Vec::new();
    encode_event(&mut add_record, &UpdateEvent::AddItem { parent });
    let mut frame = Vec::new();
    m.insert(
        "replication.frame_codec_ns",
        time_ns(9, 1_000, || {
            frame.clear();
            encode_record_frame(&mut frame, 1, 1, &add_record);
            std::hint::black_box(read_frame(&mut frame.as_slice()).expect("own frame decodes"));
        }),
    );
    let origin = LogHeader {
        base_users: 0,
        base_items: 0,
    };
    let hub = ReplicationHub::new(origin, &MetricsRegistry::new());
    let mut committed = 0u64;
    m.insert(
        "replication.hub_commit_us",
        time_ns(9, 200, || {
            committed += 1;
            hub.commit(vec![(add_record.clone(), 0, committed)]);
        }) / 1e3,
    );
    let lag = &ctx.outcome.lag_samples;
    m.insert(
        "replication.lag_max",
        lag.iter().map(|(l, _)| *l).max().unwrap_or(0) as f64,
    );
    let mut behind_us: Vec<u64> = lag.iter().map(|(_, ms)| (ms * 1e3) as u64).collect();
    behind_us.sort_unstable();
    m.insert(
        "replication.lag_p99_ms",
        if behind_us.is_empty() {
            0.0
        } else {
            stats::percentile_sorted(&behind_us, 0.99) as f64 / 1e3
        },
    );
    let follower = ctx.stack.follower.following.as_ref();
    m.insert(
        "replication.reconnects",
        follower.expect("follower follows").stats.reconnects() as f64,
    );

    m.insert("serve.load_ms", ctx.load_ms);
    // What recovery replays: the tail, over the leader's last snapshot.
    let snapshot = std::fs::read(ctx.leader_dir.join("snapshot.tfm"))
        .map_err(|e| format!("leader snapshot: {e}"))?;
    let replay_ns = time_ns(3, 1, || {
        let mut state = decode_live(&snapshot).expect("leader snapshot decodes");
        replay(&mut state, ctx.tail_events).expect("tail replays over the snapshot");
        std::hint::black_box(state);
    });
    m.insert(
        "serve.replay_events_per_s",
        ctx.tail_events.len() as f64 / (replay_ns / 1e9),
    );
    Ok(())
}

/// router in-process on the leader; http with the own client, unloaded;
/// self times of the walked requests.
fn front_end(p: &Probe<'_>, m: &mut Metrics, notes: &mut Vec<String>) -> Result<(), String> {
    let paths: Vec<String> = {
        let mut gen = ReadGen::new(p.w, p.ctx.cfg.seed, 12);
        (0..p.many).map(|_| gen.next_read().path).collect()
    };
    let routed = |path: &str| {
        let r = route(p.leader, "GET", path, b"");
        assert_eq!(r.status, 200, "{path}");
        std::hint::black_box(r);
    };
    m.insert(
        "router.route_recommend_us",
        time_each_ns(&paths, |path| routed(path)) / 1e3,
    );
    m.insert(
        "router.stats_render_us",
        time_each_ns(0..p.few, |_| routed("/live/stats")) / 1e3,
    );
    m.insert(
        "router.metrics_render_us",
        time_each_ns(0..p.few, |_| routed("/metrics")) / 1e3,
    );

    let addr = p.ctx.stack.leader.addr.expect("leader serves HTTP");
    let (mut roundtrip, mut connect) = (Vec::new(), Vec::new());
    for path in &paths {
        let t = Instant::now();
        let reply = client::request(addr, "GET", path, "")?;
        roundtrip.push(t.elapsed().as_nanos() as f64 / 1e3);
        connect.push(reply.connect.as_nanos() as f64 / 1e3);
    }
    m.insert("http.roundtrip_us", median(&roundtrip));
    m.insert("http.connect_us", median(&connect));
    let http = p.leader.http_metrics().snapshot();
    m.insert(
        "http.server_p50_us",
        quantile_us(
            p.leader.obs().registry(),
            "taxrec_http_request_seconds",
            &[],
            0.50,
        ),
    );
    m.insert("http.queue_full", http.queue_full as f64);
    m.insert(
        "http.busy_503",
        http.routes.iter().map(|r| r.status_5xx).sum::<u64>() as f64,
    );
    m.insert("http.dropped", http.dropped as f64);

    let spans = p.walk_spans();
    for (metric, span) in [
        ("http.self_us", "http.roundtrip"),
        ("router.self_us", "router.route"),
    ] {
        m.insert(metric, trace::median_self_us(spans, span).unwrap_or(0.0));
    }
    let roots: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].parent == 0).collect();
    let within = roots
        .iter()
        .filter(|&&i| trace::overflow_share(spans, i) <= 0.10)
        .count();
    notes.push(format!(
        "walk: {} sampled requests, {within} with children + self time within 10 % of the root span",
        roots.len()
    ));
    Ok(())
}

/// train: fits of a quarter of the epochs on the workload's own data.
fn train(p: &Probe<'_>, m: &mut Metrics) {
    let data = &p.ctx.stack.data;
    let seed = p.ctx.cfg.seed;
    let short = model_config(p.w).with_epochs((p.w.epochs / 4).max(1));
    let rate = |(_, s): (TfModel, TrainStats)| {
        s.steps as f64 / s.epoch_times.iter().map(|d| d.as_secs_f64()).sum::<f64>()
    };
    let trainer = TfTrainer::new(short.clone(), &data.taxonomy);
    let one_thread = rate(trainer.fit_parallel(&data.train, seed, 1));
    let all_threads = rate(trainer.fit_parallel(&data.train, seed, nproc()));
    m.insert("train.steps_per_s_1t", one_thread);
    m.insert("train.parallel_speedup", all_threads / one_thread);
    m.insert(
        "train.deterministic_steps_per_s",
        rate(trainer.fit_deterministic(&data.train, seed, nproc())),
    );
    let cached = TfTrainer::new(short.with_cache_threshold(Some(0.1)), &data.taxonomy);
    m.insert(
        "train.cache_speedup",
        rate(cached.fit_parallel(&data.train, seed, nproc())) / all_threads,
    );
    m.insert("train.auc", p.ctx.auc);
}

/// factors: the copy-on-write and int8 tables under a publish.
fn factors(p: &Probe<'_>, m: &mut Metrics) {
    let engine = p.snap.engine();
    let node_factors = p.ctx.base_model.cow_matrices()[1];
    m.insert(
        "factors.cow_clone_ns",
        time_ns(9, 200, || {
            std::hint::black_box(node_factors.clone());
        }),
    );
    m.insert(
        "factors.cow_row_mut_us",
        time_each_ns(0..p.few, |i| {
            // The clone shares every chunk, so this first write copies one.
            let mut c = node_factors.clone();
            c.row_mut(i % c.rows())[0] += 1.0;
            std::hint::black_box(c);
        }) / 1e3,
    );
    let last_quant = engine.quant_shard(engine.scan_shards() - 1);
    let row = engine.dense_item_factor(ItemId(0)).to_vec();
    m.insert(
        "factors.quant_grow_us",
        time_each_ns(0..p.few, |_| {
            let mut q = last_quant.clone();
            q.push_row(&row);
            std::hint::black_box(q);
        }) / 1e3,
    );
}

/// dataset, gen, trace: what the run itself measured.
fn harness(ctx: &Context<'_>, m: &mut Metrics) {
    m.insert("dataset.generate_ms", ctx.generate_ms);
    m.insert("gen.late_p99_us", ctx.health.late_p99_us);
    m.insert(
        "gen.achieved_over_scheduled",
        ctx.health.achieved_over_scheduled,
    );
    // Read medians of the walked half of the window over the unwalked.
    let half = ctx.cfg.steady.as_nanos() as u64 / 2;
    let p50 = |walked: bool| {
        let ns: Vec<f64> = ctx
            .outcome
            .reads
            .iter()
            .filter(|s| s.ok && (s.at_ns >= half) == walked)
            .map(|s| s.latency_ns as f64)
            .collect();
        median(&ns)
    };
    m.insert("trace.overhead_ratio", p50(true) / p50(false).max(1.0));
}

/// All per-layer metrics by name.
pub fn per_layer(ctx: &Context<'_>, notes: &mut Vec<String>) -> Result<Metrics, String> {
    let p = Probe::new(ctx);
    let mut m = Metrics::new();
    kernel_and_topk(&p, &mut m);
    read_path(&p, &mut m)?;
    tier_and_cell(&p, &mut m)?;
    apply_path(&p, &mut m)?;
    write_path(&p, &mut m)?;
    front_end(&p, &mut m, notes)?;
    train(&p, &mut m);
    factors(&p, &mut m);
    harness(ctx, &mut m);
    Ok(m)
}
