//! Figure 8-style study for the serving path: batched multi-user top-K
//! throughput, exhaustive vs cascaded backends, plus a catalog
//! shard-count sweep over the sharded exhaustive scan.
//!
//! The paper's Fig. 8 trades inference work against accuracy for one
//! user at a time; a serving system amortises that work across a batch.
//! This binary sweeps worker threads and the cascade keep-fraction and
//! reports end-to-end batch throughput (users/sec) plus the speed-up of
//! the cascaded backend over exhaustive at the same thread count. A
//! second table sweeps `--shards-list` catalog shard counts: batched
//! serving with the shards scanned one after another inside each batch
//! worker, asserting the sharded results stay identical to the
//! unsharded baseline.
//!
//! ```text
//! cargo run --release -p taxrec-bench --bin fig8_batch -- --scale small
//!   [--batch 512] [--top 10] [--factors 20] [--threads-list 1,2,4,8]
//!   [--shards-list 1,2,4] [--smoke]
//! ```
//!
//! `--smoke` runs a seconds-long tiny-scale pass for CI: 1 repetition,
//! small batch, and it **fails the process** if any sharded ranking
//! diverges from the unsharded one.

use std::time::Instant;
use taxrec_bench::args::Args;
use taxrec_bench::fixtures;
use taxrec_bench::report::{fmt, Table};
use taxrec_bench::spans;
use taxrec_core::recommend::{Backend, RecommendEngine, RecommendRequest};
use taxrec_core::{CascadeConfig, ModelConfig};
use taxrec_dataset::{DatasetConfig, SyntheticDataset};

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let data = if smoke {
        SyntheticDataset::generate(&DatasetConfig::tiny().with_users(500), args.seed())
    } else {
        fixtures::dataset(&args)
    };
    let epochs = if smoke { 1 } else { fixtures::epochs(&args) };
    let k_factors = args.get("factors", if smoke { 8 } else { 20 });
    let batch = args
        .get("batch", if smoke { 128 } else { 512 })
        .min(data.train.num_users());
    let top = args.get("top", 10usize);
    let reps = if smoke { 1 } else { 3 };
    let thread_list: Vec<usize> = args
        .value("threads-list")
        .unwrap_or(if smoke { "1,2" } else { "1,2,4,8" })
        .split(',')
        .filter_map(|t| t.parse().ok())
        .collect();
    let shards_list: Vec<usize> = args
        .value("shards-list")
        .unwrap_or(if smoke { "1,2" } else { "1,2,4" })
        .split(',')
        .filter_map(|t| t.parse().ok())
        .collect();

    eprintln!(
        "# fig8batch: users={} items={} epochs={epochs} batch={batch} top={top} smoke={smoke}",
        data.train.num_users(),
        data.taxonomy.num_items()
    );

    let (model, _) = fixtures::train(
        &data,
        ModelConfig::tf(4, 1)
            .with_factors(k_factors)
            .with_epochs(epochs),
        args.seed(),
        args.threads(),
    );
    let engine = RecommendEngine::new(&model);
    let depth = model.taxonomy().depth();

    // The batch: the first `batch` users, conditioning on their full
    // training history, excluding their past purchases.
    let excludes: Vec<Vec<taxrec_taxonomy::ItemId>> =
        (0..batch).map(|u| data.train.distinct_items(u)).collect();
    let requests: Vec<RecommendRequest<'_>> = (0..batch)
        .map(|u| RecommendRequest {
            user: u,
            history: data.train.user(u),
            k: top,
            exclude: &excludes[u],
        })
        .collect();

    let backends: Vec<(String, Backend)> = vec![
        ("exhaustive".into(), Backend::Exhaustive),
        (
            "cascade K=0.5".into(),
            Backend::Cascaded(CascadeConfig::uniform(depth, 0.5)),
        ),
        (
            "cascade K=0.2".into(),
            Backend::Cascaded(CascadeConfig::uniform(depth, 0.2)),
        ),
        (
            "cascade K=0.05".into(),
            Backend::Cascaded(CascadeConfig::uniform(depth, 0.05)),
        ),
    ];

    let mut t = Table::new(
        [
            "backend",
            "threads",
            "batch time",
            "users/sec",
            "vs exhaustive",
        ]
        .into_iter()
        .map(String::from),
    );
    for &threads in &thread_list {
        let mut exhaustive_rate = None;
        for (name, backend) in &backends {
            // Warm-up pass (page in factors), then measure.
            let _ = engine.recommend_batch_with(&requests, threads, backend);
            let t0 = Instant::now();
            for _ in 0..reps {
                let results = engine.recommend_batch_with(&requests, threads, backend);
                assert_eq!(results.len(), batch);
            }
            let secs = t0.elapsed().as_secs_f64() / reps as f64;
            let rate = batch as f64 / secs;
            let speedup = match (name.as_str(), exhaustive_rate) {
                ("exhaustive", _) => {
                    exhaustive_rate = Some(rate);
                    "1.00×".to_string()
                }
                (_, Some(base)) => format!("{:.2}×", rate / base),
                _ => "-".to_string(),
            };
            t.row([
                name.clone(),
                threads.to_string(),
                format!("{:.2} ms", secs * 1e3),
                fmt(rate, 0),
                speedup,
            ]);
        }
    }
    t.print(&format!(
        "Batched top-{top} throughput over {batch} users (exhaustive vs cascaded)"
    ));

    // ── Catalog shard-count sweep ───────────────────────────────────
    // Batched serving scans shards sequentially inside each batch
    // worker. Every sharded result is checked against the unsharded
    // baseline — identical scores, ids, and order.
    let threads = *thread_list.iter().max().unwrap_or(&2);
    let baseline = engine.recommend_batch(&requests, threads);
    let mut st = Table::new(
        ["scan shards", "aligned batch users/sec", "identical"]
            .into_iter()
            .map(String::from),
    );
    for &s in &shards_list {
        let sharded = RecommendEngine::with_backend_sharded(&model, Backend::Exhaustive, s);
        let _ = sharded.recommend_batch(&requests, threads);
        let t0 = Instant::now();
        for _ in 0..reps {
            let got = sharded.recommend_batch(&requests, threads);
            assert_eq!(
                got, baseline,
                "S={s}: sharded batch ranking diverged from unsharded"
            );
        }
        let rate = batch as f64 / (t0.elapsed().as_secs_f64() / reps as f64);
        st.row([s.to_string(), fmt(rate, 0), "yes".to_string()]);
    }
    st.print(&format!(
        "Catalog shard sweep (batch={batch} users @ {threads} threads)"
    ));

    // Per-stage cost of one serving request, from the same spans
    // `GET /live/trace` exposes: exhaustive at the largest shard count
    // of the sweep, and the cascaded fast path for contrast.
    let s_max = *shards_list.iter().max().unwrap_or(&1);
    let sharded = RecommendEngine::with_backend_sharded(&model, Backend::Exhaustive, s_max);
    spans::print_stage_table(
        &format!("Per-stage cost, exhaustive backend ({s_max} scan shards)"),
        &spans::recommend_stage_means(&sharded, top, 128),
    );
    let cascaded = RecommendEngine::with_backend_sharded(
        &model,
        Backend::Cascaded(CascadeConfig::uniform(depth, 0.2)),
        1,
    );
    spans::print_stage_table(
        "Per-stage cost, cascaded backend (K=0.2)",
        &spans::recommend_stage_means(&cascaded, top, 128),
    );

    if smoke {
        eprintln!("fig8_batch --smoke OK: sharded ≡ unsharded for shards {shards_list:?}");
    }
}
