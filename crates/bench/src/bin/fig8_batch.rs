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
use taxrec_core::recommend::{
    Backend, F32Kernel, QuantizedConfig, RecommendEngine, RecommendRequest,
};
use taxrec_core::{CascadeConfig, ModelConfig, TfModel};
use taxrec_dataset::{DatasetConfig, SyntheticDataset};
use taxrec_taxonomy::TaxonomyShape;

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

    // ── Scan-kernel sweep ───────────────────────────────────────────
    // Single-threaded full-catalog scans under each kernel choice:
    // forced-scalar f32 (the oracle), the runtime-dispatched SIMD
    // kernel, and the int8-quantized first pass with its exact f32
    // rescore. The sweep sizes its own catalog (default 32k items,
    // wider factors) so the memory-bandwidth story is visible; smoke
    // runs use a smaller one and gate on the speed-up.
    let kernel_json = kernel_sweep(&args, smoke, top);
    let json_path = match args.value("bench-json") {
        Some(p) => std::path::PathBuf::from(p),
        None if smoke => std::env::temp_dir().join("BENCH_kernels.smoke.json"),
        None => std::path::PathBuf::from("BENCH_kernels.json"),
    };
    match std::fs::write(&json_path, &kernel_json) {
        Ok(()) => eprintln!("# wrote {}", json_path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", json_path.display()),
    }

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

/// Measure users/sec for scalar, SIMD, and quantized scans over one
/// catalog; assert ranking equality against the forced-scalar oracle;
/// return the `BENCH_kernels.json` payload.
fn kernel_sweep(args: &Args, smoke: bool, top: usize) -> String {
    // The kernels are a full-catalog-scan story: the sweep needs a
    // catalog big enough that scan cost (not request plumbing)
    // dominates. Scan throughput is a property of the matrix shape,
    // not of training quality, so a short fit over few users suffices
    // — but the pool-sufficiency proof still runs against the real
    // score distribution it produces.
    let (kernel_items, kernel_users, kepochs) = if smoke {
        (args.get("kernel-items", 8_000usize), 300, 3)
    } else {
        (args.get("kernel-items", 32_000usize), 2000, 3)
    };
    let kdata = SyntheticDataset::generate(
        &DatasetConfig {
            shape: TaxonomyShape {
                level_sizes: vec![20, 200, 1200],
                num_items: kernel_items,
                item_skew: 0.8,
            },
            num_users: kernel_users,
            ..DatasetConfig::default()
        },
        args.seed(),
    );
    let kmodel: TfModel = fixtures::train(
        &kdata,
        ModelConfig::tf(4, 1)
            .with_factors(args.get("kernel-factors", 64))
            .with_epochs(kepochs),
        args.seed(),
        args.threads(),
    )
    .0;
    let n_items = kmodel.num_items();
    let n_factors = kmodel.k();
    let kbatch = kmodel.num_users().min(if smoke { 64 } else { 256 });
    let reps = if smoke { 1 } else { 3 };
    let requests: Vec<RecommendRequest<'_>> = (0..kbatch)
        .map(|u| RecommendRequest::simple(u, top))
        .collect();

    let simd = F32Kernel::detect();
    let configs: [(&str, Backend, F32Kernel); 3] = [
        ("scalar", Backend::Exhaustive, F32Kernel::Scalar),
        (simd.name(), Backend::Exhaustive, simd),
        (
            "quantized",
            Backend::Quantized(QuantizedConfig::default()),
            simd,
        ),
    ];

    let mut t = Table::new(
        ["kernel", "users/sec", "items/sec", "vs scalar"]
            .into_iter()
            .map(String::from),
    );
    let mut oracle = None;
    let mut scalar_rate = 0.0f64;
    let mut rows = Vec::new();
    for (name, backend, kernel) in configs {
        let mut engine = RecommendEngine::with_backend_sharded(&kmodel, backend.clone(), 1);
        engine.set_scan_kernel(kernel);
        let got = engine.recommend_batch_with(&requests, 1, &backend);
        match &oracle {
            None => oracle = Some(got),
            Some(want) => assert_eq!(
                &got, want,
                "{name}: ranking diverged from the forced-scalar oracle"
            ),
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            let results = engine.recommend_batch_with(&requests, 1, &backend);
            assert_eq!(results.len(), kbatch);
        }
        let rate = kbatch as f64 / (t0.elapsed().as_secs_f64() / reps as f64);
        if name == "scalar" {
            scalar_rate = rate;
        }
        let speedup = rate / scalar_rate;
        let pool = engine.quant_pool_stats();
        t.row([
            name.to_string(),
            fmt(rate, 0),
            fmt(rate * n_items as f64, 0),
            format!("{speedup:.2}×"),
        ]);
        rows.push(format!(
            "{{\"kernel\":\"{name}\",\"users_per_sec\":{rate:.1},\
             \"speedup_vs_scalar\":{speedup:.2},\
             \"pool\":{{\"scans\":{},\"sufficient\":{},\"insufficient\":{}}}}}",
            pool.scans, pool.sufficient, pool.insufficient
        ));
        // CI guard: the int8 first pass must clearly beat the scalar
        // f32 scan it replaces (full runs are expected to clear 2×).
        if smoke && name == "quantized" && F32Kernel::simd_available() {
            assert!(
                speedup >= 1.5,
                "quantized scan must be >= 1.5x scalar in smoke mode (got {speedup:.2}x)"
            );
        }
    }
    t.print(&format!(
        "Scan-kernel sweep ({n_items} items, {n_factors} factors, \
         top-{top}, 1 thread)"
    ));

    format!(
        "{{\"bench\":\"fig8_kernels\",\"smoke\":{smoke},\"items\":{n_items},\
         \"factors\":{n_factors},\"batch\":{kbatch},\"top\":{top},\
         \"kernels\":[{}]}}\n",
        rows.join(",")
    )
}
