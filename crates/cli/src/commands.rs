//! The CLI commands. Each returns its stdout report as a `String`
//! so the whole surface is testable without spawning processes.

use crate::args::CliArgs;
use crate::evalset::{self, EvalOverrides};
use crate::json::Json;
use crate::store::DataDir;
use crate::CliError;
use taxrec_core::eval::dataset::{evaluate_retrieval, rerank_retrieval};
use taxrec_core::{
    eval::EvalConfig, persist, Backend, ModelConfig, RecommendEngine, RecommendRequest, TfModel,
    TfTrainer,
};
use taxrec_dataset::{split_log, DatasetConfig, SplitConfig, SyntheticDataset};
use taxrec_taxonomy::TaxonomyShape;

/// `taxrec generate` — synthesise a dataset into a data directory.
pub fn generate(args: &CliArgs) -> Result<String, CliError> {
    let out = DataDir::new(args.require("out")?);
    let users = args.get("users", 4000usize)?;
    let items = args.get("items", 6000usize)?;
    let seed: u64 = args.get("seed", 42u64)?;
    let mu: f64 = args.get("mu", 0.5f64)?;
    if !(0.0..=1.0).contains(&mu) {
        return Err(CliError::Usage(format!("--mu {mu} outside [0,1]")));
    }
    let cfg = DatasetConfig {
        shape: TaxonomyShape {
            num_items: items,
            ..TaxonomyShape::default()
        },
        num_users: users,
        split: SplitConfig {
            mu,
            ..SplitConfig::default()
        },
        ..DatasetConfig::default()
    };
    let d = SyntheticDataset::generate(&cfg, seed);
    out.save(&d.taxonomy, &d.train, &d.test, None)?;
    Ok(format!(
        "generated {} users / {} items (levels {:?}) into {}\n\
         train: {} transactions, test: {} transactions (mu = {mu})\n",
        d.log.num_users(),
        d.taxonomy.num_items(),
        d.taxonomy.level_sizes(),
        out.path().display(),
        d.train.num_transactions(),
        d.test.num_transactions(),
    ))
}

/// `taxrec import` — parse a TSV purchase export into a data directory.
pub fn import(args: &CliArgs) -> Result<String, CliError> {
    let input = args.require("input")?;
    let out = DataDir::new(args.require("out")?);
    let mu: f64 = args.get("mu", 0.5f64)?;
    let seed: u64 = args.get("seed", 42u64)?;
    let text = std::fs::read_to_string(input)?;
    let imported = taxrec_dataset::parse_purchase_rows(&text)
        .map_err(|e| CliError::Data(format!("{input}: {e}")))?;
    let split = split_log(
        &imported.log,
        &SplitConfig {
            mu,
            seed,
            ..SplitConfig::default()
        },
    );
    out.save(
        &imported.taxonomy,
        &split.train,
        &split.test,
        Some(&imported.item_names),
    )?;
    Ok(format!(
        "imported {} users / {} items / {} purchases from {input} into {}\n",
        imported.log.num_users(),
        imported.taxonomy.num_items(),
        imported.log.num_purchases(),
        out.path().display(),
    ))
}

/// `taxrec train` — fit a model against a data directory.
pub fn train(args: &CliArgs) -> Result<String, CliError> {
    let data = DataDir::new(args.require("data")?);
    let model_path = args.require("model")?.to_string();
    let (u, b) = args.system()?;
    let factors = args.get("factors", 16usize)?;
    let epochs = args.get("epochs", 20usize)?;
    let threads = args.get("threads", default_threads())?;
    let seed: u64 = args.get("seed", 42u64)?;
    let cache_th: f32 = args.get("cache-th", -1.0f32)?;

    let mut cfg = ModelConfig::tf(u, b)
        .with_factors(factors)
        .with_epochs(epochs);
    if cache_th >= 0.0 {
        cfg = cfg.with_cache_threshold(Some(cache_th));
    }
    cfg.validate().map_err(CliError::Usage)?;

    let taxonomy = data.taxonomy()?;
    let train_log = data.train()?;
    let trainer = TfTrainer::new(cfg.clone(), &taxonomy);
    // --deterministic trades hogwild throughput for bit-identical
    // models at any thread count (what the eval baseline needs).
    let (model, stats) = if args.flag("deterministic") {
        trainer.fit_deterministic(&train_log, seed, threads)
    } else {
        trainer.fit_parallel(&train_log, seed, threads)
    };
    std::fs::write(&model_path, persist::encode(&model))?;
    Ok(format!(
        "trained {} (K={factors}) on {} purchases: {} steps over {} epochs, \
         {:.2?}/epoch with {threads} threads\nmodel written to {model_path}\n",
        cfg.system_name(),
        train_log.num_purchases(),
        stats.steps,
        stats.epoch_times.len(),
        stats.mean_epoch_time(),
    ))
}

/// `taxrec evaluate` — paper-protocol metrics of a model on a split,
/// or (with `--dataset`) the retrieval-quality harness over a query
/// file (see `docs/guide/evaluation.md`).
pub fn evaluate(args: &CliArgs) -> Result<String, CliError> {
    if args.value("dataset").is_some() {
        return evaluate_dataset(args);
    }
    let data = DataDir::new(args.require("data")?);
    let model = load_model(args.require("model")?)?;
    let threads = args.get("threads", default_threads())?;
    let category_level = args.get("category-level", 1usize)?;
    let train_log = data.train()?;
    let test_log = data.test()?;
    check_model_fits(&model, &train_log)?;
    let cfg = EvalConfig {
        threads,
        category_level: Some(category_level),
        cold_start: true,
        ..EvalConfig::default()
    };
    let r = taxrec_core::eval::evaluate(&model, &train_log, &test_log, &cfg);
    if args.flag("json") {
        // Assembled as a Json value (not format!) so the system name
        // and NaN/absent metrics can never produce invalid JSON.
        let doc = Json::Obj(vec![
            ("system".into(), Json::str(model.config().system_name())),
            (
                "users_evaluated".into(),
                Json::Num(r.users_evaluated as f64),
            ),
            ("auc".into(), Json::opt_num(r.auc)),
            ("mean_rank".into(), Json::opt_num(r.mean_rank)),
            ("hit_at_10".into(), Json::opt_num(r.hit_at_k)),
            ("mrr".into(), Json::opt_num(r.mrr)),
            ("category_level".into(), Json::Num(category_level as f64)),
            ("category_auc".into(), Json::opt_num(r.category_auc)),
            (
                "category_mean_rank".into(),
                Json::opt_num(r.category_mean_rank),
            ),
            ("cold_norm_rank".into(), Json::opt_num(r.cold_norm_rank)),
            ("cold_count".into(), Json::Num(r.cold_count as f64)),
        ]);
        return Ok(doc.render() + "\n");
    }
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.4}"));
    Ok(format!(
        "system            : {}\n\
         users evaluated   : {}\n\
         AUC               : {}\n\
         mean rank         : {}\n\
         hit@10            : {}\n\
         MRR               : {}\n\
         category AUC (L{}) : {}\n\
         category meanRank : {}\n\
         cold-item norm rank: {} over {} cold purchases\n",
        model.config().system_name(),
        r.users_evaluated,
        fmt(r.auc),
        fmt(r.mean_rank),
        fmt(r.hit_at_k),
        fmt(r.mrr),
        category_level,
        fmt(r.category_auc),
        fmt(r.category_mean_rank),
        fmt(r.cold_norm_rank),
        r.cold_count,
    ))
}

/// The `--dataset` mode of `taxrec evaluate`: run a committed query
/// file through the real [`RecommendEngine`] (exact queries through the
/// serving default, `cascade` < 1 through the beam) and report ranking
/// quality (recall@K / precision@K / MRR / nDCG@K) plus per-query
/// latency. Supports trace-compare (`--compare cfg.json`, re-ranking
/// config A's candidates under config B without re-scanning) and
/// regression gating (`--write-baseline` / `--assert-baseline`).
fn evaluate_dataset(args: &CliArgs) -> Result<String, CliError> {
    let data = DataDir::new(args.require("data")?);
    let model_path = args.require("model")?.to_string();
    let model = load_model(&model_path)?;
    let dataset_path = args.require("dataset")?.to_string();
    let threads = args.get("threads", default_threads())?;
    let train_log = data.train()?;
    check_model_fits(&model, &train_log)?;

    let cli = EvalOverrides {
        k: args.opt("k")?,
        candidate_k: args.opt("candidate-k")?,
        cascade: args.opt("cascade")?,
        exclude_history: args.flag("exclude-history").then_some(true),
    };
    let text = std::fs::read_to_string(&dataset_path)?;
    let dataset = evalset::parse_dataset(&text, &cli, &train_log)
        .map_err(|e| CliError::Data(format!("{dataset_path}: {e}")))?;
    let report = evaluate_retrieval(&model, &dataset, threads).map_err(CliError::Data)?;
    let system = model.config().system_name();

    if let Some(cfg_path) = args.value("compare") {
        if args.value("write-baseline").is_some() || args.value("assert-baseline").is_some() {
            return Err(CliError::Usage(
                "--compare cannot be combined with --write-baseline / --assert-baseline".into(),
            ));
        }
        // Config B is a small JSON file: {"model": "other.tfm", "k": 8}
        // — both fields optional; an absent model re-ranks under A
        // (an identity check for harness changes).
        let cfg_text = std::fs::read_to_string(cfg_path)?;
        let cfg = crate::json::parse(&cfg_text)
            .map_err(|e| CliError::Data(format!("{cfg_path}: {e}")))?;
        let model_b_path = cfg.get("model").and_then(Json::as_str).map(str::to_string);
        let k_b = cfg.get("k").and_then(Json::as_usize);
        let model_b_loaded;
        let (model_b, label_b) = match &model_b_path {
            Some(p) => {
                model_b_loaded = load_model(p)?;
                if model_b_loaded.num_items() != model.num_items() {
                    return Err(CliError::Data(format!(
                        "compare model {p} covers {} items but config A covers {}",
                        model_b_loaded.num_items(),
                        model.num_items()
                    )));
                }
                (&model_b_loaded, p.as_str())
            }
            None => (&model, model_path.as_str()),
        };
        let cmp = rerank_retrieval(&report, &dataset, model_b, k_b).map_err(CliError::Data)?;
        return Ok(if args.flag("json") {
            evalset::compare_to_json(&cmp, &model_path, label_b).render() + "\n"
        } else {
            evalset::render_compare_text(&cmp, &model_path, label_b)
        });
    }

    let mut out = if args.flag("json") {
        evalset::report_to_json(&report, &dataset_path, &model_path, &system).render() + "\n"
    } else {
        evalset::render_report_text(&report, &model_path, &system)
    };

    if let Some(path) = args.value("write-baseline") {
        let tolerance: f64 = args.get("tolerance", 0.02f64)?;
        if !(0.0..=1.0).contains(&tolerance) {
            return Err(CliError::Usage(format!(
                "--tolerance {tolerance} outside [0,1]"
            )));
        }
        std::fs::write(
            path,
            evalset::baseline_to_json(&report, tolerance).render() + "\n",
        )?;
        if !args.flag("json") {
            out.push_str(&format!(
                "baseline written to {path} (tolerance {tolerance})\n"
            ));
        }
    }
    if let Some(path) = args.value("assert-baseline") {
        let base_text = std::fs::read_to_string(path)?;
        let baseline =
            crate::json::parse(&base_text).map_err(|e| CliError::Data(format!("{path}: {e}")))?;
        match evalset::assert_baseline(&report, &baseline) {
            Ok(detail) => {
                if !args.flag("json") {
                    out.push_str(&format!("baseline gate PASSED against {path}:\n{detail}"));
                }
            }
            Err(msg) => {
                return Err(CliError::Data(format!(
                    "{msg}\n(intended quality shift? regenerate the artifact with \
                     `taxrec evaluate --data ... --model ... --dataset {dataset_path} \
                     --write-baseline {path}`)"
                )));
            }
        }
    }
    Ok(out)
}

/// Largest user batch `taxrec recommend --users` accepts; generous for
/// offline scoring, but bounded so a typo'd range fails instead of
/// materialising the id list unchecked.
const CLI_BATCH_CAP: usize = 65_536;

/// `taxrec recommend` — top items (+ top categories) for one user
/// (`--user U`) or a whole batch (`--users 0,3,9` / `--users 0-63`),
/// served through the batched [`RecommendEngine`].
pub fn recommend(args: &CliArgs) -> Result<String, CliError> {
    let data = DataDir::new(args.require("data")?);
    let mut model = load_model(args.require("model")?)?;
    let top: usize = args.get("top", 10usize)?;
    let cascade_k: f64 = args.get("cascade", 1.0f64)?;
    let threads = args.get("threads", default_threads())?;
    let train_log = data.train()?;
    check_model_fits(&model, &train_log)?;

    // --user-tier-budget caps resident user-factor rows exactly as
    // `taxrec serve` does: the matrix moves into a hot/cold tier and
    // requested users fault back in on demand. Output is bit-identical
    // to the fully-resident run; the tier line below shows the faults.
    let tier_registry = taxrec_core::MetricsRegistry::new();
    if let Some(budget) = args.opt::<usize>("user-tier-budget")? {
        let cold =
            std::env::temp_dir().join(format!("taxrec-recommend-tier-{}.cold", std::process::id()));
        let built = model.build_user_tier(&cold, budget, &tier_registry);
        // The tier reads the cold rows through the handle it keeps
        // open, so the path can go now: no return path leaves it behind.
        let _ = std::fs::remove_file(&cold);
        built
            .map_err(|e| CliError::Data(format!("{}: building user tier: {e}", cold.display())))?;
    }

    // One user via --user, or many via --users.
    let users: Vec<usize> = match (args.value("user"), args.value("users")) {
        (Some(_), _) => vec![args.get_required("user")?],
        (None, Some(spec)) => {
            crate::users::parse_user_list(spec, train_log.num_users(), CLI_BATCH_CAP)
                .map_err(|e| CliError::Usage(format!("--users: {e}")))?
        }
        (None, None) => {
            return Err(CliError::Usage(
                "--user U or --users LIST is required".to_string(),
            ))
        }
    };
    if let Some(&bad) = users.iter().find(|&&u| u >= train_log.num_users()) {
        return Err(CliError::Usage(format!(
            "user {bad} out of range (0..{})",
            train_log.num_users()
        )));
    }

    let names = data.item_names()?;
    let item_label = |i: taxrec_taxonomy::ItemId| -> String {
        names
            .as_ref()
            .and_then(|n| n.get(i.index()).cloned())
            .unwrap_or_else(|| format!("{i}"))
    };

    let backend = Backend::for_cascade(
        Some(cascade_k),
        model.taxonomy().depth(),
        &Backend::default(),
    );
    let engine = RecommendEngine::with_backend(&model, backend);

    let excludes: Vec<Vec<taxrec_taxonomy::ItemId>> =
        users.iter().map(|&u| train_log.distinct_items(u)).collect();
    let requests: Vec<RecommendRequest<'_>> = users
        .iter()
        .zip(&excludes)
        .map(|(&u, excl)| RecommendRequest {
            user: u,
            history: train_log.user(u),
            k: top,
            exclude: excl,
        })
        .collect();
    let t0 = std::time::Instant::now();
    let results = engine.recommend_batch(&requests, threads);
    let elapsed = t0.elapsed();

    let mut out = String::new();
    if users.len() > 1 {
        out.push_str(&format!(
            "batch of {} users ({}, kernel {}, {threads} threads): {:.2?} total, {:.0} users/sec\n",
            users.len(),
            match engine.backend() {
                Backend::Cascaded(_) => format!("cascaded K={cascade_k}"),
                _ => "walk".to_string(),
            },
            engine.scan_kernel().name(),
            elapsed,
            users.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        ));
    }
    for (req, recs) in requests.iter().zip(&results) {
        out.push_str(&format!(
            "user {}: {} training transactions, {} distinct items\n",
            req.user,
            req.history.len(),
            req.exclude.len()
        ));
        if let Backend::Cascaded(_) = engine.backend() {
            out.push_str(&format!("cascaded inference (K={cascade_k})\n"));
        }
        for (rank, (item, score)) in recs.iter().enumerate() {
            out.push_str(&format!(
                "  #{:<3} {}  {score:+.3}\n",
                rank + 1,
                item_label(*item)
            ));
        }
    }

    if let Some(t) = model.user_tier_stats() {
        out.push_str(&format!(
            "user tier: budget {} rows ({} total), {} hits / {} faults, hit rate {:.2}\n",
            t.budget_rows,
            t.total_rows,
            t.hits,
            t.faults(),
            t.hit_rate(),
        ));
    }

    // Category summary only in single-user mode (matches the old CLI).
    if let [user] = users[..] {
        let scorer = engine.scorer();
        let query = scorer.query(user, train_log.user(user));
        out.push_str("top categories (level 1):\n");
        for (rank, (node, score)) in scorer.rank_level(&query, 1).iter().take(5).enumerate() {
            out.push_str(&format!("  #{:<3} {node}  {score:+.3}\n", rank + 1));
        }
    }
    Ok(out)
}

/// `taxrec inspect` — summarise a model file.
pub fn inspect(args: &CliArgs) -> Result<String, CliError> {
    let path = args.require("model")?;
    let bytes = std::fs::read(path)?;
    let model = persist::decode(&bytes).map_err(|e| CliError::Data(format!("{path}: {e}")))?;
    let cfg = model.config();
    Ok(format!(
        "model file        : {path} ({} bytes)\n\
         system            : {}\n\
         factors (K)       : {}\n\
         users             : {}\n\
         items             : {}\n\
         taxonomy levels   : {:?}\n\
         learning rate / λ : {} / {}\n\
         sibling mix       : {} (skip {} levels)\n\
         markov alpha      : {}\n",
        bytes.len(),
        cfg.system_name(),
        cfg.factors,
        model.num_users(),
        model.num_items(),
        model.taxonomy().level_sizes(),
        cfg.learning_rate,
        cfg.lambda,
        cfg.sibling_mix,
        cfg.sibling_skip_levels,
        cfg.alpha,
    ))
}

/// `taxrec replay` — reconstruct a live model from a snapshot plus its
/// event log (`snapshot + replay(log) ≡ live state`; see
/// `docs/guide/serving.md`). Writes the recovered state as a live
/// snapshot that `taxrec serve`/`inspect` accept directly.
pub fn replay(args: &CliArgs) -> Result<String, CliError> {
    use taxrec_core::live::{self, snapshot};

    let model_path = args.require("model")?;
    let log_path = args.require("log")?;
    let out_path = args.require("out")?;

    let bytes = std::fs::read(model_path)?;
    let mut state =
        snapshot::decode_live(&bytes).map_err(|e| CliError::Data(format!("{model_path}: {e}")))?;
    let (users0, items0) = (state.model().num_users(), state.model().num_items());

    let log_bytes = std::fs::read(log_path)?;
    let (header, events, ignored) = if args.flag("lossy") {
        live::decode_log_lossy(&log_bytes)
            .map_err(|e| CliError::Data(format!("{log_path}: {e}")))?
    } else {
        let (header, events) = live::decode_log(&log_bytes).map_err(|e| {
            CliError::Data(format!(
                "{log_path}: {e} (try --lossy if the writer crashed mid-append)"
            ))
        })?;
        (header, events, 0)
    };
    if !header.matches_model(state.model()) {
        return Err(CliError::Data(format!(
            "{log_path}: log lineage ({} users / {} items) does not match {model_path} \
             ({} / {}) — replaying would corrupt the model; use the snapshot the log \
             was rotated against",
            header.base_users,
            header.base_items,
            state.model().num_users(),
            state.model().num_items(),
        )));
    }
    let applied = live::replay(&mut state, &events)
        .map_err(|e| CliError::Data(format!("{log_path}: replay failed: {e}")))?;
    std::fs::write(out_path, snapshot::encode_live(&state))?;

    let items_added = state.model().num_items() - items0;
    let users_folded = state.model().num_users() - users0;
    if args.flag("json") {
        return Ok(format!(
            "{{\"events\":{},\"items_added\":{items_added},\"users_folded\":{users_folded},\
             \"ignored_bytes\":{ignored},\"users\":{},\"items\":{},\"out\":{}}}\n",
            applied.len(),
            state.model().num_users(),
            state.model().num_items(),
            crate::json::json_str(out_path),
        ));
    }
    Ok(format!(
        "replayed {} events from {log_path} over {model_path}\n\
         items added  : {items_added}\n\
         users folded : {users_folded}\n\
         {}\
         recovered model ({} users, {} items) written to {out_path}\n",
        applied.len(),
        if ignored > 0 {
            format!("ignored      : {ignored} trailing bytes (truncated tail)\n")
        } else {
            String::new()
        },
        state.model().num_users(),
        state.model().num_items(),
    ))
}

fn load_model(path: &str) -> Result<TfModel, CliError> {
    let bytes = std::fs::read(path)?;
    persist::decode(&bytes).map_err(|e| CliError::Data(format!("{path}: {e}")))
}

fn check_model_fits(model: &TfModel, train: &taxrec_dataset::PurchaseLog) -> Result<(), CliError> {
    if model.num_users() != train.num_users() {
        return Err(CliError::Data(format!(
            "model covers {} users but the data directory has {} — \
             was the model trained on this dataset?",
            model.num_users(),
            train.num_users()
        )));
    }
    Ok(())
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {

    use crate::run;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("taxrec-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn full_pipeline_generate_train_evaluate_recommend() {
        let dir = tmpdir("pipeline");
        let data = dir.join("data");
        let model = dir.join("m.tfm");
        let out = run(&argv(&format!(
            "generate --out {} --users 300 --items 400 --seed 7",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("generated 300 users"));

        let out = run(&argv(&format!(
            "train --data {} --model {} --tf 4,1 --factors 8 --epochs 3 --threads 2",
            data.display(),
            model.display()
        )))
        .unwrap();
        assert!(out.contains("TF(4,1)"), "{out}");
        assert!(model.exists());

        let out = run(&argv(&format!(
            "evaluate --data {} --model {}",
            data.display(),
            model.display()
        )))
        .unwrap();
        assert!(out.contains("AUC"), "{out}");

        let out = run(&argv(&format!(
            "evaluate --data {} --model {} --json",
            data.display(),
            model.display()
        )))
        .unwrap();
        assert!(out.starts_with("{\"system\":\"TF(4,1)\""), "{out}");
        assert!(out.contains("\"auc\":0."), "{out}");

        let out = run(&argv(&format!(
            "recommend --data {} --model {} --user 0 --top 5",
            data.display(),
            model.display()
        )))
        .unwrap();
        assert!(out.contains("#1"), "{out}");
        assert!(out.contains("top categories"), "{out}");

        let out = run(&argv(&format!("inspect --model {}", model.display()))).unwrap();
        assert!(out.contains("TF(4,1)"), "{out}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn import_pipeline() {
        let dir = tmpdir("import");
        let tsv = dir.join("purchases.tsv");
        std::fs::write(
            &tsv,
            "alice\t0\telectronics/cameras\tcanon\n\
             alice\t1\telectronics/storage\tsd-card\n\
             bob\t0\thome/garden\tpruner\n\
             bob\t1\thome/garden\tgloves\n",
        )
        .unwrap();
        let data = dir.join("data");
        let out = run(&argv(&format!(
            "import --input {} --out {} --mu 0.5",
            tsv.display(),
            data.display()
        )))
        .unwrap();
        assert!(out.contains("imported 2 users"), "{out}");

        // Item names must surface in recommendations.
        let model = dir.join("m.tfm");
        run(&argv(&format!(
            "train --data {} --model {} --mf 0 --factors 4 --epochs 2",
            data.display(),
            model.display()
        )))
        .unwrap();
        let out = run(&argv(&format!(
            "recommend --data {} --model {} --user 0 --top 2",
            data.display(),
            model.display()
        )))
        .unwrap();
        assert!(
            ["canon", "sd-card", "pruner", "gloves"]
                .iter()
                .any(|n| out.contains(n)),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cascade_recommend_path() {
        let dir = tmpdir("cascade");
        let data = dir.join("data");
        let model = dir.join("m.tfm");
        run(&argv(&format!(
            "generate --out {} --users 200 --items 300 --seed 3",
            data.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "train --data {} --model {} --tf 4,0 --factors 4 --epochs 2",
            data.display(),
            model.display()
        )))
        .unwrap();
        let out = run(&argv(&format!(
            "recommend --data {} --model {} --user 1 --cascade 0.3",
            data.display(),
            model.display()
        )))
        .unwrap();
        assert!(out.contains("cascaded inference"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_recommend_matches_single_calls() {
        let dir = tmpdir("batchrec");
        let data = dir.join("data");
        let model = dir.join("m.tfm");
        run(&argv(&format!(
            "generate --out {} --users 200 --items 300 --seed 9",
            data.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "train --data {} --model {} --tf 4,1 --factors 8 --epochs 2",
            data.display(),
            model.display()
        )))
        .unwrap();

        let batch = run(&argv(&format!(
            "recommend --data {} --model {} --users 0-63 --top 5 --threads 4",
            data.display(),
            model.display()
        )))
        .unwrap();
        assert!(batch.contains("batch of 64 users"), "{batch}");
        assert!(batch.contains("users/sec"), "{batch}");
        // Every user's block must equal the single-user invocation's.
        for user in [0usize, 31, 63] {
            let single = run(&argv(&format!(
                "recommend --data {} --model {} --user {user} --top 5",
                data.display(),
                model.display()
            )))
            .unwrap();
            let block = single.split("top categories").next().unwrap();
            assert!(
                batch.contains(block),
                "user {user} diverges:\n{block}\nvs\n{batch}"
            );
        }

        // Range + list syntax and the cascaded backend parse and run.
        let casc = run(&argv(&format!(
            "recommend --data {} --model {} --users 0-3,7 --cascade 0.3 --top 3",
            data.display(),
            model.display()
        )))
        .unwrap();
        assert!(casc.contains("batch of 5 users"), "{casc}");
        assert!(casc.contains("cascaded"), "{casc}");

        assert!(run(&argv(&format!(
            "recommend --data {} --model {} --users 9-2",
            data.display(),
            model.display()
        )))
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recommend_serves_the_walk_unless_cascade_is_below_one() {
        let dir = tmpdir("readpath");
        let data = dir.join("data");
        let model = dir.join("m.tfm");
        run(&argv(&format!(
            "generate --out {} --users 120 --items 300 --seed 5",
            data.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "train --data {} --model {} --tf 4,1 --factors 8 --epochs 2",
            data.display(),
            model.display()
        )))
        .unwrap();
        let recommend = |flags: &str| {
            run(&argv(&format!(
                "recommend --data {} --model {} --users 0-7 --top 4 {flags}",
                data.display(),
                model.display()
            )))
            .unwrap()
        };
        // The header names the read path; the per-user blocks below it
        // are the same bytes for every cascade of 1 or more.
        let split = |out: String| {
            let (header, blocks) = out.split_once('\n').unwrap();
            (header.to_string(), blocks.to_string())
        };
        let (header, default_blocks) = split(recommend(""));
        assert!(header.contains("(walk, kernel "), "{header}");
        for flags in ["--cascade 1.0", "--cascade 2"] {
            let (header, blocks) = split(recommend(flags));
            assert!(header.contains("(walk, kernel "), "{flags}: {header}");
            assert_eq!(blocks, default_blocks, "{flags} changed the ranking");
        }
        let (header, _) = split(recommend("--cascade 0.3"));
        assert!(header.contains("(cascaded K=0.3, kernel "), "{header}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recommend_user_tier_leaves_no_cold_file_behind() {
        let dir = tmpdir("tiercold");
        let data = dir.join("data");
        let model = dir.join("m.tfm");
        run(&argv(&format!(
            "generate --out {} --users 80 --items 200 --seed 4",
            data.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "train --data {} --model {} --tf 4,1 --factors 4 --epochs 1",
            data.display(),
            model.display()
        )))
        .unwrap();
        let recommend = |flags: &str| {
            run(&argv(&format!(
                "recommend --data {} --model {} --users 0-15 --top 3 --threads 1 {flags}",
                data.display(),
                model.display()
            )))
            .unwrap()
        };
        let cold =
            std::env::temp_dir().join(format!("taxrec-recommend-tier-{}.cold", std::process::id()));
        let tiered = recommend("--user-tier-budget 4");
        assert!(tiered.contains("user tier: budget 4 rows"), "{tiered}");
        assert!(!cold.exists(), "{} left behind", cold.display());
        // Tiering still serves the resident run's rankings.
        let blocks = |out: &str| {
            out.split_once('\n')
                .unwrap()
                .1
                .split("user tier:")
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(blocks(&tiered), blocks(&recommend("")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_pipeline_recovers_live_state() {
        use taxrec_core::live::{encode_event, encode_log_header, LogHeader, UpdateEvent};
        use taxrec_core::persist;
        use taxrec_taxonomy::ItemId;

        let dir = tmpdir("replay");
        let data = dir.join("data");
        let model_path = dir.join("m.tfm");
        run(&argv(&format!(
            "generate --out {} --users 150 --items 200 --seed 11",
            data.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "train --data {} --model {} --tf 4,1 --factors 4 --epochs 1",
            data.display(),
            model_path.display()
        )))
        .unwrap();

        // Write an event log: one added item, one folded user.
        let model = persist::decode(&std::fs::read(&model_path).unwrap()).unwrap();
        let parent = {
            let tax = model.taxonomy();
            tax.parent(tax.item_node(ItemId(0))).unwrap()
        };
        let mut log = Vec::new();
        encode_log_header(
            &mut log,
            &LogHeader {
                base_users: model.num_users() as u64,
                base_items: model.num_items() as u64,
            },
        );
        encode_event(&mut log, &UpdateEvent::AddItem { parent });
        encode_event(
            &mut log,
            &UpdateEvent::FoldInUser {
                history: vec![vec![ItemId(1), ItemId(2)]],
                steps: 30,
                seed: 4,
            },
        );
        let log_path = dir.join("events.log");
        std::fs::write(&log_path, &log).unwrap();

        let out_path = dir.join("recovered.tfm");
        let out = run(&argv(&format!(
            "replay --model {} --log {} --out {}",
            model_path.display(),
            log_path.display(),
            out_path.display()
        )))
        .unwrap();
        assert!(out.contains("replayed 2 events"), "{out}");
        assert!(out.contains("items added  : 1"), "{out}");
        assert!(out.contains("users folded : 1"), "{out}");

        // The recovered artifact is a valid model with the grown counts…
        let rec = persist::decode(&std::fs::read(&out_path).unwrap()).unwrap();
        assert_eq!(rec.num_items(), model.num_items() + 1);
        assert_eq!(rec.num_users(), model.num_users() + 1);
        // …and `inspect` accepts it directly.
        let out = run(&argv(&format!("inspect --model {}", out_path.display()))).unwrap();
        assert!(out.contains("TF(4,1)"), "{out}");

        // JSON mode, and a truncated log needs --lossy.
        let json = run(&argv(&format!(
            "replay --model {} --log {} --out {} --json",
            model_path.display(),
            log_path.display(),
            out_path.display()
        )))
        .unwrap();
        assert!(json.starts_with("{\"events\":2,"), "{json}");
        std::fs::write(&log_path, &log[..log.len() - 3]).unwrap();
        assert!(run(&argv(&format!(
            "replay --model {} --log {} --out {}",
            model_path.display(),
            log_path.display(),
            out_path.display()
        )))
        .is_err());
        let out = run(&argv(&format!(
            "replay --model {} --log {} --out {} --lossy",
            model_path.display(),
            log_path.display(),
            out_path.display()
        )))
        .unwrap();
        assert!(out.contains("replayed 1 events"), "{out}");
        assert!(out.contains("trailing bytes"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&argv("train --model x")).is_err()); // missing --data
        assert!(run(&argv("generate --out /tmp/x --mu 2.0")).is_err());
        assert!(run(&argv("evaluate --data /nonexistent --model /nope")).is_err());
    }

    #[test]
    fn mismatched_model_and_data_rejected() {
        let dir = tmpdir("mismatch");
        let d1 = dir.join("d1");
        let d2 = dir.join("d2");
        let model = dir.join("m.tfm");
        run(&argv(&format!(
            "generate --out {} --users 100 --items 200 --seed 1",
            d1.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "generate --out {} --users 150 --items 200 --seed 2",
            d2.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "train --data {} --model {} --mf 0 --factors 4 --epochs 1",
            d1.display(),
            model.display()
        )))
        .unwrap();
        let err = run(&argv(&format!(
            "evaluate --data {} --model {}",
            d2.display(),
            model.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("users"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
