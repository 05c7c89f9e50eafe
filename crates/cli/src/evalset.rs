//! Loading and reporting for `taxrec evaluate --dataset`.
//!
//! This is the CLI half of the retrieval-quality harness
//! ([`taxrec_core::eval::dataset`] is the engine half): decoding the
//! JSON dataset file (defaults + per-query overrides, resolution order
//! **CLI flags > per-query > dataset defaults > built-ins**), emitting
//! the human-readable and machine-readable reports, and the
//! baseline-gating logic behind `--write-baseline` / `--assert-baseline`.
//!
//! ## Dataset file
//!
//! ```json
//! {
//!   "name": "baseline",
//!   "defaults": { "k": 10, "candidate_k": 40, "scan_shards": 1,
//!                 "backend": "exhaustive", "exclude_history": false },
//!   "queries": [
//!     { "id": "q-0", "user": 3, "expected_items": [5, 9],
//!       "history": [[1, 2], [3]], "k": 20, "backend": "cascaded",
//!       "cascade": 0.4, "scan_shards": 4 }
//!   ]
//! }
//! ```
//!
//! `user` and `expected_items` are required per query; everything else
//! falls back through the resolution order. A query without `history`
//! uses the user's training-log history. See
//! `docs/guide/evaluation.md` for the full field reference.
//!
//! All report emission goes through [`Json::render`] — paths, query
//! ids, and NaN/absent metrics can never produce invalid JSON.

use crate::json::{json_str, Json};
use taxrec_core::eval::dataset::{
    BackendSpec, CompareReport, QueryOutcome, RetrievalDataset, RetrievalQuery, RetrievalReport,
    RetrievalSummary,
};
use taxrec_dataset::{PurchaseLog, Transaction};
use taxrec_taxonomy::ItemId;

/// Built-in defaults (the bottom of the resolution order).
const DEFAULT_K: usize = 10;
const DEFAULT_CASCADE: f64 = 0.5;

/// Knobs the CLI can force over every query (top of the resolution
/// order); `None` = not given on the command line.
#[derive(Debug, Clone, Default)]
pub struct EvalOverrides {
    /// `--k N`
    pub k: Option<usize>,
    /// `--candidate-k N`
    pub candidate_k: Option<usize>,
    /// `--scan-shards S`
    pub scan_shards: Option<usize>,
    /// `--backend exhaustive|cascaded|quantized|walk`
    pub backend: Option<String>,
    /// `--cascade F` (implies the cascaded backend when `< 1.0`, the
    /// same convention as `taxrec recommend`)
    pub cascade: Option<f64>,
    /// `--exclude-history`
    pub exclude_history: Option<bool>,
}

/// One level of the dataset file's settings (defaults or a query).
#[derive(Debug, Clone, Default)]
struct Level {
    k: Option<usize>,
    candidate_k: Option<usize>,
    scan_shards: Option<usize>,
    backend: Option<String>,
    cascade: Option<f64>,
    exclude_history: Option<bool>,
}

impl Level {
    fn decode(obj: &Json, whence: &str) -> Result<Level, String> {
        Ok(Level {
            k: field_usize(obj, "k", whence)?,
            candidate_k: field_usize(obj, "candidate_k", whence)?,
            scan_shards: field_usize(obj, "scan_shards", whence)?,
            backend: match obj.get("backend") {
                None => None,
                Some(Json::Str(s)) => Some(s.clone()),
                Some(_) => return Err(format!("{whence}: 'backend' must be a string")),
            },
            cascade: match obj.get("cascade") {
                None => None,
                Some(Json::Num(n)) if (0.0..=1.0).contains(n) => Some(*n),
                Some(_) => return Err(format!("{whence}: 'cascade' must be a number in [0,1]")),
            },
            exclude_history: match obj.get("exclude_history") {
                None => None,
                Some(Json::Bool(b)) => Some(*b),
                Some(_) => return Err(format!("{whence}: 'exclude_history' must be a boolean")),
            },
        })
    }
}

fn field_usize(obj: &Json, key: &str, whence: &str) -> Result<Option<usize>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("{whence}: '{key}' must be a non-negative integer")),
    }
}

/// Resolve one field through CLI > query > defaults > built-in.
fn pick<T: Clone>(cli: &Option<T>, query: &Option<T>, defaults: &Option<T>, builtin: T) -> T {
    cli.clone()
        .or_else(|| query.clone())
        .or_else(|| defaults.clone())
        .unwrap_or(builtin)
}

/// Decode a dataset file into fully resolved queries. `train` supplies
/// the default history for queries that don't carry one inline.
pub fn parse_dataset(
    text: &str,
    cli: &EvalOverrides,
    train: &PurchaseLog,
) -> Result<RetrievalDataset, String> {
    let doc = crate::json::parse(text)?;
    let name = match doc.get("name") {
        Some(Json::Str(s)) => s.clone(),
        None => "dataset".to_string(),
        Some(_) => return Err("'name' must be a string".to_string()),
    };
    let defaults = match doc.get("defaults") {
        None => Level::default(),
        Some(obj @ Json::Obj(_)) => Level::decode(obj, "defaults")?,
        Some(_) => return Err("'defaults' must be an object".to_string()),
    };
    let raw_queries = doc
        .get("queries")
        .and_then(Json::as_array)
        .ok_or("'queries' must be an array")?;
    if raw_queries.is_empty() {
        return Err("'queries' is empty".to_string());
    }

    let mut queries = Vec::with_capacity(raw_queries.len());
    for (idx, rq) in raw_queries.iter().enumerate() {
        let id = match rq.get("id") {
            Some(Json::Str(s)) => s.clone(),
            None => format!("q-{idx}"),
            Some(_) => return Err(format!("query {idx}: 'id' must be a string")),
        };
        let whence = format!("query '{id}'");
        if !matches!(rq, Json::Obj(_)) {
            return Err(format!("{whence}: queries must be objects"));
        }
        let user = field_usize(rq, "user", &whence)?
            .ok_or_else(|| format!("{whence}: 'user' is required"))?;
        let expected = decode_items(
            rq.get("expected_items")
                .ok_or_else(|| format!("{whence}: 'expected_items' is required"))?,
            &whence,
            "expected_items",
        )?;
        if expected.is_empty() {
            return Err(format!("{whence}: 'expected_items' is empty"));
        }
        let history: Vec<Transaction> = match rq.get("history") {
            None => {
                if user >= train.num_users() {
                    return Err(format!(
                        "{whence}: user {user} outside the training log \
                         ({} users) and no inline 'history' given",
                        train.num_users()
                    ));
                }
                train.user(user).to_vec()
            }
            Some(Json::Arr(txs)) => {
                let mut h = Vec::with_capacity(txs.len());
                for t in txs {
                    h.push(decode_items(t, &whence, "history")?);
                }
                h
            }
            Some(_) => return Err(format!("{whence}: 'history' must be an array of arrays")),
        };

        let level = Level::decode(rq, &whence)?;
        let k = pick(&cli.k, &level.k, &defaults.k, DEFAULT_K);
        let candidate_k = pick(
            &cli.candidate_k,
            &level.candidate_k,
            &defaults.candidate_k,
            k * 4,
        );
        let backend = resolve_backend(cli, &level, &defaults, &whence)?;
        queries.push(RetrievalQuery {
            id,
            user,
            history,
            expected,
            k,
            candidate_k: candidate_k.max(k),
            scan_shards: pick(
                &cli.scan_shards,
                &level.scan_shards,
                &defaults.scan_shards,
                1,
            ),
            backend,
            exclude_history: pick(
                &cli.exclude_history,
                &level.exclude_history,
                &defaults.exclude_history,
                false,
            ),
        });
    }
    Ok(RetrievalDataset { name, queries })
}

/// Backend + cascade fraction through the resolution order. A bare
/// `--cascade F` with `F < 1.0` selects the cascaded backend (matching
/// `taxrec recommend`); an explicit `backend` string always wins.
fn resolve_backend(
    cli: &EvalOverrides,
    query: &Level,
    defaults: &Level,
    whence: &str,
) -> Result<BackendSpec, String> {
    let fraction = pick(
        &cli.cascade,
        &query.cascade,
        &defaults.cascade,
        DEFAULT_CASCADE,
    );
    let name = cli
        .backend
        .clone()
        .or_else(|| matches!(cli.cascade, Some(f) if f < 1.0).then(|| "cascaded".to_string()))
        .or_else(|| query.backend.clone())
        .or_else(|| defaults.backend.clone())
        .unwrap_or_else(|| "exhaustive".to_string());
    match name.as_str() {
        "exhaustive" => Ok(BackendSpec::Exhaustive),
        "cascaded" => Ok(BackendSpec::Cascaded(fraction)),
        "quantized" => Ok(BackendSpec::Quantized),
        "walk" => Ok(BackendSpec::Walk),
        other => Err(format!(
            "{whence}: unknown backend '{other}' \
             (expected 'exhaustive', 'cascaded', 'quantized', or 'walk')"
        )),
    }
}

fn decode_items(v: &Json, whence: &str, key: &str) -> Result<Vec<ItemId>, String> {
    let arr = v
        .as_array()
        .ok_or_else(|| format!("{whence}: '{key}' must be an array of item ids"))?;
    arr.iter()
        .map(|e| {
            e.as_u64()
                .and_then(|i| u32::try_from(i).ok())
                .map(ItemId)
                .ok_or_else(|| format!("{whence}: '{key}' holds a non-item-id value"))
        })
        .collect()
}

fn summary_metrics_json(s: &RetrievalSummary) -> Json {
    Json::Obj(vec![
        ("recall_at_k".into(), Json::opt_num(s.recall)),
        ("precision_at_k".into(), Json::opt_num(s.precision)),
        ("mrr".into(), Json::opt_num(s.mrr)),
        ("ndcg_at_k".into(), Json::opt_num(s.ndcg)),
    ])
}

fn outcome_metrics(o: &QueryOutcome) -> Vec<(String, Json)> {
    vec![
        ("recall".into(), Json::opt_num(o.recall)),
        ("precision".into(), Json::opt_num(o.precision)),
        ("rr".into(), Json::opt_num(o.rr)),
        ("ndcg".into(), Json::opt_num(o.ndcg)),
    ]
}

/// The full machine-readable report (metrics + latency + per-query
/// detail). `dataset_path` / `model_path` / `system` annotate
/// provenance; they are escaped like everything else.
pub fn report_to_json(
    report: &RetrievalReport,
    dataset_path: &str,
    model_path: &str,
    system: &str,
) -> Json {
    let s = &report.summary;
    let per_query: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            let mut fields = vec![("id".into(), Json::str(&o.id))];
            fields.extend(outcome_metrics(o));
            fields.push(("latency_us".into(), Json::Num(o.latency_us as f64)));
            fields.push((
                "expected_ranks".into(),
                Json::Arr(
                    o.expected_ranks
                        .iter()
                        .map(|r| Json::opt_num(r.map(|x| x as f64)))
                        .collect(),
                ),
            ));
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::str(&report.name)),
        ("dataset".into(), Json::str(dataset_path)),
        ("model".into(), Json::str(model_path)),
        ("system".into(), Json::str(system)),
        ("queries".into(), Json::Num(s.queries as f64)),
        ("scored".into(), Json::Num(s.scored as f64)),
        ("metrics".into(), summary_metrics_json(s)),
        (
            "latency".into(),
            Json::Obj(vec![
                ("p50_us".into(), Json::Num(s.latency_p50_us as f64)),
                ("p95_us".into(), Json::Num(s.latency_p95_us as f64)),
            ]),
        ),
        ("per_query".into(), Json::Arr(per_query)),
    ])
}

/// The committed baseline artifact: only the *deterministic* part of a
/// report — no paths, no latency — so the same dataset + model produce
/// byte-identical artifacts at any shard or thread count.
pub fn baseline_to_json(report: &RetrievalReport, tolerance: f64) -> Json {
    let s = &report.summary;
    let per_query: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            let mut fields = vec![("id".into(), Json::str(&o.id))];
            fields.extend(outcome_metrics(o));
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::str(&report.name)),
        ("tolerance".into(), Json::Num(tolerance)),
        ("queries".into(), Json::Num(s.queries as f64)),
        ("scored".into(), Json::Num(s.scored as f64)),
        ("metrics".into(), summary_metrics_json(s)),
        ("per_query".into(), Json::Arr(per_query)),
    ])
}

/// Gate a report against a committed baseline: every summary metric
/// present in the baseline must be at least `baseline − tolerance`.
/// Returns the pass/fail detail lines; `Err` means the gate tripped.
pub fn assert_baseline(report: &RetrievalReport, baseline: &Json) -> Result<String, String> {
    let tolerance = baseline
        .get("tolerance")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let metrics = baseline
        .get("metrics")
        .ok_or("baseline file has no 'metrics' object")?;
    let s = &report.summary;
    let current = [
        ("recall_at_k", s.recall),
        ("precision_at_k", s.precision),
        ("mrr", s.mrr),
        ("ndcg_at_k", s.ndcg),
    ];
    let mut lines = String::new();
    let mut failures = Vec::new();
    for (key, now) in current {
        let Some(base) = metrics.get(key).and_then(Json::as_f64) else {
            continue; // null / absent in the baseline: not gated
        };
        let floor = base - tolerance;
        match now {
            Some(v) if v >= floor => {
                lines.push_str(&format!(
                    "  {key:<15} {v:.6} >= {floor:.6} (baseline {base:.6} - tol {tolerance})  ok\n"
                ));
            }
            Some(v) => failures.push(format!(
                "{key} regressed: {v:.6} < {floor:.6} (baseline {base:.6} - tolerance {tolerance})"
            )),
            None => failures.push(format!(
                "{key} missing from report but baselined at {base:.6}"
            )),
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(format!(
            "quality gate FAILED against baseline '{}':\n  {}",
            baseline
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("(unnamed)"),
            failures.join("\n  ")
        ))
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |x| format!("{x:.4}"))
}

/// Human-readable report.
pub fn render_report_text(report: &RetrievalReport, model_path: &str, system: &str) -> String {
    let s = &report.summary;
    let mut out = format!(
        "dataset           : {} ({} queries, {} scored)\n\
         model             : {model_path} ({system})\n\
         recall@K          : {}\n\
         precision@K       : {}\n\
         MRR               : {}\n\
         nDCG@K            : {}\n\
         latency p50 / p95 : {} µs / {} µs\n",
        report.name,
        s.queries,
        s.scored,
        fmt_opt(s.recall),
        fmt_opt(s.precision),
        fmt_opt(s.mrr),
        fmt_opt(s.ndcg),
        s.latency_p50_us,
        s.latency_p95_us,
    );
    out.push_str("query            recall  prec    rr      ndcg    lat_us\n");
    for o in &report.outcomes {
        out.push_str(&format!(
            "{:<16} {:<7} {:<7} {:<7} {:<7} {}\n",
            o.id,
            fmt_opt(o.recall),
            fmt_opt(o.precision),
            fmt_opt(o.rr),
            fmt_opt(o.ndcg),
            o.latency_us
        ));
    }
    out
}

/// Machine-readable trace-compare report.
pub fn compare_to_json(cmp: &CompareReport, model_a: &str, model_b: &str) -> Json {
    let per_query: Vec<Json> = cmp
        .per_query
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("id".into(), Json::str(&c.id)),
                ("a".into(), Json::Obj(outcome_metrics(&c.a))),
                ("b".into(), Json::Obj(outcome_metrics(&c.b))),
                ("reordered".into(), Json::Num(c.reordered as f64)),
                (
                    "moves".into(),
                    Json::Arr(
                        c.moves
                            .iter()
                            .map(|m| {
                                Json::Obj(vec![
                                    ("item".into(), Json::Num(m.item.index() as f64)),
                                    ("rank_a".into(), Json::opt_num(m.rank_a.map(|r| r as f64))),
                                    ("rank_b".into(), Json::opt_num(m.rank_b.map(|r| r as f64))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::str(&cmp.name)),
        ("model_a".into(), Json::str(model_a)),
        ("model_b".into(), Json::str(model_b)),
        ("metrics_a".into(), summary_metrics_json(&cmp.a)),
        ("metrics_b".into(), summary_metrics_json(&cmp.b)),
        (
            "reordered_queries".into(),
            Json::Num(cmp.per_query.iter().filter(|c| c.reordered > 0).count() as f64),
        ),
        ("per_query".into(), Json::Arr(per_query)),
    ])
}

/// Human-readable trace-compare report: summary deltas plus one line
/// per query whose ranking moved.
pub fn render_compare_text(cmp: &CompareReport, model_a: &str, model_b: &str) -> String {
    let delta = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) => format!("{:+.4}", b - a),
        _ => "-".to_string(),
    };
    let mut out = format!(
        "trace compare over '{}' ({} queries; candidates fixed from A, re-scored under B)\n\
         config A          : {model_a}\n\
         config B          : {model_b}\n\
         metric              A        B        delta\n\
         recall@K          : {:<8} {:<8} {}\n\
         precision@K       : {:<8} {:<8} {}\n\
         MRR               : {:<8} {:<8} {}\n\
         nDCG@K            : {:<8} {:<8} {}\n",
        cmp.name,
        cmp.per_query.len(),
        fmt_opt(cmp.a.recall),
        fmt_opt(cmp.b.recall),
        delta(cmp.a.recall, cmp.b.recall),
        fmt_opt(cmp.a.precision),
        fmt_opt(cmp.b.precision),
        delta(cmp.a.precision, cmp.b.precision),
        fmt_opt(cmp.a.mrr),
        fmt_opt(cmp.b.mrr),
        delta(cmp.a.mrr, cmp.b.mrr),
        fmt_opt(cmp.a.ndcg),
        fmt_opt(cmp.b.ndcg),
        delta(cmp.a.ndcg, cmp.b.ndcg),
    );
    let moved: Vec<&taxrec_core::eval::dataset::QueryCompare> =
        cmp.per_query.iter().filter(|c| c.reordered > 0).collect();
    if moved.is_empty() {
        out.push_str(
            "ranking         : identical on every query (quality-neutral on this dataset)\n",
        );
    } else {
        out.push_str(&format!(
            "ranking         : {} of {} queries reordered\n",
            moved.len(),
            cmp.per_query.len()
        ));
        for c in moved {
            let moves: Vec<String> = c
                .moves
                .iter()
                .filter(|m| m.rank_a != m.rank_b)
                .map(|m| {
                    let show =
                        |r: Option<usize>| r.map_or("miss".to_string(), |x| format!("#{}", x + 1));
                    format!(
                        "item {} {}→{}",
                        m.item.index(),
                        show(m.rank_a),
                        show(m.rank_b)
                    )
                })
                .collect();
            out.push_str(&format!(
                "  {:<14} {} candidate positions changed; ndcg {} → {}{}\n",
                c.id,
                c.reordered,
                fmt_opt(c.a.ndcg),
                fmt_opt(c.b.ndcg),
                if moves.is_empty() {
                    String::new()
                } else {
                    format!("; expected: {}", moves.join(", "))
                }
            ));
        }
    }
    out
}

/// Render `path` for error messages (shared escaper, never invalid).
pub fn path_label(path: &str) -> String {
    json_str(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxrec_dataset::{DatasetConfig, SyntheticDataset};

    fn train() -> PurchaseLog {
        SyntheticDataset::generate(&DatasetConfig::tiny(), 3).train
    }

    #[test]
    fn resolution_order_cli_query_defaults_builtin() {
        let text = r#"{
            "name": "t",
            "defaults": {"k": 7, "scan_shards": 2, "exclude_history": true},
            "queries": [
                {"user": 0, "expected_items": [1]},
                {"id": "q-b", "user": 1, "expected_items": [2], "k": 3,
                 "backend": "cascaded", "cascade": 0.25, "scan_shards": 5}
            ]
        }"#;
        let t = train();
        let ds = parse_dataset(text, &EvalOverrides::default(), &t).unwrap();
        assert_eq!(ds.name, "t");
        assert_eq!(ds.queries[0].k, 7); // defaults
        assert_eq!(ds.queries[0].scan_shards, 2);
        assert!(ds.queries[0].exclude_history);
        assert_eq!(ds.queries[0].candidate_k, 28); // builtin 4×k
        assert_eq!(ds.queries[0].backend, BackendSpec::Exhaustive);
        assert_eq!(ds.queries[1].k, 3); // query override
        assert_eq!(ds.queries[1].scan_shards, 5);
        assert_eq!(ds.queries[1].backend, BackendSpec::Cascaded(0.25));
        assert_eq!(ds.queries[1].id, "q-b");
        assert_eq!(ds.queries[0].id, "q-0"); // generated id

        // CLI beats everything.
        let cli = EvalOverrides {
            k: Some(4),
            scan_shards: Some(1),
            backend: Some("exhaustive".into()),
            ..Default::default()
        };
        let ds = parse_dataset(text, &cli, &t).unwrap();
        assert!(ds.queries.iter().all(|q| q.k == 4 && q.scan_shards == 1));
        assert!(ds
            .queries
            .iter()
            .all(|q| q.backend == BackendSpec::Exhaustive));
    }

    #[test]
    fn bare_cli_cascade_selects_the_cascaded_backend() {
        let text = r#"{"queries": [{"user": 0, "expected_items": [1]}]}"#;
        let cli = EvalOverrides {
            cascade: Some(0.3),
            ..Default::default()
        };
        let ds = parse_dataset(text, &cli, &train()).unwrap();
        assert_eq!(ds.queries[0].backend, BackendSpec::Cascaded(0.3));
    }

    #[test]
    fn inline_history_and_default_history() {
        let text = r#"{"queries": [
            {"user": 0, "expected_items": [1], "history": [[4, 5], [6]]},
            {"user": 0, "expected_items": [1]}
        ]}"#;
        let t = train();
        let ds = parse_dataset(text, &EvalOverrides::default(), &t).unwrap();
        assert_eq!(
            ds.queries[0].history,
            vec![vec![ItemId(4), ItemId(5)], vec![ItemId(6)]]
        );
        assert_eq!(ds.queries[1].history, t.user(0).to_vec());
    }

    #[test]
    fn malformed_datasets_are_rejected_with_context() {
        let t = train();
        let cases = [
            ("{}", "queries"),
            (r#"{"queries": []}"#, "empty"),
            (r#"{"queries": [{"expected_items": [1]}]}"#, "user"),
            (r#"{"queries": [{"user": 0}]}"#, "expected_items"),
            (
                r#"{"queries": [{"user": 0, "expected_items": []}]}"#,
                "empty",
            ),
            (
                r#"{"queries": [{"user": 0, "expected_items": [1], "backend": "turbo"}]}"#,
                "turbo",
            ),
            (
                r#"{"queries": [{"user": 0, "expected_items": [1], "cascade": 7}]}"#,
                "cascade",
            ),
            (
                r#"{"queries": [{"user": 999999, "expected_items": [1]}]}"#,
                "history",
            ),
        ];
        for (text, needle) in cases {
            let err = parse_dataset(text, &EvalOverrides::default(), &t).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn baseline_gate_passes_and_trips() {
        let report = RetrievalReport {
            name: "g".into(),
            summary: RetrievalSummary {
                queries: 2,
                scored: 2,
                recall: Some(0.9),
                precision: Some(0.5),
                mrr: Some(0.8),
                ndcg: Some(0.85),
                latency_p50_us: 1,
                latency_p95_us: 2,
            },
            outcomes: vec![],
        };
        let baseline = baseline_to_json(&report, 0.05);
        // Same report against its own baseline: passes.
        assert!(assert_baseline(&report, &baseline).is_ok());
        // A regressed report: recall drops past tolerance.
        let mut bad = report.clone();
        bad.summary.recall = Some(0.8);
        let err = assert_baseline(&bad, &baseline).unwrap_err();
        assert!(err.contains("recall_at_k regressed"), "{err}");
        // Within tolerance: still green.
        let mut ok = report.clone();
        ok.summary.recall = Some(0.87);
        assert!(assert_baseline(&ok, &baseline).is_ok());
    }

    #[test]
    fn baseline_json_has_no_latency_or_paths() {
        let report = RetrievalReport {
            name: "b".into(),
            summary: RetrievalSummary::default(),
            outcomes: vec![],
        };
        let text = baseline_to_json(&report, 0.02).render();
        assert!(!text.contains("latency"));
        assert!(!text.contains("model"));
        assert!(crate::json::parse(&text).is_ok());
    }
}
