//! Dataset-driven retrieval-quality evaluation through the real
//! serving path.
//!
//! The sibling paper-protocol harness ([`crate::eval::evaluate`])
//! measures *model* quality over a train/test split with score-array
//! metrics. This module measures **serving** quality: a committed JSON
//! dataset of queries (user + history + expected item ids, with global
//! defaults and per-query overrides for `k` / backend / cascade
//! fraction / scan shards) is pushed through the production
//! [`RecommendEngine`] and scored with the list metrics of
//! [`crate::metrics`] — recall@K, precision@K, MRR, nDCG@K — plus
//! per-query latency quantiles from the shared [`crate::histogram`].
//!
//! Everything downstream of the engine call is deterministic: queries
//! are evaluated in dataset order (sharded across threads but written
//! back by index and aggregated in order), candidate lists inherit the
//! engine's `(score desc, id asc)` total order ([`rank_cmp`]), and the
//! sharded ≡ unsharded law extends to the whole report — the same
//! dataset at any `scan_shards` / thread count yields bit-identical
//! metrics (`crates/cli/tests/eval_harness.rs`).
//!
//! **Trace compare** ([`rerank_retrieval`]) is the quality gate for
//! scoring-path changes (SIMD kernels, quantized scans): the candidate
//! set captured from config A is *re-ranked* under config B's model by
//! scoring only those `candidate_k` items — no second catalog scan —
//! and the report shows per-query rank deltas and metric deltas.

use crate::histogram::Histogram;
use crate::inference::CascadeConfig;
use crate::metrics::{
    ndcg_at_k, precision_at_k, recall_at_k, reciprocal_rank_at_k, MeanAccumulator,
};
use crate::model::TfModel;
use crate::recommend::{rank_cmp, Backend, F32Kernel, RecommendEngine, RecommendRequest};
use crate::scoring::Scorer;
use std::time::Instant;
use taxrec_dataset::Transaction;
use taxrec_taxonomy::ItemId;

/// Which serving backend a query goes through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendSpec {
    /// Exact blocked scan over the whole catalog.
    Exhaustive,
    /// Taxonomy beam with this uniform keep fraction (Sec. 5.1).
    Cascaded(f64),
    /// Int8 first-pass scan with exact f32 rescore (default pool
    /// sizing) — serves the exhaustive ranking bit-for-bit.
    Quantized,
    /// Radius-bound walk over the taxonomy — serves the exhaustive
    /// ranking bit-for-bit.
    Walk,
}

impl BackendSpec {
    /// The [`Backend`] this spec resolves to for `model`.
    pub fn to_backend(self, model: &TfModel) -> Backend {
        match self {
            BackendSpec::Exhaustive => Backend::Exhaustive,
            BackendSpec::Cascaded(f) => Backend::Cascaded(CascadeConfig::uniform(
                model.taxonomy().depth(),
                f.clamp(0.01, 1.0),
            )),
            BackendSpec::Quantized => {
                Backend::Quantized(crate::recommend::QuantizedConfig::default())
            }
            BackendSpec::Walk => Backend::Walk,
        }
    }

    /// Stable label for reports (`"exhaustive"` / `"cascaded(0.4)"` /
    /// `"quantized"` / `"walk"`).
    pub fn label(&self) -> String {
        match self {
            BackendSpec::Exhaustive => "exhaustive".to_string(),
            BackendSpec::Cascaded(f) => format!("cascaded({f})"),
            BackendSpec::Quantized => "quantized".to_string(),
            BackendSpec::Walk => "walk".to_string(),
        }
    }
}

/// One fully resolved query: the defaults/overrides cascade (CLI flags,
/// then per-query fields, then dataset defaults, then built-ins) has
/// already been applied by the loader, and the history is concrete
/// (either given inline or taken from the training log).
#[derive(Debug, Clone)]
pub struct RetrievalQuery {
    /// Stable identifier for reports (`"q-3"`).
    pub id: String,
    /// User row in the model.
    pub user: usize,
    /// Conditioning history for the Markov term.
    pub history: Vec<Transaction>,
    /// The items this query is expected to retrieve (unordered).
    pub expected: Vec<ItemId>,
    /// Ranking cutoff for the metrics.
    pub k: usize,
    /// Candidate pool captured for trace compare (`>= k`).
    pub candidate_k: usize,
    /// Catalog scan shards for this query's engine.
    pub scan_shards: usize,
    /// Serving backend.
    pub backend: BackendSpec,
    /// Exclude the history's items from the ranking (the serving
    /// default for repeat-purchase domains).
    pub exclude_history: bool,
}

/// A named set of resolved queries — the in-memory form of the JSON
/// dataset file (decoded by the CLI's `evalset` module).
#[derive(Debug, Clone)]
pub struct RetrievalDataset {
    /// Dataset name from the file.
    pub name: String,
    /// Queries in file order.
    pub queries: Vec<RetrievalQuery>,
}

/// Per-query evaluation outcome.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Query id.
    pub id: String,
    /// The captured candidate list, best first, up to `candidate_k`
    /// entries — the fixed set trace compare re-ranks.
    pub candidates: Vec<(ItemId, f32)>,
    /// For each expected item (in dataset order), its 0-based rank in
    /// the candidate list, or `None` if it was not retrieved at all.
    pub expected_ranks: Vec<Option<usize>>,
    /// Recall@K (`None` when the query has no expected items).
    pub recall: Option<f64>,
    /// Precision@K.
    pub precision: Option<f64>,
    /// Reciprocal rank within the top K.
    pub rr: Option<f64>,
    /// nDCG@K.
    pub ndcg: Option<f64>,
    /// Wall-clock serving latency of the engine call, µs.
    pub latency_us: u64,
}

/// Dataset-level aggregates. All means are query-averaged over the
/// queries whose expected set is non-empty.
#[derive(Debug, Clone, Default)]
pub struct RetrievalSummary {
    /// Total queries evaluated.
    pub queries: u64,
    /// Queries contributing to the metric means.
    pub scored: u64,
    /// Mean recall@K.
    pub recall: Option<f64>,
    /// Mean precision@K.
    pub precision: Option<f64>,
    /// Mean reciprocal rank (MRR).
    pub mrr: Option<f64>,
    /// Mean nDCG@K.
    pub ndcg: Option<f64>,
    /// p50 serving latency, µs (bucketed; see [`crate::histogram`]).
    pub latency_p50_us: u64,
    /// p95 serving latency, µs.
    pub latency_p95_us: u64,
}

/// The full evaluation result: summary plus per-query outcomes in
/// dataset order.
#[derive(Debug, Clone)]
pub struct RetrievalReport {
    /// Dataset name.
    pub name: String,
    /// Aggregates.
    pub summary: RetrievalSummary,
    /// One outcome per dataset query, in order.
    pub outcomes: Vec<QueryOutcome>,
}

/// Sort candidates into THE ranking order of the crate — score
/// descending, item id ascending ([`rank_cmp`]). Re-ranking paths must
/// use this (and only this) so tied scores cannot make a report
/// nondeterministic.
pub fn rank_candidates(candidates: &mut [(ItemId, f32)]) {
    candidates.sort_by(rank_cmp);
}

/// Validate that every query's user and expected/history item ids fall
/// inside `model`'s id space.
fn validate(model: &TfModel, dataset: &RetrievalDataset) -> Result<(), String> {
    let users = model.num_users();
    let items = model.num_items();
    for q in &dataset.queries {
        if q.user >= users {
            return Err(format!(
                "query '{}': user {} out of range (model has {users} users)",
                q.id, q.user
            ));
        }
        let bad_item = q
            .expected
            .iter()
            .chain(q.history.iter().flatten())
            .find(|i| i.index() >= items);
        if let Some(i) = bad_item {
            return Err(format!(
                "query '{}': item {} out of range (model has {items} items)",
                q.id,
                i.index()
            ));
        }
        if q.scan_shards == 0 {
            return Err(format!("query '{}': scan_shards must be at least 1", q.id));
        }
    }
    Ok(())
}

/// Evaluate every query of `dataset` against `model` through the real
/// [`RecommendEngine`], sharding queries across up to `threads` scoped
/// workers. The report is bit-identical at any thread count and any
/// `scan_shards` setting (the sharded ≡ unsharded law); only the
/// latency fields vary run to run.
pub fn evaluate_retrieval(
    model: &TfModel,
    dataset: &RetrievalDataset,
    threads: usize,
) -> Result<RetrievalReport, String> {
    evaluate_retrieval_forced(model, dataset, threads, None)
}

/// [`evaluate_retrieval`] with the engines' f32 scan kernel forced to
/// `kernel` instead of auto-detected (`None` = detect). The kernels
/// are bit-identical, so the report differs only in latency fields —
/// the property the CLI's kernel test matrix pins.
pub fn evaluate_retrieval_forced(
    model: &TfModel,
    dataset: &RetrievalDataset,
    threads: usize,
    kernel: Option<F32Kernel>,
) -> Result<RetrievalReport, String> {
    validate(model, dataset)?;

    // One engine per distinct shard count; the backend is chosen per
    // request (`recommend_with`), so backend overrides don't force a
    // rebuild of scan state.
    let mut shard_counts: Vec<usize> = dataset.queries.iter().map(|q| q.scan_shards).collect();
    shard_counts.sort_unstable();
    shard_counts.dedup();
    let engines: Vec<(usize, RecommendEngine<&TfModel>)> = shard_counts
        .iter()
        .map(|&s| {
            let mut e = RecommendEngine::with_backend_sharded(model, Backend::Exhaustive, s);
            if let Some(k) = kernel {
                e.set_scan_kernel(k);
            }
            (s, e)
        })
        .collect();
    let engine_for = |shards: usize| -> &RecommendEngine<&TfModel> {
        &engines
            .iter()
            .find(|(s, _)| *s == shards)
            .expect("engine built for every distinct shard count")
            .1
    };

    let n = dataset.queries.len();
    let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; n];
    let workers = threads.max(1).min(n.max(1));
    let chunk = n.div_ceil(workers.max(1)).max(1);
    std::thread::scope(|scope| {
        let engine_for = &engine_for;
        for (qs, outs) in dataset
            .queries
            .chunks(chunk)
            .zip(outcomes.chunks_mut(chunk))
        {
            scope.spawn(move || {
                for (q, slot) in qs.iter().zip(outs.iter_mut()) {
                    *slot = Some(evaluate_query(engine_for(q.scan_shards), q));
                }
            });
        }
    });
    let outcomes: Vec<QueryOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every query evaluated"))
        .collect();

    Ok(RetrievalReport {
        name: dataset.name.clone(),
        summary: summarize(&outcomes),
        outcomes,
    })
}

/// Serve one query and score its result list.
fn evaluate_query(engine: &RecommendEngine<&TfModel>, q: &RetrievalQuery) -> QueryOutcome {
    let mut exclude: Vec<ItemId> = if q.exclude_history {
        let mut e: Vec<ItemId> = q.history.iter().flatten().copied().collect();
        e.sort_unstable();
        e.dedup();
        e
    } else {
        Vec::new()
    };
    // Expected items must stay rankable even when they appear in the
    // excluded history — a gate that excludes its own positives would
    // report recall 0 forever.
    exclude.retain(|i| !q.expected.contains(i));

    let request = RecommendRequest {
        user: q.user,
        history: &q.history,
        k: q.candidate_k.max(q.k),
        exclude: &exclude,
    };
    let backend = q.backend.to_backend(engine.model());
    let t0 = Instant::now();
    let candidates = engine.recommend_with(&request, &backend);
    let latency_us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
    score_candidates(q, candidates, latency_us)
}

/// Metrics of an already-served candidate list (shared with the
/// re-ranking path so config A and config B are scored identically).
fn score_candidates(
    q: &RetrievalQuery,
    candidates: Vec<(ItemId, f32)>,
    latency_us: u64,
) -> QueryOutcome {
    let ids: Vec<ItemId> = candidates.iter().map(|(i, _)| *i).collect();
    let expected_ranks = q
        .expected
        .iter()
        .map(|e| ids.iter().position(|i| i == e))
        .collect();
    QueryOutcome {
        id: q.id.clone(),
        recall: recall_at_k(&ids, &q.expected, q.k),
        precision: precision_at_k(&ids, &q.expected, q.k),
        rr: reciprocal_rank_at_k(&ids, &q.expected, q.k),
        ndcg: ndcg_at_k(&ids, &q.expected, q.k),
        expected_ranks,
        candidates,
        latency_us,
    }
}

/// Aggregate per-query outcomes in order (deterministic f64 sums).
fn summarize(outcomes: &[QueryOutcome]) -> RetrievalSummary {
    let mut recall = MeanAccumulator::default();
    let mut precision = MeanAccumulator::default();
    let mut mrr = MeanAccumulator::default();
    let mut ndcg = MeanAccumulator::default();
    let latency = Histogram::new();
    for o in outcomes {
        if let Some(v) = o.recall {
            recall.push(v);
        }
        if let Some(v) = o.precision {
            precision.push(v);
        }
        if let Some(v) = o.rr {
            mrr.push(v);
        }
        if let Some(v) = o.ndcg {
            ndcg.push(v);
        }
        latency.record(std::time::Duration::from_micros(o.latency_us));
    }
    let snap = latency.snapshot();
    RetrievalSummary {
        queries: outcomes.len() as u64,
        scored: recall.count(),
        recall: recall.mean(),
        precision: precision.mean(),
        mrr: mrr.mean(),
        ndcg: ndcg.mean(),
        latency_p50_us: snap.quantile_us(0.50),
        latency_p95_us: snap.quantile_us(0.95),
    }
}

/// One expected item's movement between config A and config B.
#[derive(Debug, Clone)]
pub struct RankMove {
    /// The expected item.
    pub item: ItemId,
    /// 0-based rank in A's candidate list (`None` = not retrieved).
    pub rank_a: Option<usize>,
    /// 0-based rank after re-ranking under B.
    pub rank_b: Option<usize>,
}

/// Per-query side-by-side of A and B.
#[derive(Debug, Clone)]
pub struct QueryCompare {
    /// Query id.
    pub id: String,
    /// A's outcome (as evaluated).
    pub a: QueryOutcome,
    /// B's outcome over A's fixed candidate set.
    pub b: QueryOutcome,
    /// Movement of every expected item.
    pub moves: Vec<RankMove>,
    /// How many candidate positions changed between A and B (over the
    /// whole candidate list, not just expected items).
    pub reordered: usize,
}

/// Trace-compare result: config B re-ranked config A's candidates.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Dataset name.
    pub name: String,
    /// Summary under config A.
    pub a: RetrievalSummary,
    /// Summary under config B (latency fields are the *re-scoring*
    /// cost, not a full serve — B never scans the catalog).
    pub b: RetrievalSummary,
    /// Per-query comparison, dataset order.
    pub per_query: Vec<QueryCompare>,
}

/// Re-rank the candidate sets captured in `report` (config A) under
/// `model_b`, without re-scanning the catalog: for each query only the
/// captured candidates are re-scored (`Scorer::score_item` per id) and
/// re-sorted by [`rank_cmp`]. `k_b` overrides the metric cutoff for the
/// B side (default: each query's own `k`).
///
/// This is the quality-neutrality tool for scoring-path changes: a
/// SIMD/quantized kernel PR evaluates the committed dataset once under
/// the old model (capturing candidates) and re-ranks under the new
/// scoring; zero rank moves ⇒ provably neutral on this dataset.
pub fn rerank_retrieval(
    report: &RetrievalReport,
    dataset: &RetrievalDataset,
    model_b: &TfModel,
    k_b: Option<usize>,
) -> Result<CompareReport, String> {
    if report.outcomes.len() != dataset.queries.len() {
        return Err("report and dataset disagree on query count".to_string());
    }
    validate(model_b, dataset)?;
    let max_candidate = report
        .outcomes
        .iter()
        .flat_map(|o| o.candidates.iter())
        .map(|(i, _)| i.index())
        .max();
    if let Some(m) = max_candidate {
        if m >= model_b.num_items() {
            return Err(format!(
                "candidate item {m} out of range for compare model ({} items)",
                model_b.num_items()
            ));
        }
    }

    let scorer = Scorer::new(model_b);
    let mut query_buf = vec![0.0f32; model_b.k()];
    let mut per_query = Vec::with_capacity(report.outcomes.len());
    for (q, a) in dataset.queries.iter().zip(&report.outcomes) {
        scorer.query_into(q.user, &q.history, &mut query_buf);
        let t0 = Instant::now();
        let mut reranked: Vec<(ItemId, f32)> = a
            .candidates
            .iter()
            .map(|(i, _)| (*i, scorer.score_item(&query_buf, *i)))
            .collect();
        rank_candidates(&mut reranked);
        let latency_us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;

        let mut bq = q.clone();
        if let Some(k) = k_b {
            bq.k = k;
        }
        let b = score_candidates(&bq, reranked, latency_us);
        let moves = q
            .expected
            .iter()
            .zip(a.expected_ranks.iter().zip(&b.expected_ranks))
            .map(|(&item, (&rank_a, &rank_b))| RankMove {
                item,
                rank_a,
                rank_b,
            })
            .collect();
        let reordered = a
            .candidates
            .iter()
            .zip(&b.candidates)
            .filter(|((ia, _), (ib, _))| ia != ib)
            .count()
            + a.candidates.len().abs_diff(b.candidates.len());
        per_query.push(QueryCompare {
            id: q.id.clone(),
            a: a.clone(),
            b,
            moves,
            reordered,
        });
    }
    let b_outcomes: Vec<QueryOutcome> = per_query.iter().map(|c| c.b.clone()).collect();
    Ok(CompareReport {
        name: report.name.clone(),
        a: report.summary.clone(),
        b: summarize(&b_outcomes),
        per_query,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::train::TfTrainer;
    use taxrec_dataset::{DatasetConfig, SyntheticDataset};

    fn setup() -> (SyntheticDataset, TfModel) {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(), 5);
        let m = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(8).with_epochs(3),
            &d.taxonomy,
        )
        .fit_deterministic(&d.train, 7, 1)
        .0;
        (d, m)
    }

    fn query(id: &str, user: usize, expected: Vec<ItemId>) -> RetrievalQuery {
        RetrievalQuery {
            id: id.to_string(),
            user,
            history: vec![],
            expected,
            k: 5,
            candidate_k: 20,
            scan_shards: 1,
            backend: BackendSpec::Exhaustive,
            exclude_history: false,
        }
    }

    #[test]
    fn self_consistent_queries_score_perfectly() {
        let (_, m) = setup();
        // Expected = the engine's own top-3: recall/ndcg/mrr must be 1.
        let engine = RecommendEngine::new(&m);
        let queries: Vec<RetrievalQuery> = (0..4)
            .map(|u| {
                let top = engine.recommend(&RecommendRequest::simple(u, 3));
                query(&format!("q{u}"), u, top.iter().map(|r| r.0).collect())
            })
            .collect();
        let ds = RetrievalDataset {
            name: "self".into(),
            queries,
        };
        let r = evaluate_retrieval(&m, &ds, 2).unwrap();
        assert_eq!(r.summary.queries, 4);
        assert_eq!(r.summary.scored, 4);
        assert_eq!(r.summary.recall, Some(1.0));
        assert_eq!(r.summary.mrr, Some(1.0));
        assert_eq!(r.summary.ndcg, Some(1.0));
        // Expected ranks are the top positions in order.
        assert_eq!(
            r.outcomes[0].expected_ranks,
            vec![Some(0), Some(1), Some(2)]
        );
    }

    #[test]
    fn report_is_identical_across_threads_and_shards() {
        let (_, m) = setup();
        let mk = |shards: usize| {
            let queries: Vec<RetrievalQuery> = (0..8)
                .map(|u| {
                    let mut q = query(&format!("q{u}"), u, vec![ItemId(u as u32), ItemId(40)]);
                    q.scan_shards = shards;
                    q
                })
                .collect();
            RetrievalDataset {
                name: "t".into(),
                queries,
            }
        };
        let base = evaluate_retrieval(&m, &mk(1), 1).unwrap();
        for (shards, threads) in [(1usize, 4usize), (4, 1), (4, 4), (3, 2)] {
            let r = evaluate_retrieval(&m, &mk(shards), threads).unwrap();
            for (a, b) in base.outcomes.iter().zip(&r.outcomes) {
                assert_eq!(a.recall, b.recall, "shards={shards} threads={threads}");
                assert_eq!(a.ndcg, b.ndcg);
                assert_eq!(a.expected_ranks, b.expected_ranks);
                assert_eq!(a.candidates.len(), b.candidates.len());
                for ((ia, sa), (ib, sb)) in a.candidates.iter().zip(&b.candidates) {
                    assert_eq!(ia, ib);
                    assert_eq!(sa.to_bits(), sb.to_bits());
                }
            }
        }
    }

    #[test]
    fn excluded_history_never_swallows_expected_items() {
        let (_, m) = setup();
        let mut q = query("q0", 0, vec![ItemId(3)]);
        q.history = vec![vec![ItemId(3), ItemId(4)]];
        q.exclude_history = true;
        q.candidate_k = m.num_items(); // full catalog: the item must rank
        let ds = RetrievalDataset {
            name: "excl".into(),
            queries: vec![q],
        };
        let r = evaluate_retrieval(&m, &ds, 1).unwrap();
        // Item 3 is in the history but also expected: still retrievable…
        assert!(r.outcomes[0].expected_ranks[0].is_some());
        // …while plain history item 4 is excluded.
        assert!(r.outcomes[0]
            .candidates
            .iter()
            .all(|(i, _)| *i != ItemId(4)));
    }

    #[test]
    fn rerank_under_same_model_is_identity() {
        let (_, m) = setup();
        let ds = RetrievalDataset {
            name: "id".into(),
            queries: (0..6)
                .map(|u| query(&format!("q{u}"), u, vec![ItemId(2 * u as u32)]))
                .collect(),
        };
        let a = evaluate_retrieval(&m, &ds, 2).unwrap();
        let cmp = rerank_retrieval(&a, &ds, &m, None).unwrap();
        assert_eq!(cmp.a.recall, cmp.b.recall);
        assert_eq!(cmp.a.ndcg, cmp.b.ndcg);
        for c in &cmp.per_query {
            assert_eq!(c.reordered, 0, "query {}", c.id);
            for mv in &c.moves {
                assert_eq!(mv.rank_a, mv.rank_b);
            }
        }
    }

    #[test]
    fn rerank_under_different_model_reports_moves() {
        let (d, m) = setup();
        let other = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(8).with_epochs(1),
            &d.taxonomy,
        )
        .fit_deterministic(&d.train, 99, 1)
        .0;
        let engine = RecommendEngine::new(&m);
        let ds = RetrievalDataset {
            name: "diff".into(),
            queries: (0..6)
                .map(|u| {
                    let top = engine.recommend(&RecommendRequest::simple(u, 3));
                    query(&format!("q{u}"), u, top.iter().map(|r| r.0).collect())
                })
                .collect(),
        };
        let a = evaluate_retrieval(&m, &ds, 1).unwrap();
        let cmp = rerank_retrieval(&a, &ds, &other, None).unwrap();
        // A different model must actually reorder something somewhere.
        assert!(
            cmp.per_query.iter().any(|c| c.reordered > 0),
            "independent models produced identical rankings"
        );
        // And A's summary is untouched by the comparison.
        assert_eq!(cmp.a.recall, Some(1.0));
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let (_, m) = setup();
        let mut bad_user = query("u", m.num_users() + 1, vec![ItemId(0)]);
        bad_user.user = m.num_users() + 1;
        let ds = RetrievalDataset {
            name: "bad".into(),
            queries: vec![bad_user],
        };
        assert!(evaluate_retrieval(&m, &ds, 1).unwrap_err().contains("user"));

        let bad_item = query("i", 0, vec![ItemId(1_000_000)]);
        let ds = RetrievalDataset {
            name: "bad2".into(),
            queries: vec![bad_item],
        };
        assert!(evaluate_retrieval(&m, &ds, 1).unwrap_err().contains("item"));
    }

    #[test]
    fn cascaded_backend_runs_and_can_only_shrink_recall() {
        let (_, m) = setup();
        let engine = RecommendEngine::new(&m);
        let mk = |backend: BackendSpec| RetrievalDataset {
            name: "casc".into(),
            queries: (0..8)
                .map(|u| {
                    let top = engine.recommend(&RecommendRequest::simple(u, 5));
                    let mut q = query(&format!("q{u}"), u, top.iter().map(|r| r.0).collect());
                    q.backend = backend;
                    q
                })
                .collect(),
        };
        let exact = evaluate_retrieval(&m, &mk(BackendSpec::Exhaustive), 1).unwrap();
        let pruned = evaluate_retrieval(&m, &mk(BackendSpec::Cascaded(0.05)), 1).unwrap();
        assert_eq!(exact.summary.recall, Some(1.0));
        assert!(pruned.summary.recall.unwrap() <= 1.0);
    }
}
