//! Batch scoring against a frozen model.
//!
//! A [`Scorer`] materialises the effective factors of every taxonomy node
//! once (two forward passes over the node arena, Eq. 1) and then answers
//! any number of `(user, history)` queries with one dot product per
//! candidate. Build one per trained model and reuse it — evaluation and
//! the figure benches score millions of (user, item) pairs.
//!
//! The scorer is generic over *how it holds the model*: `Scorer<&TfModel>`
//! borrows (the offline evaluation/bench shape), while
//! `Scorer<Arc<TfModel>>` owns a shared handle — the shape the live
//! serving subsystem ([`crate::live`]) publishes through its
//! epoch-swapped snapshots. The effective-factor tables are
//! [`CowMatrix`]es, so a successor scorer over a grown catalog is
//! derived via [`Scorer::grown_from`] by sharing every existing chunk
//! and appending the new nodes' rows, instead of re-running the full
//! forward pass.

use crate::model::TfModel;
use std::cmp::Ordering;
use std::ops::Deref;
use taxrec_dataset::Transaction;
use taxrec_factors::{ops, CowMatrix};
use taxrec_taxonomy::{ItemId, NodeId};

#[cfg(test)]
thread_local! {
    /// [`Scorer::new`] calls on this thread: lets a test prove a path
    /// builds no catalog-sized table.
    static BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`Scorer::new`] calls on the calling thread so far.
#[cfg(test)]
pub(crate) fn scorer_builds() -> u64 {
    BUILDS.with(std::cell::Cell::get)
}

/// Precomputed effective factors for fast scoring.
///
/// `M` is the model holder: `&TfModel` for borrowed (offline) use,
/// `Arc<TfModel>` for owned serving snapshots.
#[derive(Debug)]
pub struct Scorer<M: Deref<Target = TfModel>> {
    model: M,
    /// Effective long-term factor per node.
    eff_nodes: CowMatrix,
    /// Effective next-item factor per node.
    eff_next: CowMatrix,
}

impl<M: Deref<Target = TfModel>> Scorer<M> {
    /// Materialise effective factors for `model`.
    pub fn new(model: M) -> Scorer<M> {
        #[cfg(test)]
        BUILDS.with(|n| n.set(n.get() + 1));
        let eff_nodes = model.effective_all_nodes(&model.node_factors);
        let eff_next = model.effective_all_nodes(&model.next_factors);
        Scorer {
            model,
            eff_nodes,
            eff_next,
        }
    }

    /// Derive the scorer for a model that *extends* `prev`'s: same
    /// config and cutoff, same offsets and levels for every node `prev`
    /// already knew, plus zero or more appended nodes (the
    /// [`TfModel::with_added_item`] / [`crate::live`] evolution). Only
    /// the appended nodes' effective rows are computed — `O(new × K)`
    /// instead of the full `O(nodes × K)` forward pass; every existing
    /// chunk is shared with `prev` by pointer, so at most the one
    /// 256-row tail chunk per table is copied, however long the tables
    /// are.
    ///
    /// The caller guarantees the prefix property; it is cheap to uphold
    /// (every mutation in [`crate::dynamic`] and [`crate::live`] does)
    /// but only spot-checked here via `debug_assert`.
    ///
    /// # Panics
    /// If `K` or the cutoff level changed, or the node arena shrank —
    /// symptoms of a model that is not a descendant of `prev`'s.
    pub fn grown_from<P: Deref<Target = TfModel>>(prev: &Scorer<P>, model: M) -> Scorer<M> {
        let old = prev.model();
        assert_eq!(old.k(), model.k(), "factor dim changed");
        assert_eq!(
            old.cutoff_level(),
            model.cutoff_level(),
            "cutoff level changed"
        );
        assert!(
            model.taxonomy().num_nodes() >= old.taxonomy().num_nodes(),
            "node arena shrank"
        );
        debug_assert!(
            (0..old.taxonomy().num_nodes().min(8)).all(|i| {
                model.node_factors.row(i) == old.node_factors.row(i)
                    && model.taxonomy().parent(NodeId(i as u32))
                        == old.taxonomy().parent(NodeId(i as u32))
            }),
            "existing nodes changed: model does not extend prev"
        );
        let mut eff_nodes = prev.eff_nodes.clone();
        let mut eff_next = prev.eff_next.clone();
        let k = model.k();
        let mut buf = vec![0.0f32; k];
        for idx in old.taxonomy().num_nodes()..model.taxonomy().num_nodes() {
            let node = NodeId(idx as u32);
            let parent = model
                .taxonomy()
                .parent(node)
                .expect("appended node is not the root");
            let include_self = model.taxonomy().level(node) >= model.cutoff_level();
            for (eff, offsets) in [
                (&mut eff_nodes, &model.node_factors),
                (&mut eff_next, &model.next_factors),
            ] {
                buf.copy_from_slice(eff.row(parent.index()));
                if include_self {
                    ops::add_assign(offsets.row(idx), &mut buf);
                }
                eff.push_row(&buf);
            }
        }
        Scorer {
            model,
            eff_nodes,
            eff_next,
        }
    }

    /// The model being scored.
    pub fn model(&self) -> &TfModel {
        &self.model
    }

    /// `(chunks, bytes)` of the two effective-factor tables — long-term
    /// first, next-item second — that are *not* shared by pointer with
    /// `prev`'s (see [`CowMatrix::copied_since`]): what
    /// [`grown_from`](Self::grown_from) copied or appended.
    pub fn copied_since<P: Deref<Target = TfModel>>(&self, prev: &Scorer<P>) -> [(u64, u64); 2] {
        [
            self.eff_nodes.copied_since(&prev.eff_nodes),
            self.eff_next.copied_since(&prev.eff_next),
        ]
    }

    /// Effective long-term factor of a node.
    pub fn node_factor(&self, node: NodeId) -> &[f32] {
        self.eff_nodes.row(node.index())
    }

    /// Effective long-term factor of an item.
    pub fn item_factor(&self, item: ItemId) -> &[f32] {
        self.eff_nodes
            .row(self.model.taxonomy().item_node(item).index())
    }

    /// Effective next-item factor of an item.
    pub fn next_item_factor(&self, item: ItemId) -> &[f32] {
        self.eff_next
            .row(self.model.taxonomy().item_node(item).index())
    }

    /// Build the query vector `q = v_u + Σ_n (α_n/|B_{t−n}|) Σ_ℓ v→_ℓ`
    /// using the materialised next-item factors.
    pub fn query_into(&self, user: usize, history: &[Transaction], out: &mut [f32]) {
        let model = self.model();
        match &model.user_tier {
            None => out.copy_from_slice(model.user_factor(user)),
            Some(h) => {
                assert!(user < h.rows, "user {user} out of {} rows", h.rows);
                // Fault through the tier, reusing *this* scorer's
                // materialised factors for recipe-backed rows — no
                // per-fault O(nodes·K) Scorer rebuild on the hot path.
                h.tier.copy_row(user, out, |r| {
                    crate::dynamic::fold_in_user_with_catalog(
                        self, &r.history, r.steps, r.seed, r.n_items,
                    )
                });
            }
        }
        if model.config().max_prev_transactions == 0 {
            return;
        }
        for n in 1..=model.config().max_prev_transactions {
            if n > history.len() {
                break;
            }
            let basket = &history[history.len() - n];
            if basket.is_empty() {
                continue;
            }
            let weight = model.config().markov_weight(n) / basket.len() as f32;
            for &l in basket {
                ops::axpy(weight, self.next_item_factor(l), out);
            }
        }
    }

    /// Allocate-and-return variant of [`query_into`](Self::query_into).
    pub fn query(&self, user: usize, history: &[Transaction]) -> Vec<f32> {
        let mut q = vec![0.0f32; self.model.k()];
        self.query_into(user, history, &mut q);
        q
    }

    /// Score one item.
    #[inline]
    pub fn score_item(&self, query: &[f32], item: ItemId) -> f32 {
        ops::dot(query, self.item_factor(item))
    }

    /// Score one node (category-level ranking).
    #[inline]
    pub fn score_node(&self, query: &[f32], node: NodeId) -> f32 {
        ops::dot(query, self.node_factor(node))
    }

    /// Score **all** items into `scores` (`scores[i] = s(query, item i)`).
    pub fn score_all_items_into(&self, query: &[f32], scores: &mut [f32]) {
        let tax = self.model.taxonomy();
        debug_assert_eq!(scores.len(), tax.num_items());
        for (i, &node) in tax.item_nodes().iter().enumerate() {
            scores[i] = ops::dot(query, self.eff_nodes.row(node as usize));
        }
    }

    /// Allocate-and-return variant of
    /// [`score_all_items_into`](Self::score_all_items_into).
    pub fn score_all_items(&self, query: &[f32]) -> Vec<f32> {
        let mut s = vec![0.0f32; self.model.num_items()];
        self.score_all_items_into(query, &mut s);
        s
    }

    /// Exhaustive top-`k` items, best first, skipping `exclude`
    /// (typically the user's already-purchased items). Selection is the
    /// engine's own [`crate::recommend::TopK`], so the output follows
    /// [`crate::recommend::rank_cmp`] — the one (score descending, item
    /// id ascending) total order shared with the shard merge.
    pub fn top_k_items(&self, query: &[f32], k: usize, exclude: &[ItemId]) -> Vec<(ItemId, f32)> {
        let mut top = crate::recommend::TopK::new();
        top.reset(k);
        for i in 0..self.model.taxonomy().num_items() {
            let item = ItemId(i as u32);
            if !exclude.contains(&item) {
                top.offer(item, self.score_item(query, item));
            }
        }
        let mut out = Vec::new();
        top.drain_sorted_into(&mut out);
        out
    }

    /// Rank all nodes of one taxonomy level, best first (the paper's
    /// "structured ranking": recommendations at the category level).
    pub fn rank_level(&self, query: &[f32], level: usize) -> Vec<(NodeId, f32)> {
        let tax = self.model.taxonomy();
        let mut out: Vec<(NodeId, f32)> = tax
            .nodes_at_level(level)
            .iter()
            .map(|&n| (NodeId(n), ops::dot(query, self.eff_nodes.row(n as usize))))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::TfModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use taxrec_taxonomy::{Taxonomy, TaxonomyGenerator, TaxonomyShape};

    fn tax() -> Arc<Taxonomy> {
        Arc::new(
            TaxonomyGenerator::new(TaxonomyShape {
                level_sizes: vec![3, 6, 12],
                num_items: 80,
                item_skew: 0.5,
            })
            .generate(&mut StdRng::seed_from_u64(2))
            .taxonomy,
        )
    }

    fn model(b: usize) -> TfModel {
        // Gaussian node init so scores are non-degenerate without training.
        let cfg = ModelConfig::tf(4, b)
            .with_factors(6)
            .with_node_init_sigma(0.1);
        TfModel::init(cfg, tax(), 10, 3)
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// Queries and scores built from the test-only dense forward pass —
    /// an independent implementation of Eq. 1 — match the scorer's bit
    /// for bit.
    #[test]
    fn scorer_matches_model_scoring() {
        let m = model(2);
        let s = Scorer::new(&m);
        let eff = m.effective_all_nodes_dense(&m.node_factors);
        let eff_next = m.effective_all_nodes_dense(&m.next_factors);
        let tax = m.taxonomy();
        let hist = vec![vec![ItemId(3)], vec![ItemId(1), ItemId(7)]];
        let mut q = m.user_factor(4).to_vec();
        for (n, basket) in hist.iter().rev().enumerate() {
            let w = m.config().markov_weight(n + 1) / basket.len() as f32;
            for &l in basket {
                ops::axpy(w, eff_next.row(tax.item_node(l).index()), &mut q);
            }
        }
        assert_eq!(bits(&s.query(4, &hist)), bits(&q));
        for item in [ItemId(0), ItemId(33), ItemId(79)] {
            let want = ops::dot(&q, eff.row(tax.item_node(item).index()));
            assert_eq!(s.score_item(&q, item).to_bits(), want.to_bits(), "{item}");
        }
    }

    #[test]
    fn score_all_matches_individual() {
        let m = model(0);
        let s = Scorer::new(&m);
        let q = s.query(0, &[]);
        let all = s.score_all_items(&q);
        for i in [0usize, 17, 79] {
            assert!((all[i] - s.score_item(&q, ItemId(i as u32))).abs() < 1e-6);
        }
    }

    #[test]
    fn top_k_agrees_with_full_sort() {
        let m = model(0);
        let s = Scorer::new(&m);
        let q = s.query(2, &[]);
        let all = s.score_all_items(&q);
        let mut order: Vec<usize> = (0..all.len()).collect();
        order.sort_by(|&a, &b| all[b].partial_cmp(&all[a]).unwrap());
        let top = s.top_k_items(&q, 5, &[]);
        for (rank, (item, score)) in top.iter().enumerate() {
            assert_eq!(item.index(), order[rank]);
            assert!((score - all[order[rank]]).abs() < 1e-6);
        }
    }

    #[test]
    fn top_k_respects_exclusions() {
        let m = model(0);
        let s = Scorer::new(&m);
        let q = s.query(1, &[]);
        let full = s.top_k_items(&q, 3, &[]);
        let best = full[0].0;
        let excl = s.top_k_items(&q, 3, &[best]);
        assert!(excl.iter().all(|(i, _)| *i != best));
        assert_eq!(excl[0].0, full[1].0);
    }

    #[test]
    fn top_k_larger_than_catalog() {
        let m = model(0);
        let s = Scorer::new(&m);
        let q = s.query(0, &[]);
        let top = s.top_k_items(&q, 10_000, &[]);
        assert_eq!(top.len(), m.num_items());
    }

    #[test]
    fn rank_level_sorted_and_complete() {
        let m = model(0);
        let s = Scorer::new(&m);
        let q = s.query(0, &[]);
        for level in 1..=m.taxonomy().depth() {
            let ranked = s.rank_level(&q, level);
            assert_eq!(ranked.len(), m.taxonomy().nodes_at_level(level).len());
            for w in ranked.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    /// Hundreds of adds — under a deepest category, a level-1 category
    /// and the root, each new node given its own non-zero offsets so its
    /// appended row really sums a path — grow tables that match the
    /// dense pass over the final model bit for bit, across chunk
    /// boundaries and at several cutoffs.
    #[test]
    fn grown_tables_are_bit_identical_to_the_dense_pass() {
        use rand::Rng;
        for u in [1usize, 2, 4] {
            let cfg = ModelConfig::tf(u, 1)
                .with_factors(6)
                .with_node_init_sigma(0.1);
            let mut m = TfModel::init(cfg, tax(), 10, 3);
            let t = m.taxonomy();
            let parents = [
                t.parent(t.item_node(ItemId(0))).unwrap(),
                NodeId(t.nodes_at_level(1)[0]),
                NodeId::ROOT,
            ];
            let mut scorer = Scorer::new(Arc::new(m.clone()));
            let mut rng = StdRng::seed_from_u64(8);
            for step in 0..2 * taxrec_factors::COW_CHUNK_ROWS + 40 {
                m.add_item_mut(parents[step % parents.len()]).unwrap();
                let node = m.taxonomy().num_nodes() - 1;
                for offsets in [&mut m.node_factors, &mut m.next_factors] {
                    for v in offsets.row_mut(node) {
                        *v = rng.gen_range(-0.1f32..0.1);
                    }
                }
                scorer = Scorer::grown_from(&scorer, Arc::new(m.clone()));
                if step % 64 == 0 || node % taxrec_factors::COW_CHUNK_ROWS <= 1 {
                    let at = format!("U={u} add {step}");
                    m.assert_matches_dense_pass(&m.node_factors, &scorer.eff_nodes, &at);
                    m.assert_matches_dense_pass(&m.next_factors, &scorer.eff_next, &at);
                }
            }
            assert_eq!(scorer.eff_nodes, Scorer::new(&m).eff_nodes);
            assert_eq!(scorer.eff_next, Scorer::new(&m).eff_next);
        }
    }

    #[test]
    fn node_scores_consistent_with_item_scores_at_leaf_level() {
        let m = model(0);
        let s = Scorer::new(&m);
        let q = s.query(3, &[]);
        let item = ItemId(12);
        let node = m.taxonomy().item_node(item);
        assert!((s.score_item(&q, item) - s.score_node(&q, node)).abs() < 1e-6);
    }
}
