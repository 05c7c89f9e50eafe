//! Dynamic-catalog and online operations: the production concerns the
//! paper motivates ("new items are released continuously", users arrive
//! after training) turned into API.
//!
//! * [`TfModel::with_added_item`] — register a just-released product
//!   under its category. Its offsets start at the prior mean 0, so its
//!   effective factor *is* its category's (the paper's Fig. 7c
//!   estimate); later training refines it.
//! * [`fold_in_user`] — compute a factor for a user who was not in the
//!   training matrix, by running the user-gradient-only BPR updates
//!   against the frozen item factors. The standard fold-in trick for
//!   latent factor models; no other parameter moves. Public callers
//!   pass a [`Scorer`] whose tables the fold reads; the live write path,
//!   tier faults and tiered snapshots fold straight from the model's
//!   offsets, summing only the few effective rows each SGD step reads
//!   (see [`ItemRows`]) — bit-identical, and no catalog-sized table is
//!   built per event.
//! * [`TfTrainer::resume`] — warm-start training of an existing model on
//!   new data (more epochs, new transactions), preserving learned state.

use crate::config::ModelConfig;
use crate::model::TfModel;
use crate::scoring::Scorer;
use crate::tier::FoldRecipe;
use crate::train::sampler::sample_negative;
use crate::train::{TfTrainer, TrainStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use taxrec_dataset::{PurchaseLog, Transaction};
use taxrec_factors::{ops, FactorMatrix};
use taxrec_taxonomy::{ItemId, NodeId, PathTable, TaxonomyError};

impl TfModel {
    /// Extend the model with a newly released item under `parent`
    /// (an interior category node). Existing ids and factors are
    /// untouched; the new node's offsets start at 0 in both matrices.
    pub fn with_added_item(&self, parent: NodeId) -> Result<(TfModel, ItemId), TaxonomyError> {
        let mut grown = self.clone();
        let item = grown.add_item_mut(parent)?;
        Ok((grown, item))
    }

    /// In-place variant of [`with_added_item`](Self::with_added_item).
    /// Grows the taxonomy arena by one
    /// leaf ([`Taxonomy::push_leaf`](taxrec_taxonomy::Taxonomy::push_leaf)),
    /// appends one zero offset row to both node matrices, and appends
    /// the new item's truncated path. Every mutation is copy-on-write:
    /// the matrix appends touch only the tail chunk (copied once if
    /// shared with an earlier clone), and the taxonomy and path table
    /// each diverge once per clone via `Arc::make_mut` — one flat copy
    /// of their arrays, no rebuild. Every existing node/item/user id
    /// keeps its meaning, factors are bit-identical, and the new item's
    /// effective factor equals its category's (the paper's Fig. 7(c)
    /// cold-start estimate).
    ///
    /// Copy-if-shared is the contract for offline callers (tools,
    /// tests, [`with_added_item`](Self::with_added_item)): a model
    /// whose arena a clone still holds pays the flat copy, one whose
    /// `Arc`s are unique mutates in place. The live path does not call
    /// this on a shared arena: [`crate::live::LiveState`] first swaps in
    /// the arena of the epoch readers have finished with, brought up to
    /// date by replaying the pushes it missed, so a served add copies
    /// nothing in steady state.
    ///
    /// A rejected `parent` is caught on the shared taxonomy before any
    /// copy-on-write, so on error neither the model nor the arena it
    /// shares with published snapshots is touched.
    pub fn add_item_mut(&mut self, parent: NodeId) -> Result<ItemId, TaxonomyError> {
        self.taxonomy.check_push_leaf(parent)?;
        let old_depth = self.taxonomy.depth();
        let (_node, item) = Arc::make_mut(&mut self.taxonomy).push_leaf(parent)?;
        let zero = vec![0.0f32; self.k()];
        self.node_factors.push_row(&zero);
        self.next_factors.push_row(&zero);
        let cutoff = crate::model::cutoff_for(&self.taxonomy, self.config.taxonomy_update_levels);
        if cutoff == self.cutoff_level && self.taxonomy.depth() == old_depth {
            Arc::make_mut(&mut self.paths).append_item(&self.taxonomy, item);
        } else {
            // Degenerate growth (a leaf under a childless root) changed
            // the level structure; rebuild instead of appending.
            self.paths = Arc::new(PathTable::build(
                &self.taxonomy,
                self.config.taxonomy_update_levels,
            ));
            self.cutoff_level = cutoff;
        }
        Ok(item)
    }

    /// Append one user row (a folded-in user's factor, computed by
    /// [`fold_in_user`]) and return the new user id. `O(K)`; no other
    /// parameter moves.
    ///
    /// # Panics
    /// If `factor.len() != K`, or on a tiered model (which needs the
    /// fold recipe — use [`push_user_with_recipe`](Self::push_user_with_recipe)).
    pub fn push_user(&mut self, factor: &[f32]) -> usize {
        assert!(
            self.user_tier.is_none(),
            "tiered models require push_user_with_recipe"
        );
        self.user_factors.push_row(factor);
        self.user_factors.rows() - 1
    }

    /// [`push_user`](Self::push_user) carrying the [`FoldRecipe`] a
    /// tiered model needs to reconstruct the row after eviction. On a
    /// resident model the recipe is ignored.
    pub(crate) fn push_user_with_recipe(&mut self, factor: &[f32], recipe: FoldRecipe) -> usize {
        match &mut self.user_tier {
            None => {
                self.user_factors.push_row(factor);
                self.user_factors.rows() - 1
            }
            Some(h) => {
                let id = h.rows;
                h.tier.set_row(id, factor, recipe);
                h.rows += 1;
                id
            }
        }
    }
}

/// Where a fold reads effective item rows from. One SGD step reads two
/// item rows plus the next-item rows of up to `B` earlier baskets — a
/// handful of rows, each a sum of at most `U` offsets — so the two
/// sources trade a table lookup against that sum:
///
/// * a [`Scorer`] lends rows of the tables it already holds (the read
///   path's tier fault, which has one at hand);
/// * a [`TfModel`] sums each row on demand from its offsets
///   ([`TfModel::effective_row_into`]) — the write path, tier faults
///   outside a scorer, and snapshots, none of which would otherwise pay
///   for a catalog-sized table.
///
/// Both yield the same bits, so a fold is the same function of
/// `(history, steps, seed, n_items)` whichever source runs it.
pub(crate) trait ItemRows {
    fn model(&self) -> &TfModel;
    /// Effective long-term factor `v_item`, borrowed or written to `buf`.
    fn item_row<'a>(&'a self, item: ItemId, buf: &'a mut [f32]) -> &'a [f32];
    /// Effective next-item factor `v→_item`, borrowed or written to `buf`.
    fn next_item_row<'a>(&'a self, item: ItemId, buf: &'a mut [f32]) -> &'a [f32];
}

impl<M: std::ops::Deref<Target = TfModel>> ItemRows for Scorer<M> {
    fn model(&self) -> &TfModel {
        Scorer::model(self)
    }

    fn item_row<'a>(&'a self, item: ItemId, _buf: &'a mut [f32]) -> &'a [f32] {
        self.item_factor(item)
    }

    fn next_item_row<'a>(&'a self, item: ItemId, _buf: &'a mut [f32]) -> &'a [f32] {
        self.next_item_factor(item)
    }
}

impl ItemRows for TfModel {
    fn model(&self) -> &TfModel {
        self
    }

    fn item_row<'a>(&'a self, item: ItemId, buf: &'a mut [f32]) -> &'a [f32] {
        self.effective_row_into(&self.node_factors, self.taxonomy.item_node(item), buf);
        buf
    }

    fn next_item_row<'a>(&'a self, item: ItemId, buf: &'a mut [f32]) -> &'a [f32] {
        self.effective_row_into(&self.next_factors, self.taxonomy.item_node(item), buf);
        buf
    }
}

/// Re-run the fold a [`FoldRecipe`] records — the tier's fault and
/// snapshot paths, and every live fold-in or refold.
pub(crate) fn refold(rows: &impl ItemRows, r: &FoldRecipe) -> Vec<f32> {
    fold_in(rows, &r.history, r.steps, r.seed, r.n_items)
}

/// Compute a latent factor for an out-of-matrix user from their observed
/// transactions, against frozen item factors.
///
/// Runs `steps` BPR steps updating only the user vector: sample a
/// purchase `(t, i)`, a catalog negative `j`, and ascend
/// `ln σ(s_t(i) − s_t(j))` in the user coordinate. Returns the folded-in
/// factor; score with [`folded_user_query`].
///
/// Every basket of `history` must be sorted and free of duplicates, the
/// contract of [`sample_negative`] (the live event path normalises
/// client baskets before logging them).
pub fn fold_in_user<M: std::ops::Deref<Target = TfModel>>(
    scorer: &Scorer<M>,
    history: &[Transaction],
    steps: usize,
    seed: u64,
) -> Vec<f32> {
    let n_items = scorer.model().num_items();
    fold_in_user_with_catalog(scorer, history, steps, seed, n_items)
}

/// [`fold_in_user`] with the negative-sampling catalog size pinned to
/// `n_items` instead of the scorer's current catalog. This is what makes
/// fold-in **replayable on a grown model**: `add_item` only appends zero
/// offset rows (existing items' effective factors are bit-identical in
/// every later model), so re-running with the *recorded* catalog size
/// replays the exact RNG path and lands on the bit-identical factor —
/// the hot/cold tier's fault path depends on it.
pub fn fold_in_user_with_catalog<M: std::ops::Deref<Target = TfModel>>(
    scorer: &Scorer<M>,
    history: &[Transaction],
    steps: usize,
    seed: u64,
    n_items: usize,
) -> Vec<f32> {
    fold_in(scorer, history, steps, seed, n_items)
}

/// The one fold SGD loop behind [`fold_in_user_with_catalog`] and
/// [`refold`], over either row source.
fn fold_in(
    rows: &impl ItemRows,
    history: &[Transaction],
    steps: usize,
    seed: u64,
    n_items: usize,
) -> Vec<f32> {
    let model = rows.model();
    let cfg = model.config();
    let k = model.k();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v_u = vec![0.0f32; k];
    // Start at the prior mean; the Gaussian user init only exists to
    // break symmetry during joint training, which is not a concern here.
    let purchases: Vec<(usize, ItemId)> = history
        .iter()
        .enumerate()
        .flat_map(|(t, basket)| basket.iter().map(move |&i| (t, i)))
        .collect();
    if purchases.is_empty() {
        return v_u;
    }
    let mut q = vec![0.0f32; k];
    let mut diff = vec![0.0f32; k];
    // Rows an on-demand source sums into; a scorer lends its own.
    let mut buf_i = vec![0.0f32; k];
    let mut buf_j = vec![0.0f32; k];
    let mut buf_next = vec![0.0f32; k];
    for _ in 0..steps {
        let &(t, i) = &purchases[rng.gen_range(0..purchases.len())];
        let basket = &history[t];
        let Some(j) = sample_negative(basket, n_items, &mut rng) else {
            continue;
        };
        // q = v_u + Markov term over history[..t] (frozen next factors).
        q.copy_from_slice(&v_u);
        if cfg.max_prev_transactions > 0 {
            let hist = &history[..t];
            for n in 1..=cfg.max_prev_transactions.min(hist.len()) {
                let b = &hist[hist.len() - n];
                if b.is_empty() {
                    continue;
                }
                let w = cfg.markov_weight(n) / b.len() as f32;
                for &l in b {
                    ops::axpy(w, rows.next_item_row(l, &mut buf_next), &mut q);
                }
            }
        }
        let vi = rows.item_row(i, &mut buf_i);
        let vj = rows.item_row(j, &mut buf_j);
        ops::sub_into(vi, vj, &mut diff);
        let c = 1.0 - ops::sigmoid(ops::dot(&q, vi) - ops::dot(&q, vj));
        for z in 0..k {
            v_u[z] += cfg.learning_rate * (c * diff[z] - cfg.lambda * v_u[z]);
        }
    }
    v_u
}

/// Build the query vector for a folded-in user (the analogue of
/// [`Scorer::query`] with an external user factor).
pub fn folded_user_query<M: std::ops::Deref<Target = TfModel>>(
    scorer: &Scorer<M>,
    user_factor: &[f32],
    history: &[Transaction],
) -> Vec<f32> {
    let model = scorer.model();
    let cfg = model.config();
    let mut q = user_factor.to_vec();
    if cfg.max_prev_transactions > 0 {
        for n in 1..=cfg.max_prev_transactions.min(history.len()) {
            let b = &history[history.len() - n];
            if b.is_empty() {
                continue;
            }
            let w = cfg.markov_weight(n) / b.len() as f32;
            for &l in b {
                ops::axpy(w, scorer.next_item_factor(l), &mut q);
            }
        }
    }
    q
}

impl TfTrainer {
    /// Warm-start: continue training `model` on `train` for
    /// `self.config().epochs` more epochs. The model's learned factors
    /// are the starting point; the trainer's config drives the run (and
    /// must agree with the model on `K`, `U` and the taxonomy).
    ///
    /// `train` may contain more users than the model knows; new user
    /// rows are appended with the standard Gaussian init.
    ///
    /// # Panics
    /// If `K`/`U` disagree or the taxonomy differs.
    pub fn resume(
        &self,
        model: &TfModel,
        train: &PurchaseLog,
        seed: u64,
        threads: usize,
    ) -> (TfModel, TrainStats) {
        let cfg: &ModelConfig = self.config();
        assert_eq!(cfg.factors, model.k(), "factor dim mismatch");
        assert_eq!(
            cfg.taxonomy_update_levels,
            model.config().taxonomy_update_levels,
            "taxonomyUpdateLevels mismatch"
        );
        assert_eq!(
            self.taxonomy_ref().num_nodes(),
            model.taxonomy().num_nodes(),
            "taxonomy mismatch"
        );
        assert!(
            train.num_users() >= model.num_users(),
            "warm-start log must cover the model's users"
        );
        // Seed matrices from the model, growing the user matrix if the
        // log brings new users.
        let mut user_factors = model.user_factors.clone();
        if train.num_users() > model.num_users() {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let fresh = FactorMatrix::gaussian(
                train.num_users() - model.num_users(),
                cfg.factors,
                cfg.init_sigma,
                &mut rng,
            );
            for r in 0..fresh.rows() {
                user_factors.push_row(fresh.row(r));
            }
        }
        let warm = TfModel {
            taxonomy: model.taxonomy_arc(),
            config: cfg.clone(),
            user_factors,
            node_factors: model.node_factors.clone(),
            next_factors: model.next_factors.clone(),
            // Same taxonomy + same update levels (asserted above), so
            // the model's existing table is bit-identical — share it.
            paths: Arc::clone(&model.paths),
            cutoff_level: model.cutoff_level(),
            user_tier: None,
        };
        self.fit_parallel_from(warm, train, seed, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, EvalConfig};
    use crate::metrics;
    use taxrec_dataset::{DatasetConfig, SyntheticDataset};

    fn data() -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetConfig::tiny().with_users(1200), 31)
    }

    fn trained(d: &SyntheticDataset, epochs: usize) -> TfModel {
        TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(8).with_epochs(epochs),
            &d.taxonomy,
        )
        .fit(&d.train, 2)
    }

    #[test]
    fn added_item_scores_like_its_category() {
        let d = data();
        let m = trained(&d, 8);
        let parent = {
            // Lowest category level: parent of item 0.
            let tax = m.taxonomy();
            tax.parent(tax.item_node(ItemId(0))).unwrap()
        };
        let (m2, new_item) = m.with_added_item(parent).unwrap();
        assert_eq!(m2.num_items(), m.num_items() + 1);
        let s2 = Scorer::new(&m2);
        let q = s2.query(0, d.train.user(0));
        // Effective factor of the new item == its parent category's.
        let got = s2.score_item(&q, new_item);
        let want = s2.score_node(&q, parent);
        assert!((got - want).abs() < 1e-5, "{got} vs {want}");
        // Old items keep their exact scores.
        let s1 = Scorer::new(&m);
        let q1 = s1.query(0, d.train.user(0));
        for i in [0u32, 7, 200] {
            assert!((s1.score_item(&q1, ItemId(i)) - s2.score_item(&q, ItemId(i))).abs() < 1e-5);
        }
    }

    /// `recommend_top_k` ranks with the scorer it builds, so its top-10
    /// is the scorer's, score bits included — also once shallow adds put
    /// items above the bottom level, where a leaf-first path-table sum
    /// reads different offsets.
    #[test]
    fn recommend_top_k_is_the_scorers_top_k() {
        use rand::Rng;
        let d = data();
        let mut m = trained(&d, 4);
        let bits = |recs: Vec<(ItemId, f32)>| -> Vec<(ItemId, u32)> {
            recs.into_iter().map(|(i, s)| (i, s.to_bits())).collect()
        };
        let check = |m: &TfModel, at: &str| {
            let scorer = Scorer::new(m);
            for u in 0..200 {
                let h = d.train.user(u);
                let want = scorer.top_k_items(&scorer.query(u, h), 10, &[]);
                assert_eq!(
                    bits(m.recommend_top_k(u, h, 10)),
                    bits(want),
                    "{at} user {u}"
                );
            }
        };
        check(&m, "trained");
        let level1 = NodeId(m.taxonomy().nodes_at_level(1)[0]);
        let mut rng = StdRng::seed_from_u64(3);
        for step in 0..40 {
            m.add_item_mut([level1, NodeId::ROOT][step % 2]).unwrap();
            let node = m.taxonomy().num_nodes() - 1;
            for offsets in [&mut m.node_factors, &mut m.next_factors] {
                for v in offsets.row_mut(node) {
                    *v = rng.gen_range(-0.5f32..0.5);
                }
            }
        }
        check(&m, "after shallow adds");
    }

    #[test]
    fn added_item_requires_interior_parent() {
        let d = data();
        let m = trained(&d, 1);
        let leaf = m.taxonomy().item_node(ItemId(3));
        assert!(m.with_added_item(leaf).is_err());
    }

    #[test]
    fn fold_in_beats_zero_vector() {
        let d = data();
        let m = trained(&d, 10);
        let scorer = Scorer::new(&m);
        // Take a real user's history as the "new" user; fold in on all
        // but the last transaction, test on the last.
        let mut auc_folded = 0.0f64;
        let mut auc_zero = 0.0f64;
        let mut total = 0usize;
        for u in 0..d.train.num_users().min(250) {
            let hist = d.train.user(u);
            if hist.len() < 3 {
                continue;
            }
            let (past, target) = hist.split_at(hist.len() - 1);
            let v = fold_in_user(&scorer, past, 400, 7);
            let q_folded = folded_user_query(&scorer, &v, past);
            let q_zero = folded_user_query(&scorer, &vec![0.0; m.k()], past);
            let sf = scorer.score_all_items(&q_folded);
            let sz = scorer.score_all_items(&q_zero);
            let pos: Vec<usize> = target[0].iter().map(|i| i.index()).collect();
            let (Some(af), Some(az)) = (metrics::auc(&sf, &pos), metrics::auc(&sz, &pos)) else {
                continue;
            };
            total += 1;
            auc_folded += af;
            auc_zero += az;
        }
        assert!(total >= 30, "not enough evaluable users ({total})");
        let (mf, mz) = (auc_folded / total as f64, auc_zero / total as f64);
        assert!(
            mf > mz + 0.01,
            "fold-in mean AUC {mf:.4} must beat history-only baseline {mz:.4} over {total} users"
        );
    }

    #[test]
    fn fold_in_is_deterministic_and_leaves_model_untouched() {
        let d = data();
        let m = trained(&d, 4);
        let before = m.clone();
        let scorer = Scorer::new(&m);
        let hist = d.train.user(0).to_vec();
        let a = fold_in_user(&scorer, &hist, 300, 1234);
        let b = fold_in_user(&scorer, &hist, 300, 1234);
        // Bit-identical for a fixed seed: the event log replays fold-ins
        // by (history, steps, seed) and must land on the same factor.
        assert_eq!(a, b);
        // A different seed explores a different sample path.
        let c = fold_in_user(&scorer, &hist, 300, 99);
        assert_ne!(a, c);
        drop(scorer);
        // Every item/category factor stays bit-identical: fold-in only
        // produces a user vector, it never writes the model.
        assert_eq!(before.node_factors, m.node_factors);
        assert_eq!(before.next_factors, m.next_factors);
        assert_eq!(before.user_factors, m.user_factors);
    }

    #[test]
    fn added_item_preserves_rankings_for_untouched_users() {
        use crate::recommend::{RecommendEngine, RecommendRequest};
        let d = data();
        let m = trained(&d, 4);
        let parent = {
            let tax = m.taxonomy();
            tax.parent(tax.item_node(ItemId(5))).unwrap()
        };
        let (m2, new_item) = m.with_added_item(parent).unwrap();
        // All existing ids survive.
        for i in m.taxonomy().item_ids() {
            assert_eq!(m.taxonomy().item_node(i), m2.taxonomy().item_node(i));
        }
        // With the new item masked out, every user's full ranking over
        // the pre-existing catalog is unchanged.
        let before = RecommendEngine::new(&m);
        let after = RecommendEngine::new(&m2);
        let exclude = [new_item];
        for user in [0usize, 13, 77, 401] {
            let hist = d.train.user(user);
            let old = before.recommend(&RecommendRequest {
                user,
                history: hist,
                k: 25,
                exclude: &[],
            });
            let new = after.recommend(&RecommendRequest {
                user,
                history: hist,
                k: 25,
                exclude: &exclude,
            });
            assert_eq!(old.len(), new.len(), "user {user}");
            for (rank, ((ia, sa), (ib, sb))) in old.iter().zip(&new).enumerate() {
                assert_eq!(ia, ib, "user {user} rank {rank}");
                assert!((sa - sb).abs() < 1e-6, "user {user} rank {rank}");
            }
        }
    }

    #[test]
    fn add_item_mut_matches_with_added_item() {
        let d = data();
        let m = trained(&d, 2);
        let parent = {
            let tax = m.taxonomy();
            tax.parent(tax.item_node(ItemId(0))).unwrap()
        };
        let (grown, item) = m.with_added_item(parent).unwrap();
        let mut mutated = m.clone();
        let item2 = mutated.add_item_mut(parent).unwrap();
        assert_eq!(item, item2);
        assert_eq!(grown.node_factors, mutated.node_factors);
        assert_eq!(grown.next_factors, mutated.next_factors);
        assert_eq!(grown.user_factors, mutated.user_factors);
        assert_eq!(grown.taxonomy().num_nodes(), mutated.taxonomy().num_nodes());
        assert_eq!(grown.cutoff_level(), mutated.cutoff_level());
    }

    #[test]
    fn rejected_add_copies_nothing() {
        let d = data();
        let m = trained(&d, 1);
        // `published` plays the snapshot readers still hold: every
        // Arc and chunk of `m` is shared, so a write would have to copy.
        let published = m.clone();
        let mut m = m;
        let leaf = m.taxonomy().item_node(ItemId(3));
        let past = NodeId(m.taxonomy().num_nodes() as u32);
        assert_eq!(m.add_item_mut(leaf), Err(TaxonomyError::FrozenNode(leaf)));
        assert_eq!(m.add_item_mut(past), Err(TaxonomyError::UnknownNode(past)));
        assert!(Arc::ptr_eq(&m.taxonomy, &published.taxonomy));
        assert!(Arc::ptr_eq(&m.paths, &published.paths));
        assert_eq!(m.chunk_sharing_with(&published).1, 0, "no chunk copied");
        assert_eq!(m.num_items(), published.num_items());
        // An accepted add then diverges from the snapshot, which keeps
        // its own arena.
        let nodes = published.taxonomy().num_nodes();
        m.add_item_mut(m.taxonomy().parent(leaf).unwrap()).unwrap();
        assert!(!Arc::ptr_eq(&m.taxonomy, &published.taxonomy));
        assert_eq!(published.taxonomy().num_nodes(), nodes);
        assert_eq!(m.taxonomy().num_nodes(), nodes + 1);
    }

    #[test]
    fn growth_under_a_childless_root_rebuilds_the_path_table() {
        // Root-only arena: the first item deepens the tree, so the
        // cutoff level and every truncated path change shape.
        let root_only = Arc::new(taxrec_taxonomy::TaxonomyBuilder::new().freeze());
        let cfg = ModelConfig::tf(2, 0).with_factors(4);
        let mut m = TfModel::init(cfg.clone(), root_only, 3, 1);
        assert_eq!((m.num_items(), m.cutoff_level()), (0, 0));
        for expected in 0..3u32 {
            assert_eq!(m.add_item_mut(NodeId::ROOT), Ok(ItemId(expected)));
            let fresh = TfModel::init(cfg.clone(), m.taxonomy_arc(), 3, 1);
            assert_eq!(m.paths(), fresh.paths());
            assert_eq!(m.cutoff_level(), fresh.cutoff_level());
            assert_eq!(m.node_factors.rows(), m.taxonomy().num_nodes());
        }
        assert_eq!((m.taxonomy().depth(), m.cutoff_level()), (1, 0));
    }

    #[test]
    fn push_user_appends_and_scores() {
        let d = data();
        let mut m = trained(&d, 2);
        let n = m.num_users();
        let factor: Vec<f32> = (0..m.k()).map(|i| i as f32 * 0.01).collect();
        let u = m.push_user(&factor);
        assert_eq!(u, n);
        assert_eq!(m.num_users(), n + 1);
        assert_eq!(m.user_factor(u), factor.as_slice());
    }

    #[test]
    fn fold_in_empty_history_is_zero() {
        let d = data();
        let m = trained(&d, 1);
        let scorer = Scorer::new(&m);
        let v = fold_in_user(&scorer, &[], 100, 1);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn resume_improves_or_matches_short_run() {
        let d = data();
        // 3 epochs cold vs 3 cold + 5 resumed: the resumed model must be
        // at least as good as the short run.
        let short = trained(&d, 3);
        let resumed = {
            let t = TfTrainer::new(
                ModelConfig::tf(4, 1).with_factors(8).with_epochs(5),
                &d.taxonomy,
            );
            t.resume(&short, &d.train, 9, 2).0
        };
        let cfg = EvalConfig::fast();
        let a_short = evaluate(&short, &d.train, &d.test, &cfg).auc.unwrap();
        let a_resumed = evaluate(&resumed, &d.train, &d.test, &cfg).auc.unwrap();
        assert!(
            a_resumed > a_short - 0.01,
            "resume regressed: {a_short:.4} -> {a_resumed:.4}"
        );
    }

    #[test]
    fn resume_grows_user_matrix_for_new_users() {
        let d = data();
        let m = trained(&d, 2);
        // Extend the log with 50 extra users cloned from the originals.
        let mut b = taxrec_dataset::PurchaseLogBuilder::new();
        for (_, h) in d.train.iter_users() {
            b.push_user(h.to_vec());
        }
        for u in 0..50 {
            b.push_user(d.train.user(u).to_vec());
        }
        let bigger = b.build();
        let t = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(8).with_epochs(1),
            &d.taxonomy,
        );
        let (m2, _) = t.resume(&m, &bigger, 3, 2);
        assert_eq!(m2.num_users(), bigger.num_users());
    }

    #[test]
    #[should_panic(expected = "factor dim mismatch")]
    fn resume_rejects_k_mismatch() {
        let d = data();
        let m = trained(&d, 1);
        let t = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(16).with_epochs(1),
            &d.taxonomy,
        );
        let _ = t.resume(&m, &d.train, 1, 1);
    }
}
