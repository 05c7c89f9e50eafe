//! The taxonomy-aware latent factor model `TF(U, B)` (Sec. 3).
//!
//! Every taxonomy node `n` carries two offset vectors: `w_n` (long-term)
//! and `w→_n` (next-item). The *effective* factor of a node is the sum
//! of offsets along its root path, truncated to the `U` levels closest to
//! the items (Eq. 1):
//!
//! ```text
//! v_i  = Σ_{m=0}^{U-1} w_{p^m(i)}        v→_i = Σ_{m=0}^{U-1} w→_{p^m(i)}
//! ```
//!
//! The affinity of user `u` to item `j` at time `t` (Eq. 2–3) is
//!
//! ```text
//! s_t(j) = ⟨v^U_u, v_j⟩ + Σ_{n=1}^{B} (α_n/|B_{t−n}|) Σ_{ℓ∈B_{t−n}} ⟨v→_ℓ, v_j⟩
//! ```
//!
//! Both terms are inner products with `v_j`, so scoring factorises
//! through a per-(user, history) **query vector**
//! `q = v^U_u + Σ_n (α_n/|B_{t−n}|) Σ_ℓ v→_ℓ`, and `s_t(j) = ⟨q, v_j⟩`.
//! Everything downstream (training gradients, exhaustive and cascaded
//! inference) is built on that identity.

use crate::config::ModelConfig;
use crate::scoring::Scorer;
use crate::tier::{FoldRecipe, TierHandle, TierStatsSnapshot, UserTier};
use std::sync::Arc;
use taxrec_dataset::Transaction;
use taxrec_factors::{ops, CowMatrix, FactorMatrix, COW_CHUNK_ROWS};
use taxrec_taxonomy::{ItemId, NodeId, PathTable, Taxonomy};

/// A trained (or freshly initialised) TF(U, B) model.
///
/// Storage is **persistent** (structurally shared): the three factor
/// tables are chunked copy-on-write matrices ([`CowMatrix`]) and the
/// path table and taxonomy sit behind `Arc`s, so `clone()` costs one
/// refcount bump per chunk and the live publish path can derive a
/// successor model in `O(rows touched)` instead of `O(model)`. Mutating
/// a clone (the [`crate::dynamic`] operations) copies only the touched
/// chunks; every other byte stays shared with the models it descended
/// from.
#[derive(Debug, Clone)]
pub struct TfModel {
    pub(crate) taxonomy: Arc<Taxonomy>,
    pub(crate) config: ModelConfig,
    /// `v^U` — one row per user.
    pub(crate) user_factors: CowMatrix,
    /// `w^I` — long-term offset per taxonomy node.
    pub(crate) node_factors: CowMatrix,
    /// `w^I→` — next-item offset per taxonomy node.
    pub(crate) next_factors: CowMatrix,
    /// Item root paths truncated to `U` levels. `Arc`-shared across
    /// clones; [`crate::dynamic`]'s item growth appends via
    /// `Arc::make_mut` (copy-on-write, once per divergence). The live
    /// state swaps this and `taxonomy` for its caught-up spare pair
    /// instead of diverging (`live/state.rs`).
    pub(crate) paths: Arc<PathTable>,
    /// Nodes at level ≥ `cutoff_level` carry factors; shallower nodes are
    /// outside the configured `taxonomyUpdateLevels` and contribute 0.
    pub(crate) cutoff_level: usize,
    /// When set, user factors live in a shared hot/cold [`UserTier`]
    /// instead of `user_factors` (which is then empty); the handle
    /// freezes this epoch's user count over the growing store.
    pub(crate) user_tier: Option<TierHandle>,
}

impl TfModel {
    /// Gaussian-initialise a model for `num_users` users over `taxonomy`.
    ///
    /// # Panics
    /// If the config fails [`ModelConfig::validate`].
    pub fn init(
        config: ModelConfig,
        taxonomy: Arc<Taxonomy>,
        num_users: usize,
        seed: u64,
    ) -> TfModel {
        if let Err(e) = config.validate() {
            panic!("invalid ModelConfig: {e}");
        }
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let k = config.factors;
        let n_nodes = taxonomy.num_nodes();
        // Users break symmetry with Gaussian noise; node offsets start at
        // the prior mean 0. Zero offsets matter for cold start: an item
        // never seen in training keeps w = 0, so its effective factor is
        // exactly its super-category's — the paper's Fig. 7(c) estimate
        // ("we use the item's immediate super-category as an estimate for
        // its factor") — instead of category + noise.
        let user_factors = CowMatrix::from_dense(FactorMatrix::gaussian(
            num_users,
            k,
            config.init_sigma,
            &mut rng,
        ));
        let (node_factors, next_factors) = if config.node_init_sigma > 0.0 {
            (
                CowMatrix::from_dense(FactorMatrix::gaussian(
                    n_nodes,
                    k,
                    config.node_init_sigma,
                    &mut rng,
                )),
                CowMatrix::from_dense(FactorMatrix::gaussian(
                    n_nodes,
                    k,
                    config.node_init_sigma,
                    &mut rng,
                )),
            )
        } else {
            (CowMatrix::zeros(n_nodes, k), CowMatrix::zeros(n_nodes, k))
        };
        let paths = Arc::new(PathTable::build(&taxonomy, config.taxonomy_update_levels));
        let cutoff_level = cutoff_for(&taxonomy, config.taxonomy_update_levels);
        TfModel {
            taxonomy,
            config,
            user_factors,
            node_factors,
            next_factors,
            paths,
            cutoff_level,
            user_tier: None,
        }
    }

    /// The taxonomy the model is bound to.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Shared handle to the taxonomy.
    pub fn taxonomy_arc(&self) -> Arc<Taxonomy> {
        Arc::clone(&self.taxonomy)
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of users the model covers. On a tiered model this is the
    /// epoch's frozen row count, not the (still growing) store's.
    pub fn num_users(&self) -> usize {
        match &self.user_tier {
            Some(h) => h.rows,
            None => self.user_factors.rows(),
        }
    }

    /// Number of items (taxonomy leaves).
    pub fn num_items(&self) -> usize {
        self.taxonomy.num_items()
    }

    /// Factor dimensionality `K`.
    pub fn k(&self) -> usize {
        self.config.factors
    }

    /// Level cutoff implied by `taxonomyUpdateLevels` (nodes at levels
    /// ≥ cutoff carry factors).
    pub fn cutoff_level(&self) -> usize {
        self.cutoff_level
    }

    /// The truncated item root paths.
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// User factor row (resident models only).
    ///
    /// # Panics
    /// On a tiered model, where rows are not borrowable — use
    /// [`copy_user_factor`](Self::copy_user_factor).
    pub fn user_factor(&self, user: usize) -> &[f32] {
        assert!(
            self.user_tier.is_none(),
            "user factors are tiered; use copy_user_factor"
        );
        self.user_factors.row(user)
    }

    /// Copy `user`'s factor into `out`. Resident models copy from the
    /// in-memory matrix; tiered models read through the hot/cold store,
    /// faulting the row in (cold read or deterministic re-fold) on a
    /// miss. Either path yields bit-identical bytes.
    pub fn copy_user_factor(&self, user: usize, out: &mut [f32]) {
        match &self.user_tier {
            None => out.copy_from_slice(self.user_factors.row(user)),
            Some(h) => {
                assert!(user < h.rows, "user {user} out of {} rows", h.rows);
                h.tier
                    .copy_row(user, out, |r| crate::dynamic::refold(self, r));
            }
        }
    }

    /// Overwrite `user`'s factor. Resident models write the COW matrix
    /// (copying the touched chunk); tiered models write the shared store
    /// together with the recipe that reconstructs the row after
    /// eviction.
    pub(crate) fn set_user_factor(&mut self, user: usize, factor: &[f32], recipe: FoldRecipe) {
        match &self.user_tier {
            None => self.user_factors.row_mut(user).copy_from_slice(factor),
            Some(h) => {
                assert!(user < h.rows, "user {user} out of {} rows", h.rows);
                h.tier.set_row(user, factor, recipe);
            }
        }
    }

    /// Move this model's user factors into a shared hot/cold tier built
    /// by [`UserTier::build`] from this same matrix. The resident matrix
    /// is dropped; reads go through [`copy_user_factor`](Self::copy_user_factor).
    ///
    /// # Panics
    /// If the tier's `K` or row count disagree with the model.
    pub fn attach_user_tier(&mut self, tier: Arc<UserTier>) {
        assert_eq!(tier.k(), self.k(), "tier K mismatch");
        assert_eq!(
            tier.total_rows(),
            self.user_factors.rows(),
            "tier row-count mismatch"
        );
        let rows = self.user_factors.rows();
        self.user_factors = CowMatrix::zeros(0, self.k());
        self.user_tier = Some(TierHandle { tier, rows });
    }

    /// Build a hot/cold tier from this model's own resident user matrix
    /// (cold file at `path`, `budget` hot rows) and attach it — the
    /// one-call form of [`UserTier::build`] + [`attach_user_tier`](Self::attach_user_tier)
    /// for callers outside the crate, which cannot reach the raw matrix.
    pub fn build_user_tier(
        &mut self,
        path: &std::path::Path,
        budget: usize,
        registry: &crate::MetricsRegistry,
    ) -> std::io::Result<()> {
        let tier = UserTier::build(path, &self.user_factors, budget, registry)?;
        self.attach_user_tier(tier);
        Ok(())
    }

    /// Whether user factors live in a hot/cold tier.
    pub fn user_tier_attached(&self) -> bool {
        self.user_tier.is_some()
    }

    /// The attached tier's counters and sizes, if any.
    pub fn user_tier_stats(&self) -> Option<TierStatsSnapshot> {
        self.user_tier.as_ref().map(|h| h.tier.stats_snapshot())
    }

    /// Materialise the full user matrix — resident models clone (cheap,
    /// structural sharing); tiered models reconstruct every row through
    /// the tier without perturbing the eviction state, so a snapshot of
    /// tiered state is byte-identical to its untiered twin.
    pub(crate) fn materialize_user_matrix(&self) -> CowMatrix {
        let Some(h) = &self.user_tier else {
            return self.user_factors.clone();
        };
        let mut m = CowMatrix::zeros(0, self.k());
        let mut buf = vec![0.0f32; self.k()];
        for u in 0..h.rows {
            h.tier
                .peek_row(u, &mut buf, |r| crate::dynamic::refold(self, r));
            m.push_row(&buf);
        }
        m
    }

    /// Raw long-term offset of a node (`w_n`, *not* the effective factor).
    pub fn node_offset(&self, node: NodeId) -> &[f32] {
        self.node_factors.row(node.index())
    }

    /// Raw next-item offset of a node (`w→_n`).
    pub fn next_offset(&self, node: NodeId) -> &[f32] {
        self.next_factors.row(node.index())
    }

    /// Materialise the effective factors of **all nodes** for the given
    /// offset matrix, in one forward pass (node ids are topological, so
    /// `eff[n] = eff[parent(n)] + w_n` with the cutoff applied). Rows
    /// are appended in node-id order into chunks that already have room
    /// for [`COW_CHUNK_ROWS`] rows, so the table is built in its shared
    /// layout with no second copy; a node appended later
    /// ([`Scorer::grown_from`]) repeats exactly this per-row step.
    pub(crate) fn effective_all_nodes(&self, offsets: &CowMatrix) -> CowMatrix {
        let k = self.k();
        let tax = &*self.taxonomy;
        let mut chunks: Vec<FactorMatrix> =
            Vec::with_capacity(tax.num_nodes().div_ceil(COW_CHUNK_ROWS));
        let mut row = vec![0.0f32; k];
        for idx in 0..tax.num_nodes() {
            let node = NodeId(idx as u32);
            match tax.parent(node) {
                Some(p) => row.copy_from_slice(
                    chunks[p.index() / COW_CHUNK_ROWS].row(p.index() % COW_CHUNK_ROWS),
                ),
                None => row.fill(0.0),
            }
            if tax.level(node) >= self.cutoff_level {
                ops::add_assign(offsets.row(idx), &mut row);
            }
            if idx % COW_CHUNK_ROWS == 0 {
                chunks.push(FactorMatrix::with_capacity(COW_CHUNK_ROWS, k));
            }
            chunks
                .last_mut()
                .expect("a chunk was opened at row 0")
                .push_row(&row);
        }
        CowMatrix::from_chunks(k, chunks)
    }

    /// One row of [`effective_all_nodes`](Self::effective_all_nodes)
    /// without the table: `out` is zeroed, then `node`'s offsets at
    /// level ≥ cutoff are added **root first** — the order the forward
    /// pass accumulates in, so the row has the table's bits. (Training's
    /// [`PathTable::path`] sums leaf-first over a path truncated by
    /// count, which differs in the last bit and, for items above the
    /// bottom level, in which offsets are summed.)
    pub(crate) fn effective_row_into(&self, offsets: &CowMatrix, node: NodeId, out: &mut [f32]) {
        out.fill(0.0);
        self.add_root_path(offsets, node, out);
    }

    fn add_root_path(&self, offsets: &CowMatrix, node: NodeId, out: &mut [f32]) {
        if self.taxonomy.level(node) < self.cutoff_level {
            return;
        }
        if let Some(parent) = self.taxonomy.parent(node) {
            self.add_root_path(offsets, parent, out);
        }
        ops::add_assign(offsets.row(node.index()), out);
    }

    /// Convenience: exhaustively score all items for `(user, history)`
    /// and return the top `k` as `(item, score)`, best first.
    ///
    /// Builds a throw-away [`Scorer`]; evaluation loops should build one
    /// `Scorer` and reuse it across users.
    pub fn recommend_top_k(
        &self,
        user: usize,
        history: &[Transaction],
        k: usize,
    ) -> Vec<(ItemId, f32)> {
        let scorer = Scorer::new(self);
        scorer.top_k_items(&scorer.query(user, history), k, &[])
    }

    /// The three chunked factor tables in `(user, node, next)` order —
    /// the storage-sharing diagnostics surface used by the COW tests
    /// and the live publish counters.
    pub fn cow_matrices(&self) -> [&CowMatrix; 3] {
        [&self.user_factors, &self.node_factors, &self.next_factors]
    }

    /// How much factor storage this model shares with `prev`, by
    /// pointer: `(shared, unshared)` chunk counts summed over all three
    /// matrices. After a live publish, `unshared` is exactly the chunks
    /// that batch of events had to copy or append — the proof that the
    /// publish was `O(change)`.
    pub fn chunk_sharing_with(&self, prev: &TfModel) -> (u64, u64) {
        self.cow_matrices()
            .iter()
            .zip(prev.cow_matrices())
            .map(|(a, b)| a.shared_chunks_with(b))
            .fold((0, 0), |(s, c), (ds, dc)| (s + ds, c + dc))
    }

    /// A fully independent copy: every factor chunk and the path table
    /// are reallocated; nothing is shared with `self` (the taxonomy
    /// stays `Arc`-shared — growth copies it on write, never writes a
    /// shared arena). This is what a publish used to cost before the
    /// copy-on-write storage; benches use it as the O(model) baseline
    /// and the COW property tests as an isolation control.
    pub fn deep_clone(&self) -> TfModel {
        TfModel {
            taxonomy: Arc::clone(&self.taxonomy),
            config: self.config.clone(),
            user_factors: self.user_factors.deep_clone(),
            node_factors: self.node_factors.deep_clone(),
            next_factors: self.next_factors.deep_clone(),
            paths: Arc::new(PathTable::clone(&self.paths)),
            cutoff_level: self.cutoff_level,
            user_tier: self.user_tier.clone(),
        }
    }
}

#[cfg(test)]
impl TfModel {
    /// Panics unless every row of `eff` has the same bits as the dense
    /// reference pass over `offsets` — the check that building the
    /// table chunk by chunk changed no summation order.
    pub(crate) fn assert_matches_dense_pass(&self, offsets: &CowMatrix, eff: &CowMatrix, at: &str) {
        let want = self.effective_all_nodes_dense(offsets);
        assert_eq!(eff.rows(), want.rows(), "{at}: row count");
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for r in 0..want.rows() {
            assert_eq!(bits(eff.row(r)), bits(want.row(r)), "{at}: node {r}");
        }
    }

    /// The dense single-matrix forward pass, kept as the reference the
    /// chunked [`effective_all_nodes`](Self::effective_all_nodes) and
    /// [`Scorer::grown_from`] must match bit for bit.
    pub(crate) fn effective_all_nodes_dense(&self, offsets: &CowMatrix) -> FactorMatrix {
        let k = self.k();
        let tax = &*self.taxonomy;
        let mut eff = FactorMatrix::zeros(tax.num_nodes(), k);
        for idx in 0..tax.num_nodes() {
            let node = NodeId(idx as u32);
            let include_self = tax.level(node) >= self.cutoff_level;
            if let Some(p) = tax.parent(node) {
                let (row, parent_row) = eff.rows_mut2(idx, p.index());
                row.copy_from_slice(parent_row);
            }
            if include_self {
                let row = eff.row_mut(idx);
                for (v, w) in row.iter_mut().zip(offsets.row(idx)) {
                    *v += w;
                }
            }
        }
        eff
    }
}

/// Level threshold implied by `taxonomyUpdateLevels`: with items at depth
/// `D`, `U` levels from the bottom cover levels `D, D-1, …, D-U+1`.
pub(crate) fn cutoff_for(tax: &Taxonomy, update_levels: usize) -> usize {
    tax.depth().saturating_sub(update_levels.max(1) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taxrec_taxonomy::{TaxonomyGenerator, TaxonomyShape};

    pub(crate) fn small_tax() -> Arc<Taxonomy> {
        let shape = TaxonomyShape {
            level_sizes: vec![3, 6, 12],
            num_items: 100,
            item_skew: 0.5,
        };
        Arc::new(
            TaxonomyGenerator::new(shape)
                .generate(&mut StdRng::seed_from_u64(5))
                .taxonomy,
        )
    }

    fn model(u: usize, b: usize) -> TfModel {
        // Gaussian node init: these tests compare path sums, which
        // would be trivially zero otherwise.
        TfModel::init(
            ModelConfig::tf(u, b)
                .with_factors(8)
                .with_node_init_sigma(0.1),
            small_tax(),
            20,
            9,
        )
    }

    #[test]
    fn init_shapes() {
        let m = model(4, 1);
        assert_eq!(m.num_users(), 20);
        assert_eq!(m.num_items(), 100);
        assert_eq!(m.k(), 8);
        assert_eq!(m.user_factors.rows(), 20);
        assert_eq!(m.node_factors.rows(), m.taxonomy.num_nodes());
        assert_eq!(m.next_factors.rows(), m.taxonomy.num_nodes());
    }

    #[test]
    fn cutoff_levels() {
        let tax = small_tax(); // depth 4 (root + 3 cat levels + items)
        assert_eq!(tax.depth(), 4);
        assert_eq!(cutoff_for(&tax, 1), 4);
        assert_eq!(cutoff_for(&tax, 4), 1);
        assert_eq!(cutoff_for(&tax, 5), 0);
        assert_eq!(cutoff_for(&tax, 99), 0);
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// Eq. 1 spelled out: an item's effective factor is the sum of the
    /// offsets on its root path at level ≥ cutoff, added root first.
    #[test]
    fn item_factor_is_path_sum() {
        let m = model(4, 0);
        let s = Scorer::new(&m);
        let item = ItemId(3);
        let mut path: Vec<NodeId> = m.taxonomy.root_path(m.taxonomy.item_node(item)).collect();
        path.reverse();
        let mut expect = vec![0.0f32; m.k()];
        for n in path {
            if m.taxonomy.level(n) >= m.cutoff_level {
                ops::add_assign(m.node_factors.row(n.index()), &mut expect);
            }
        }
        assert_eq!(bits(s.item_factor(item)), bits(&expect));
    }

    #[test]
    fn u1_item_factor_is_leaf_offset_only() {
        let m = model(1, 0);
        let s = Scorer::new(&m);
        let item = ItemId(7);
        let leaf = m.taxonomy.item_node(item);
        assert_eq!(bits(s.item_factor(item)), bits(m.node_offset(leaf)));
        assert_eq!(bits(s.next_item_factor(item)), bits(m.next_offset(leaf)));
    }

    #[test]
    fn query_without_markov_is_user_factor() {
        let m = model(4, 0);
        let s = Scorer::new(&m);
        let q = s.query(3, &[vec![ItemId(0)], vec![ItemId(1)]]);
        assert_eq!(bits(&q), bits(m.user_factor(3)));
    }

    #[test]
    fn query_with_markov_adds_next_factors() {
        let m = model(4, 1);
        let s = Scorer::new(&m);
        let q = s.query(0, &[vec![ItemId(2), ItemId(5)]]);
        // Expected: v_u + (α₁/2)(v→_2 + v→_5)
        let mut expect = m.user_factor(0).to_vec();
        let w = m.config.markov_weight(1) / 2.0;
        for i in [ItemId(2), ItemId(5)] {
            ops::axpy(w, s.next_item_factor(i), &mut expect);
        }
        assert_eq!(bits(&q), bits(&expect));
    }

    #[test]
    fn higher_order_uses_older_baskets_with_decay() {
        let m = model(4, 2);
        let s = Scorer::new(&m);
        let hist = vec![vec![ItemId(1)], vec![ItemId(2)]];
        // Dropping the older basket must change the query (it contributes
        // with weight α₂ > 0).
        assert_ne!(s.query(0, &hist), s.query(0, &hist[1..]));
    }

    /// Pins the chunked build to the dense pass bit for bit, on a
    /// trained model at every cutoff and on node counts either side of
    /// one chunk.
    #[test]
    fn effective_all_nodes_is_bit_identical_to_the_dense_pass() {
        use taxrec_dataset::{DatasetConfig, SyntheticDataset};
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(50), 4);
        for u in 1..=d.taxonomy.depth() + 1 {
            let m = crate::train::TfTrainer::new(
                ModelConfig::tf(u, 1).with_factors(8).with_epochs(1),
                &d.taxonomy,
            )
            .fit(&d.train, 3);
            for offsets in [&m.node_factors, &m.next_factors] {
                let eff = m.effective_all_nodes(offsets);
                m.assert_matches_dense_pass(offsets, &eff, &format!("trained U={u}"));
            }
        }
        for nodes in [COW_CHUNK_ROWS - 1, COW_CHUNK_ROWS, COW_CHUNK_ROWS + 1] {
            let shape = TaxonomyShape {
                level_sizes: vec![3, 6, 12],
                num_items: nodes - 22,
                item_skew: 0.5,
            };
            let tax = Arc::new(
                TaxonomyGenerator::new(shape)
                    .generate(&mut StdRng::seed_from_u64(5))
                    .taxonomy,
            );
            assert_eq!(tax.num_nodes(), nodes);
            for u in [1, 3, 5] {
                let cfg = ModelConfig::tf(u, 1)
                    .with_factors(8)
                    .with_node_init_sigma(0.1);
                let m = TfModel::init(cfg, Arc::clone(&tax), 4, 9);
                for offsets in [&m.node_factors, &m.next_factors] {
                    let eff = m.effective_all_nodes(offsets);
                    assert_eq!(eff.num_chunks(), nodes.div_ceil(COW_CHUNK_ROWS));
                    m.assert_matches_dense_pass(offsets, &eff, &format!("{nodes} nodes U={u}"));
                }
            }
        }
    }

    #[test]
    fn score_item_is_query_dot_factor() {
        let m = model(4, 1);
        let s = Scorer::new(&m);
        let q = s.query(2, &[vec![ItemId(9)]]);
        let want = ops::dot(&q, s.item_factor(ItemId(4)));
        assert_eq!(s.score_item(&q, ItemId(4)).to_bits(), want.to_bits());
    }

    #[test]
    fn recommend_returns_k_distinct_items() {
        let m = model(4, 0);
        let recs = m.recommend_top_k(0, &[], 10);
        assert_eq!(recs.len(), 10);
        let mut items: Vec<ItemId> = recs.iter().map(|r| r.0).collect();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), 10);
        // Scores descending.
        for w in recs.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    #[should_panic(expected = "invalid ModelConfig")]
    fn invalid_config_panics() {
        let _ = TfModel::init(ModelConfig::default().with_factors(0), small_tax(), 5, 1);
    }
}
