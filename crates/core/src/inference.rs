//! Cascaded inference (Sec. 5.1): top-down beam ranking through the
//! taxonomy.
//!
//! Exhaustive inference scores every item (`num_items` dot products per
//! user). Cascaded inference instead ranks the taxonomy level by level:
//! score the nodes of level 1, keep the best `k₁·size(1)`, expand only
//! their children, and recurse. The kept fractions trade accuracy for
//! work — Fig. 8(c,d) — and the per-level rankings double as the paper's
//! "structured" (category-level) recommendations.
//!
//! One implementation serves both callers: [`cascade`] (evaluation and
//! the figure binaries, every level's ranking collected) and the
//! recommend engine's `Backend::Cascaded` (a `Beam` in the per-worker
//! scratch, bounded to the `k + |exclude|` leaves a request can use).
//! Above the bottom level a walk costs one gather-dot per frontier node
//! plus a selection of the kept candidates and a sort of those only —
//! `O(n + keep·log keep)` instead of a full sort.
//!
//! The bottom level — nearly all of a beam's rows — is one bounded-heap
//! pass over the kept parents in rank order. The engine lends it the
//! radius bounds of its walk index (`recommend/walk.rs`): each parent's
//! items come largest radius first, and a list ends as soon as the heap
//! is full and its worst score is **strictly** greater than the next
//! item's bound, so only rows that could still enter (or tie into) the
//! kept set are read — about 90 of the ~2 300 under the kept
//! categories at `cascade=0.3` on an 8 000-item catalog — and the
//! ranking is bit-identical to scoring them all. [`cascade`] has no
//! index and runs the same pass with an infinite bound. A walk
//! allocates nothing once its buffers have grown.

use crate::model::TfModel;
use crate::recommend::{F32Kernel, TopK, WalkIndex};
use crate::scoring::Scorer;
use std::cmp::Ordering;
use taxrec_taxonomy::{ItemId, NodeId, Taxonomy};

/// Per-level keep fractions `k_i ∈ [0, 1]` for levels `1..=depth`.
///
/// `n_i = max(1, ⌈k_i · size(level i)⌉)` nodes are kept at level `i`
/// (clamped to the current frontier). The budget is measured against
/// the *whole* level, not the frontier: where the kept categories hold
/// fewer than `n_i` children between them, level `i` prunes nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeConfig {
    /// One fraction per taxonomy level below the root.
    pub keep_fractions: Vec<f64>,
}

impl CascadeConfig {
    /// Same fraction at every level (`depth` levels below the root) —
    /// the sweep of Fig. 8(c).
    pub fn uniform(depth: usize, k: f64) -> Self {
        CascadeConfig {
            keep_fractions: vec![k; depth],
        }
    }

    /// Full fan-out above the leaves, fraction `k` at the leaf level —
    /// the monotone variant of Fig. 8(d).
    pub fn leaf_only(depth: usize, k: f64) -> Self {
        let mut keep_fractions = vec![1.0; depth];
        if let Some(last) = keep_fractions.last_mut() {
            *last = k;
        }
        CascadeConfig { keep_fractions }
    }

    fn fraction(&self, level: usize) -> f64 {
        // level is 1-based below the root.
        self.keep_fractions
            .get(level - 1)
            .copied()
            .unwrap_or(1.0)
            .clamp(0.0, 1.0)
    }
}

/// Outcome of one cascaded inference pass.
#[derive(Debug, Clone)]
pub struct CascadeResult {
    /// Ranked items the beam kept, best first.
    pub items: Vec<(ItemId, f32)>,
    /// Ranked kept nodes per level (index 0 = taxonomy level 1) — the
    /// structured category recommendation.
    pub per_level: Vec<Vec<(NodeId, f32)>>,
    /// Number of nodes scored — the work measure for the time/accuracy
    /// trade-off (exhaustive inference scores `num_items` leaves).
    pub scored_nodes: usize,
}

impl CascadeResult {
    /// Whether `item` survived the cascade.
    pub fn reached(&self, item: ItemId) -> bool {
        self.items.iter().any(|(i, _)| *i == item)
    }
}

/// One scored node of a beam level.
#[derive(Debug, Clone, Copy)]
struct Cand {
    score: f32,
    /// Index in the level's frontier: the tie-break under which an
    /// unstable selection reproduces a stable sort by score.
    pos: u32,
    node: u32,
}

/// The beam's total order: score descending, frontier position
/// ascending.
fn beam_cmp(a: &Cand, b: &Cand) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then(a.pos.cmp(&b.pos))
}

/// The cascaded walk over reusable buffers: after the first request a
/// walk allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Beam {
    /// The kept nodes with children of the level above, best first;
    /// each `pos` is the frontier position of its first child.
    parents: Vec<Cand>,
    scored: Vec<Cand>,
    /// The bottom level's selection, keyed by frontier position.
    bottom: TopK,
    drained: Vec<(ItemId, f32)>,
    /// Kept childless nodes — the walk's result, best first.
    leaves: Vec<Cand>,
}

impl Beam {
    /// Rank the taxonomy level by level, expanding only the kept nodes.
    /// Afterwards `self.leaves` holds the best `leaf_limit` kept leaves,
    /// best first; returns the number of nodes scored.
    ///
    /// Per level the frontier (the children of the kept parents, in
    /// parent rank order) is scored, the best `keep` candidates under
    /// [`beam_cmp`] are selected and only those are sorted. The bottom
    /// level, whose nodes are only ever results, keeps
    /// `min(keep, leaf_limit)` through [`bottom`](Self::bottom). A kept
    /// node without children is an item wherever it sits: it joins the
    /// results instead of being expanded, and results from several
    /// levels merge under (score desc, level asc, position asc).
    #[allow(clippy::too_many_arguments)]
    fn walk<M: std::ops::Deref<Target = TfModel>>(
        &mut self,
        scorer: &Scorer<M>,
        kernel: F32Kernel,
        index: Option<&WalkIndex>,
        query: &[f32],
        config: &CascadeConfig,
        leaf_limit: usize,
        mut per_level: Option<&mut Vec<Vec<(NodeId, f32)>>>,
    ) -> usize {
        let tax = scorer.model().taxonomy();
        let depth = tax.depth();
        let mut scored_nodes = 0usize;
        // Whether leaves of more than one level are waiting to be merged.
        let mut mixed_levels = false;
        self.leaves.clear();

        // Level 1 is the children of the root. The root itself is never
        // scored: an infinite score leaves its children unbounded.
        self.parents.clear();
        self.parents.push(Cand {
            score: f32::INFINITY,
            pos: 0,
            node: NodeId::ROOT.0,
        });
        let mut frontier_len = tax.children(NodeId::ROOT).len();
        for level in 1..=depth {
            let fraction = config.fraction(level);
            let level_size = tax.nodes_at_level(level).len().max(1);
            // At least one node while the fraction is positive — but an
            // empty frontier (every kept node above was childless)
            // keeps nothing.
            let keep = ((fraction * level_size as f64).ceil() as usize)
                .max(usize::from(fraction > 0.0))
                .min(frontier_len);
            if level == depth {
                scored_nodes += self.bottom(scorer, kernel, index, query, keep.min(leaf_limit));
            } else {
                self.scored.clear();
                for parent in &self.parents {
                    let children = tax.children(NodeId(parent.node));
                    self.scored
                        .extend(children.iter().enumerate().map(|(j, &node)| Cand {
                            score: kernel.dot(query, scorer.node_factor(NodeId(node))),
                            pos: parent.pos + j as u32,
                            node,
                        }));
                }
                scored_nodes += self.scored.len();
                if keep < self.scored.len() {
                    if keep > 0 {
                        self.scored.select_nth_unstable_by(keep - 1, beam_cmp);
                    }
                    self.scored.truncate(keep);
                }
                self.scored.sort_unstable_by(beam_cmp);
            }
            if let Some(per_level) = per_level.as_deref_mut() {
                per_level.push(
                    self.scored
                        .iter()
                        .map(|c| (NodeId(c.node), c.score))
                        .collect(),
                );
            }

            self.parents.clear();
            frontier_len = 0;
            let leaves_before = self.leaves.len();
            for cand in &self.scored {
                let children = tax.children(NodeId(cand.node));
                if children.is_empty() {
                    self.leaves.push(*cand);
                } else {
                    self.parents.push(Cand {
                        pos: frontier_len as u32,
                        ..*cand
                    });
                    frontier_len += children.len();
                }
            }
            mixed_levels |= leaves_before > 0 && self.leaves.len() > leaves_before;
        }

        if mixed_levels {
            // Leaves were pushed level by level in rank order, so a
            // stable sort by score alone breaks ties by (level, pos).
            self.leaves
                .sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal));
        }
        self.leaves.truncate(leaf_limit);
        scored_nodes
    }

    /// The bottom level: the best `limit` children of `self.parents`
    /// under [`beam_cmp`] into `self.scored`, best first. Returns the
    /// rows scored.
    ///
    /// One bounded heap keyed by frontier position takes the children
    /// parent by parent, in rank order. With a walk `index` each
    /// parent's items come in radius lists, and a list ends once the
    /// heap is full and its worst score is strictly greater than the
    /// next item's bound: no later item of that list can enter, nor tie
    /// in on a smaller position. Offers arrive out of position order,
    /// so every one goes through the heap's full tie-break. Without an
    /// index every child is offered.
    fn bottom<M: std::ops::Deref<Target = TfModel>>(
        &mut self,
        scorer: &Scorer<M>,
        kernel: F32Kernel,
        index: Option<&WalkIndex>,
        query: &[f32],
        limit: usize,
    ) -> usize {
        let tax = scorer.model().taxonomy();
        let bounds = index.map(|index| index.item_bounds(query));
        let score = |node: u32| kernel.dot(query, scorer.node_factor(NodeId(node)));
        let heap = &mut self.bottom;
        heap.reset(limit);
        let mut rows = 0usize;
        for parent in &self.parents {
            let children = tax.children(NodeId(parent.node));
            match &bounds {
                Some(bounds) => {
                    for run in bounds.runs(NodeId(parent.node), parent.score) {
                        let run = run.map(|(item, bound)| {
                            let j = children
                                .binary_search(&tax.item_node(item).0)
                                .expect("an indexed item is a child of its category");
                            (j, bound)
                        });
                        rows += offer_run(heap, run, children, parent.pos, score);
                    }
                }
                None => {
                    let run = (0..children.len()).map(|j| (j, f64::INFINITY));
                    rows += offer_run(heap, run, children, parent.pos, score);
                }
            }
        }
        heap.drain_sorted_into(&mut self.drained);
        self.scored.clear();
        self.scored.extend(self.drained.iter().map(|&(key, score)| {
            let at = self.parents.partition_point(|p| p.pos <= key.0) - 1;
            let parent = &self.parents[at];
            Cand {
                score,
                pos: key.0,
                node: tax.children(NodeId(parent.node))[(key.0 - parent.pos) as usize],
            }
        }));
        rows
    }

    /// The walk's result as `(item, score)` pairs, best first.
    fn items<'a>(&'a self, tax: &'a Taxonomy) -> impl Iterator<Item = (ItemId, f32)> + 'a {
        self.leaves
            .iter()
            .filter_map(|c| tax.node_item(NodeId(c.node)).map(|i| (i, c.score)))
    }

    /// Cascaded top-`k` into `out`, skipping `exclude` (sorted
    /// ascending). At most `|exclude|` of the best `k + |exclude|`
    /// leaves can be filtered, so the walk never ranks more than that.
    /// Returns `(nodes scored, leaves ranked)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn top_items_into<M: std::ops::Deref<Target = TfModel>>(
        &mut self,
        scorer: &Scorer<M>,
        kernel: F32Kernel,
        index: Option<&WalkIndex>,
        query: &[f32],
        config: &CascadeConfig,
        k: usize,
        exclude: &[ItemId],
        out: &mut Vec<(ItemId, f32)>,
    ) -> (usize, usize) {
        let leaf_limit = k.saturating_add(exclude.len());
        let scored_nodes = self.walk(scorer, kernel, index, query, config, leaf_limit, None);
        out.clear();
        out.extend(
            self.items(scorer.model().taxonomy())
                .filter(|(i, _)| exclude.binary_search(i).is_err())
                .take(k),
        );
        (scored_nodes, self.leaves.len())
    }
}

/// Offer `children[j]` for each `(j, bound)` of `run` to `heap`, keyed
/// by frontier position `first + j`, until the heap is full and its
/// worst score is strictly greater than the next `bound` (the
/// threshold is −∞ while the heap has room, +∞ when it keeps nothing).
/// Returns the rows scored.
fn offer_run(
    heap: &mut TopK,
    run: impl Iterator<Item = (usize, f64)>,
    children: &[u32],
    first: u32,
    score: impl Fn(u32) -> f32,
) -> usize {
    let mut rows = 0;
    for (j, bound) in run {
        if f64::from(heap.threshold()) > bound {
            break;
        }
        heap.offer(ItemId(first + j as u32), score(children[j]));
        rows += 1;
    }
    rows
}

/// Run cascaded inference for a prepared query vector.
///
/// Nodes scoring equal rank in frontier order (children of a
/// better-ranked parent first, siblings by node id). Items sitting
/// above the bottom level are results of the level that keeps them.
pub fn cascade<M: std::ops::Deref<Target = TfModel>>(
    scorer: &Scorer<M>,
    query: &[f32],
    config: &CascadeConfig,
) -> CascadeResult {
    let tax = scorer.model().taxonomy();
    let mut beam = Beam::default();
    let mut per_level = Vec::with_capacity(tax.depth());
    let scored_nodes = beam.walk(
        scorer,
        F32Kernel::detect(),
        None,
        query,
        config,
        usize::MAX,
        Some(&mut per_level),
    );
    CascadeResult {
        items: beam.items(tax).collect(),
        per_level,
        scored_nodes,
    }
}

/// AUC of a cascaded ranking against `positives`, over the full catalog.
///
/// Items pruned by the cascade are treated as tied below every survivor
/// (half credit among themselves), matching how a production system would
/// back-fill: survivors first, the rest in arbitrary order.
pub fn cascaded_auc(result: &CascadeResult, num_items: usize, positives: &[ItemId]) -> Option<f64> {
    let n_pos = positives.len();
    if n_pos == 0 || n_pos >= num_items {
        return None;
    }
    let n_neg = num_items - n_pos;
    let mut pos_sorted: Vec<ItemId> = positives.to_vec();
    pos_sorted.sort_unstable();

    let survivors = &result.items; // already sorted desc
    let is_pos: Vec<bool> = survivors
        .iter()
        .map(|(i, _)| pos_sorted.binary_search(i).is_ok())
        .collect();
    let pos_in_survivors = is_pos.iter().filter(|&&p| p).count();
    let pruned_pos = n_pos - pos_in_survivors;
    let pruned_neg = (num_items - survivors.len()) - pruned_pos;

    // Suffix counts: positives among survivors strictly below each rank.
    let mut pos_below = 0usize;
    let mut correct = 0.0f64;
    for rank in (0..survivors.len()).rev() {
        if is_pos[rank] {
            let below = survivors.len() - rank - 1;
            let neg_below = below - pos_below;
            correct += (neg_below + pruned_neg) as f64;
            pos_below += 1;
        }
    }

    // Pruned positives: tied with all pruned negatives → half credit.
    correct += pruned_pos as f64 * (pruned_neg as f64 / 2.0);

    Some(correct / (n_pos as f64 * n_neg as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::TfModel;
    use crate::scoring::Scorer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use taxrec_taxonomy::{Taxonomy, TaxonomyBuilder, TaxonomyGenerator, TaxonomyShape};

    fn tax() -> Arc<Taxonomy> {
        Arc::new(
            TaxonomyGenerator::new(TaxonomyShape {
                level_sizes: vec![4, 8, 16],
                num_items: 200,
                item_skew: 0.4,
            })
            .generate(&mut StdRng::seed_from_u64(3))
            .taxonomy,
        )
    }

    fn scorer_fixture() -> (TfModel, ()) {
        // Gaussian node init: inference tests need non-degenerate scores.
        let cfg = ModelConfig::tf(4, 0)
            .with_factors(6)
            .with_node_init_sigma(0.1);
        let m = TfModel::init(cfg, tax(), 8, 1);
        (m, ())
    }

    #[test]
    fn full_cascade_equals_exhaustive() {
        let (m, _) = scorer_fixture();
        let s = Scorer::new(&m);
        let q = s.query(0, &[]);
        let cfg = CascadeConfig::uniform(m.taxonomy().depth(), 1.0);
        let res = cascade(&s, &q, &cfg);
        assert_eq!(res.items.len(), m.num_items());
        // Order must match the exhaustive ranking.
        let top = s.top_k_items(&q, 10, &[]);
        for (a, b) in res.items.iter().take(10).zip(&top) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-6);
        }
    }

    #[test]
    fn tighter_beam_scores_fewer_nodes() {
        let (m, _) = scorer_fixture();
        let s = Scorer::new(&m);
        let q = s.query(1, &[]);
        let depth = m.taxonomy().depth();
        let full = cascade(&s, &q, &CascadeConfig::uniform(depth, 1.0));
        let half = cascade(&s, &q, &CascadeConfig::uniform(depth, 0.5));
        let tight = cascade(&s, &q, &CascadeConfig::uniform(depth, 0.1));
        assert!(half.scored_nodes < full.scored_nodes);
        assert!(tight.scored_nodes < half.scored_nodes);
        assert!(tight.items.len() < half.items.len());
    }

    #[test]
    fn survivors_are_sorted_and_are_leaves() {
        let (m, _) = scorer_fixture();
        let s = Scorer::new(&m);
        let q = s.query(2, &[]);
        let res = cascade(&s, &q, &CascadeConfig::uniform(m.taxonomy().depth(), 0.4));
        for w in res.items.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        for (i, _) in &res.items {
            assert!(m.taxonomy().node_item(m.taxonomy().item_node(*i)) == Some(*i));
        }
    }

    #[test]
    fn per_level_rankings_cover_all_levels() {
        let (m, _) = scorer_fixture();
        let s = Scorer::new(&m);
        let q = s.query(3, &[]);
        let res = cascade(&s, &q, &CascadeConfig::uniform(m.taxonomy().depth(), 0.6));
        assert_eq!(res.per_level.len(), m.taxonomy().depth());
        for (li, level) in res.per_level.iter().enumerate() {
            assert!(!level.is_empty(), "level {} kept nothing", li + 1);
            for (n, _) in level {
                assert_eq!(m.taxonomy().level(*n), li + 1);
            }
        }
    }

    #[test]
    fn leaf_only_config_keeps_upper_levels_full() {
        let (m, _) = scorer_fixture();
        let s = Scorer::new(&m);
        let q = s.query(4, &[]);
        let depth = m.taxonomy().depth();
        let res = cascade(&s, &q, &CascadeConfig::leaf_only(depth, 0.3));
        for (li, level) in res.per_level.iter().enumerate().take(depth - 1) {
            assert_eq!(
                level.len(),
                m.taxonomy().nodes_at_level(li + 1).len(),
                "level {} pruned",
                li + 1
            );
        }
        assert!(res.items.len() < m.num_items());
    }

    /// Items under the root, under a level-1 category and under a
    /// level-2 category, beside a regular bottom level.
    fn shallow_fixture() -> TfModel {
        let mut b = TaxonomyBuilder::new();
        let cats = b.add_children(b.root(), 3).unwrap();
        b.add_children(b.root(), 3).unwrap(); // items under the root
        for &c in &cats {
            let subs = b.add_children(c, 2).unwrap();
            b.add_children(c, 2).unwrap(); // items under level 1
            for &s in &subs {
                let subsubs = b.add_children(s, 2).unwrap();
                b.add_child(s).unwrap(); // item under level 2
                for &ss in &subsubs {
                    b.add_children(ss, 3).unwrap();
                }
            }
        }
        let cfg = ModelConfig::tf(5, 0)
            .with_factors(6)
            .with_node_init_sigma(0.1);
        TfModel::init(cfg, Arc::new(b.freeze()), 8, 5)
    }

    #[test]
    fn full_beam_reaches_items_above_the_bottom_level() {
        let m = shallow_fixture();
        let tax = m.taxonomy();
        assert!((1..=3).all(|l| tax
            .nodes_at_level(l)
            .iter()
            .any(|&n| tax.is_leaf(NodeId(n)))));
        let s = Scorer::new(&m);
        for u in 0..m.num_users() {
            let q = s.query(u, &[]);
            let res = cascade(&s, &q, &CascadeConfig::uniform(tax.depth(), 1.0));
            assert_eq!(res.scored_nodes, tax.num_nodes() - 1);
            for w in res.items.windows(2) {
                assert!(w[0].1 >= w[1].1, "user {u}: not sorted");
            }
            // Equal scores may order differently (the beam breaks ties
            // by level, the scan by item id): compare as sets.
            let mut got: Vec<(ItemId, u32)> =
                res.items.iter().map(|&(i, x)| (i, x.to_bits())).collect();
            let mut want: Vec<(ItemId, u32)> = s
                .top_k_items(&q, m.num_items(), &[])
                .iter()
                .map(|&(i, x)| (i, x.to_bits()))
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "user {u}");
        }
    }

    #[test]
    fn thin_beam_over_a_shallow_leaf_answers_with_it() {
        let m = shallow_fixture();
        let tax = m.taxonomy();
        let s = Scorer::new(&m);
        let mut hit = false;
        for u in 0..m.num_users() {
            let q = s.query(u, &[]);
            let best = s.rank_level(&q, 1)[0];
            // One kept node per level. When it is childless the levels
            // below see an empty frontier.
            let res = cascade(&s, &q, &CascadeConfig::uniform(tax.depth(), 0.01));
            assert_eq!(res.per_level[0], vec![best], "user {u}");
            if let Some(item) = tax.node_item(best.0) {
                hit = true;
                assert_eq!(res.items, vec![(item, best.1)], "user {u}");
                assert_eq!(res.scored_nodes, tax.nodes_at_level(1).len());
                assert!(res.per_level[1..].iter().all(|l| l.is_empty()));
            } else {
                assert_eq!(res.items.len(), 1, "user {u}");
            }
        }
        assert!(hit, "no user ranks a childless level-1 node first");
    }

    #[test]
    fn a_reused_beam_carries_nothing_between_requests() {
        let (regular, _) = scorer_fixture();
        let shallow = shallow_fixture();
        let mut reused = Beam::default();
        for round in 0..2 {
            for (m, cfg, k, exclude) in [
                (
                    &regular,
                    CascadeConfig::uniform(4, 0.4),
                    7,
                    &[ItemId(3)][..],
                ),
                (&shallow, CascadeConfig::uniform(4, 1.0), 50, &[][..]),
                (&regular, CascadeConfig::leaf_only(4, 0.05), 3, &[][..]),
                (
                    &shallow,
                    CascadeConfig::uniform(4, 0.01),
                    2,
                    &[ItemId(0)][..],
                ),
            ] {
                let s = Scorer::new(m);
                let q = s.query(round, &[]);
                // The ranked prefix of the unbounded walk.
                let full: Vec<(ItemId, f32)> = cascade(&s, &q, &cfg)
                    .items
                    .into_iter()
                    .filter(|(i, _)| !exclude.contains(i))
                    .take(k)
                    .collect();
                let index = WalkIndex::build(&s);
                let kernel = F32Kernel::detect();
                for index in [Some(&index), None] {
                    let (mut got, mut want) = (vec![(ItemId(9), 9.0)], Vec::new());
                    let counts =
                        reused.top_items_into(&s, kernel, index, &q, &cfg, k, exclude, &mut got);
                    let fresh = Beam::default()
                        .top_items_into(&s, kernel, index, &q, &cfg, k, exclude, &mut want);
                    assert_eq!(got, want, "round {round} {cfg:?}");
                    assert_eq!(counts, fresh, "round {round} {cfg:?}");
                    assert_eq!(got, full, "round {round} {cfg:?}");
                }
            }
        }
    }

    /// The engine's pruned bottom level against [`cascade`] (every child
    /// scored) on bounds that are tight: item offsets parallel to the
    /// query make each item's bound its exact score in real arithmetic,
    /// and hundreds of items share one f32 score, met largest id first.
    /// Live adds with offsets of their own fill the added lists out of
    /// id order. Without the rounding pad a list ends while a tied item
    /// with a smaller position is unseen.
    #[test]
    fn pruned_bottom_level_equals_the_full_one_on_tight_bounds() {
        use crate::recommend::{Backend, RecommendEngine, RecommendRequest};
        use rand::Rng;
        let k_dim = 8;
        let mut b = TaxonomyBuilder::new();
        let cats = b.add_children(NodeId::ROOT, 4).unwrap();
        for &c in &cats {
            b.add_children(c, 300).unwrap();
        }
        let tax = Arc::new(b.freeze());
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..4 {
            let mut model = TfModel::init(
                ModelConfig::tf(2, 0)
                    .with_factors(k_dim)
                    .with_node_init_sigma(1.0),
                Arc::clone(&tax),
                0,
                trial,
            );
            let dir: Vec<f32> = (0..k_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let offset = |model: &mut TfModel, node: usize, alpha: f32| {
                for (x, &u) in model.node_factors.row_mut(node).iter_mut().zip(&dir) {
                    *x = alpha * u;
                }
            };
            for &c in &cats {
                // Category rows far larger than the offsets below them,
                // so score rounding dwarfs the radius rounding.
                for x in model.node_factors.row_mut(c.index()) {
                    *x *= 8.0;
                }
                for (j, &leaf) in tax.children(c).iter().enumerate() {
                    offset(&mut model, leaf as usize, 0.01 + j as f32 * 1e-7);
                }
            }
            let users: Vec<usize> = [1.0f32, 3.0, -2.0]
                .iter()
                .map(|&beta| model.push_user(&dir.iter().map(|&u| beta * u).collect::<Vec<_>>()))
                .collect();
            let mut engine = RecommendEngine::new(Arc::new(model.clone()));
            for step in 0..=40 {
                if step % 20 == 0 {
                    let n = model.num_items() as u32;
                    let evens: Vec<ItemId> = (0..n).step_by(2).map(ItemId).collect();
                    for f in [0.3, 0.6, 1.0] {
                        let cfg = CascadeConfig::uniform(2, f);
                        let backend = Backend::Cascaded(cfg.clone());
                        for &user in &users {
                            let q = engine.scorer().query(user, &[]);
                            let full = cascade(engine.scorer(), &q, &cfg).items;
                            for exclude in [&[][..], &evens[..]] {
                                for k in [1, 10, 50, 400] {
                                    let want: Vec<(ItemId, u32)> = full
                                        .iter()
                                        .filter(|(i, _)| exclude.binary_search(i).is_err())
                                        .take(k)
                                        .map(|&(i, s)| (i, s.to_bits()))
                                        .collect();
                                    let req = RecommendRequest {
                                        user,
                                        history: &[],
                                        k,
                                        exclude,
                                    };
                                    let got: Vec<(ItemId, u32)> = engine
                                        .recommend_with(&req, &backend)
                                        .iter()
                                        .map(|&(i, s)| (i, s.to_bits()))
                                        .collect();
                                    assert_eq!(
                                        got,
                                        want,
                                        "trial {trial} step {step} f {f} user {user} k {k} \
                                         |exclude| {}",
                                        exclude.len()
                                    );
                                }
                            }
                        }
                    }
                }
                if step < 40 {
                    // Alternately parallel offsets that tie into the run
                    // above and random ones that raise the radius.
                    let c = cats[step % cats.len()];
                    let item = model.add_item_mut(c).unwrap();
                    let node = model.taxonomy().item_node(item).index();
                    if step % 2 == 0 {
                        offset(&mut model, node, 0.01 + rng.gen_range(0..300) as f32 * 1e-7);
                    } else {
                        for x in model.node_factors.row_mut(node) {
                            *x = rng.gen_range(-0.05..0.05);
                        }
                    }
                    engine = RecommendEngine::grown_from(
                        &engine,
                        Arc::new(model.clone()),
                        Backend::Exhaustive,
                    );
                }
            }
        }
    }

    #[test]
    fn zero_limits_return_nothing() {
        for m in [scorer_fixture().0, shallow_fixture()] {
            let s = Scorer::new(&m);
            let q = s.query(0, &[]);
            let cfg = CascadeConfig::uniform(m.taxonomy().depth(), 0.5);
            let index = WalkIndex::build(&s);
            let kernel = F32Kernel::detect();
            let mut beam = Beam::default();
            let mut out = vec![(ItemId(1), 1.0)];
            let (scored, kept) =
                beam.top_items_into(&s, kernel, Some(&index), &q, &cfg, 0, &[], &mut out);
            assert!(out.is_empty());
            assert!(scored > 0);
            assert_eq!(kept, 0);
            // k = 0 with exclusions still ranks |exclude| leaves and
            // returns none of them.
            let exclude = [ItemId(2), ItemId(5)];
            beam.top_items_into(&s, kernel, Some(&index), &q, &cfg, 0, &exclude, &mut out);
            assert!(out.is_empty());
            // A zero fraction keeps nothing at any level.
            let none = cascade(&s, &q, &CascadeConfig::uniform(m.taxonomy().depth(), 0.0));
            assert!(none.items.is_empty());
            assert!(none.per_level.iter().all(|l| l.is_empty()));
        }
    }

    #[test]
    fn cascaded_auc_with_full_beam_matches_exact() {
        let (m, _) = scorer_fixture();
        let s = Scorer::new(&m);
        let q = s.query(5, &[]);
        let res = cascade(&s, &q, &CascadeConfig::uniform(m.taxonomy().depth(), 1.0));
        let positives = vec![ItemId(3), ItemId(77)];
        let scores = s.score_all_items(&q);
        let exact = crate::metrics::auc(&scores, &[3, 77]).unwrap();
        let casc = cascaded_auc(&res, m.num_items(), &positives).unwrap();
        assert!(
            (exact - casc).abs() < 1e-9,
            "exact {exact} vs cascaded {casc}"
        );
    }

    #[test]
    fn cascaded_auc_pruned_positive_gets_half_credit() {
        // Craft a result with no survivors: every positive is pruned.
        let res = CascadeResult {
            items: vec![],
            per_level: vec![],
            scored_nodes: 0,
        };
        let got = cascaded_auc(&res, 10, &[ItemId(0)]).unwrap();
        assert!((got - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cascaded_auc_degenerate() {
        let res = CascadeResult {
            items: vec![],
            per_level: vec![],
            scored_nodes: 0,
        };
        assert_eq!(cascaded_auc(&res, 5, &[]), None);
    }

    #[test]
    fn accuracy_improves_with_wider_beam() {
        // Statistical property: averaged over users and positive draws,
        // a wider beam cannot hurt cascaded AUC (it only adds correctly
        // ordered survivors). Check on average.
        let (m, _) = scorer_fixture();
        let s = Scorer::new(&m);
        let depth = m.taxonomy().depth();
        let mut narrow_sum = 0.0;
        let mut wide_sum = 0.0;
        let mut n = 0;
        for u in 0..m.num_users() {
            let q = s.query(u, &[]);
            // Positive = the globally best item for the user: the cascade
            // should find it when the beam widens.
            let best = s.top_k_items(&q, 1, &[])[0].0;
            let narrow = cascade(&s, &q, &CascadeConfig::uniform(depth, 0.05));
            let wide = cascade(&s, &q, &CascadeConfig::uniform(depth, 0.6));
            narrow_sum += cascaded_auc(&narrow, m.num_items(), &[best]).unwrap();
            wide_sum += cascaded_auc(&wide, m.num_items(), &[best]).unwrap();
            n += 1;
        }
        assert!(n > 0);
        assert!(
            wide_sum >= narrow_sum,
            "wide {} < narrow {}",
            wide_sum / n as f64,
            narrow_sum / n as f64
        );
    }
}
