//! Differential test of the cascaded beam walk (ISSUE 24): the
//! function `inference::cascade` replaced is kept here verbatim as
//! [`cascade_reference`] — the role `Backend::Exhaustive` plays for the
//! blocked scans — and every result the new walk produces must equal
//! it **bit for bit**: `per_level`, `items`, `scored_nodes`, and the
//! engine's `Backend::Cascaded` top-`k` against
//! `reference.items.filter(exclude).take(k)`.
//!
//! The models are built to tie: node offsets start at zero, training is
//! one short epoch over a sparse log (items never bought score exactly
//! what their untrained siblings score), `U` is drawn below the tree
//! depth on some models (every upper-level node then scores exactly 0)
//! and the live stream adds runs of items under one category (a new
//! item scores what its parent scores). An unstable selection that
//! forgets the frontier position, a leaf cut that forgets the exclude
//! list, or a leaf cut applied above the leaves all change an answer
//! here.
//!
//! Every taxonomy keeps its leaves on the bottom level (the generator's
//! shape, and adds go under a bottom-level category): that is the
//! domain on which the old function is an oracle. Leaves above the
//! bottom level — which it dropped — are covered by the unit tests in
//! `inference.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::ops::Deref;
use taxrec_core::live::{LiveEngine, LiveState, UpdateEvent};
use taxrec_core::recommend::{Backend, RecommendRequest};
use taxrec_core::{cascade, CascadeConfig, CascadeResult, ModelConfig, Scorer, TfModel, TfTrainer};
use taxrec_dataset::{DatasetConfig, SyntheticDataset, Transaction};
use taxrec_taxonomy::{ItemId, NodeId, TaxonomyShape};

const MODELS: u64 = 12;
const SHARD_COUNTS: [usize; 3] = [1, 2, 3];
const FRACTIONS: [f64; 5] = [0.01, 0.05, 0.3, 0.6, 1.0];

/// `CascadeConfig::fraction` (private to the crate), as at the parent
/// commit.
fn fraction(config: &CascadeConfig, level: usize) -> f64 {
    config
        .keep_fractions
        .get(level - 1)
        .copied()
        .unwrap_or(1.0)
        .clamp(0.0, 1.0)
}

/// `inference::cascade` as it stood before the beam walk: a fresh
/// frontier, a stable full sort and a truncate per level.
fn cascade_reference<M: Deref<Target = TfModel>>(
    scorer: &Scorer<M>,
    query: &[f32],
    config: &CascadeConfig,
) -> CascadeResult {
    let tax = scorer.model().taxonomy();
    let depth = tax.depth();
    let mut per_level: Vec<Vec<(NodeId, f32)>> = Vec::with_capacity(depth);
    let mut scored_nodes = 0usize;

    // Frontier starts at level 1 (children of the root).
    let mut frontier: Vec<NodeId> = tax.children_ids(NodeId::ROOT).collect();
    for level in 1..=depth {
        let mut scored: Vec<(NodeId, f32)> = frontier
            .iter()
            .map(|&n| (n, scorer.score_node(query, n)))
            .collect();
        scored_nodes += scored.len();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));

        let level_size = tax.nodes_at_level(level).len().max(1);
        let keep = ((fraction(config, level) * level_size as f64).ceil() as usize).clamp(
            if fraction(config, level) > 0.0 { 1 } else { 0 },
            scored.len(),
        );
        scored.truncate(keep);

        frontier = scored
            .iter()
            .flat_map(|(n, _)| tax.children_ids(*n))
            .collect();
        per_level.push(scored);
    }

    // The last level's kept nodes are leaves = items.
    let items: Vec<(ItemId, f32)> = per_level
        .last()
        .map(|leafs| {
            leafs
                .iter()
                .filter_map(|&(n, s)| tax.node_item(n).map(|i| (i, s)))
                .collect()
        })
        .unwrap_or_default();

    CascadeResult {
        items,
        per_level,
        scored_nodes,
    }
}

/// Ids and score *bits* of a ranked list.
fn bits<T: Copy>(list: &[(T, f32)]) -> Vec<(T, u32)> {
    list.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

/// A random skewed taxonomy of 2–4 levels with a short sparse log.
fn dataset(rng: &mut StdRng, seed: u64) -> SyntheticDataset {
    let interior_levels = rng.gen_range(1..4usize);
    let mut level_sizes = Vec::new();
    let mut size = rng.gen_range(2..5usize);
    for _ in 0..interior_levels {
        level_sizes.push(size);
        size *= rng.gen_range(2..5usize);
    }
    let mut cfg = DatasetConfig::tiny().with_users(rng.gen_range(12..40));
    cfg.shape = TaxonomyShape {
        level_sizes,
        num_items: rng.gen_range(60..420),
        item_skew: rng.gen_range(0.2..1.4),
    };
    SyntheticDataset::generate(&cfg, seed)
}

/// One engine lineage per shard count, evolved by the same events.
struct Chains {
    states: Vec<LiveState>,
    engines: Vec<LiveEngine>,
}

impl Chains {
    fn new(model: &TfModel) -> Chains {
        let states: Vec<LiveState> = SHARD_COUNTS
            .iter()
            .map(|_| LiveState::new(model.clone()))
            .collect();
        let engines = states
            .iter()
            .zip(SHARD_COUNTS)
            .map(|(state, shards)| LiveEngine::initial(state, Backend::Exhaustive, shards))
            .collect();
        Chains { states, engines }
    }

    fn apply(&mut self, ev: &UpdateEvent) {
        for (state, engine) in self.states.iter_mut().zip(self.engines.iter_mut()) {
            state.apply(ev).expect("scripted event must apply");
            *engine = LiveEngine::next_from(engine, state);
        }
    }

    /// New walk ≡ reference for every fraction and both config shapes,
    /// then the engine's cascaded top-`k` at every shard count, single
    /// and batched, against the reference list filtered and cut.
    fn check(&self, label: &str, users: &[(usize, Vec<Transaction>)]) {
        let oracle = self.engines[0].engine();
        let tax = oracle.model().taxonomy();
        let depth = tax.depth();
        let n_items = oracle.model().num_items();
        let everything: Vec<ItemId> = tax.item_ids().collect();
        for f in FRACTIONS {
            for cfg in [
                CascadeConfig::uniform(depth, f),
                CascadeConfig::leaf_only(depth, f),
            ] {
                let label = format!("{label} {cfg:?}");
                let backend = Backend::Cascaded(cfg.clone());
                let mut requests = Vec::new();
                let mut expected = Vec::new();
                let mut excludes = Vec::new();
                for (user, history) in users {
                    let query = oracle.scorer().query(*user, history);
                    let want = cascade_reference(oracle.scorer(), &query, &cfg);
                    let got = cascade(oracle.scorer(), &query, &cfg);
                    assert_eq!(got.scored_nodes, want.scored_nodes, "{label} user {user}");
                    assert_eq!(
                        bits(&got.items),
                        bits(&want.items),
                        "{label} user {user}: items"
                    );
                    assert_eq!(got.per_level.len(), want.per_level.len());
                    for (level, (g, w)) in got.per_level.iter().zip(&want.per_level).enumerate() {
                        assert_eq!(bits(g), bits(w), "{label} user {user}: level {}", level + 1);
                    }

                    // The beam's own best items, so every exclusion
                    // removes a row the cut must have kept a spare for.
                    let mut small: Vec<ItemId> =
                        want.items.iter().take(5).map(|&(i, _)| i).collect();
                    small.sort_unstable();
                    excludes.push((
                        *user,
                        history,
                        want,
                        [Vec::new(), small, everything.clone()],
                    ));
                }
                for (user, history, want, lists) in &excludes {
                    for exclude in lists {
                        for k in [0usize, 1, 20, n_items + 7] {
                            requests.push(RecommendRequest {
                                user: *user,
                                history,
                                k,
                                exclude,
                            });
                            expected.push(
                                want.items
                                    .iter()
                                    .filter(|(i, _)| exclude.binary_search(i).is_err())
                                    .take(k)
                                    .copied()
                                    .collect::<Vec<_>>(),
                            );
                        }
                    }
                }
                for (live, shards) in self.engines.iter().zip(SHARD_COUNTS) {
                    let engine = live.engine();
                    for (req, want) in requests.iter().zip(&expected) {
                        assert_eq!(
                            bits(&engine.recommend_with(req, &backend)),
                            bits(want),
                            "{label} S={shards} user {} k {} |exclude| {}",
                            req.user,
                            req.k,
                            req.exclude.len()
                        );
                    }
                    for threads in [1usize, 3] {
                        let got = engine.recommend_batch_with(&requests, threads, &backend);
                        assert_eq!(got.len(), expected.len());
                        for ((req, got), want) in requests.iter().zip(&got).zip(&expected) {
                            assert_eq!(
                                bits(got),
                                bits(want),
                                "{label} S={shards} threads {threads} user {} k {} |exclude| {}",
                                req.user,
                                req.k,
                                req.exclude.len()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn beam_walk_is_bit_identical_to_the_full_sort_cascade() {
    let mut ties_seen = 0usize;
    for seed in 0..MODELS {
        let mut rng = StdRng::seed_from_u64(0xCA5C_ADE0 + seed);
        let d = dataset(&mut rng, seed);
        let depth = d.taxonomy.depth();
        // U below the depth leaves the upper levels without factors:
        // every node there scores exactly 0.
        let update_levels = rng.gen_range(1..=depth + 1);
        let model = TfTrainer::new(
            ModelConfig::tf(update_levels, 1)
                .with_factors(rng.gen_range(3..9))
                .with_epochs(1),
            &d.taxonomy,
        )
        .fit(&d.train, seed);
        let bottom_categories: Vec<NodeId> = {
            let tax = model.taxonomy();
            tax.nodes_at_level(depth - 1)
                .iter()
                .map(|&n| NodeId(n))
                .collect()
        };

        let mut chains = Chains::new(&model);
        let n_users = model.num_users();
        let mut users: Vec<(usize, Vec<Transaction>)> = vec![
            (0, Vec::new()),
            (n_users / 2, d.train.user(n_users / 2).to_vec()),
        ];
        chains.check(&format!("model {seed} initial"), &users);

        let mut hot = bottom_categories[rng.gen_range(0..bottom_categories.len())];
        for step in 0..10 {
            let ev = if step % 4 == 3 {
                let from = rng.gen_range(0..n_users);
                UpdateEvent::FoldInUser {
                    history: d.train.user(from).to_vec(),
                    steps: rng.gen_range(5..40),
                    seed: seed * 100 + step,
                }
            } else {
                // Runs under one category: zero-offset siblings that
                // score what their parent scores.
                if rng.gen_range(0..3) == 0 {
                    hot = bottom_categories[rng.gen_range(0..bottom_categories.len())];
                }
                UpdateEvent::AddItem { parent: hot }
            };
            chains.apply(&ev);
            if let UpdateEvent::FoldInUser { history, .. } = &ev {
                let folded = chains.engines[0].model().num_users() - 1;
                users.push((folded, history.clone()));
            }
            if step % 3 == 2 || step == 9 {
                chains.check(&format!("model {seed} step {step}"), &users);
            }
        }

        // The point of the construction: the full-beam ranking of this
        // model really does contain equal scores.
        let scorer = chains.engines[0].engine().scorer();
        let full = cascade(
            scorer,
            &scorer.query(0, &[]),
            &CascadeConfig::uniform(depth, 1.0),
        );
        ties_seen += full
            .items
            .windows(2)
            .filter(|w| w[0].1.to_bits() == w[1].1.to_bits())
            .count();
    }
    assert!(
        ties_seen > 100,
        "only {ties_seen} tied neighbours: the tie-break went untested"
    );
}
