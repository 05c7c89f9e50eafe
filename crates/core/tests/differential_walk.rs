//! Differential suite of the radius-bound walk: `Backend::Walk` must
//! serve exactly what `Backend::Exhaustive` serves — the same ids in
//! the same order with the same score bits — on every model, live
//! history, `k` and exclusion set below.
//!
//! The models are built to break a walk that cuts corners:
//!
//! * **ties** — zero-initialised offsets trained for one short epoch
//!   over a sparse log, and `U` drawn below the tree depth: unbought
//!   items score exactly what their category scores, and whole upper
//!   levels score exactly 0. Only a *strict* stop visits every tied
//!   item that may still win on the id tie-break;
//! * **shallow leaves** — items directly under the root and under
//!   level-1 categories beside child categories, in generated trees and
//!   through live adds.
//!
//! Models that need offsets training never writes — tight bounds that
//! only the f32 rounding pad keeps above a computed score, appended
//! items with non-zero offsets that must raise every ancestor's radius
//! — and the proptest over random trees and factors are the unit tests
//! of `recommend/walk.rs`, which can write the offset table.
//!
//! CI runs this file and those unit tests in release and under
//! `TAXREC_SCAN_KERNEL=scalar` and `=simd`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Deref;
use std::sync::Arc;
use taxrec_core::live::{LiveEngine, LiveState, UpdateEvent};
use taxrec_core::recommend::{Backend, RecommendEngine, RecommendRequest};
use taxrec_core::{ModelConfig, TfModel, TfTrainer};
use taxrec_dataset::{DatasetConfig, SyntheticDataset, Transaction};
use taxrec_factors::COW_CHUNK_ROWS;
use taxrec_taxonomy::{ItemId, NodeId, TaxonomyBuilder, TaxonomyShape};

fn bits(list: &[(ItemId, f32)]) -> Vec<(ItemId, u32)> {
    list.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

/// Every user × exclusion set × `k` through both backends of `engine`,
/// then the walk's batch path at 1, 2 and 8 threads.
fn check<M: Deref<Target = TfModel> + Sync>(
    engine: &RecommendEngine<M>,
    users: &[(usize, Vec<Transaction>)],
    label: &str,
) {
    let n = engine.model().num_items() as u32;
    let excludes: [Vec<ItemId>; 3] = [
        Vec::new(),
        (0..n).step_by(2).map(ItemId).collect(),
        (0..n).map(ItemId).collect(),
    ];
    for (user, history) in users {
        for (e, exclude) in excludes.iter().enumerate() {
            for k in [0, 1, 10, n as usize + 7, usize::MAX] {
                let req = RecommendRequest {
                    user: *user,
                    history,
                    k,
                    exclude,
                };
                let want = engine.recommend_with(&req, &Backend::Exhaustive);
                let got = engine.recommend_with(&req, &Backend::Walk);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{label}: user {user} exclude#{e} k {k}"
                );
                if e == 2 {
                    assert!(got.is_empty(), "{label}: whole catalog excluded");
                }
            }
        }
    }
    let requests: Vec<RecommendRequest<'_>> = users
        .iter()
        .map(|(user, history)| RecommendRequest {
            user: *user,
            history,
            k: 10,
            exclude: &excludes[1],
        })
        .collect();
    let want: Vec<_> = requests
        .iter()
        .map(|r| bits(&engine.recommend_with(r, &Backend::Exhaustive)))
        .collect();
    for threads in [1usize, 2, 8] {
        let got: Vec<_> = engine
            .recommend_batch_with(&requests, threads, &Backend::Walk)
            .iter()
            .map(|r| bits(r))
            .collect();
        assert_eq!(got, want, "{label}: batch at {threads} threads");
    }
}

/// A random skewed taxonomy of 2–4 levels with a short sparse log.
fn dataset(rng: &mut StdRng, seed: u64) -> SyntheticDataset {
    let interior_levels = rng.gen_range(1..4usize);
    let mut level_sizes = Vec::new();
    // At least three bottom categories: the log generator draws three
    // distinct favourite categories per user.
    let mut size = rng.gen_range(3..6usize);
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

/// A deepest category, a level-1 category and the root: the three
/// kinds of parent a live add can name.
fn add_parents(model: &TfModel) -> [NodeId; 3] {
    let tax = model.taxonomy();
    [
        tax.parent(tax.item_node(ItemId(0)))
            .expect("items have parents"),
        NodeId(tax.nodes_at_level(1)[0]),
        NodeId::ROOT,
    ]
}

/// A live engine lineage on the walk backend, grown event by event.
struct Chain {
    state: LiveState,
    engine: LiveEngine,
}

impl Chain {
    fn new(model: &TfModel) -> Chain {
        let state = LiveState::new(model.clone());
        let engine = LiveEngine::initial(&state, Backend::Walk, 1);
        Chain { state, engine }
    }

    fn apply(&mut self, ev: &UpdateEvent) {
        self.state.apply(ev).expect("scripted event must apply");
        self.engine = LiveEngine::next_from(&self.engine, &self.state);
    }
}

#[test]
fn tie_heavy_trained_models_through_a_live_stream() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x5A1C_0000 + seed);
        let d = dataset(&mut rng, seed);
        let depth = d.taxonomy.depth();
        // U below the depth leaves the upper levels without factors.
        let update_levels = rng.gen_range(1..=depth + 1);
        let b = if seed % 2 == 0 { 0 } else { 2 };
        let model = TfTrainer::new(
            ModelConfig::tf(update_levels, b)
                .with_factors(rng.gen_range(3..9))
                .with_epochs(1),
            &d.taxonomy,
        )
        .fit(&d.train, seed);
        let parents = add_parents(&model);
        let n_users = model.num_users();
        let mut users: Vec<(usize, Vec<Transaction>)> = vec![
            (0, Vec::new()),
            (n_users / 2, d.train.user(n_users / 2).to_vec()),
            (n_users - 1, d.train.user(n_users - 1).to_vec()),
        ];
        let mut chain = Chain::new(&model);
        check(
            chain.engine.engine(),
            &users,
            &format!("model {seed} initial"),
        );
        for step in 0..12u64 {
            let ev = if step % 4 == 3 {
                UpdateEvent::FoldInUser {
                    history: d.train.user(rng.gen_range(0..n_users)).to_vec(),
                    steps: rng.gen_range(5..40),
                    seed: seed * 100 + step,
                }
            } else {
                // Runs under one parent: zero-offset siblings that tie
                // with their parent and with each other.
                UpdateEvent::AddItem {
                    parent: parents[(step / 2) as usize % parents.len()],
                }
            };
            chain.apply(&ev);
            if let UpdateEvent::FoldInUser { history, .. } = &ev {
                users.push((chain.engine.model().num_users() - 1, history.clone()));
            }
            if step % 3 == 2 {
                check(
                    chain.engine.engine(),
                    &users,
                    &format!("model {seed} (U={update_levels}, B={b}) step {step}"),
                );
            }
        }
    }
}

#[test]
fn three_hundred_adds_across_a_chunk_boundary() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(60), 29);
    let model = TfTrainer::new(
        ModelConfig::tf(4, 2).with_factors(6).with_epochs(2),
        &d.taxonomy,
    )
    .fit(&d.train, 5);
    let parents = add_parents(&model);
    let users: Vec<(usize, Vec<Transaction>)> = [0usize, 17, 59]
        .iter()
        .map(|&u| (u, d.train.user(u).to_vec()))
        .collect();
    let mut chain = Chain::new(&model);
    let start_nodes = model.taxonomy().num_nodes();
    let adds = 300.max(COW_CHUNK_ROWS + 2 - start_nodes % COW_CHUNK_ROWS);
    for step in 0..adds {
        chain.apply(&UpdateEvent::AddItem {
            parent: parents[step % parents.len()],
        });
        let nodes = chain.engine.model().taxonomy().num_nodes();
        if nodes % COW_CHUNK_ROWS <= 1 || step + 1 == adds {
            check(
                chain.engine.engine(),
                &users,
                &format!("{nodes} nodes after {} adds", step + 1),
            );
        }
    }
    assert!(
        chain.engine.model().taxonomy().num_nodes() / COW_CHUNK_ROWS > start_nodes / COW_CHUNK_ROWS
    );
}

/// A hand-built tree with leaves at every depth: items under the root
/// and under level-1 categories beside child categories.
fn shallow_tree() -> taxrec_taxonomy::Taxonomy {
    let mut b = TaxonomyBuilder::new();
    let root = NodeId::ROOT;
    b.add_children(root, 3).unwrap();
    let top = b.add_children(root, 3).unwrap();
    for (i, &c) in top.iter().enumerate() {
        b.add_children(c, 2 + i).unwrap();
        for mid in b.add_children(c, 2).unwrap() {
            b.add_children(mid, 5 + 3 * i).unwrap();
        }
    }
    b.freeze()
}

#[test]
fn shallow_leaves_with_and_without_offsets() {
    let tax = Arc::new(shallow_tree());
    for (sigma, b) in [(0.0f32, 0usize), (0.3, 0), (0.3, 2), (0.0, 2)] {
        let model = TfModel::init(
            ModelConfig::tf(3, b)
                .with_factors(5)
                .with_node_init_sigma(sigma),
            Arc::clone(&tax),
            6,
            11,
        );
        let users: Vec<(usize, Vec<Transaction>)> = (0..6)
            .map(|u| (u, vec![vec![ItemId(u as u32)], vec![ItemId(2), ItemId(9)]]))
            .collect();
        let engine = RecommendEngine::with_backend(&model, Backend::Walk);
        check(&engine, &users, &format!("shallow sigma {sigma} B={b}"));
    }
}
