//! Differential test harness for catalog-sharded serving (ISSUE 4
//! acceptance): a deterministic oracle replays the *identical* request
//! stream through sharded and unsharded engines — exhaustive and
//! cascaded backends, with exclusions, empty histories, `K > catalog`,
//! and mid-stream live fold-ins / item adds — and asserts identical
//! scores (bit-for-bit), ids, and order at every step.
//!
//! The unsharded (`scan_shards = 1`) engine chain is the oracle;
//! candidate chains run at shard counts {2, 4}. Every chain evolves
//! through the real live machinery ([`LiveEngine::initial`] →
//! [`LiveEngine::next_from`] after each applied event), so the
//! incremental `grown_from` path — where a shard-routing bug would
//! silently drop or re-route appended items — is exactly what is under
//! test. A final cold-rebuild pass replays the recorded event log onto
//! a fresh state and re-compares, pinning `grown engine ≡ rebuilt
//! engine` at every shard count.
//!
//! A second test drives a long add stream (more than two chunks onto
//! the last shard at every shard count) and compares the grown engines
//! against a cold [`RecommendEngine::new`] on the final model for the
//! exhaustive, quantized and full-beam cascaded backends.

use taxrec_core::live::{LiveEngine, LiveState, UpdateEvent};
use taxrec_core::recommend::{Backend, QuantizedConfig, RecommendEngine, RecommendRequest};
use taxrec_core::{CascadeConfig, ModelConfig, TfTrainer};
use taxrec_dataset::{DatasetConfig, SyntheticDataset, Transaction};
use taxrec_taxonomy::{ItemId, NodeId};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// One engine lineage at a fixed shard count, evolved by live events.
struct Chain {
    scan_shards: usize,
    state: LiveState,
    engine: LiveEngine,
}

impl Chain {
    fn new(state: LiveState, scan_shards: usize) -> Chain {
        let engine = LiveEngine::initial(&state, Backend::Exhaustive, scan_shards);
        Chain {
            scan_shards,
            state,
            engine,
        }
    }

    fn apply(&mut self, ev: &UpdateEvent) {
        self.state.apply(ev).expect("scripted event must apply");
        self.engine = LiveEngine::next_from(&self.engine, &self.state);
        assert!(
            self.engine.verify_consistent(),
            "S={}: inconsistent snapshot after {ev:?}",
            self.scan_shards
        );
    }
}

/// Assert two responses are identical: same ids, same order, and
/// bit-for-bit equal scores.
fn assert_same(label: &str, want: &[(ItemId, f32)], got: &[(ItemId, f32)]) {
    assert_eq!(got.len(), want.len(), "{label}: length diverged");
    for (rank, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(g.0, w.0, "{label}: id at rank {rank}");
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "{label}: score bits at rank {rank} ({} vs {})",
            w.1,
            g.1
        );
    }
}

/// The probe: serve a fixed mix of requests through `engine` and return
/// every response. Covers empty histories, Markov histories, sorted
/// exclusion sets, tiny and over-catalog `k`, both backends, and the
/// batch path.
fn probe(
    engine: &RecommendEngine<std::sync::Arc<taxrec_core::TfModel>>,
) -> Vec<Vec<(ItemId, f32)>> {
    let model = engine.model();
    let n_users = model.num_users();
    let n_items = model.num_items();
    let depth = model.taxonomy().depth();
    let backends = [
        Backend::Exhaustive,
        Backend::Cascaded(CascadeConfig::uniform(depth, 0.4)),
        Backend::Cascaded(CascadeConfig::uniform(depth, 1.0)),
    ];
    let history: Vec<Transaction> = vec![
        vec![ItemId(1 % n_items as u32), ItemId(7 % n_items as u32)],
        vec![ItemId(12 % n_items as u32)],
    ];
    let mut exclude: Vec<ItemId> = (0..6).map(|i| ItemId((i * 13 % n_items) as u32)).collect();
    exclude.sort_unstable();
    exclude.dedup();

    let mut out = Vec::new();
    for backend in &backends {
        for (user, hist, excl, k) in [
            (0usize, &[][..], &[][..], 1usize),
            (n_users / 2, &history[..], &exclude[..], 10),
            (n_users - 1, &[][..], &exclude[..], n_items + 50), // K > catalog
            (1, &history[..], &[][..], 0),                      // K = 0
        ] {
            let req = RecommendRequest {
                user,
                history: hist,
                k,
                exclude: excl,
            };
            out.push(engine.recommend_with(&req, backend));
        }
    }
    // Batch path across several users at both thread counts.
    let requests: Vec<RecommendRequest<'_>> = (0..n_users.min(12))
        .map(|u| RecommendRequest::simple(u, 8))
        .collect();
    for threads in [1usize, 3] {
        out.extend(engine.recommend_batch(&requests, threads));
    }
    out
}

#[test]
fn sharded_serving_is_bit_identical_through_a_live_stream() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(60), 23);
    let model = TfTrainer::new(
        ModelConfig::tf(4, 1).with_factors(6).with_epochs(2),
        &d.taxonomy,
    )
    .fit(&d.train, 5);
    let parent_a = {
        let tax = model.taxonomy();
        tax.parent(tax.item_node(ItemId(0))).unwrap()
    };
    let parent_b = {
        let tax = model.taxonomy();
        tax.parent(tax.item_node(ItemId((model.num_items() - 1) as u32)))
            .unwrap()
    };

    let mut chains: Vec<Chain> = SHARD_COUNTS
        .iter()
        .map(|&s| Chain::new(LiveState::new(model.clone()), s))
        .collect();
    for (chain, &s) in chains.iter_mut().zip(&SHARD_COUNTS) {
        assert_eq!(
            chain.engine.engine().scan_shards(),
            s,
            "requested shard count"
        );
    }

    // The scripted update stream: item adds under two different
    // subtrees interleaved with fold-ins (whose factors depend on the
    // catalog size at application time — order is semantic).
    let fold = |user: usize, steps: usize, seed: u64| UpdateEvent::FoldInUser {
        history: d.train.user(user).to_vec(),
        steps,
        seed,
    };
    let script: Vec<UpdateEvent> = vec![
        UpdateEvent::AddItem { parent: parent_a },
        fold(3, 60, 1),
        UpdateEvent::AddItem { parent: parent_b },
        UpdateEvent::AddItem { parent: parent_a },
        fold(11, 40, 2),
        fold(27, 80, 3),
        UpdateEvent::AddItem { parent: parent_b },
        fold(42, 25, 4),
    ];

    // Step 0: identical before any update…
    let oracle0 = probe(chains[0].engine.engine());
    for chain in &chains[1..] {
        let got = probe(chain.engine.engine());
        for (i, (w, g)) in oracle0.iter().zip(&got).enumerate() {
            assert_same(
                &format!("pre-stream S={} probe {i}", chain.scan_shards),
                w,
                g,
            );
        }
    }

    // …and after EVERY event in the stream.
    for (step, ev) in script.iter().enumerate() {
        for chain in chains.iter_mut() {
            chain.apply(ev);
        }
        let oracle = probe(chains[0].engine.engine());
        for chain in &chains[1..] {
            let got = probe(chain.engine.engine());
            assert_eq!(got.len(), oracle.len());
            for (i, (w, g)) in oracle.iter().zip(&got).enumerate() {
                assert_same(
                    &format!("step {step} ({ev:?}) S={} probe {i}", chain.scan_shards),
                    w,
                    g,
                );
            }
        }
        // Appended items routed to the last shard: the shard layout
        // still tiles the grown catalog (checked via verify_consistent
        // in apply) and the shard count never changes.
        for (chain, &s) in chains.iter().zip(&SHARD_COUNTS) {
            assert_eq!(
                chain.engine.engine().scan_shards(),
                s,
                "shard count drifted"
            );
        }
    }

    // Folded users are servable and identical across shard counts.
    let folded_base = chains[0].engine.base_users();
    let folded_total = chains[0].engine.model().num_users();
    assert_eq!(folded_total, folded_base + 4, "4 fold-ins applied");
    for user in folded_base..folded_total {
        let hist = chains[0]
            .engine
            .folded_history(user)
            .expect("folded history present")
            .to_vec();
        let req = RecommendRequest {
            user,
            history: &hist,
            k: 10,
            exclude: &[],
        };
        let want = chains[0].engine.engine().recommend(&req);
        for chain in &chains[1..] {
            assert_same(
                &format!("folded user {user} S={}", chain.scan_shards),
                &want,
                &chain.engine.engine().recommend(&req),
            );
        }
    }

    // Cold rebuild: replay the recorded stream over a fresh state and
    // build a fresh engine per shard count — must equal the grown
    // chains bit-for-bit (scores, ids, order) as well.
    let oracle = probe(chains[0].engine.engine());
    for &s in &SHARD_COUNTS {
        let mut rebuilt = LiveState::new(model.clone());
        taxrec_core::live::replay(&mut rebuilt, &script).expect("replay");
        let engine = LiveEngine::initial(&rebuilt, Backend::Exhaustive, s);
        assert!(engine.verify_consistent());
        let got = probe(engine.engine());
        for (i, (w, g)) in oracle.iter().zip(&got).enumerate() {
            assert_same(&format!("cold rebuild S={s} probe {i}"), w, g);
        }
    }

    // Sanity on the script itself: it really grew the catalog, so the
    // sharded tail path was exercised (not a no-op stream).
    assert_eq!(
        chains[0].engine.model().num_items(),
        model.num_items() + 4,
        "scripted adds landed"
    );
    let _ = NodeId::ROOT;
}

/// A long add stream: the last shard grows by more than two
/// `COW_CHUNK_ROWS` chunks at every shard count, and at each checkpoint
/// — around every chunk boundary — the grown engine serves exactly what
/// a cold engine over the same model serves. Every add goes through
/// [`LiveState::apply`] with a publish behind it, which is the schedule
/// that recycles the taxonomy arena.
#[test]
fn long_add_stream_across_chunk_boundaries_matches_a_cold_engine() {
    const ADDS: usize = 2 * taxrec_factors::COW_CHUNK_ROWS + 100;
    let mut cfg = DatasetConfig::tiny().with_users(40);
    cfg.shape.num_items = 2048;
    let d = SyntheticDataset::generate(&cfg, 29);
    let model = TfTrainer::new(
        ModelConfig::tf(4, 1).with_factors(6).with_epochs(1),
        &d.taxonomy,
    )
    .fit(&d.train, 5);
    let tax = model.taxonomy();
    let interior: Vec<NodeId> = tax
        .node_ids()
        .filter(|&n| !tax.is_leaf(n) && tax.level(n) > 0)
        .collect();
    let depth = tax.depth();
    let backends = [
        Backend::Exhaustive,
        Backend::Quantized(QuantizedConfig::default()),
        Backend::Cascaded(CascadeConfig::uniform(depth, 1.0)),
    ];
    let history: Vec<Transaction> = vec![vec![ItemId(1), ItemId(7)], vec![ItemId(12)]];
    let exclude = [ItemId(0), ItemId(13), ItemId(2047)];

    let shard_counts = [1usize, 2, 3];
    let mut chains: Vec<Chain> = shard_counts
        .iter()
        .map(|&s| Chain::new(LiveState::new(model.clone()), s))
        .collect();

    for step in 1..=ADDS {
        // Mostly one hot category (long runs inside one CSR slot), with
        // the others mixed in.
        let parent = interior[if step % 3 == 0 {
            step % interior.len()
        } else {
            0
        }];
        for chain in chains.iter_mut() {
            chain.apply(&UpdateEvent::AddItem { parent });
        }
        let around_boundary = step % taxrec_factors::COW_CHUNK_ROWS <= 1;
        if !(around_boundary || step == ADDS) {
            continue;
        }
        let cold = RecommendEngine::new(chains[0].state.model());
        let n_items = cold.model().num_items();
        let n_users = cold.model().num_users();
        for (user, hist, excl, k) in [
            (0usize, &[][..], &[][..], 10usize),
            (n_users / 2, &history[..], &exclude[..], 25),
            (n_users - 1, &history[..], &[][..], n_items + 5), // full ranking
        ] {
            let req = RecommendRequest {
                user,
                history: hist,
                k,
                exclude: excl,
            };
            for backend in &backends {
                let want = cold.recommend_with(&req, backend);
                for chain in &chains {
                    assert_same(
                        &format!(
                            "add {step} S={} {backend:?} user {user} k {k}",
                            chain.scan_shards
                        ),
                        &want,
                        &chain.engine.engine().recommend_with(&req, backend),
                    );
                }
            }
        }
    }

    for chain in &chains {
        assert_eq!(chain.engine.model().num_items(), 2048 + ADDS);
        // `Chain::apply` publishes after every add and drops the epoch
        // before, so past the first two copies every add ran on the
        // retired epoch's arena with the missed push replayed — the
        // arena `Cascaded` walked the child lists of at each checkpoint.
        assert_eq!(
            chain.state.arena_recycles() + chain.state.arena_copies(),
            ADDS as u64
        );
        assert!(
            chain.state.arena_copies() <= 2,
            "S={}: {} arena copies",
            chain.scan_shards,
            chain.state.arena_copies()
        );
    }
}
