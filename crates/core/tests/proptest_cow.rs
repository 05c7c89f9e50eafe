//! Copy-on-write model semantics (ISSUE 5 acceptance):
//!
//! * applying an arbitrary event stream to the structurally-shared
//!   model yields results **bit-identical** to applying it to a fully
//!   independent deep-cloned model — scores, persisted bytes, and every
//!   user's top-K;
//! * untouched chunks are `Arc`-shared (pointer-equal) across K
//!   successive publishes, while a mutated chunk is not — publishes
//!   really are O(rows touched), not O(model);
//! * the same holds for the *derived* tables (effective factors, scan
//!   shards) however long the appended tail already is: one more add
//!   copies at most one chunk per table, a fold-in none.

// The vendored proptest! macro is recursive over the body; long
// properties need more headroom.
#![recursion_limit = "2048"]

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use taxrec_core::live::{replay, snapshot::encode_live, LiveEngine, LiveState, UpdateEvent};
use taxrec_core::{
    persist, Backend, ModelConfig, RecommendEngine, RecommendRequest, Scorer, TfModel, TfTrainer,
};
use taxrec_dataset::{DatasetConfig, SyntheticDataset, Transaction};
use taxrec_taxonomy::NodeId;

struct Fixture {
    data: SyntheticDataset,
    model: TfModel,
    interior: Vec<NodeId>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        // 600 users so the user matrix spans several 256-row chunks —
        // the sharing assertions below need untouched *interior* chunks
        // to exist, not just a tail.
        let data = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(600), 11);
        let model = TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(6).with_epochs(1),
            &data.taxonomy,
        )
        .fit(&data.train, 1);
        let tax = model.taxonomy();
        let interior: Vec<NodeId> = tax
            .node_ids()
            .filter(|&n| tax.node_item(n).is_none() && tax.level(n) > 0)
            .collect();
        assert!(!interior.is_empty());
        Fixture {
            data,
            model,
            interior,
        }
    })
}

fn make_event(fix: &Fixture, kind: u8, salt: u16) -> UpdateEvent {
    if kind == 0 {
        UpdateEvent::AddItem {
            parent: fix.interior[salt as usize % fix.interior.len()],
        }
    } else {
        let user = salt as usize % fix.data.train.num_users();
        let hist = fix.data.train.user(user);
        let keep = 1 + (salt as usize % hist.len().max(1));
        let history: Vec<Transaction> = hist.iter().take(keep).cloned().collect();
        UpdateEvent::FoldInUser {
            history,
            steps: 15 + (salt as usize % 40),
            seed: salt as u64,
        }
    }
}

/// The equivalence property: the COW path (shared chunks, successor
/// engines derived incrementally batch by batch) and a deep-cloned
/// reference (zero shared storage) agree bit-for-bit after any event
/// stream.
fn check_cow_equals_deep_clone(spec: &[(u8, u16)], batch: usize) {
    let fix = fixture();
    let events: Vec<UpdateEvent> = spec.iter().map(|&(k, s)| make_event(fix, k, s)).collect();

    let mut cow = LiveState::new(fix.model.clone());
    let deep_base = fix.model.deep_clone();
    // The deep clone is a real isolation control: nothing shared.
    assert_eq!(deep_base.chunk_sharing_with(&fix.model).0, 0);
    let mut deep = LiveState::new(deep_base);

    // COW path mirrors the applier: publish after every batch, each
    // engine derived from its predecessor by structural sharing.
    let mut engine = LiveEngine::initial(&cow, Backend::Exhaustive, 1);
    for chunk in events.chunks(batch.max(1)) {
        replay(&mut cow, chunk).unwrap();
        engine = LiveEngine::next_from(&engine, &cow);
    }
    replay(&mut deep, &events).unwrap();

    // Bit-identical parameters (config + taxonomy + all three factor
    // matrices) and bit-identical live snapshots (adds folded users).
    assert_eq!(persist::encode(cow.model()), persist::encode(deep.model()));
    assert_eq!(encode_live(&cow), encode_live(&deep));

    // Identical serving: every user's top-K through the incrementally
    // derived engine chain vs a cold engine over the deep model.
    let deep_engine = RecommendEngine::new(deep.model());
    let users = deep.model().num_users();
    for u in 0..users {
        let req = RecommendRequest::simple(u, 10);
        assert_eq!(
            engine.engine().recommend(&req),
            deep_engine.recommend(&req),
            "top-K diverged for user {u}"
        );
    }
    // And identical raw scores over the whole (grown) catalog.
    let cow_scorer = Scorer::new(cow.model());
    let deep_scorer = Scorer::new(deep.model());
    for u in [0usize, users / 2, users - 1] {
        let q1 = cow_scorer.query(u, &[]);
        let q2 = deep_scorer.query(u, &[]);
        assert_eq!(q1, q2);
        assert_eq!(
            cow_scorer.score_all_items(&q1),
            deep_scorer.score_all_items(&q2)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cow_model_is_bit_identical_to_deep_cloned_model(
        spec in proptest::collection::vec((0u8..2, any::<u16>()), 1..8),
        batch in 1usize..4,
    ) {
        check_cow_equals_deep_clone(&spec, batch);
    }
}

/// K successive publishes: every chunk a batch did not touch stays
/// pointer-shared with the previous epoch's model, the touched tail
/// chunk does not, and the first chunks survive all K epochs untouched.
#[test]
fn untouched_chunks_are_shared_across_successive_publishes() {
    let fix = fixture();
    let mut state = LiveState::new(fix.model.clone());
    const K: usize = 6;

    let mut epochs: Vec<TfModel> = vec![state.model().clone()];
    for i in 0..K {
        // Alternate: AddItem touches the node matrices' tails, FoldIn
        // touches the user matrix's tail.
        let ev = make_event(fix, (i % 2) as u8, i as u16 * 31);
        state.apply(&ev).unwrap();
        epochs.push(state.model().clone());
        let prev = &epochs[epochs.len() - 2];
        let next = &epochs[epochs.len() - 1];
        let [pu, pn, px] = prev.cow_matrices();
        let [nu, nn, nx] = next.cow_matrices();
        match ev {
            UpdateEvent::AddItem { .. } => {
                // User matrix untouched: all chunks shared.
                assert_eq!(nu.shared_chunks_with(pu), (pu.num_chunks() as u64, 0));
                // Node matrices: at most the tail chunk copied/appended.
                for (n, p) in [(nn, pn), (nx, px)] {
                    let (shared, copied) = n.shared_chunks_with(p);
                    assert!(copied <= 1, "one AddItem copied {copied} chunks");
                    assert!(shared as usize >= p.num_chunks() - 1);
                    // The mutated tail chunk must NOT be shared (when
                    // the row opened a fresh chunk it is trivially
                    // unshared — nothing at that position in `p`).
                    if n.num_chunks() == p.num_chunks() {
                        assert!(
                            !Arc::ptr_eq(n.chunks().last().unwrap(), p.chunks().last().unwrap()),
                            "tail chunk with the new row must have been copied"
                        );
                    }
                }
            }
            UpdateEvent::FoldInUser { .. } | UpdateEvent::RefoldUser { .. } => {
                // Node matrices untouched: all chunks shared.
                assert_eq!(nn.shared_chunks_with(pn), (pn.num_chunks() as u64, 0));
                assert_eq!(nx.shared_chunks_with(px), (px.num_chunks() as u64, 0));
                let (shared, copied) = nu.shared_chunks_with(pu);
                assert!(copied <= 1, "one fold-in copied {copied} user chunks");
                assert!(shared as usize >= pu.num_chunks() - 1);
            }
        }
    }

    // Interior chunks survive ALL K epochs by pointer: the first chunk
    // of every matrix in epoch 0 is literally the same allocation in
    // epoch K.
    let first = &epochs[0];
    let last = epochs.last().unwrap();
    for (f, l) in first.cow_matrices().iter().zip(last.cow_matrices()) {
        assert!(
            Arc::ptr_eq(&f.chunks()[0], &l.chunks()[0]),
            "chunk 0 must be shared from epoch 0 to epoch {K}"
        );
    }
    // Global accounting agrees: most storage is shared, a bounded
    // sliver was copied.
    let (shared, copied) = last.chunk_sharing_with(first);
    assert!(shared >= 1, "no storage shared across {K} publishes");
    assert!(
        copied as usize <= K + 3,
        "{copied} chunks copied for {K} single-row events"
    );
}

/// `deep_clone` is what `clone()` used to be: an O(model) copy sharing
/// nothing. `clone()` is now O(chunks): everything shared.
#[test]
fn clone_shares_everything_deep_clone_shares_nothing() {
    let fix = fixture();
    let total_chunks: u64 = fix
        .model
        .cow_matrices()
        .iter()
        .map(|m| m.num_chunks() as u64)
        .sum();
    let cheap = fix.model.clone();
    assert_eq!(cheap.chunk_sharing_with(&fix.model), (total_chunks, 0));
    let deep = fix.model.deep_clone();
    assert_eq!(deep.chunk_sharing_with(&fix.model), (0, total_chunks));
    // Both are logically identical to the original.
    assert_eq!(persist::encode(&cheap), persist::encode(&fix.model));
    assert_eq!(persist::encode(&deep), persist::encode(&fix.model));
}

/// The derived tables share every chunk but the one an add lands in:
/// across 1 000 adds on a 2 048-item catalog — tables many chunks past
/// their first build, crossing several chunk boundaries — every publish
/// copies exactly one chunk per derived table and at most one chunk's
/// bytes, and the successor of a fold-in copies none. Counts, not
/// timings: deterministic.
#[test]
fn derived_tables_copy_at_most_one_chunk_per_publish() {
    let mut cfg = DatasetConfig::tiny().with_users(40);
    cfg.shape.num_items = 2048;
    let data = SyntheticDataset::generate(&cfg, 3);
    let model = TfTrainer::new(
        ModelConfig::tf(4, 1).with_factors(4).with_epochs(1),
        &data.taxonomy,
    )
    .fit(&data.train, 1);
    let tax = model.taxonomy();
    let interior: Vec<NodeId> = tax
        .node_ids()
        .filter(|&n| !tax.is_leaf(n) && tax.level(n) > 0)
        .collect();
    let chunk_bytes = (taxrec_factors::COW_CHUNK_ROWS * model.k() * 4) as u64;

    let mut state = LiveState::new(model.clone());
    let mut engine = LiveEngine::initial(&state, Backend::Exhaustive, 1);
    for i in 0..1000 {
        let parent = interior[i % interior.len()];
        state.apply(&UpdateEvent::AddItem { parent }).unwrap();
        let next = LiveEngine::next_from(&engine, &state);
        for (table, &(chunks, bytes)) in next
            .engine()
            .copied_since(engine.engine())
            .iter()
            .enumerate()
        {
            assert_eq!(chunks, 1, "add {i} table {table}");
            assert!(
                bytes <= chunk_bytes,
                "add {i} table {table}: {bytes} bytes copied"
            );
        }
        assert!(
            next.copied_bytes_since(&engine) <= 4 * chunk_bytes,
            "add {i}"
        );
        engine = next;
    }

    // One more add: at most one chunk per derived table, and per model
    // table (the node and next-item offset rows).
    state
        .apply(&UpdateEvent::AddItem {
            parent: interior[0],
        })
        .unwrap();
    let after_add = LiveEngine::next_from(&engine, &state);
    assert!(after_add.model().chunk_sharing_with(engine.model()).1 <= 2);
    assert!(after_add.copied_bytes_since(&engine) <= 4 * chunk_bytes);
    assert!(after_add.copied_bytes_since(&engine) > 0);

    // A fold-in touches no derived table at all: the only copied bytes
    // are the user table's tail chunk.
    state
        .apply(&UpdateEvent::FoldInUser {
            history: data.train.user(1).to_vec(),
            steps: 20,
            seed: 9,
        })
        .unwrap();
    let after_fold = LiveEngine::next_from(&after_add, &state);
    assert_eq!(
        after_fold.engine().copied_since(after_add.engine()),
        [(0, 0); 2]
    );
    assert_eq!(
        after_fold.model().chunk_sharing_with(after_add.model()).1,
        1
    );
    assert!(after_fold.copied_bytes_since(&after_add) <= chunk_bytes);
    assert!(after_fold.verify_consistent());
}
