//! The spare-arena law of `LiveState` (ISSUE 23 acceptance): an
//! `AddItem` that reuses the retired epoch's taxonomy arena — replaying
//! the pushes it missed — is indistinguishable from one that copies.
//!
//! Random streams of add-item / fold-in / refold / rejected adds run
//! under a random schedule of *publish* (a `model().clone()` kept in a
//! bag, as an epoch readers hold; sometimes retiring every older one,
//! as the cell does when no reader lags — what frees a spare for
//! reuse), *drop one held clone*, and *clone the state and continue on
//! the clone* (the original stays parked, spare and all).
//! After every step the recycling state agrees with a control state
//! that never keeps a spare on `encode_live` bytes, taxonomy `==` and
//! path table `==`, and every held clone and parked state still
//! encodes to the bytes it had when taken: an arena a holder can see is
//! never written.

// The vendored proptest! macro is recursive over the body.
#![recursion_limit = "2048"]

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use taxrec_core::live::{snapshot::encode_live, LiveState, UpdateEvent};
use taxrec_core::{persist, ModelConfig, TfModel, TfTrainer};
use taxrec_dataset::{DatasetConfig, SyntheticDataset, Transaction};
use taxrec_taxonomy::{ItemId, NodeId, TaxonomyBuilder};

fn trained() -> &'static TfModel {
    static FIX: OnceLock<TfModel> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(60), 41);
        TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(6).with_epochs(1),
            &data.taxonomy,
        )
        .fit(&data.train, 1)
    })
}

/// A model over a childless root: its first add deepens the tree, moves
/// the cutoff and rebuilds the path table.
fn root_only() -> TfModel {
    let taxonomy = Arc::new(TaxonomyBuilder::new().freeze());
    TfModel::init(ModelConfig::tf(2, 0).with_factors(4), taxonomy, 3, 1)
}

fn history(state: &LiveState, salt: u16) -> Vec<Transaction> {
    let n = state.model().num_items() as u32;
    if n < 3 {
        return Vec::new();
    }
    let a = u32::from(salt) % n;
    let b = (a + 1 + u32::from(salt / 7) % (n - 1)) % n;
    vec![vec![ItemId(a)], vec![ItemId(a.min(b)), ItemId(a.max(b))]]
}

fn fold_in(state: &LiveState, salt: u16) -> UpdateEvent {
    UpdateEvent::FoldInUser {
        history: history(state, salt),
        steps: 10 + usize::from(salt % 20),
        seed: u64::from(salt),
    }
}

/// Kinds 0–3 add an item (the path under test gets the most weight), 4
/// folds a user in, 5 refolds one, 6 is an add the taxonomy rejects.
fn event(state: &LiveState, kind: u8, salt: u16) -> UpdateEvent {
    let tax = state.model().taxonomy();
    match kind {
        0..=3 => {
            let open: Vec<NodeId> = tax
                .node_ids()
                .filter(|&n| tax.check_push_leaf(n).is_ok())
                .collect();
            UpdateEvent::AddItem {
                parent: open[usize::from(salt) % open.len()],
            }
        }
        4 => fold_in(state, salt),
        5 => {
            let folded = state.model().num_users() - state.base_users();
            if folded == 0 {
                return fold_in(state, salt);
            }
            UpdateEvent::RefoldUser {
                user: state.base_users() + usize::from(salt) % folded,
                history: history(state, salt.rotate_left(3)),
                steps: 10 + usize::from(salt % 20),
                seed: u64::from(salt),
            }
        }
        _ => UpdateEvent::AddItem {
            parent: match tax.num_items() {
                n if n > 0 && salt.is_multiple_of(2) => {
                    tax.item_node(ItemId(u32::from(salt) % n as u32))
                }
                _ => NodeId(tax.num_nodes() as u32 + u32::from(salt)),
            },
        },
    }
}

fn check_stream(base: TfModel, spec: &[(u8, u16)]) {
    let mut live = LiveState::new(base.clone());
    let mut control = LiveState::new(base);
    // Epochs readers still hold, and states left behind by a clone,
    // each with the bytes it encoded to when taken.
    let mut held: Vec<(Vec<u8>, TfModel)> = Vec::new();
    let mut parked: Vec<(Vec<u8>, LiveState)> = Vec::new();

    for (step, &(kind, salt)) in spec.iter().enumerate() {
        match kind {
            0..=6 => {
                let ev = event(&live, kind, salt);
                // A clone starts without a spare, so the control copies
                // or mutates in place and never recycles.
                control = control.clone();
                assert_eq!(live.apply(&ev), control.apply(&ev), "step {step}: {ev:?}");
            }
            7..=9 => {
                // 8 and 9: no reader lags, the older epochs retire.
                if kind > 7 {
                    held.clear();
                }
                let epoch = live.model().clone();
                held.push((persist::encode(&epoch), epoch));
            }
            10 if !held.is_empty() => {
                held.swap_remove(usize::from(salt) % held.len());
            }
            11 => {
                let clone = live.clone();
                let original = std::mem::replace(&mut live, clone);
                parked.push((encode_live(&original), original));
            }
            _ => {}
        }
        assert_eq!(
            encode_live(&live),
            encode_live(&control),
            "step {step}: snapshot bytes"
        );
        assert_eq!(live.model().taxonomy(), control.model().taxonomy());
        assert_eq!(live.model().paths(), control.model().paths());
        for (bytes, epoch) in &held {
            assert_eq!(&persist::encode(epoch), bytes, "step {step}: held epoch");
        }
        for (bytes, state) in &parked {
            assert_eq!(&encode_live(state), bytes, "step {step}: parked state");
        }
    }
    assert_eq!(control.arena_recycles(), 0);
    assert_eq!(live.events_applied(), control.events_applied());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_recycled_arena_equals_a_copied_one(
        spec in proptest::collection::vec((0u8..12, any::<u16>()), 1..60),
    ) {
        check_stream(trained().clone(), &spec);
    }

    #[test]
    fn growth_from_a_childless_root_equals_a_copied_one(
        spec in proptest::collection::vec((0u8..12, any::<u16>()), 1..40),
    ) {
        check_stream(root_only(), &spec);
    }
}

/// The schedule the applier produces — publish after every add, retire
/// the epoch before last — recycles, so the property above is not
/// vacuous: the spare path really runs under these streams.
#[test]
fn the_publish_retire_schedule_recycles() {
    let spec: Vec<(u8, u16)> = (0..30u16).flat_map(|i| [(0u8, i * 37), (8, 0)]).collect();
    check_stream(trained().clone(), &spec);
    let mut live = LiveState::new(trained().clone());
    let mut epoch = live.model().clone();
    for i in 0..30u16 {
        let ev = event(&live, 0, i * 37);
        live.apply(&ev).unwrap();
        epoch = live.model().clone();
    }
    drop(epoch);
    assert!(live.arena_recycles() >= 27, "{}", live.arena_recycles());
    assert!(live.arena_copies() <= 3, "{}", live.arena_copies());
}
