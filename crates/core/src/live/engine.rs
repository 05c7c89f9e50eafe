//! The immutable serving snapshot readers hold across an epoch.

use super::state::LiveState;
use crate::model::TfModel;
use crate::obs::{MetricsRegistry, ScanMetrics};
use crate::recommend::{Backend, RecommendEngine};
use std::sync::Arc;
use taxrec_dataset::Transaction;

/// One published epoch of the live model: an owned
/// [`RecommendEngine<Arc<TfModel>>`] plus the serving side state
/// (folded-user histories, epoch stamp). Immutable — readers that
/// loaded it keep a fully consistent view while newer epochs are
/// published behind them.
#[derive(Debug)]
pub struct LiveEngine {
    engine: RecommendEngine<Arc<TfModel>>,
    /// Shared by pointer with the state (and with every epoch since the
    /// last fold-in/refold).
    histories: Arc<Vec<Arc<[Transaction]>>>,
    base_users: usize,
    base_items: usize,
    epoch: u64,
}

impl LiveEngine {
    /// Build epoch 0 from scratch (full engine construction), with the
    /// item catalog partitioned into `scan_shards` contiguous scan
    /// shards (1 = unsharded; see
    /// [`crate::recommend::RecommendEngine::with_backend_sharded`]).
    /// Successor epochs inherit the shard layout — a live `AddItem`
    /// appends to the last shard's tail.
    pub fn initial(state: &LiveState, backend: Backend, scan_shards: usize) -> LiveEngine {
        LiveEngine {
            engine: RecommendEngine::with_backend_sharded(
                Arc::new(state.model().clone()),
                backend,
                scan_shards,
            ),
            histories: state.histories_arc(),
            base_users: state.base_users(),
            base_items: state.base_items(),
            epoch: 0,
        }
    }

    /// [`initial`](Self::initial) with per-shard scan counters
    /// registered into `registry` (one rows/blocks/busy-µs triple per
    /// *actual* shard — the plan may clamp the requested count).
    /// Successor epochs share the counters by `Arc` through
    /// [`RecommendEngine::grown_from`], so scan totals survive
    /// publishes. `kernel` forces the f32 scan kernel (`None` =
    /// auto-detect); the `taxrec_scan_kernel` info metric reports
    /// whichever ends up active.
    pub fn initial_observed(
        state: &LiveState,
        backend: Backend,
        scan_shards: usize,
        kernel: Option<crate::recommend::F32Kernel>,
        registry: &MetricsRegistry,
    ) -> LiveEngine {
        let mut live = LiveEngine::initial(state, backend, scan_shards);
        if let Some(k) = kernel {
            live.engine.set_scan_kernel(k);
        }
        let metrics = ScanMetrics::register(registry, live.engine.scan_shards());
        live.engine.set_scan_metrics(metrics);
        ScanMetrics::register_kernel_info(registry, live.engine.scan_kernel().name());
        live
    }

    /// Build the successor snapshot after `state` absorbed a batch of
    /// events: the effective-factor tables and int8 scan shadows are
    /// derived incrementally from `prev` ([`RecommendEngine::grown_from`] —
    /// `O(change)`), histories are shared by pointer, and the epoch
    /// advances by one.
    pub fn next_from(prev: &LiveEngine, state: &LiveState) -> LiveEngine {
        LiveEngine {
            engine: RecommendEngine::grown_from(
                &prev.engine,
                Arc::new(state.model().clone()),
                prev.engine.backend().clone(),
            ),
            histories: state.histories_arc(),
            base_users: state.base_users(),
            base_items: state.base_items(),
            epoch: prev.epoch + 1,
        }
    }

    /// Factor bytes this snapshot does *not* share by pointer with
    /// `prev`: the model's copy-on-write chunks and the scorer's two
    /// effective-factor tables (the only f32 tables the scans read; the
    /// int8 shadows are not counted). For the
    /// successor of `prev` this is what the events since then and the
    /// publish itself copied or appended — the
    /// `taxrec_live_publish_copied_bytes_total` counter.
    pub fn copied_bytes_since(&self, prev: &LiveEngine) -> u64 {
        let model: u64 = self
            .model()
            .cow_matrices()
            .iter()
            .zip(prev.model().cow_matrices())
            .map(|(a, b)| a.copied_since(b).1)
            .sum();
        let derived: u64 = self
            .engine
            .copied_since(&prev.engine)
            .iter()
            .map(|&(_, bytes)| bytes)
            .sum();
        model + derived
    }

    /// The batched recommendation engine for this epoch.
    pub fn engine(&self) -> &RecommendEngine<Arc<TfModel>> {
        &self.engine
    }

    /// The model this epoch serves.
    pub fn model(&self) -> &TfModel {
        self.engine.model()
    }

    /// Monotone publish counter (0 = the initial snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Users the model was trained with; ids at or above are folded-in.
    pub fn base_users(&self) -> usize {
        self.base_users
    }

    /// Items the model was trained with; ids at or above were added live.
    pub fn base_items(&self) -> usize {
        self.base_items
    }

    /// Items added live as of this epoch.
    pub fn items_added(&self) -> usize {
        self.model().num_items() - self.base_items
    }

    /// Users folded in live as of this epoch.
    pub fn users_folded(&self) -> usize {
        self.histories.len()
    }

    /// History of a folded-in user (`None` for trained users, whose
    /// history lives in the training log).
    pub fn folded_history(&self, user: usize) -> Option<&[Transaction]> {
        user.checked_sub(self.base_users)
            .and_then(|i| self.histories.get(i))
            .map(|h| &**h)
    }

    /// Cross-check every internal size relation and the scan shards'
    /// tiling of the catalog — the "readers never observe a mix"
    /// detector used by the swap tests and the load harness.
    /// `true` iff the snapshot is internally consistent.
    pub fn verify_consistent(&self) -> bool {
        let model = self.model();
        if self.engine.catalog_len() != model.num_items() {
            return false;
        }
        if model.num_users() != self.base_users + self.histories.len() {
            return false;
        }
        if model.num_items() < self.base_items {
            return false;
        }
        // The scan shards must tile the catalog exactly once — no gap,
        // no overlap, nothing past the model's item count.
        let mut next = 0usize;
        for (start, end) in self.engine.shard_ranges() {
            if start != next || end < start {
                return false;
            }
            next = end;
        }
        next == model.num_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::live::UpdateEvent;
    use taxrec_dataset::{DatasetConfig, SyntheticDataset};
    use taxrec_taxonomy::ItemId;

    #[test]
    fn histories_are_shared_by_pointer_until_a_fold_in() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(60), 23);
        let model = crate::train::TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(6).with_epochs(1),
            &d.taxonomy,
        )
        .fit(&d.train, 1);
        let mut state = LiveState::new(model);
        let fold = |user: usize| UpdateEvent::FoldInUser {
            history: d.train.user(user).to_vec(),
            steps: 20,
            seed: user as u64,
        };
        state.apply(&fold(1)).unwrap();
        let e0 = LiveEngine::initial(&state, Backend::Exhaustive, 1);

        let tax = state.model().taxonomy();
        let parent = tax.parent(tax.item_node(ItemId(0))).unwrap();
        state.apply(&UpdateEvent::AddItem { parent }).unwrap();
        let e1 = LiveEngine::next_from(&e0, &state);
        assert!(Arc::ptr_eq(&e1.histories, &e0.histories));

        state.apply(&fold(2)).unwrap();
        let e2 = LiveEngine::next_from(&e1, &state);
        assert!(!Arc::ptr_eq(&e2.histories, &e1.histories));
        assert_eq!((e1.users_folded(), e2.users_folded()), (1, 2));
        // The older epochs keep the vector they were published with.
        assert!(e1.folded_history(e1.base_users() + 1).is_none());
        assert_eq!(
            e2.folded_history(e2.base_users() + 1).unwrap(),
            d.train.user(2)
        );
        assert!(e2.verify_consistent());
    }
}
