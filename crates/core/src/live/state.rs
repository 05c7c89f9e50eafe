//! The authoritative mutable live state and its deterministic event
//! application — shared verbatim by the online applier thread and the
//! offline `taxrec replay` path, which is what makes
//! `snapshot + replay(log) ≡ live state` a theorem instead of a hope.

use super::event::UpdateEvent;
use super::LiveError;
use crate::dynamic::refold;
use crate::model::TfModel;
use crate::tier::FoldRecipe;
use std::sync::Arc;
use taxrec_dataset::Transaction;
use taxrec_taxonomy::{ItemId, NodeId, PathTable, Taxonomy};

/// Most missed adds a retired arena is brought up to date by replaying.
/// One `push_leaf` is itself `O(nodes)` (≈ 6 µs at 32k nodes) against
/// ≈ 190 µs for a flat copy of arena + path table, so past this many a
/// copy is the cheaper way to catch up.
const MAX_ARENA_LAG: usize = 16;

/// The taxonomy arena and path table the model held one divergence ago,
/// plus the parents pushed since: `spare ⊕ lag == model arena` by
/// whole-struct `==`. Still shared with the epoch that was current when
/// the model diverged from it; once that epoch is dropped both `Arc`s
/// are unique and the pair can be replayed forward and reused.
#[derive(Debug)]
struct SpareArena {
    taxonomy: Arc<Taxonomy>,
    paths: Arc<PathTable>,
    lag: Vec<NodeId>,
}

impl SpareArena {
    /// Replay the missed pushes in place and hand the pair back — only
    /// when nobody else can see either table (`Arc::get_mut` refuses
    /// while an epoch, a reader or a state clone still holds one).
    fn caught_up(mut self) -> Option<(Arc<Taxonomy>, Arc<PathTable>)> {
        let taxonomy = Arc::get_mut(&mut self.taxonomy)?;
        let paths = Arc::get_mut(&mut self.paths)?;
        for &parent in &self.lag {
            let (_node, item) = taxonomy
                .push_leaf(parent)
                .expect("lagging parent was accepted by the live arena");
            paths.append_item(taxonomy, item);
        }
        Some((self.taxonomy, self.paths))
    }
}

/// What one applied event produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// An `AddItem` event: the new item id and its taxonomy node.
    ItemAdded {
        /// Dense id of the new item.
        item: ItemId,
        /// The new leaf node carrying the item.
        node: NodeId,
    },
    /// A `FoldInUser` event: the new user id.
    UserFolded {
        /// Row of the folded-in user in the grown user matrix.
        user: usize,
    },
    /// A `RefoldUser` event: the user whose factor and history were
    /// replaced in place.
    UserRefolded {
        /// Row of the re-folded user.
        user: usize,
    },
}

/// The live model plus the side state serving needs: which users are
/// folded-in (vs trained) and their histories.
///
/// Mutated only by one owner at a time (the applier thread online, the
/// replay loop offline); readers see immutable [`super::LiveEngine`]
/// snapshots derived from it.
///
/// Adding an item while a published snapshot still shares the model's
/// taxonomy arena does not copy it: the state keeps the arena of the
/// epoch readers have finished with (the *spare*), replays the one or
/// two pushes it missed, and swaps it in. Two arenas are resident; a
/// copy happens only while a snapshot pins the spare.
#[derive(Debug)]
pub struct LiveState {
    model: TfModel,
    /// Histories of folded-in users, indexed by `user - base_users`.
    /// The vector sits behind one `Arc` so a publish shares it by
    /// pointer; fold-in/refold diverge it (`Arc::make_mut`).
    histories: Arc<Vec<Arc<[Transaction]>>>,
    /// Users the model was trained with; ids at or above this are
    /// folded-in live.
    base_users: usize,
    /// Items the model was trained with; ids at or above this were
    /// added live.
    base_items: usize,
    events_applied: u64,
    spare: Option<SpareArena>,
    arena_recycles: u64,
    arena_copies: u64,
}

/// A clone starts without a spare arena: one shared between two states
/// could never become unique, and each side would replay onto it.
impl Clone for LiveState {
    fn clone(&self) -> LiveState {
        LiveState {
            model: self.model.clone(),
            histories: Arc::clone(&self.histories),
            base_users: self.base_users,
            base_items: self.base_items,
            events_applied: self.events_applied,
            spare: None,
            arena_recycles: self.arena_recycles,
            arena_copies: self.arena_copies,
        }
    }
}

impl LiveState {
    /// Wrap a freshly trained (or snapshot-decoded) model: every current
    /// user/item counts as "base".
    pub fn new(model: TfModel) -> LiveState {
        let base_users = model.num_users();
        let base_items = model.num_items();
        LiveState::from_parts(model, base_users, base_items, Vec::new())
    }

    /// Reconstruct a state whose folded users are already present in
    /// `model` (the snapshot-decode path). `histories.len()` must equal
    /// `model.num_users() - base_users`.
    pub(crate) fn from_parts(
        model: TfModel,
        base_users: usize,
        base_items: usize,
        histories: Vec<Arc<[Transaction]>>,
    ) -> LiveState {
        assert_eq!(
            model.num_users(),
            base_users + histories.len(),
            "histories must cover exactly the folded users"
        );
        LiveState {
            model,
            histories: Arc::new(histories),
            base_users,
            base_items,
            events_applied: 0,
            spare: None,
            arena_recycles: 0,
            arena_copies: 0,
        }
    }

    /// The current model.
    pub fn model(&self) -> &TfModel {
        &self.model
    }

    /// Move the model's user factors into a shared hot/cold tier (see
    /// [`crate::tier::UserTier`]). Serve startup calls this once, before
    /// the first publish; all later fold-ins/refolds write the tier.
    pub fn attach_user_tier(&mut self, tier: Arc<crate::tier::UserTier>) {
        self.model.attach_user_tier(tier);
    }

    /// Users the model was trained with (smaller ids are trained users).
    pub fn base_users(&self) -> usize {
        self.base_users
    }

    /// Items the model was trained with (larger ids were added live).
    pub fn base_items(&self) -> usize {
        self.base_items
    }

    /// Events applied to this state since construction.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// History of a folded-in user (`None` for trained users or
    /// out-of-range ids).
    pub fn folded_history(&self, user: usize) -> Option<&[Transaction]> {
        user.checked_sub(self.base_users)
            .and_then(|i| self.histories.get(i))
            .map(|h| &**h)
    }

    /// Shared handles to all folded histories, in user-id order.
    pub(crate) fn histories(&self) -> &[Arc<[Transaction]>] {
        &self.histories
    }

    /// The history vector itself, for a snapshot to share by pointer.
    pub(crate) fn histories_arc(&self) -> Arc<Vec<Arc<[Transaction]>>> {
        Arc::clone(&self.histories)
    }

    /// `AddItem` events that reused the retired epoch's arena (replayed
    /// the pushes it missed) instead of copying the shared one.
    pub fn arena_recycles(&self) -> u64 {
        self.arena_recycles
    }

    /// `AddItem` events that had to copy the taxonomy arena and path
    /// table: no spare yet, or a snapshot still pinned it. In steady
    /// state this stops growing; if it keeps pace with the adds, some
    /// reader holds a snapshot across write intervals.
    pub fn arena_copies(&self) -> u64 {
        self.arena_copies
    }

    /// Register an item under `parent`, reusing the spare arena when
    /// the model's own is shared with a published snapshot. `apply` has
    /// already validated `parent` on the shared arena, before anything
    /// moves: a rejected add leaves model, spare, lag and counters
    /// untouched.
    fn add_item(&mut self, parent: NodeId) -> Result<ItemId, LiveError> {
        let unshared = Arc::get_mut(&mut self.model.taxonomy).is_some()
            && Arc::get_mut(&mut self.model.paths).is_some();
        if !unshared {
            let current = SpareArena {
                taxonomy: Arc::clone(&self.model.taxonomy),
                paths: Arc::clone(&self.model.paths),
                lag: Vec::new(),
            };
            match self.spare.replace(current).and_then(SpareArena::caught_up) {
                Some((taxonomy, paths)) => {
                    debug_assert!(*taxonomy == *self.model.taxonomy && *paths == *self.model.paths);
                    self.model.taxonomy = taxonomy;
                    self.model.paths = paths;
                    self.arena_recycles += 1;
                }
                // No spare yet, or a snapshot still reads it: the new
                // spare is the current pair and `add_item_mut` copies.
                None => self.arena_copies += 1,
            }
        }
        let shape = (self.model.taxonomy.depth(), self.model.cutoff_level);
        let item = self.model.add_item_mut(parent)?;
        match &mut self.spare {
            // The lag replays plain appends: a deeper tree or a moved
            // cutoff (`add_item_mut` rebuilt the path table) starts
            // over, and so does an unpublished stretch past the bound.
            Some(spare)
                if shape == (self.model.taxonomy.depth(), self.model.cutoff_level)
                    && spare.lag.len() < MAX_ARENA_LAG =>
            {
                spare.lag.push(parent)
            }
            _ => self.spare = None,
        }
        Ok(item)
    }

    /// Check whether `ev` would apply cleanly, without mutating
    /// anything. The applier validates *before* appending to the WAL so
    /// a durably-logged event is always an applicable one;
    /// [`apply`](Self::apply) runs this same check first, so the two
    /// reject exactly the same events.
    pub fn validate(&self, ev: &UpdateEvent) -> Result<(), LiveError> {
        match ev {
            UpdateEvent::AddItem { parent } => {
                Ok(self.model.taxonomy().check_push_leaf(*parent)?)
            }
            UpdateEvent::FoldInUser { history, steps, .. } => {
                if *steps > super::event::MAX_EVENT_FOLD_STEPS {
                    return Err(LiveError::FoldStepsTooLarge(*steps));
                }
                let n_items = self.model.num_items();
                match history.iter().flatten().find(|i| i.index() >= n_items) {
                    Some(bad) => Err(LiveError::UnknownItem(bad.0)),
                    None => Ok(()),
                }
            }
            UpdateEvent::RefoldUser {
                user,
                history,
                steps,
                ..
            } => {
                if *steps > super::event::MAX_EVENT_FOLD_STEPS {
                    return Err(LiveError::FoldStepsTooLarge(*steps));
                }
                if *user < self.base_users || *user >= self.model.num_users() {
                    return Err(LiveError::UnknownUser(*user));
                }
                let n_items = self.model.num_items();
                match history.iter().flatten().find(|i| i.index() >= n_items) {
                    Some(bad) => Err(LiveError::UnknownItem(bad.0)),
                    None => Ok(()),
                }
            }
        }
    }

    /// Apply one event. Deterministic: the same event on the same state
    /// always yields the bit-identical successor. On error the state is
    /// unchanged.
    pub fn apply(&mut self, ev: &UpdateEvent) -> Result<Applied, LiveError> {
        self.validate(ev)?;
        let applied = match ev {
            UpdateEvent::AddItem { parent } => {
                let item = self.add_item(*parent)?;
                Applied::ItemAdded {
                    item,
                    node: self.model.taxonomy().item_node(item),
                }
            }
            UpdateEvent::FoldInUser {
                history,
                steps,
                seed,
            } => {
                let (factor, hist, recipe) = self.fold(history, *steps, *seed);
                let user = self.model.push_user_with_recipe(&factor, recipe);
                Arc::make_mut(&mut self.histories).push(hist);
                Applied::UserFolded { user }
            }
            UpdateEvent::RefoldUser {
                user,
                history,
                steps,
                seed,
            } => {
                // Re-fold **from scratch** at the current catalog: v_u
                // restarts at the prior mean and `history` replaces the
                // stored baskets outright, so a user who was evicted,
                // faulted back, and folded again never double-counts
                // earlier purchases.
                let (factor, hist, recipe) = self.fold(history, *steps, *seed);
                self.model.set_user_factor(*user, &factor, recipe);
                Arc::make_mut(&mut self.histories)[*user - self.base_users] = hist;
                Applied::UserRefolded { user: *user }
            }
        };
        self.events_applied += 1;
        Ok(applied)
    }

    /// Fold `history` in against the *current* frozen factors (replay
    /// determinism: the factor depends on every item added before this
    /// event) and return what a fold-in or refold stores: the factor,
    /// the shared history and the recipe that recomputes the factor
    /// after a tier eviction. The fold is the recipe run once, summing
    /// the few effective item rows it reads from the model's offsets —
    /// `O(steps × (B·|basket| + 2) × U × K)`, independent of the catalog.
    fn fold(
        &self,
        history: &[Transaction],
        steps: usize,
        seed: u64,
    ) -> (Vec<f32>, Arc<[Transaction]>, FoldRecipe) {
        let hist: Arc<[Transaction]> = Arc::from(history);
        let recipe = FoldRecipe {
            history: Arc::clone(&hist),
            steps,
            seed,
            n_items: self.model.num_items(),
        };
        (refold(&self.model, &recipe), hist, recipe)
    }
}

/// Apply `events` in order (the recovery path: decode a snapshot, then
/// `replay` its event log). Returns what each event produced.
///
/// Fails on the first invalid event, leaving `state` with every prior
/// event applied — mirroring exactly what the online applier would have
/// accepted.
pub fn replay(state: &mut LiveState, events: &[UpdateEvent]) -> Result<Vec<Applied>, LiveError> {
    let mut out = Vec::with_capacity(events.len());
    for ev in events {
        out.push(state.apply(ev)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::dynamic::fold_in_user;
    use crate::scoring::Scorer;
    use taxrec_dataset::{DatasetConfig, SyntheticDataset};

    fn state() -> (SyntheticDataset, LiveState) {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(200), 17);
        let m = crate::train::TfTrainer::new(
            ModelConfig::tf(4, 1).with_factors(8).with_epochs(2),
            &d.taxonomy,
        )
        .fit(&d.train, 1);
        let s = LiveState::new(m);
        (d, s)
    }

    fn parent_of(s: &LiveState, item: u32) -> NodeId {
        let tax = s.model().taxonomy();
        tax.parent(tax.item_node(ItemId(item))).unwrap()
    }

    #[test]
    fn add_item_grows_catalog() {
        let (_, mut s) = state();
        let before = s.model().num_items();
        let parent = parent_of(&s, 0);
        let got = s.apply(&UpdateEvent::AddItem { parent }).unwrap();
        assert_eq!(s.model().num_items(), before + 1);
        assert!(matches!(got, Applied::ItemAdded { item, .. } if item.index() == before));
        assert_eq!(s.base_items(), before);
        assert_eq!(s.events_applied(), 1);
    }

    #[test]
    fn fold_in_grows_users_and_keeps_history() {
        let (d, mut s) = state();
        let before = s.model().num_users();
        let history = d.train.user(3).to_vec();
        let got = s
            .apply(&UpdateEvent::FoldInUser {
                history: history.clone(),
                steps: 50,
                seed: 5,
            })
            .unwrap();
        assert_eq!(got, Applied::UserFolded { user: before });
        assert_eq!(s.model().num_users(), before + 1);
        assert_eq!(s.folded_history(before).unwrap(), history.as_slice());
        assert!(s.folded_history(0).is_none());
        assert!(s.folded_history(before + 1).is_none());
    }

    #[test]
    fn validate_mirrors_apply_exactly() {
        let (d, s) = state();
        let good = [
            UpdateEvent::AddItem {
                parent: parent_of(&s, 0),
            },
            UpdateEvent::FoldInUser {
                history: d.train.user(1).to_vec(),
                steps: 10,
                seed: 0,
            },
        ];
        let bad = [
            UpdateEvent::AddItem {
                parent: s.model().taxonomy().item_node(ItemId(0)),
            },
            UpdateEvent::AddItem {
                parent: NodeId(u32::MAX),
            },
            UpdateEvent::FoldInUser {
                history: vec![vec![ItemId(u32::MAX)]],
                steps: 10,
                seed: 0,
            },
            // Steps past the log codec's decode cap must be rejected
            // here too, or an acked event would be unreplayable.
            UpdateEvent::FoldInUser {
                history: vec![vec![ItemId(0)]],
                steps: crate::live::MAX_EVENT_FOLD_STEPS + 1,
                seed: 0,
            },
            // Refolding a trained user, an out-of-range user, an
            // unknown item, or with absurd steps must all bounce.
            UpdateEvent::RefoldUser {
                user: 0,
                history: vec![vec![ItemId(0)]],
                steps: 10,
                seed: 0,
            },
            UpdateEvent::RefoldUser {
                user: 10_000,
                history: vec![vec![ItemId(0)]],
                steps: 10,
                seed: 0,
            },
            UpdateEvent::RefoldUser {
                user: 0,
                history: vec![vec![ItemId(u32::MAX)]],
                steps: 10,
                seed: 0,
            },
            UpdateEvent::RefoldUser {
                user: 0,
                history: vec![vec![ItemId(0)]],
                steps: crate::live::MAX_EVENT_FOLD_STEPS + 1,
                seed: 0,
            },
        ];
        for ev in good.iter().chain(&bad) {
            let verdict = s.validate(ev);
            let outcome = s.clone().apply(ev).map(|_| ());
            assert_eq!(verdict, outcome, "{ev:?}");
        }
    }

    #[test]
    fn errors_leave_state_unchanged() {
        let (_, mut s) = state();
        let snapshot = s.clone();
        let leaf = s.model().taxonomy().item_node(ItemId(0));
        assert!(s.apply(&UpdateEvent::AddItem { parent: leaf }).is_err());
        let bad = UpdateEvent::FoldInUser {
            history: vec![vec![ItemId(9_999_999)]],
            steps: 10,
            seed: 1,
        };
        assert_eq!(s.apply(&bad), Err(LiveError::UnknownItem(9_999_999)));
        assert_eq!(s.model().num_items(), snapshot.model().num_items());
        assert_eq!(s.model().num_users(), snapshot.model().num_users());
        assert_eq!(s.events_applied(), 0);
    }

    #[test]
    fn replay_is_deterministic() {
        let (d, s0) = state();
        let parent = parent_of(&s0, 4);
        let events = vec![
            UpdateEvent::AddItem { parent },
            UpdateEvent::FoldInUser {
                history: d.train.user(7).to_vec(),
                steps: 120,
                seed: 99,
            },
            UpdateEvent::AddItem { parent },
        ];
        let mut a = s0.clone();
        let mut b = s0.clone();
        replay(&mut a, &events).unwrap();
        replay(&mut b, &events).unwrap();
        assert_eq!(a.model().user_factors, b.model().user_factors);
        assert_eq!(a.model().node_factors, b.model().node_factors);
        assert_eq!(a.model().next_factors, b.model().next_factors);
    }

    #[test]
    fn refold_replaces_factor_and_history_without_double_counting() {
        let (d, mut s) = state();
        let hist_a = d.train.user(3).to_vec();
        let hist_b = d.train.user(8).to_vec();
        let base = s.model().num_users();
        s.apply(&UpdateEvent::FoldInUser {
            history: hist_a,
            steps: 60,
            seed: 5,
        })
        .unwrap();
        // Refold the same user with a different full history.
        let got = s
            .apply(&UpdateEvent::RefoldUser {
                user: base,
                history: hist_b.clone(),
                steps: 60,
                seed: 5,
            })
            .unwrap();
        assert_eq!(got, Applied::UserRefolded { user: base });
        assert_eq!(s.model().num_users(), base + 1, "refold must not append");
        assert_eq!(s.folded_history(base).unwrap(), hist_b.as_slice());
        // No double-counting: the refolded factor equals a fresh fold of
        // hist_b alone on the same catalog — the prior fold left no residue.
        let fresh = {
            let scorer = Scorer::new(s.model());
            fold_in_user(&scorer, &hist_b, 60, 5)
        };
        assert_eq!(s.model().user_factor(base), fresh.as_slice());
    }

    #[test]
    fn refold_rejects_trained_and_unknown_users() {
        let (d, mut s) = state();
        let hist = d.train.user(1).to_vec();
        let ev = |user| UpdateEvent::RefoldUser {
            user,
            history: hist.clone(),
            steps: 10,
            seed: 1,
        };
        assert_eq!(s.apply(&ev(0)), Err(LiveError::UnknownUser(0)));
        let past = s.model().num_users();
        assert_eq!(s.apply(&ev(past)), Err(LiveError::UnknownUser(past)));
        assert_eq!(s.events_applied(), 0);
    }

    /// The add path as it was before `Taxonomy::push_leaf`: re-freeze
    /// the whole arena from its parent links and rebuild the path table.
    fn add_item_by_rebuild(s: &mut LiveState, parent: NodeId) {
        let m = &mut s.model;
        let mut b = taxrec_taxonomy::TaxonomyBuilder::with_capacity(m.taxonomy.num_nodes() + 1);
        for node in m.taxonomy.node_ids().skip(1) {
            b.add_child(m.taxonomy.parent(node).unwrap()).unwrap();
        }
        b.add_child(parent).unwrap();
        m.taxonomy = Arc::new(b.freeze());
        let zero = vec![0.0f32; m.k()];
        m.node_factors.push_row(&zero);
        m.next_factors.push_row(&zero);
        m.paths = Arc::new(taxrec_taxonomy::PathTable::build(
            &m.taxonomy,
            m.config.taxonomy_update_levels,
        ));
        s.events_applied += 1;
    }

    #[test]
    fn in_place_growth_snapshots_the_same_bytes_as_a_rebuild() {
        use crate::live::snapshot::encode_live;
        let (d, s0) = state();
        let tax = s0.model().taxonomy();
        // Parents across the arena: the first and the last category,
        // a level-1 node and the root itself.
        let last_interior = tax.node_ids().filter(|&n| !tax.is_leaf(n)).last().unwrap();
        let parents = [
            parent_of(&s0, 0),
            last_interior,
            NodeId(tax.nodes_at_level(1)[0]),
            NodeId::ROOT,
        ];
        let mut live = s0.clone();
        let mut reference = s0.clone();
        for step in 0..40usize {
            let ev = match step % 5 {
                3 => UpdateEvent::FoldInUser {
                    history: d.train.user(step).to_vec(),
                    steps: 30,
                    seed: step as u64,
                },
                _ => UpdateEvent::AddItem {
                    parent: parents[step % parents.len()],
                },
            };
            live.apply(&ev).unwrap();
            match ev {
                UpdateEvent::AddItem { parent } => add_item_by_rebuild(&mut reference, parent),
                _ => {
                    reference.apply(&ev).unwrap();
                }
            }
            assert_eq!(
                live.model().taxonomy(),
                reference.model().taxonomy(),
                "step {step}"
            );
            assert_eq!(
                live.model().paths(),
                reference.model().paths(),
                "step {step}"
            );
            assert_eq!(encode_live(&live), encode_live(&reference), "step {step}");
        }
        assert_eq!(live.events_applied(), reference.events_applied());
    }

    /// `spare ⊕ lag == model arena`, by whole-struct `==`, on private
    /// copies (the spare itself is usually still shared).
    fn assert_spare_catches_up(s: &LiveState, at: &str) {
        let Some(spare) = &s.spare else { return };
        assert!(spare.lag.len() <= MAX_ARENA_LAG, "{at}: lag past the bound");
        let copy = SpareArena {
            taxonomy: Arc::new(Taxonomy::clone(&spare.taxonomy)),
            paths: Arc::new(PathTable::clone(&spare.paths)),
            lag: spare.lag.clone(),
        };
        let (tax, paths) = copy.caught_up().expect("private copies are unique");
        assert_eq!(&*tax, s.model().taxonomy(), "{at}: taxonomy");
        assert_eq!(&*paths, s.model().paths(), "{at}: path table");
    }

    fn add(s: &mut LiveState, parent: NodeId) {
        s.apply(&UpdateEvent::AddItem { parent }).unwrap();
    }

    #[test]
    fn steady_alternation_recycles_after_the_first_copies() {
        let (_, mut s) = state();
        let mut reference = s.clone();
        let parents = [parent_of(&s, 0), parent_of(&s, 40), NodeId::ROOT];
        // The applier's cadence: publish, release the epoch before
        // last, apply the next add.
        let mut published = s.model().clone();
        for step in 0..60usize {
            let parent = parents[step % parents.len()];
            let copies = s.arena_copies();
            add(&mut s, parent);
            add_item_by_rebuild(&mut reference, parent);
            assert_spare_catches_up(&s, &format!("step {step}"));
            assert_eq!(s.model().taxonomy(), reference.model().taxonomy());
            assert_eq!(s.model().paths(), reference.model().paths());
            if step >= 2 {
                assert_eq!(s.arena_copies(), copies, "step {step} copied");
            }
            published = s.model().clone();
        }
        drop(published);
        assert!(s.arena_copies() <= 2, "{} copies", s.arena_copies());
        assert_eq!(s.arena_recycles() + s.arena_copies(), 60);
    }

    #[test]
    fn pinned_snapshots_force_copies_and_are_never_written() {
        use crate::persist::encode;
        let (_, mut s) = state();
        let parent = parent_of(&s, 0);
        // One reader holding one epoch across the whole stream costs at
        // most one extra copy: the spare moves past the pinned arena.
        let slow = s.model().clone();
        let slow_bytes = encode(&slow);
        let mut published = s.model().clone();
        for step in 0..100usize {
            add(&mut s, parent);
            assert_spare_catches_up(&s, &format!("step {step}"));
            published = s.model().clone();
        }
        drop(published);
        assert!(s.arena_copies() <= 3, "{} copies", s.arena_copies());
        assert_eq!(encode(&slow), slow_bytes);
        // Every epoch held: nothing retires any more, so after the one
        // spare that is already free every add copies, and no held
        // arena moves.
        let (recycles, copies) = (s.arena_recycles(), s.arena_copies());
        let mut held = Vec::new();
        for step in 0..100usize {
            let m = s.model().clone();
            held.push((encode(&m), m));
            add(&mut s, parent);
            assert_spare_catches_up(&s, &format!("held step {step}"));
        }
        assert_eq!(s.arena_recycles(), recycles + 1);
        assert_eq!(s.arena_copies(), copies + 99);
        for (bytes, m) in &held {
            assert_eq!(&encode(m), bytes);
        }
    }

    #[test]
    fn a_lag_past_the_bound_copies_instead_of_replaying() {
        let (_, mut s) = state();
        let parent = parent_of(&s, 0);
        let published = s.model().clone();
        add(&mut s, parent);
        assert!(s.spare.is_some());
        drop(published);
        // An unpublished stretch mutates in place and only lengthens
        // the lag — up to the bound, then the spare is let go.
        for _ in 0..MAX_ARENA_LAG - 1 {
            add(&mut s, parent);
        }
        assert_eq!(s.spare.as_ref().unwrap().lag.len(), MAX_ARENA_LAG);
        assert_spare_catches_up(&s, "at the bound");
        add(&mut s, parent);
        assert!(s.spare.is_none(), "lag of 17 must drop the spare");
        let (recycles, copies) = (s.arena_recycles(), s.arena_copies());
        let _published = s.model().clone();
        add(&mut s, parent);
        assert_eq!(
            (s.arena_recycles(), s.arena_copies()),
            (recycles, copies + 1)
        );
    }

    #[test]
    fn a_cloned_state_starts_without_a_spare() {
        use crate::live::snapshot::encode_live;
        let (_, mut a) = state();
        let parent = parent_of(&a, 0);
        let _published = a.model().clone();
        add(&mut a, parent);
        assert!(a.spare.is_some());
        let mut b = a.clone();
        assert!(b.spare.is_none());
        for step in 0..8 {
            // Each side publishes and adds on its own; neither may see
            // the other's pushes.
            let (pa, pb) = (a.model().clone(), b.model().clone());
            add(&mut a, parent);
            add(&mut b, NodeId::ROOT);
            add(&mut b, parent);
            drop((pa, pb));
            assert_spare_catches_up(&a, &format!("a {step}"));
            assert_spare_catches_up(&b, &format!("b {step}"));
        }
        let mut want_a = LiveState::new(state().1.model().clone());
        let mut want_b = want_a.clone();
        add_item_by_rebuild(&mut want_a, parent);
        add_item_by_rebuild(&mut want_b, parent);
        for _ in 0..8 {
            add_item_by_rebuild(&mut want_a, parent);
            add_item_by_rebuild(&mut want_b, NodeId::ROOT);
            add_item_by_rebuild(&mut want_b, parent);
        }
        assert_eq!(encode_live(&a), encode_live(&want_a));
        assert_eq!(encode_live(&b), encode_live(&want_b));
    }

    #[test]
    fn growth_from_a_root_only_model_drops_the_spare() {
        let root_only = Arc::new(taxrec_taxonomy::TaxonomyBuilder::new().freeze());
        let cfg = ModelConfig::tf(2, 0).with_factors(4);
        let mut s = LiveState::new(TfModel::init(cfg.clone(), root_only, 3, 1));
        let mut published = s.model().clone();
        for step in 0..5 {
            add(&mut s, NodeId::ROOT);
            // The first add deepens the tree and rebuilds the path
            // table: a spare seeded before it must not survive.
            assert_eq!(s.spare.is_some(), step > 0, "step {step}");
            assert_spare_catches_up(&s, &format!("step {step}"));
            let fresh = TfModel::init(cfg.clone(), s.model().taxonomy_arc(), 3, 1);
            assert_eq!(s.model().paths(), fresh.paths());
            assert_eq!(s.model().cutoff_level(), fresh.cutoff_level());
            published = s.model().clone();
        }
        drop(published);
        assert_eq!(s.model().num_items(), 5);
        assert!(s.arena_recycles() >= 2);
    }

    #[test]
    fn a_rejected_add_leaves_arena_spare_and_counters_untouched() {
        let (_, mut s) = state();
        let parent = parent_of(&s, 0);
        let leaf = s.model().taxonomy().item_node(ItemId(0));
        for _ in 0..3 {
            let _published = s.model().clone();
            add(&mut s, parent);
        }
        let published = s.model().clone();
        let spare = s.spare.as_ref().unwrap();
        let before = (
            Arc::as_ptr(&spare.taxonomy),
            Arc::as_ptr(&spare.paths),
            spare.lag.clone(),
            s.arena_recycles(),
            s.arena_copies(),
        );
        for bad in [leaf, NodeId(u32::MAX)] {
            assert!(s.apply(&UpdateEvent::AddItem { parent: bad }).is_err());
        }
        let spare = s.spare.as_ref().unwrap();
        let after = (
            Arc::as_ptr(&spare.taxonomy),
            Arc::as_ptr(&spare.paths),
            spare.lag.clone(),
            s.arena_recycles(),
            s.arena_copies(),
        );
        assert_eq!(before, after);
        assert!(Arc::ptr_eq(&s.model.taxonomy, &published.taxonomy));
        assert!(Arc::ptr_eq(&s.model.paths, &published.paths));
        assert_eq!(s.events_applied(), 3);
    }

    /// Fold-ins, refolds, a tier fault that refolds and a snapshot of a
    /// tiered state all sum their rows from the model's offsets: none of
    /// them builds a `Scorer`. Each fold still matches one over a fresh
    /// scorer, bit for bit.
    #[test]
    fn write_fault_and_snapshot_paths_build_no_scorer() {
        use crate::live::snapshot::encode_live;
        let (d, mut s) = state();
        let dir = std::env::temp_dir().join(format!("taxrec-state-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let registry = crate::MetricsRegistry::new();
        let tier = crate::tier::UserTier::build(
            &dir.join("no-scorer.cold"),
            &s.model.user_factors,
            2,
            &registry,
        )
        .unwrap();
        s.attach_user_tier(tier);
        let base = s.model().num_users();
        let builds = crate::scoring::scorer_builds();
        add(&mut s, NodeId::ROOT);
        for u in 0..4 {
            let history = d.train.user(u).to_vec();
            s.apply(&UpdateEvent::FoldInUser {
                history,
                steps: 40,
                seed: u as u64,
            })
            .unwrap();
        }
        s.apply(&UpdateEvent::RefoldUser {
            user: base,
            history: d.train.user(9).to_vec(),
            steps: 40,
            seed: 9,
        })
        .unwrap();
        // Two hot rows hold the last fold-in and the refold: reading the
        // second fold-in faults and refolds it.
        let refolds = s.model().user_tier_stats().unwrap().refolds;
        let mut faulted = vec![0.0f32; s.model().k()];
        s.model().copy_user_factor(base + 1, &mut faulted);
        assert_eq!(s.model().user_tier_stats().unwrap().refolds, refolds + 1);
        let snapshot = encode_live(&s);
        assert_eq!(
            crate::scoring::scorer_builds(),
            builds,
            "a Scorer was built"
        );

        let want = fold_in_user(&Scorer::new(s.model()), d.train.user(1), 40, 1);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&faulted), bits(&want));
        let decoded = crate::live::snapshot::decode_live(&snapshot).unwrap();
        assert_eq!(bits(decoded.model().user_factor(base + 1)), bits(&want));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fold_in_after_add_item_sees_grown_catalog() {
        // The folded factor depends on the catalog size at application
        // time (negative sampling) — the reason replay must preserve
        // event order.
        let (d, s0) = state();
        let parent = parent_of(&s0, 4);
        let fold = UpdateEvent::FoldInUser {
            history: d.train.user(2).to_vec(),
            steps: 200,
            seed: 3,
        };
        let mut with_add = s0.clone();
        with_add.apply(&UpdateEvent::AddItem { parent }).unwrap();
        with_add.apply(&fold).unwrap();
        let mut without_add = s0.clone();
        without_add.apply(&fold).unwrap();
        let u1 = with_add.model().num_users() - 1;
        let u2 = without_add.model().num_users() - 1;
        assert_ne!(
            with_add.model().user_factor(u1),
            without_add.model().user_factor(u2),
            "catalog growth must influence later fold-ins"
        );
    }
}
