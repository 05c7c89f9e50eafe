//! Differential test of the on-demand fold. A live fold-in or refold, a
//! tier fault and a tiered snapshot fold straight from the model's
//! offsets, summing only the effective item rows each SGD step reads.
//! The fold they replaced — [`fold_in_user_with_catalog`] over a fresh
//! [`Scorer::new`] — is the reference here, and every factor those
//! paths produce must equal it **bit for bit**.
//!
//! The models are built so that a row summed any other way shows:
//!
//! * `U = 4` on a trained model sums four offsets per bottom item, so a
//!   leaf-first sum rounds differently from the root-first forward pass;
//! * the grown models carry hundreds of items under level-1 categories
//!   and the root, each with its own random offsets, and the histories
//!   buy them. For such an item the path table's first `U` entries and
//!   the scorer's levels `≥ depth − U + 1` name different offsets;
//! * recipes are replayed after the catalog grew, with `n_items` pinned
//!   below the current catalog (the tier's fault and snapshot case).

use std::sync::{Arc, OnceLock};
use taxrec_core::dynamic::fold_in_user_with_catalog;
use taxrec_core::live::snapshot::{decode_live, encode_live};
use taxrec_core::live::{Applied, LiveState, UpdateEvent};
use taxrec_core::{MetricsRegistry, ModelConfig, Scorer, TfModel, TfTrainer, UserTier};
use taxrec_dataset::{DatasetConfig, SyntheticDataset, Transaction};
use taxrec_taxonomy::{ItemId, NodeId, Taxonomy};

const STEPS: usize = 150;
const GROWN_ADDS: usize = 300;
const FOLDS: usize = 6;

fn data() -> &'static SyntheticDataset {
    static DATA: OnceLock<SyntheticDataset> = OnceLock::new();
    DATA.get_or_init(|| SyntheticDataset::generate(&DatasetConfig::tiny().with_users(120), 21))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The fold every path used before: a fresh `Scorer` per fold.
fn reference(model: &TfModel, history: &[Transaction], seed: u64, n_items: usize) -> Vec<u32> {
    bits(&fold_in_user_with_catalog(
        &Scorer::new(model),
        history,
        STEPS,
        seed,
        n_items,
    ))
}

/// A deepest category, a level-1 category and the root.
fn add_parents(tax: &Taxonomy) -> [NodeId; 3] {
    [
        tax.parent(tax.item_node(ItemId(0))).unwrap(),
        NodeId(tax.nodes_at_level(1)[0]),
        NodeId::ROOT,
    ]
}

fn config(u: usize, b: usize) -> ModelConfig {
    ModelConfig::tf(u, b).with_factors(8).with_epochs(1)
}

fn trained(u: usize, b: usize) -> TfModel {
    TfTrainer::new(config(u, b), &data().taxonomy).fit(&data().train, 1)
}

/// The dataset's taxonomy grown by `GROWN_ADDS` leaves under
/// [`add_parents`], with Gaussian offsets on every node — new ones
/// included.
fn grown(u: usize, b: usize) -> TfModel {
    let mut tax = Taxonomy::clone(&data().taxonomy);
    let parents = add_parents(&tax);
    for step in 0..GROWN_ADDS {
        tax.push_leaf(parents[step % parents.len()]).unwrap();
    }
    let cfg = config(u, b).with_node_init_sigma(0.1);
    TfModel::init(cfg, Arc::new(tax), data().train.num_users(), 5)
}

/// Training histories, each with the model's items above the bottom
/// level mixed into its first and last baskets (kept sorted and
/// duplicate-free, the fold's basket contract).
fn histories(model: &TfModel) -> Vec<Vec<Transaction>> {
    let tax = model.taxonomy();
    let shallow: Vec<ItemId> = tax
        .item_ids()
        .filter(|&i| tax.level(tax.item_node(i)) < tax.depth())
        .collect();
    (0..FOLDS)
        .map(|n| {
            let mut h = data().train.user(n * 7).to_vec();
            if !shallow.is_empty() {
                let last = h.len() - 1;
                for (k, t) in [0, last].into_iter().enumerate() {
                    h[t].push(shallow[(n * 5 + k * 11) % shallow.len()]);
                    h[t].push(shallow[(n * 3 + k) % shallow.len()]);
                    h[t].sort_unstable();
                    h[t].dedup();
                }
            }
            h
        })
        .collect()
}

fn tiered(model: TfModel, tag: &str) -> (LiveState, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("taxrec-diff-fold-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut state = LiveState::new(model);
    // One hot row: every fold evicts the one before it.
    let tier = UserTier::build(
        &dir.join("users.cold"),
        state.model().cow_matrices()[0],
        1,
        &MetricsRegistry::new(),
    )
    .unwrap();
    state.attach_user_tier(tier);
    (state, dir)
}

fn factor(model: &TfModel, user: usize) -> Vec<u32> {
    let mut out = vec![0.0f32; model.k()];
    model.copy_user_factor(user, &mut out);
    bits(&out)
}

/// Fold, refold, fault and snapshot through a tiered live state, adding
/// items between folds so each recipe pins a smaller catalog than the
/// one it is replayed on.
fn check(model: TfModel, at: &str) {
    let hists = histories(&model);
    let parents = add_parents(model.taxonomy());
    let (mut s, dir) = tiered(model, &at.replace([' ', '=', ','], "-"));
    // (user, history, seed, catalog at fold time, reference factor)
    let mut folded = Vec::new();
    for (n, h) in hists.iter().enumerate() {
        let seed = 100 + n as u64;
        let n_items = s.model().num_items();
        let want = reference(s.model(), h, seed, n_items);
        let ev = UpdateEvent::FoldInUser {
            history: h.clone(),
            steps: STEPS,
            seed,
        };
        let Ok(Applied::UserFolded { user }) = s.apply(&ev) else {
            panic!("{at}: fold {n} not applied");
        };
        assert_eq!(factor(s.model(), user), want, "{at}: fold-in {n}");
        folded.push((user, h.clone(), seed, n_items, want));
        s.apply(&UpdateEvent::AddItem {
            parent: parents[n % parents.len()],
        })
        .unwrap();
    }

    // Refold the first user from scratch on the grown catalog.
    let (user, ..) = folded[0];
    let (h, seed) = (hists[FOLDS - 1].clone(), 7);
    let n_items = s.model().num_items();
    let want = reference(s.model(), &h, seed, n_items);
    let ev = UpdateEvent::RefoldUser {
        user,
        history: h.clone(),
        steps: STEPS,
        seed,
    };
    assert_eq!(s.apply(&ev), Ok(Applied::UserRefolded { user }), "{at}");
    assert_eq!(factor(s.model(), user), want, "{at}: refold");
    folded[0] = (user, h, seed, n_items, want);

    // Every row but the refolded one was evicted: reading it refolds on
    // the grown model at its recipe's pinned catalog.
    let refolds = s.model().user_tier_stats().unwrap().refolds;
    for (user, h, seed, n_items, want) in &folded[1..] {
        assert!(*n_items < s.model().num_items());
        assert_eq!(&factor(s.model(), *user), want, "{at}: fault of {user}");
        // The parent's fault path: a scorer over the grown model.
        assert_eq!(
            &reference(s.model(), h, *seed, *n_items),
            want,
            "{at}: {user}"
        );
    }
    let faults = s.model().user_tier_stats().unwrap().refolds - refolds;
    assert_eq!(faults as usize, FOLDS - 1, "{at}: every read must refold");

    // A snapshot of the tiered state re-runs every evicted recipe.
    let decoded = decode_live(&encode_live(&s)).unwrap();
    for (user, .., want) in &folded {
        assert_eq!(
            &bits(decoded.model().user_factor(*user)),
            want,
            "{at}: snapshot row {user}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn on_demand_fold_matches_a_fresh_scorer_on_trained_models() {
    for u in [1, 2, 4] {
        for b in [0, 1, 2] {
            check(trained(u, b), &format!("trained U={u} B={b}"));
        }
    }
}

#[test]
fn on_demand_fold_matches_a_fresh_scorer_after_shallow_growth() {
    for u in [1, 2, 4] {
        for b in [0, 1, 2] {
            let m = grown(u, b);
            assert_eq!(m.num_items(), data().taxonomy.num_items() + GROWN_ADDS);
            check(m, &format!("grown U={u} B={b}"));
        }
    }
}
