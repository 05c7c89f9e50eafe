//! Synthetic shopping-log generator.
//!
//! The generative process (per user) is a simplified, *known-ground-truth*
//! version of the behaviour the TF model is designed to capture:
//!
//! 1. **Long-term interests.** Each user draws a few favourite leaf
//!    categories (weighted towards popular categories). A "long-term"
//!    basket shops inside a favourite category.
//! 2. **Short-term dynamics.** With probability `short_term_prob`, a
//!    basket instead shops inside a category *related* to the previous
//!    basket — a sibling under the same parent (camera → flash-card).
//!    This is category-level, not item-level, so item-level Markov models
//!    (FPMC) face exactly the sparsity problem the paper describes while
//!    taxonomy-level models do not.
//! 3. **Item choice.** Within the chosen leaf category, items are drawn
//!    from a Zipf distribution (heavy-tailed popularity, Fig. 5c), with a
//!    small uniform-noise floor.
//! 4. **Cold start.** A fraction of items is "released late": they are
//!    only admissible near the end of a user's timeline, so they
//!    concentrate in the test split (Fig. 7c).

use crate::config::DatasetConfig;
use crate::log::{PurchaseLog, PurchaseLogBuilder, Transaction};
use crate::split::{split_log, Split};
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taxrec_taxonomy::{ItemId, NodeId, Taxonomy, TaxonomyGenerator, ZipfWeights};

pub use taxrec_taxonomy::generate::ZipfWeights as CategoryZipf;

/// A generated taxonomy + purchase log + default train/test split.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The item taxonomy.
    pub taxonomy: Taxonomy,
    /// The full (unsplit) purchase log.
    pub log: PurchaseLog,
    /// Training log (chronological prefix per user).
    pub train: PurchaseLog,
    /// Test log (suffix, repeats removed when configured).
    pub test: PurchaseLog,
    /// Generation parameters.
    pub config: DatasetConfig,
}

impl SyntheticDataset {
    /// Generate a dataset. Fully deterministic in `(config, seed)`.
    pub fn generate(config: &DatasetConfig, seed: u64) -> SyntheticDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let taxonomy = TaxonomyGenerator::new(config.shape.clone())
            .generate(&mut rng)
            .taxonomy;
        let log = generate_log(&taxonomy, config, &mut rng);
        let Split { train, test } = split_log(&log, &config.split);
        SyntheticDataset {
            taxonomy,
            log,
            train,
            test,
            config: config.clone(),
        }
    }

    /// Re-split the same log with a different µ (used by the Fig. 7b
    /// sparsity sweep — the paper generates "multiple datasets with
    /// different values of the split parameter µ" over the same log).
    pub fn resplit(&mut self, mu: f64) {
        let mut sc = self.config.split;
        sc.mu = mu;
        let Split { train, test } = split_log(&self.log, &sc);
        self.config.split = sc;
        self.train = train;
        self.test = test;
    }

    /// Items that never appear in the training log ("new"/cold items).
    pub fn cold_items(&self) -> Vec<ItemId> {
        let n = self.taxonomy.num_items();
        let mut seen = vec![false; n];
        for (_, hist) in self.train.iter_users() {
            for t in hist {
                for &i in t {
                    seen[i.index()] = true;
                }
            }
        }
        (0..n as u32)
            .map(ItemId)
            .filter(|i| !seen[i.index()])
            .collect()
    }
}

/// Per-item release fraction: an item is admissible in the basket at
/// timeline position `p ∈ [0, 1]` iff `release[i] <= p`.
fn draw_release_times<R: Rng + ?Sized>(n_items: usize, new_fraction: f64, rng: &mut R) -> Vec<f32> {
    let mut release = vec![0.0f32; n_items];
    for r in release.iter_mut() {
        if rng.gen_bool(new_fraction) {
            // Late releases concentrate in the back half of the timeline.
            *r = rng.gen_range(0.55..0.95);
        }
    }
    release
}

/// Per-leaf-category item lists and Zipf samplers.
struct CategoryItems {
    /// For each lowest-level category (indexed by position in
    /// `nodes_at_level(depth-1)`), its item ids.
    items: Vec<Vec<ItemId>>,
    /// Category node id → dense category index.
    cat_index_of_node: Vec<u32>,
    /// One Zipf sampler per category size (sizes repeat, so cache them).
    zipf: Vec<ZipfWeights>,
    /// `zipf` index per category.
    zipf_of_cat: Vec<u32>,
}

impl CategoryItems {
    fn build(tax: &Taxonomy, skew: f64) -> CategoryItems {
        let leaf_cat_level = tax.depth().saturating_sub(1);
        let cats = tax.nodes_at_level(leaf_cat_level);
        let mut cat_index_of_node = vec![u32::MAX; tax.num_nodes()];
        for (ci, &n) in cats.iter().enumerate() {
            cat_index_of_node[n as usize] = ci as u32;
        }
        let mut items: Vec<Vec<ItemId>> = vec![Vec::new(); cats.len()];
        for item in tax.item_ids() {
            let node = tax.item_node(item);
            let parent = tax.parent(node).expect("items are never the root");
            let ci = cat_index_of_node[parent.index()];
            // Items always hang off lowest-level categories in generated
            // taxonomies; defensive check for hand-built ragged trees.
            if ci != u32::MAX {
                items[ci as usize].push(item);
            }
        }
        // Dedup Zipf samplers by support size.
        let mut zipf: Vec<ZipfWeights> = Vec::new();
        let mut size_to_zipf: std::collections::HashMap<usize, u32> =
            std::collections::HashMap::new();
        let mut zipf_of_cat = Vec::with_capacity(items.len());
        for cat_items in &items {
            let sz = cat_items.len().max(1);
            let zi = *size_to_zipf.entry(sz).or_insert_with(|| {
                zipf.push(ZipfWeights::new(sz, skew));
                (zipf.len() - 1) as u32
            });
            zipf_of_cat.push(zi);
        }
        CategoryItems {
            items,
            cat_index_of_node,
            zipf,
            zipf_of_cat,
        }
    }

    fn num_cats(&self) -> usize {
        self.items.len()
    }

    /// Draw an item from category `ci`, honouring release times: resample
    /// up to 8 times, then fall back to the most popular released item,
    /// then to any item.
    fn sample_item<R: Rng + ?Sized>(
        &self,
        ci: usize,
        timeline: f32,
        release: &[f32],
        rng: &mut R,
    ) -> Option<ItemId> {
        let items = &self.items[ci];
        if items.is_empty() {
            return None;
        }
        let z = &self.zipf[self.zipf_of_cat[ci] as usize];
        for _ in 0..8 {
            let k = z.sample(rng).min(items.len() - 1);
            let it = items[k];
            if release[it.index()] <= timeline {
                return Some(it);
            }
        }
        items
            .iter()
            .copied()
            .find(|it| release[it.index()] <= timeline)
            .or_else(|| items.first().copied())
    }

    fn category_of_item(&self, tax: &Taxonomy, item: ItemId) -> Option<usize> {
        // Walk up until a lowest-level category is found; ragged trees
        // (hand-built, or items at unexpected depths) simply have no
        // driving category.
        let mut node = tax.item_node(item);
        while let Some(parent) = tax.parent(node) {
            let ci = self.cat_index_of_node[parent.index()];
            if ci != u32::MAX {
                return Some(ci as usize);
            }
            node = parent;
        }
        None
    }
}

/// Generate a purchase log over an existing taxonomy.
///
/// Exposed separately from [`SyntheticDataset::generate`] so experiments
/// can reuse one taxonomy across several logs.
pub fn generate_log<R: Rng + ?Sized>(
    tax: &Taxonomy,
    config: &DatasetConfig,
    rng: &mut R,
) -> PurchaseLog {
    assert!(tax.num_items() > 0, "taxonomy has no items");
    assert!(
        tax.depth() >= 2,
        "taxonomy must have at least one category level"
    );
    let cats = CategoryItems::build(tax, config.item_popularity_skew);
    let release = draw_release_times(tax.num_items(), config.new_item_fraction, rng);
    // Popularity skew across favourite categories: popular categories are
    // favoured by more users (preferential attachment shape).
    let cat_popularity = ZipfWeights::new(cats.num_cats(), 0.6);

    // Favourites are distinct, so a taxonomy with fewer leaf categories
    // than `user_favorites` caps the draw (it would never finish).
    let num_favorites = config.user_favorites.max(1).min(cats.num_cats());

    let mut builder = PurchaseLogBuilder::with_capacity(config.num_users);
    let mut favorites: Vec<usize> = Vec::new();
    for _ in 0..config.num_users {
        // Favourite leaf categories for this user.
        favorites.clear();
        while favorites.len() < num_favorites {
            let c = cat_popularity.sample(rng);
            if !favorites.contains(&c) {
                favorites.push(c);
            }
        }

        let n_tx = sample_num_transactions(config, rng);
        let mut history: Vec<Transaction> = Vec::with_capacity(n_tx);
        // Driving categories of the last `short_term_window` baskets,
        // most recent last.
        let mut recent_cats: Vec<usize> = Vec::with_capacity(config.short_term_window.max(1));
        for t in 0..n_tx {
            let timeline = (t + 1) as f32 / n_tx as f32;
            let basket_size = rng.gen_range(config.basket_min..=config.basket_max);
            let mut basket: Transaction = Vec::with_capacity(basket_size);
            // Choose the basket's driving category: short-term dynamics
            // reference a recent basket (exponentially favouring newer
            // ones), long-term falls back to the user's favourites.
            let cat = if !recent_cats.is_empty() && rng.gen_bool(config.short_term_prob) {
                let rc = pick_recent(&recent_cats, rng);
                related_category(tax, &cats, rc, rng)
            } else {
                favorites[rng.gen_range(0..favorites.len())]
            };
            for _ in 0..basket_size {
                let item = if rng.gen_bool(config.noise) {
                    // Uniform noise over released items.
                    let it = ItemId(rng.gen_range(0..tax.num_items() as u32));
                    if release[it.index()] <= timeline {
                        Some(it)
                    } else {
                        None
                    }
                } else {
                    cats.sample_item(cat, timeline, &release, rng)
                };
                if let Some(it) = item {
                    basket.push(it);
                }
            }
            if !basket.is_empty() {
                if let Some(c) = cats.category_of_item(tax, basket[0]) {
                    recent_cats.push(c);
                    if recent_cats.len() > config.short_term_window.max(1) {
                        recent_cats.remove(0);
                    }
                }
                history.push(basket);
            }
        }
        builder.push_user(history);
    }
    builder.build()
}

/// Pick a reference basket category from the recent window, newest last,
/// with exponentially decaying weight `e^(−age)` over age 0, 1, 2, …
fn pick_recent<R: Rng + ?Sized>(recent: &[usize], rng: &mut R) -> usize {
    debug_assert!(!recent.is_empty());
    let n = recent.len();
    let weights: Vec<f64> = (0..n).map(|age| (-(age as f64)).exp()).collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total);
    for (age, w) in weights.iter().enumerate() {
        if u < *w {
            return recent[n - 1 - age];
        }
        u -= w;
    }
    recent[n - 1]
}

/// Geometric-ish transaction count with the configured mean, clamped.
fn sample_num_transactions<R: Rng + ?Sized>(config: &DatasetConfig, rng: &mut R) -> usize {
    let mean = config.mean_transactions.max(config.min_transactions as f64);
    // Shifted geometric: support {min, min+1, ...} with the right mean.
    let extra_mean = mean - config.min_transactions as f64;
    let mut extra = 0usize;
    if extra_mean > 1e-9 {
        let p = 1.0 / (1.0 + extra_mean);
        // Inverse-CDF geometric draw.
        let u: f64 = rng.gen_range(0.0f64..1.0f64);
        extra = (u.ln() / (1.0 - p).ln()).floor() as usize;
    }
    (config.min_transactions + extra).min(config.max_transactions)
}

/// A category related to `cat`: a sibling leaf category under the same
/// parent (or `cat` itself when it has no siblings). This makes
/// "accessory" purchases land in nearby taxonomy nodes.
fn related_category<R: Rng + ?Sized>(
    tax: &Taxonomy,
    cats: &CategoryItems,
    cat: usize,
    rng: &mut R,
) -> usize {
    let leaf_cat_level = tax.depth().saturating_sub(1);
    let node = NodeId(tax.nodes_at_level(leaf_cat_level)[cat]);
    let parent = match tax.parent(node) {
        Some(p) => p,
        None => return cat,
    };
    let siblings = tax.children(parent);
    // Stay in the same category 30% of the time, else hop to a sibling.
    if siblings.len() <= 1 || rng.gen_bool(0.3) {
        return cat;
    }
    for _ in 0..4 {
        let pick = siblings[rng.gen_range(0..siblings.len())];
        let ci = cats.cat_index_of_node[pick as usize];
        if ci != u32::MAX && ci as usize != cat && !cats.items[ci as usize].is_empty() {
            return ci as usize;
        }
    }
    cat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatasetConfig;

    fn tiny() -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetConfig::tiny(), 42)
    }

    #[test]
    fn generates_requested_user_count() {
        let d = tiny();
        assert_eq!(d.log.num_users(), DatasetConfig::tiny().num_users);
        assert_eq!(d.train.num_users(), d.log.num_users());
        assert_eq!(d.test.num_users(), d.log.num_users());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticDataset::generate(&DatasetConfig::tiny(), 7);
        let b = SyntheticDataset::generate(&DatasetConfig::tiny(), 7);
        let c = SyntheticDataset::generate(&DatasetConfig::tiny(), 8);
        assert_eq!(a.log, b.log);
        assert_eq!(a.taxonomy, b.taxonomy);
        assert_ne!(a.log, c.log);
    }

    #[test]
    fn items_within_taxonomy_range() {
        let d = tiny();
        let max = d.log.max_item().unwrap();
        assert!((max.index()) < d.taxonomy.num_items());
    }

    #[test]
    fn transaction_counts_respect_bounds() {
        let cfg = DatasetConfig::tiny();
        let d = SyntheticDataset::generate(&cfg, 3);
        for (_, hist) in d.log.iter_users() {
            assert!(hist.len() <= cfg.max_transactions);
        }
    }

    #[test]
    fn basket_sizes_respect_bounds() {
        let cfg = DatasetConfig::tiny();
        let d = SyntheticDataset::generate(&cfg, 4);
        for (_, hist) in d.log.iter_users() {
            for t in hist {
                assert!(!t.is_empty());
                assert!(t.len() <= cfg.basket_max);
            }
        }
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(2000), 5);
        let mut counts = vec![0usize; d.taxonomy.num_items()];
        for (_, hist) in d.log.iter_users() {
            for t in hist {
                for &i in t {
                    counts[i.index()] += 1;
                }
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top10pct: usize = counts[..counts.len() / 10].iter().sum();
        // Heavy tail: top 10% of items take far more than the uniform 10%
        // share of purchases.
        assert!(
            top10pct as f64 > 0.25 * total as f64,
            "top-decile share {} of {total}",
            top10pct
        );
    }

    #[test]
    fn cold_items_exist_and_are_unseen() {
        let d = tiny();
        let cold = d.cold_items();
        assert!(!cold.is_empty(), "expected some cold items");
        for (_, hist) in d.train.iter_users() {
            for t in hist {
                for &i in t {
                    assert!(!cold.contains(&i));
                }
            }
        }
    }

    #[test]
    fn short_term_signal_present() {
        // Consecutive baskets should share a parent category far more often
        // than random pairs would.
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(1500), 11);
        let tax = &d.taxonomy;
        let parent_cat = |i: ItemId| tax.ancestor_at_level(tax.item_node(i), tax.depth() - 2);
        let mut consecutive_same = 0usize;
        let mut consecutive_total = 0usize;
        for (_, hist) in d.log.iter_users() {
            for w in hist.windows(2) {
                consecutive_total += 1;
                if parent_cat(w[0][0]) == parent_cat(w[1][0]) {
                    consecutive_same += 1;
                }
            }
        }
        let rate = consecutive_same as f64 / consecutive_total.max(1) as f64;
        // ~45% of baskets are short-term driven; well above the chance rate
        // for hundreds of mid-level categories.
        assert!(rate > 0.2, "consecutive same-parent rate {rate}");
    }

    #[test]
    fn resplit_changes_ratio() {
        let mut d = tiny();
        let train_tx_mid = d.train.num_transactions();
        d.resplit(0.9);
        assert!(d.train.num_transactions() > train_tx_mid);
        d.resplit(0.1);
        assert!(d.train.num_transactions() < train_tx_mid);
    }

    #[test]
    fn fewer_leaf_categories_than_favourites_still_generates() {
        // Two leaf categories, three favourites wanted: the draw of
        // distinct favourites must stop at two instead of spinning.
        let config = DatasetConfig {
            shape: taxrec_taxonomy::TaxonomyShape {
                level_sizes: vec![2],
                num_items: 165,
                ..DatasetConfig::default().shape
            },
            ..DatasetConfig::default()
        };
        assert!(config.user_favorites > 2);
        // A hang fails the test at the timeout instead of spinning CI.
        let (tx, rx) = std::sync::mpsc::channel();
        let gen = std::thread::spawn(move || {
            let _ = tx.send(SyntheticDataset::generate(&config, 5).log.num_users());
        });
        let users = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("generation hung on a taxonomy with two leaf categories");
        gen.join().expect("generator thread panicked");
        assert_eq!(users, DatasetConfig::default().num_users);
    }

    #[test]
    fn release_times_fraction() {
        let mut rng = StdRng::seed_from_u64(1);
        let rel = draw_release_times(10_000, 0.2, &mut rng);
        let late = rel.iter().filter(|&&r| r > 0.0).count();
        assert!((1500..2500).contains(&late), "late items: {late}");
    }
}
