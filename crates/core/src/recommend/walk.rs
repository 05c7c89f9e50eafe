//! Exact top-K by a best-first walk over taxonomy radius bounds.
//!
//! Eq. 1 scores are linear in the effective factor, so for an item `i`
//! anywhere under a category `c`
//!
//! ```text
//! q·e_i = q·e_c + q·(e_i − e_c) ≤ q·e_c + ‖q‖·‖e_i − e_c‖      (Cauchy–Schwarz)
//! ```
//!
//! [`WalkIndex`] stores, per category, a radius `R_c` bounding
//! `‖e_i − e_c‖` over every item below it, and the items directly
//! under it sorted by their own radius `r_i = ‖e_i − e_c‖`, largest
//! first (two lists: the items present at build time, and those added
//! live since). A read keeps a max-heap of bounds over two kinds of
//! entry:
//!
//! * a **category** `c`, bounded by `q·e_c + ‖q‖·R_c`: popping it
//!   pushes its child categories and one cursor per list of its items;
//! * a **cursor** at position `j` of one of `c`'s lists, bounded by
//!   `q·e_c + ‖q‖·r_j`: popping it scores item `j` exactly — the
//!   exhaustive scan's own kernel dot of the scorer's row, so the same
//!   bits — and re-arms the cursor at `j + 1`.
//!
//! The walk stops once the top-K is full and its k-th score is
//! **strictly** greater than the best bound left: a tied item may
//! still win on the id tie-break, so ties are always visited and the
//! (score desc, id asc) order of [`rank_cmp`](super::rank_cmp) holds.
//! Every bound is padded for f32 rounding ([`Pad`]), which makes the
//! served ranking bit-identical to `Backend::Exhaustive`.
//!
//! The cascaded beam (`inference.rs`) borrows the same bounds for its
//! bottom level ([`WalkIndex::item_bounds`]): there a kept category's
//! score is already computed, and each of its lists ends as soon as the
//! beam's heap is full and strictly beats the next item's bound.
//!
//! Rows are read only through [`Scorer::node_factor`]: the index holds
//! radii and item ids, never a second copy of a factor row. The build
//! lists never change; the added lists sit behind `Arc`s, so
//! [`WalkIndex::grown`] — a live `AddItem` — copies only the added list
//! it inserts into (and the handles of its group) and shares
//! everything else by pointer.

use super::kernel::F32Kernel;
use super::topk::TopK;
use crate::model::TfModel;
use crate::scoring::Scorer;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Deref;
use std::sync::Arc;
use taxrec_taxonomy::{ItemId, NodeId};

/// Relative slack covering the f64 evaluation of a stored norm or
/// distance (≤ (K + 3)·2⁻⁵³ relative) for any K below 10⁶.
const NORM_SLACK: f64 = 1e-9;

/// `x` rounded **up** to an f32 that is ≥ the exact value `x`
/// approximates (see [`NORM_SLACK`]). Zero stays zero: a computed
/// distance of 0 means every difference was exactly 0.
fn round_up(x: f64) -> f32 {
    if x == 0.0 {
        0.0
    } else {
        ((x * (1.0 + NORM_SLACK)) as f32).next_up()
    }
}

/// `‖a − b‖`, rounded up.
fn distance(a: &[f32], b: &[f32]) -> f32 {
    root_sum_sq(a.iter().zip(b).map(|(&x, &y)| f64::from(x) - f64::from(y)))
}

/// `‖a‖`, rounded up.
fn norm(a: &[f32]) -> f32 {
    root_sum_sq(a.iter().map(|&x| f64::from(x)))
}

/// `√(Σ d²)` of exact f64 terms, rounded up.
fn root_sum_sq(terms: impl Iterator<Item = f64>) -> f32 {
    round_up(terms.map(|d| d * d).sum::<f64>().sqrt())
}

/// One taxonomy category, fixed for an index's whole lineage: live
/// growth only ever appends items.
#[derive(Debug)]
struct Category {
    node: u32,
    /// Slot of the parent category (the root points at itself).
    parent: u32,
    /// `‖e_c‖`, rounded up.
    norm: f32,
    /// `‖e_c − e_parent‖`, rounded up (0 for the root).
    up: f32,
    /// `child_slots[children.0..children.1]` are the child categories.
    children: (u32, u32),
    /// `base[items.0..items.1]` are the items under it at build time.
    items: (u32, u32),
}

/// The part of the index no live update changes.
#[derive(Debug)]
struct Shape {
    /// Every category in node-id order: parents precede children.
    cats: Vec<Category>,
    child_slots: Vec<u32>,
    /// The slot of each category by node id, `u32::MAX` for an item;
    /// ends at the last category (nodes added later are all items).
    slot_of: Vec<u32>,
    /// Every category's items at build time with their `r_i`, one run
    /// per category, each largest radius first, then ascending id.
    base: Vec<(ItemId, f32)>,
}

/// The items added under one category since the build, ordered like a
/// `base` run.
type Added = Arc<Vec<(ItemId, f32)>>;

/// Categories whose added lists share one copy-on-write group: a
/// successor index bumps one refcount per group, not per category.
const ADDED_GROUP: usize = 32;

/// Per-category radius bounds and radius-sorted item lists of one
/// engine (module docs). Built in `O(nodes · K)`; grown per appended
/// item in `O(depth)` plus a copy of the items added to its category
/// before it.
#[derive(Debug, Clone)]
pub(crate) struct WalkIndex {
    shape: Arc<Shape>,
    /// `R_c` per category slot, chained up from the children:
    /// `max(max r_i, max_d (‖e_d − e_c‖ + R_d))`, rounded up. Shared
    /// until an add raises one (a zero-offset add never does).
    radius: Arc<Vec<f32>>,
    /// The added list of slot `s` is `added[s / ADDED_GROUP][s % ADDED_GROUP]`.
    added: Vec<Arc<Vec<Added>>>,
}

fn by_radius(a: &(ItemId, f32), b: &(ItemId, f32)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Which list of a category a frontier entry walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Not a list: the category itself.
    Category,
    /// The items under it at build time.
    Base,
    /// The items added to it since.
    Added,
}

impl WalkIndex {
    /// Index every category of `scorer`'s model.
    pub(crate) fn build<M: Deref<Target = TfModel>>(scorer: &Scorer<M>) -> WalkIndex {
        let tax = scorer.model().taxonomy();
        let mut slot_of = vec![u32::MAX; tax.num_nodes()];
        let mut cats = Vec::with_capacity(tax.num_interior());
        for node in tax.node_ids() {
            if tax.node_item(node).is_some() {
                continue;
            }
            let row = scorer.node_factor(node);
            let slot = cats.len() as u32;
            slot_of[node.index()] = slot;
            let (parent, up) = match tax.parent(node) {
                Some(p) => (slot_of[p.index()], distance(row, scorer.node_factor(p))),
                None => (slot, 0.0),
            };
            cats.push(Category {
                node: node.0,
                parent,
                norm: norm(row),
                up,
                children: (0, 0),
                items: (0, 0),
            });
        }
        let mut child_slots = Vec::with_capacity(cats.len().saturating_sub(1));
        let mut base = Vec::with_capacity(tax.num_items());
        for cat in &mut cats {
            let node = NodeId(cat.node);
            let row = scorer.node_factor(node);
            let (first_child, first_item) = (child_slots.len(), base.len());
            for child in tax.children_ids(node) {
                match tax.node_item(child) {
                    Some(item) => base.push((item, distance(scorer.node_factor(child), row))),
                    None => child_slots.push(slot_of[child.index()]),
                }
            }
            base[first_item..].sort_unstable_by(by_radius);
            cat.children = (first_child as u32, child_slots.len() as u32);
            cat.items = (first_item as u32, base.len() as u32);
        }
        // Children have larger slots than their parents.
        let mut radius = vec![0.0f32; cats.len()];
        for s in (0..cats.len()).rev() {
            let (a, b) = cats[s].children;
            let (first, end) = cats[s].items;
            let own = if end > first {
                base[first as usize].1
            } else {
                0.0
            };
            radius[s] = child_slots[a as usize..b as usize]
                .iter()
                .map(|&d| chain(cats[d as usize].up, radius[d as usize]))
                .fold(own, f32::max);
        }
        let last_category = cats.last().map_or(0, |c| c.node as usize + 1);
        slot_of.truncate(last_category);
        slot_of.shrink_to_fit();
        let groups = cats.len().div_ceil(ADDED_GROUP);
        let empty = Arc::new(vec![Added::default(); ADDED_GROUP]);
        WalkIndex {
            shape: Arc::new(Shape {
                cats,
                child_slots,
                slot_of,
                base,
            }),
            radius: Arc::new(radius),
            added: vec![empty; groups],
        }
    }

    /// The slot of category `node`.
    fn slot(&self, node: NodeId) -> usize {
        match self.shape.slot_of.get(node.index()) {
            Some(&slot) if slot != u32::MAX => slot as usize,
            _ => panic!("{node} is not a category of this index"),
        }
    }

    /// The `kind` list of category slot `s`.
    fn list(&self, s: usize, kind: Kind) -> &[(ItemId, f32)] {
        match kind {
            Kind::Base => {
                let (a, b) = self.shape.cats[s].items;
                &self.shape.base[a as usize..b as usize]
            }
            Kind::Added => &self.added[s / ADDED_GROUP][s % ADDED_GROUP],
            Kind::Category => &[],
        }
    }

    /// The index of a grown catalog: `self` plus the items `scorer`'s
    /// model appended past `prev_items` (the contract of
    /// [`Scorer::grown_from`]). Each new item is inserted into its
    /// parent's added list (copying that list and its group's handles)
    /// and raises `R` along its ancestors; every other list is shared
    /// by pointer. A growth that added a category rebuilds instead.
    pub(super) fn grown<M: Deref<Target = TfModel>>(
        &self,
        scorer: &Scorer<M>,
        prev_items: usize,
    ) -> WalkIndex {
        let tax = scorer.model().taxonomy();
        if tax.num_interior() != self.shape.cats.len() {
            return WalkIndex::build(scorer);
        }
        let mut next = self.clone();
        for i in prev_items..tax.num_items() {
            let item = ItemId(i as u32);
            let node = tax.item_node(item);
            let parent = tax.parent(node).expect("an item is never the root");
            let slot = next.slot(parent);
            let r = distance(scorer.node_factor(node), scorer.node_factor(parent));
            let group = Arc::make_mut(&mut next.added[slot / ADDED_GROUP]);
            let list = Arc::make_mut(&mut group[slot % ADDED_GROUP]);
            // The new id is the largest: it goes after every equal radius.
            let at = list.partition_point(|e| e.1 >= r);
            list.insert(at, (item, r));
            next.raise(slot, r);
        }
        next
    }

    /// The bounds of this index for one query, as the cascaded beam's
    /// bottom level reads them.
    pub(crate) fn item_bounds(&self, query: &[f32]) -> ItemBounds<'_> {
        ItemBounds {
            index: self,
            pad: Pad::new(query),
        }
    }

    /// Raise `R` of `slot` to at least `r`, then re-chain its ancestors
    /// until one already covers its child.
    fn raise(&mut self, mut slot: usize, mut r: f32) {
        while r > self.radius[slot] {
            Arc::make_mut(&mut self.radius)[slot] = r;
            let cat = &self.shape.cats[slot];
            if cat.parent as usize == slot {
                break;
            }
            r = chain(cat.up, r);
            slot = cat.parent as usize;
        }
    }

    /// Serve one request: reset `topk` to `k` and fill it with the exact
    /// top-`k` items outside `exclude` (sorted ascending), walking
    /// `frontier`. `k` must already be clamped to the catalog. Returns
    /// `(item rows scored, category rows scored)`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn top_k_into<M: Deref<Target = TfModel>>(
        &self,
        scorer: &Scorer<M>,
        kernel: F32Kernel,
        query: &[f32],
        exclude: &[ItemId],
        k: usize,
        frontier: &mut Frontier,
        topk: &mut TopK,
    ) -> (u64, u64) {
        topk.reset(k);
        let heap = &mut frontier.0;
        heap.clear();
        if k == 0 {
            return (0, 0);
        }
        let tax = scorer.model().taxonomy();
        let pad = Pad::new(query);
        let cats = &self.shape.cats;
        let category = |slot: u32| {
            let cat = &cats[slot as usize];
            let dot = kernel.dot(query, scorer.node_factor(NodeId(cat.node)));
            Entry {
                bound: pad.bound(dot, cat.norm, self.radius[slot as usize]),
                dot,
                slot,
                pos: 0,
                kind: Kind::Category,
            }
        };
        heap.push(category(0));
        let mut rows = 0u64;
        let mut cat_rows = 1u64;
        loop {
            let Some(mut top) = heap.peek_mut() else {
                break;
            };
            if topk.len() == k && f64::from(topk.threshold()) > top.bound {
                break;
            }
            let slot = top.slot as usize;
            let norm = cats[slot].norm;
            if top.kind == Kind::Category {
                // The category becomes a cursor over each non-empty
                // list of its own items — the first in place — and its
                // child categories join the frontier.
                let dot = top.dot;
                let mut cursors = [Kind::Base, Kind::Added]
                    .into_iter()
                    .filter_map(|kind| Some((kind, self.list(slot, kind).first()?.1)));
                match cursors.next() {
                    Some((kind, r)) => {
                        top.bound = pad.bound(dot, norm, r);
                        top.kind = kind;
                        drop(top);
                    }
                    None => drop(PeekMut::pop(top)),
                }
                for (kind, r) in cursors {
                    heap.push(Entry {
                        bound: pad.bound(dot, norm, r),
                        dot,
                        slot: slot as u32,
                        pos: 0,
                        kind,
                    });
                }
                let (a, b) = cats[slot].children;
                for &d in &self.shape.child_slots[a as usize..b as usize] {
                    heap.push(category(d));
                }
                cat_rows += u64::from(b - a);
                continue;
            }
            let list = self.list(slot, top.kind);
            let (item, _) = list[top.pos as usize];
            let score = kernel.dot(query, scorer.node_factor(tax.item_node(item)));
            rows += 1;
            if exclude.binary_search(&item).is_err() {
                topk.offer(item, score);
            }
            match list.get(top.pos as usize + 1) {
                Some(&(_, r)) => {
                    top.bound = pad.bound(top.dot, norm, r);
                    top.pos += 1;
                }
                None => drop(PeekMut::pop(top)),
            }
        }
        (rows, cat_rows)
    }
}

/// A [`WalkIndex`] primed with one query's rounding [`Pad`].
pub(crate) struct ItemBounds<'a> {
    index: &'a WalkIndex,
    pad: Pad,
}

impl ItemBounds<'_> {
    /// The items directly under category `node`, whose computed score
    /// is `dot`: its build-time list, then its added list, each as
    /// `(item, bound)` pairs where `bound` is at least the item's
    /// computed score and never rises along the list.
    pub(crate) fn runs(
        &self,
        node: NodeId,
        dot: f32,
    ) -> impl Iterator<Item = impl Iterator<Item = (ItemId, f64)> + '_> + '_ {
        let slot = self.index.slot(node);
        let norm = self.index.shape.cats[slot].norm;
        [Kind::Base, Kind::Added].into_iter().map(move |kind| {
            self.index
                .list(slot, kind)
                .iter()
                .map(move |&(item, r)| (item, self.pad.bound(dot, norm, r)))
        })
    }
}

/// `R` of a parent through a child `up` away whose own radius is `r`.
fn chain(up: f32, r: f32) -> f32 {
    round_up(f64::from(up) + f64::from(r))
}

/// One frontier entry: a category, or a cursor at `pos` of one of a
/// category's lists. `dot` is the category's computed score
/// `fl(q·e_c)`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    bound: f64,
    dot: f32,
    slot: u32,
    pos: u32,
    kind: Kind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound.total_cmp(&other.bound)
    }
}

/// Per-worker frontier of the walk, reused across requests.
#[derive(Debug, Default)]
pub(super) struct Frontier(BinaryHeap<Entry>);

/// The rigorous f32-rounding pad of the walk's bounds.
///
/// The walk compares *computed* scores, so both `q·e_c` and `q·e_i`
/// carry the rounding of a K-term f32 dot. For any summation order
/// (the lane split of [`F32Kernel::dot`] included) with a separate
/// multiply and add per term (Higham, Thm. 3.5, plus gradual
/// underflow):
///
/// ```text
/// |fl(q·x) − q·x| ≤ γ_K·Σ|q_j·x_j| + K·η ≤ γ_K·‖q‖·‖x‖ + K·η
///     u = 2⁻²⁴,  γ_K = K·u / (1 − K·u),  η = 2⁻¹⁵⁰
/// ```
///
/// With `‖e_i‖ ≤ ‖e_c‖ + r` and `r ≥ ‖e_i − e_c‖`:
///
/// ```text
/// fl(q·e_i) ≤ fl(q·e_c) + ‖q‖·r + γ_K·‖q‖·(2‖e_c‖ + r) + 2K·η
/// ```
///
/// [`bound`](Pad::bound) evaluates this in f64 with `γ_K` doubled and
/// `η` quadrupled: the extra `γ_K·‖q‖·(2‖e_c‖ + r)` covers the f64
/// rounding of `‖q‖` and of the sum (each ≤ (K + 8)·2⁻⁵³ relative,
/// eight orders below `γ_K`); the stored `‖e_c‖` and `r` are already
/// rounded up. `r = 0` needs no pad at all: every row it covers is
/// value-equal to `e_c`, so its computed score *is* `fl(q·e_c)` — exact
/// ties stay exact, and the strict stop alone decides them.
struct Pad {
    /// `‖q‖` in f64.
    qn: f64,
    /// `2·γ_K`.
    rel: f64,
    /// `4K·η`.
    abs: f64,
}

impl Pad {
    fn new(query: &[f32]) -> Pad {
        let k = query.len() as f64;
        let u = f64::from(f32::EPSILON) / 2.0;
        debug_assert!(k * u < 0.5, "K = {k} is past the rounding model");
        Pad {
            qn: query
                .iter()
                .map(|&x| f64::from(x) * f64::from(x))
                .sum::<f64>()
                .sqrt(),
            rel: 2.0 * k * u / (1.0 - k * u),
            abs: k * 2f64.powi(-148),
        }
    }

    /// Upper bound on the computed score of any item within `r` of a
    /// category with computed score `dot` and norm `norm`.
    #[inline]
    fn bound(&self, dot: f32, norm: f32, r: f32) -> f64 {
        let dot = f64::from(dot);
        if r == 0.0 {
            return dot;
        }
        let (norm, r) = (f64::from(norm), f64::from(r));
        dot + self.qn * (r + self.rel * (2.0 * norm + r)) + self.abs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::inference::{cascade, CascadeConfig};
    use crate::recommend::{Backend, RecommendEngine, RecommendRequest};
    use crate::TfTrainer;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use taxrec_dataset::{DatasetConfig, SyntheticDataset, Transaction};
    use taxrec_taxonomy::{TaxonomyBuilder, TaxonomyGenerator, TaxonomyShape};

    fn model(sigma: f32) -> TfModel {
        let tax = TaxonomyGenerator::new(TaxonomyShape {
            level_sizes: vec![3, 9, 27],
            num_items: 400,
            item_skew: 0.9,
        })
        .generate(&mut StdRng::seed_from_u64(3))
        .taxonomy;
        let cfg = ModelConfig::tf(4, 0)
            .with_factors(8)
            .with_node_init_sigma(sigma);
        TfModel::init(cfg, Arc::new(tax), 16, 9)
    }

    /// Every stored radius bounds the true distances below it, and the
    /// lists are in walk order.
    fn assert_sound<M: Deref<Target = TfModel>>(index: &WalkIndex, scorer: &Scorer<M>) {
        let tax = scorer.model().taxonomy();
        let mut listed = 0;
        for (s, cat) in index.shape.cats.iter().enumerate() {
            let c = NodeId(cat.node);
            for kind in [Kind::Base, Kind::Added] {
                let list = index.list(s, kind);
                assert!(list.windows(2).all(|w| by_radius(&w[0], &w[1]).is_lt()));
                listed += list.len();
                for &(item, r) in list {
                    assert_eq!(tax.parent(tax.item_node(item)), Some(c));
                    assert_eq!(r, distance(scorer.item_factor(item), scorer.node_factor(c)));
                }
            }
            for item in tax.item_ids() {
                let under = tax.root_path(tax.item_node(item)).any(|n| n == c);
                if under {
                    let d = distance(scorer.item_factor(item), scorer.node_factor(c));
                    assert!(d <= index.radius[s], "item {item} under {c}");
                }
            }
        }
        assert_eq!(listed, tax.num_items());
    }

    #[test]
    fn radii_bound_every_item_and_grow_with_offset_items() {
        let mut m = model(0.3);
        let mut scorer = Scorer::new(Arc::new(m.clone()));
        let mut index = WalkIndex::build(&scorer);
        assert_sound(&index, &scorer);
        // Appended items with large offsets must raise R on every
        // ancestor; only their parent's added list is copied.
        let mut rng = StdRng::seed_from_u64(4);
        let tax = m.taxonomy().clone();
        let parents = [
            tax.parent(tax.item_node(ItemId(0))).unwrap(),
            NodeId(tax.nodes_at_level(1)[1]),
            NodeId::ROOT,
        ];
        for (step, &parent) in parents.iter().cycle().take(12).enumerate() {
            let prev_items = m.num_items();
            let item = m.add_item_mut(parent).unwrap();
            let node = m.taxonomy().item_node(item).index();
            for x in m.node_factors.row_mut(node) {
                *x = rng.gen_range(-3.0..3.0);
            }
            let next_scorer = Scorer::grown_from(&scorer, Arc::new(m.clone()));
            let next = index.grown(&next_scorer, prev_items);
            assert_sound(&next, &next_scorer);
            let slot = next
                .shape
                .cats
                .binary_search_by_key(&parent.0, |c| c.node)
                .unwrap();
            assert!(Arc::ptr_eq(&index.shape, &next.shape));
            for s in 0..index.radius.len() {
                let shared = std::ptr::eq(index.list(s, Kind::Added), next.list(s, Kind::Added));
                assert_eq!(shared, s != slot, "step {step} slot {s}");
            }
            for (g, (a, b)) in index.added.iter().zip(&next.added).enumerate() {
                assert_eq!(
                    Arc::ptr_eq(a, b),
                    g != slot / ADDED_GROUP,
                    "step {step} group {g}"
                );
            }
            (scorer, index) = (next_scorer, next);
        }
    }

    #[test]
    fn zero_offsets_give_zero_radii() {
        let m = model(0.0);
        let index = WalkIndex::build(&Scorer::new(&m));
        assert!(index.radius.iter().all(|&r| r == 0.0));
    }

    // The cases below give items offsets that training never produces
    // (appended items with non-zero offsets, offsets laid out to make a
    // bound exact), so they write `node_factors` directly. The public
    // API cases are in `tests/differential_walk.rs`.

    fn bits(list: &[(ItemId, f32)]) -> Vec<(ItemId, u32)> {
        list.iter().map(|&(id, s)| (id, s.to_bits())).collect()
    }

    /// Every user × exclusion set × `k` through the walk and the
    /// exhaustive scan of `engine`: same ids, same score bits.
    fn check<M: Deref<Target = TfModel>>(
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
                }
            }
        }
    }

    /// Without a radius raise on every ancestor, an appended item whose
    /// offset moves it away from its parent is skipped by the walk.
    #[test]
    fn appended_items_with_offsets_raise_every_ancestor_radius() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny().with_users(40), 3);
        let mut model = TfTrainer::new(
            ModelConfig::tf(4, 0).with_factors(6).with_epochs(2),
            &d.taxonomy,
        )
        .fit(&d.train, 7);
        let tax = model.taxonomy_arc();
        let parents = [
            tax.parent(tax.item_node(ItemId(0))).unwrap(),
            NodeId(tax.nodes_at_level(1)[0]),
            NodeId::ROOT,
        ];
        let users: Vec<(usize, Vec<Transaction>)> = (0..12).map(|u| (u, Vec::new())).collect();
        let mut rng = StdRng::seed_from_u64(99);
        let mut engine = RecommendEngine::with_backend(Arc::new(model.clone()), Backend::Walk);
        for step in 0..24 {
            let item = model.add_item_mut(parents[step % parents.len()]).unwrap();
            let node = model.taxonomy().item_node(item).index();
            for x in model.node_factors.row_mut(node) {
                *x = rng.gen_range(-2.0..2.0);
            }
            engine = RecommendEngine::grown_from(&engine, Arc::new(model.clone()), Backend::Walk);
            if step % 4 == 3 {
                check(&engine, &users, &format!("offset add {step}"));
            }
        }
    }

    /// Items whose offsets are parallel to the query: each item's bound
    /// is its exact score in real arithmetic, and hundreds of items
    /// share one f32 score whose ids the walk meets largest first.
    /// Without the rounding pad the walk stops while a smaller id that
    /// ties is unseen.
    #[test]
    fn tight_bounds_hold_only_with_the_rounding_pad() {
        let k_dim = 8;
        let mut b = TaxonomyBuilder::new();
        let cats = b.add_children(NodeId::ROOT, 4).unwrap();
        for &c in &cats {
            b.add_children(c, 300).unwrap();
        }
        let tax = Arc::new(b.freeze());
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..6 {
            let mut model = TfModel::init(
                ModelConfig::tf(2, 0)
                    .with_factors(k_dim)
                    .with_node_init_sigma(1.0),
                Arc::clone(&tax),
                0,
                trial,
            );
            let dir: Vec<f32> = (0..k_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for &c in &cats {
                // A category row far larger than the offsets below it,
                // so score rounding dwarfs the radius rounding.
                for x in model.node_factors.row_mut(c.index()) {
                    *x *= 8.0;
                }
                for (j, &leaf) in tax.children(c).iter().enumerate() {
                    let alpha = 0.01 + j as f32 * 1e-7;
                    for (x, &u) in model
                        .node_factors
                        .row_mut(leaf as usize)
                        .iter_mut()
                        .zip(&dir)
                    {
                        *x = alpha * u;
                    }
                }
            }
            let users: Vec<(usize, Vec<Transaction>)> = [1.0f32, 3.0, -2.0]
                .iter()
                .map(|&beta| {
                    let q: Vec<f32> = dir.iter().map(|&u| beta * u).collect();
                    (model.push_user(&q), Vec::new())
                })
                .collect();
            let engine = RecommendEngine::with_backend(&model, Backend::Walk);
            check(&engine, &users, &format!("tight trial {trial}"));
        }
    }

    /// A random tree: each new node hangs under a random earlier
    /// category (or the root); nodes left childless are the items.
    fn random_tree(picks: &[(u16, u8)]) -> taxrec_taxonomy::Taxonomy {
        let mut b = TaxonomyBuilder::new();
        let mut categories = vec![NodeId::ROOT];
        for &(pick, kind) in picks {
            let parent = categories[pick as usize % categories.len()];
            let node = b.add_child(parent).unwrap();
            // One node in five may take children.
            if kind == 0 {
                categories.push(node);
            }
        }
        b.freeze()
    }

    // Random trees (shallow items, depth 1 included), factors and
    // offset adds: the walk serves the exhaustive ranking, and the
    // cascaded beam cut by the same bounds serves what it serves
    // scoring every child.
    proptest! {
        #[test]
        fn walk_equals_exhaustive_on_random_trees_and_factors(
            picks in proptest::collection::vec((any::<u16>(), 0u8..5), 2..160),
            sigma_pick in 0usize..3,
            u in 1usize..5,
            b in 0usize..3,
            k_dim in 1usize..10,
            seed in any::<u64>(),
            adds in proptest::collection::vec(any::<u16>(), 0..12),
            k in 0usize..40,
            exclude_raw in proptest::collection::vec(any::<u32>(), 0..20),
        ) {
            let tax = random_tree(&picks);
            if tax.num_items() == 0 {
                return Ok(());
            }
            let sigma = [0.0f32, 0.05, 1.0][sigma_pick];
            let mut model = TfModel::init(
                ModelConfig::tf(u, b).with_factors(k_dim).with_node_init_sigma(sigma),
                Arc::new(tax),
                4,
                seed,
            );
            let mut engine = RecommendEngine::with_backend(Arc::new(model.clone()), Backend::Walk);
            let categories: Vec<NodeId> = {
                let t = model.taxonomy();
                t.node_ids().filter(|&n| t.node_item(n).is_none()).collect()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            for &a in &adds {
                let item = model.add_item_mut(categories[a as usize % categories.len()]).unwrap();
                if a % 3 == 0 {
                    let node = model.taxonomy().item_node(item).index();
                    for x in model.node_factors.row_mut(node) {
                        *x = rng.gen_range(-1.0..1.0);
                    }
                }
                engine = RecommendEngine::grown_from(&engine, Arc::new(model.clone()), Backend::Walk);
            }
            let n = model.num_items() as u32;
            let mut exclude: Vec<ItemId> = exclude_raw.iter().map(|&i| ItemId(i % n)).collect();
            exclude.sort_unstable();
            exclude.dedup();
            let history: Vec<Transaction> = vec![vec![ItemId(0)], vec![ItemId(n - 1), ItemId(n / 2)]];
            let depth = model.taxonomy().depth();
            for user in 0..model.num_users() {
                let req = RecommendRequest { user, history: &history, k, exclude: &exclude };
                let want = engine.recommend_with(&req, &Backend::Exhaustive);
                let got = engine.recommend_with(&req, &Backend::Walk);
                prop_assert_eq!(bits(&got), bits(&want), "user {} k {}", user, k);
                // The beam's bottom level, cut by these bounds, against
                // the beam scoring every child.
                let query = engine.scorer().query(user, &history);
                for f in [0.3, 1.0] {
                    let cfg = CascadeConfig::uniform(depth, f);
                    let want: Vec<(ItemId, f32)> = cascade(engine.scorer(), &query, &cfg)
                        .items
                        .into_iter()
                        .filter(|(i, _)| exclude.binary_search(i).is_err())
                        .take(k)
                        .collect();
                    let got = engine.recommend_with(&req, &Backend::Cascaded(cfg));
                    prop_assert_eq!(bits(&got), bits(&want), "cascade {} user {} k {}", f, user, k);
                }
            }
        }
    }
}
