//! Reusable heap-based top-K selection and the blocked scoring kernel.
//!
//! [`TopK`] is a bounded min-heap that an engine worker resets and
//! refills once per request — no per-request allocation after the first
//! use. Selection implements the total order **(score descending, item
//! id ascending)** exactly, for *any* offer order: a full heap evicts
//! its worst entry (minimum score; largest item id among equal scores)
//! whenever a strictly better candidate arrives — better score, or an
//! equal score with a smaller id. That total order is what makes the
//! per-shard merge ([`crate::recommend::shards`]) bit-for-bit identical
//! to a single catalog-wide heap even when tied scores straddle a shard
//! boundary; [`Scorer::top_k_items`] selects through it too.
//!
//! [`score_block_into`] scores one query against a contiguous block of
//! rows into a dense score buffer, one [`ops::dot`] per row. The
//! exhaustive scan keeps that shape — a [`SCORE_BLOCK`] of dot products
//! (one per item row, read from the scorer's table) before any heap
//! push — and the heap then consumes the block with a cheap
//! `> threshold` pre-filter.
//!
//! [`Scorer::top_k_items`]: crate::scoring::Scorer::top_k_items

use std::cmp::Ordering;
use taxrec_factors::ops;
use taxrec_taxonomy::ItemId;

/// THE ranking order of this crate: score descending, item id ascending
/// on equal scores (`Ordering::Less` = ranks earlier). Every selection
/// and merge path — [`TopK`],
/// [`Scorer::top_k_items`](crate::scoring::Scorer::top_k_items), the
/// shard merge in [`crate::recommend::shards`] — must use this one
/// function (or [`ranks_before`]); the sharded ≡ unsharded law holds
/// only while they agree bit for bit.
#[inline]
pub fn rank_cmp(a: &(ItemId, f32), b: &(ItemId, f32)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.0.cmp(&b.0))
}

/// `true` iff candidate `a` outranks `b` under [`rank_cmp`] — the
/// admission/eviction predicate of every bounded selection heap.
#[inline]
pub fn ranks_before(a: (ItemId, f32), b: (ItemId, f32)) -> bool {
    a.1 > b.1 || (a.1 == b.1 && a.0 < b.0)
}

/// Min-heap entry ordered so the *worst* kept candidate is at the root.
#[derive(Debug, Clone, Copy)]
struct Entry {
    score: f32,
    item: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.item == other.item
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
        // Reversed on score: the backing heap is a max-heap, so
        // "greater" here means "worse candidate" — lower score, and
        // among equal scores the *larger* item id (the entry the
        // (score desc, id asc) total order ranks last).
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.item.cmp(&other.item))
    }
}

/// A bounded top-K accumulator, reusable across requests.
///
/// The backing storage is kept between [`reset`](TopK::reset) calls, so
/// a worker thread allocates once and serves any number of requests.
#[derive(Debug, Default)]
pub struct TopK {
    k: usize,
    heap: Vec<Entry>,
}

impl TopK {
    /// A fresh accumulator (no capacity reserved yet).
    pub fn new() -> TopK {
        TopK::default()
    }

    /// Clear and re-arm for a request wanting `k` items.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
        // `reserve` is relative to the (now zero) length, so this
        // guarantees capacity ≥ k + 1 — no reallocation during offers.
        self.heap.reserve(k + 1);
    }

    /// Candidates currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` iff no candidate has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The score a candidate must beat to enter a full heap, or `-inf`
    /// while the heap still has room. A candidate *equal* to the
    /// threshold can still enter on the id tie-break (see
    /// [`offer`](TopK::offer)) — but never when offered in ascending
    /// item order, which is what lets scan loops pre-filter blocks with
    /// a plain `> threshold` test.
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.k == 0 {
            return f32::INFINITY;
        }
        if self.heap.len() < self.k {
            f32::NEG_INFINITY
        } else {
            self.heap[0].score
        }
    }

    /// Offer one candidate: a full heap admits it iff it beats the
    /// current worst entry under the (score desc, id asc) total order.
    #[inline]
    pub fn offer(&mut self, item: ItemId, score: f32) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.push(Entry {
                score,
                item: item.0,
            });
        } else {
            let root = self.heap[0];
            if ranks_before((item, score), (ItemId(root.item), root.score)) {
                self.pop_root();
                self.push(Entry {
                    score,
                    item: item.0,
                });
            }
        }
    }

    /// Drain into `out`, best first under [`rank_cmp`] (descending
    /// score; ascending item id among exactly-equal scores).
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(ItemId, f32)>) {
        out.clear();
        out.extend(self.heap.iter().map(|e| (ItemId(e.item), e.score)));
        self.heap.clear();
        out.sort_by(rank_cmp);
    }

    // Plain sift-up/sift-down on the Vec; `BinaryHeap` itself would force
    // a fresh allocation per request (`into_iter` consumes it).
    fn push(&mut self, e: Entry) {
        self.heap.push(e);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] <= self.heap[parent] {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn pop_root(&mut self) {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.pop();
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut biggest = i;
            if l < n && self.heap[l] > self.heap[biggest] {
                biggest = l;
            }
            if r < n && self.heap[r] > self.heap[biggest] {
                biggest = r;
            }
            if biggest == i {
                break;
            }
            self.heap.swap(i, biggest);
            i = biggest;
        }
    }
}

/// Number of items scored per block by the exhaustive scan.
///
/// 256 rows × K=16 f32 ≈ 16 KiB of factors per block — comfortably
/// inside L1/L2 alongside the query and score buffer.
pub const SCORE_BLOCK: usize = 256;

/// Score a contiguous block of rows against one query.
///
/// `rows` is a row-major slice of `n` rows of `query.len()` factors;
/// `out[i]` receives the score of row `i`.
///
/// # Panics
/// If `rows.len() != out.len() * query.len()` (debug builds).
#[inline]
pub fn score_block_into(query: &[f32], rows: &[f32], out: &mut [f32]) {
    let k = query.len();
    debug_assert_eq!(rows.len(), out.len() * k);
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(k)) {
        *o = ops::dot(query, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(scores: &[f32], k: usize) -> Vec<(ItemId, f32)> {
        let mut t = TopK::new();
        t.reset(k);
        for (i, &s) in scores.iter().enumerate() {
            t.offer(ItemId(i as u32), s);
        }
        let mut out = Vec::new();
        t.drain_sorted_into(&mut out);
        out
    }

    #[test]
    fn matches_full_sort() {
        let scores = [0.3f32, -1.0, 2.5, 2.5, 0.0, 7.0, -3.2, 0.3];
        let got = select(&scores, 4);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], (ItemId(5), 7.0));
        // Equal scores come out in ascending item order.
        assert_eq!(got[1], (ItemId(2), 2.5));
        assert_eq!(got[2], (ItemId(3), 2.5));
        assert_eq!(got[3], (ItemId(0), 0.3));
    }

    #[test]
    fn k_larger_than_candidates() {
        let got = select(&[1.0, 2.0], 10);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, ItemId(1));
    }

    #[test]
    fn k_zero_keeps_nothing() {
        let got = select(&[1.0, 2.0], 0);
        assert!(got.is_empty());
    }

    #[test]
    fn reuse_does_not_leak_state() {
        let mut t = TopK::new();
        t.reset(2);
        t.offer(ItemId(0), 9.0);
        t.offer(ItemId(1), 8.0);
        let mut out = Vec::new();
        t.drain_sorted_into(&mut out);
        assert_eq!(out.len(), 2);

        t.reset(3);
        t.offer(ItemId(5), 1.0);
        t.drain_sorted_into(&mut out);
        assert_eq!(out, vec![(ItemId(5), 1.0)]);
    }

    #[test]
    fn threshold_tracks_worst_kept() {
        let mut t = TopK::new();
        t.reset(2);
        assert_eq!(t.threshold(), f32::NEG_INFINITY);
        t.offer(ItemId(0), 3.0);
        t.offer(ItemId(1), 5.0);
        assert_eq!(t.threshold(), 3.0);
        t.offer(ItemId(2), 4.0); // evicts 3.0
        assert_eq!(t.threshold(), 4.0);
        t.offer(ItemId(3), 1.0); // below threshold: ignored
        assert_eq!(t.threshold(), 4.0);
    }

    #[test]
    fn boundary_ties_keep_lowest_ids_in_any_offer_order() {
        // Four candidates tie at the boundary score; the kept pair must
        // be the two lowest ids under the (score desc, id asc) total
        // order, no matter how arrivals interleave with the eviction.
        for order in [
            vec![(0u32, 1.0f32), (5, 1.0), (2, 1.0), (9, 1.0), (3, 7.0)],
            vec![(9, 1.0), (5, 1.0), (3, 7.0), (2, 1.0), (0, 1.0)],
            vec![(3, 7.0), (9, 1.0), (2, 1.0), (0, 1.0), (5, 1.0)],
        ] {
            let mut t = TopK::new();
            t.reset(3);
            for (i, s) in &order {
                t.offer(ItemId(*i), *s);
            }
            let mut out = Vec::new();
            t.drain_sorted_into(&mut out);
            assert_eq!(
                out,
                vec![(ItemId(3), 7.0), (ItemId(0), 1.0), (ItemId(2), 1.0)],
                "offer order {order:?}"
            );
        }
    }

    #[test]
    fn block_kernel_matches_scalar_dots() {
        // Widths straddling the lane-split boundary (DOT_LANES = 8):
        // sub-lane, exact multiples, and ragged tails — and block row
        // counts that are not multiples of SCORE_BLOCK either.
        for k in [1usize, 3, 7, 8, 9, 16, 19, 32, 33] {
            for n_rows in [1usize, 2, 5, 8, 13] {
                let query: Vec<f32> = (0..k).map(|i| (i as f32 * 0.37 - 1.1).sin()).collect();
                let rows: Vec<f32> = (0..n_rows * k)
                    .map(|i| (i as f32 * 0.11 - 2.3).cos() * 1.7)
                    .collect();
                let mut out = vec![0.0f32; n_rows];
                score_block_into(&query, &rows, &mut out);
                for i in 0..n_rows {
                    let expect = ops::dot(&query, &rows[i * k..(i + 1) * k]);
                    assert_eq!(
                        out[i].to_bits(),
                        expect.to_bits(),
                        "k={k} n_rows={n_rows} row={i}"
                    );
                }
            }
        }
    }
}
