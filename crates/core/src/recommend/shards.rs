//! Catalog partitioning for sharded exhaustive scans, plus the
//! deterministic merge of the per-shard winners.
//!
//! At catalog scale the exhaustive scan itself must be partitioned —
//! the same way analytical engines split a table scan across workers.
//! [`CatalogPartition::plan`] cuts the dense item-id space into `S`
//! **contiguous** ranges:
//!
//! * **Subtree-aligned** when the taxonomy permits it: if every
//!   top-level category subtree owns one contiguous run of item ids
//!   (and there are at least `S` such runs), whole subtrees are packed
//!   into shards balanced by item count — a shard then corresponds to a
//!   set of top-level categories, which keeps category-local update
//!   traffic (new items under one department) on one shard.
//! * **Even ranges** otherwise: `S` near-equal contiguous slices of the
//!   id space. Generated catalogs interleave items across categories
//!   (items land in id order, not subtree order), so this is the common
//!   fallback.
//!
//! Either way the partition tiles the catalog exactly once: no gaps, no
//! overlap, no empty shard. Each shard is scanned with the same blocked
//! top-K kernel as the unsharded engine, and the per-shard winners are
//! merged by [`merge_topk`] under the total order
//! **(score descending, item id ascending)** — the identical tie-break
//! the single-heap path uses, which is what makes the sharded ranking
//! bit-for-bit equal to the unsharded one (property-tested in
//! `tests/proptest_shards.rs`, replayed end-to-end in
//! `tests/differential_shards.rs`).

use super::topk::rank_cmp;
use taxrec_taxonomy::{ItemId, Taxonomy};

/// One contiguous range of item ids owned by a scan shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First item id (inclusive).
    pub start: usize,
    /// Past-the-end item id.
    pub end: usize,
}

impl ShardRange {
    /// Number of items in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` iff the range owns no items.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// How a catalog was cut into scan shards (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogPartition {
    ranges: Vec<ShardRange>,
    aligned: bool,
}

impl CatalogPartition {
    /// Partition the items of `tax` into at most `shards` contiguous
    /// ranges. The shard count is clamped to `[1, num_items]` so no
    /// shard is ever empty; a zero-item catalog yields one empty range.
    pub fn plan(tax: &Taxonomy, shards: usize) -> CatalogPartition {
        let n = tax.num_items();
        if n == 0 {
            return CatalogPartition {
                ranges: vec![ShardRange { start: 0, end: 0 }],
                aligned: false,
            };
        }
        let shards = shards.clamp(1, n);
        if shards == 1 {
            // The full range trivially starts and ends on subtree
            // boundaries; skip the per-item ancestor walk entirely —
            // this is the default path of every unsharded engine.
            return CatalogPartition {
                ranges: vec![ShardRange { start: 0, end: n }],
                aligned: true,
            };
        }

        // Maximal runs of consecutive item ids sharing a top-level
        // (level-1) ancestor. Alignment is possible iff every subtree
        // owns exactly one run — i.e. runs == distinct ancestors — and
        // there are enough runs to cut.
        let mut runs: Vec<(u32, u64)> = Vec::new();
        for i in 0..n {
            let top = tax.ancestor_at_level(tax.item_node(ItemId(i as u32)), 1).0;
            match runs.last_mut() {
                Some((t, c)) if *t == top => *c += 1,
                _ => runs.push((top, 1)),
            }
        }
        let mut tops: Vec<u32> = runs.iter().map(|&(t, _)| t).collect();
        tops.sort_unstable();
        tops.dedup();
        let aligned = tops.len() == runs.len() && runs.len() >= shards;

        let ranges = if aligned {
            // Pack whole runs into exactly `shards` contiguous groups
            // balanced by item count.
            let counts: Vec<u64> = runs.iter().map(|&(_, c)| c).collect();
            let mut run_start = Vec::with_capacity(runs.len() + 1);
            let mut acc = 0usize;
            for &c in &counts {
                run_start.push(acc);
                acc += c as usize;
            }
            run_start.push(acc);
            pack(&counts, shards)
                .into_iter()
                .map(|(s, e)| ShardRange {
                    start: run_start[s],
                    end: run_start[e],
                })
                .collect()
        } else {
            (0..shards)
                .map(|i| ShardRange {
                    start: i * n / shards,
                    end: (i + 1) * n / shards,
                })
                .collect()
        };
        CatalogPartition { ranges, aligned }
    }

    /// The shard ranges, in item-id order.
    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// `true` iff the partition holds no ranges (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// `true` iff every shard boundary coincides with a top-level
    /// subtree boundary (the aligned mode of the module docs).
    pub fn aligned(&self) -> bool {
        self.aligned
    }
}

/// Pack `counts` (one weight per contiguous unit) into **exactly**
/// `min(groups, counts.len())` contiguous `(start, end)` spans of
/// near-equal total weight. Every unit lands in exactly one span and
/// every span is non-empty — unlike the greedy batch planner, a heavy
/// unit at the end can never collapse the packing to fewer groups
/// (each group reserves one unit per group still to come). The aligned
/// partitioner packs subtree runs with it.
pub fn pack(counts: &[u64], groups: usize) -> Vec<(usize, usize)> {
    let groups = groups.max(1).min(counts.len());
    if counts.is_empty() {
        return Vec::new();
    }
    let mut remaining: u64 = counts.iter().sum();
    let mut spans = Vec::with_capacity(groups);
    let mut idx = 0usize;
    for g in 0..groups {
        let groups_left = groups - g;
        // Leave at least one unit for every group still to come.
        let max_end = counts.len() - (groups_left - 1);
        let start = idx;
        let target = (remaining / groups_left as u64).max(1);
        let mut acc = counts[idx];
        idx += 1;
        if groups_left == 1 {
            while idx < counts.len() {
                acc += counts[idx];
                idx += 1;
            }
        } else {
            while idx < max_end && acc < target {
                acc += counts[idx];
                idx += 1;
            }
        }
        remaining -= acc;
        spans.push((start, idx));
    }
    spans
}

/// Deterministic shard merge: fold per-shard top-K lists (each
/// already sorted best-first) into the global top-`k`, draining the
/// partial vectors.
///
/// The comparator is [`rank_cmp`](super::rank_cmp) — THE shared total
/// order (score descending, item id ascending) every selection path of
/// this crate uses. Because item ids are distinct the order is total,
/// so the merge is deterministic regardless of shard count or arrival
/// order, and equals what one catalog-wide heap would have produced:
/// every global winner is also a winner of its own shard (a total
/// order restricted to a subset keeps its top elements), so
/// concatenating the per-shard top-`k` lists always contains the
/// global top-`k`.
pub fn merge_topk(partials: &mut [Vec<(ItemId, f32)>], k: usize, out: &mut Vec<(ItemId, f32)>) {
    out.clear();
    for p in partials.iter_mut() {
        out.append(p);
    }
    out.sort_by(rank_cmp);
    out.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxrec_taxonomy::{NodeId, TaxonomyBuilder};

    /// A 2-level taxonomy whose items are contiguous per top-level
    /// category: cat_i gets `counts[i]` items, in order.
    fn contiguous_tax(counts: &[usize]) -> Taxonomy {
        let mut b = TaxonomyBuilder::new();
        let cats: Vec<NodeId> = counts
            .iter()
            .map(|_| b.add_child(NodeId::ROOT).unwrap())
            .collect();
        for (cat, &c) in cats.iter().zip(counts) {
            for _ in 0..c {
                b.add_child(*cat).unwrap();
            }
        }
        b.freeze()
    }

    /// A taxonomy whose items alternate between two categories, so no
    /// subtree owns a contiguous id run.
    fn interleaved_tax(n: usize) -> Taxonomy {
        let mut b = TaxonomyBuilder::new();
        let a = b.add_child(NodeId::ROOT).unwrap();
        let c = b.add_child(NodeId::ROOT).unwrap();
        for i in 0..n {
            b.add_child(if i % 2 == 0 { a } else { c }).unwrap();
        }
        b.freeze()
    }

    fn assert_covers(p: &CatalogPartition, n: usize) {
        let mut next = 0usize;
        for r in p.ranges() {
            assert_eq!(r.start, next, "gap or overlap at {next}");
            assert!(!r.is_empty() || n == 0, "empty shard {r:?}");
            next = r.end;
        }
        assert_eq!(next, n, "items dropped");
    }

    #[test]
    fn aligned_partition_cuts_at_subtree_boundaries() {
        let tax = contiguous_tax(&[10, 30, 5, 15, 20]);
        let p = CatalogPartition::plan(&tax, 3);
        assert!(p.aligned());
        assert_covers(&p, 80);
        // Every boundary is a cumulative subtree boundary.
        let bounds: Vec<usize> = vec![0, 10, 40, 45, 60, 80];
        for r in p.ranges() {
            assert!(bounds.contains(&r.start), "{r:?} not subtree-aligned");
            assert!(bounds.contains(&r.end), "{r:?} not subtree-aligned");
        }
    }

    #[test]
    fn aligned_partition_never_collapses_below_the_requested_count() {
        // A heavy subtree at the end: a greedy close-on-target cut
        // would swallow every run into one shard. `pack` must still
        // emit exactly 3.
        for counts in [
            vec![5usize, 5, 50],
            vec![1, 1, 10],
            vec![1, 1, 1, 37],
            vec![30, 1, 1],
        ] {
            let tax = contiguous_tax(&counts);
            let p = CatalogPartition::plan(&tax, 3);
            assert!(p.aligned(), "{counts:?}");
            assert_covers(&p, counts.iter().sum());
            assert_eq!(p.len(), 3, "{counts:?} collapsed to {:?}", p.ranges());
        }
    }

    #[test]
    fn pack_emits_exactly_min_groups_and_covers() {
        for (counts, groups) in [
            (vec![5u64, 5, 50], 3usize),
            (vec![50, 5, 5], 3),
            (vec![1; 10], 4),
            (vec![9], 5),
            (vec![3, 3], 1),
        ] {
            let spans = pack(&counts, groups);
            assert_eq!(spans.len(), groups.min(counts.len()), "{counts:?}");
            let mut next = 0usize;
            for &(s, e) in &spans {
                assert_eq!(s, next, "{counts:?}: gap/overlap");
                assert!(e > s, "{counts:?}: empty span");
                next = e;
            }
            assert_eq!(next, counts.len(), "{counts:?}: units dropped");
        }
        assert!(pack(&[], 3).is_empty());
    }

    #[test]
    fn single_shard_is_trivially_aligned_without_the_ancestor_walk() {
        let p = CatalogPartition::plan(&interleaved_tax(12), 1);
        assert!(p.aligned());
        assert_eq!(p.ranges(), &[ShardRange { start: 0, end: 12 }]);
    }

    #[test]
    fn interleaved_catalog_falls_back_to_even_ranges() {
        let tax = interleaved_tax(20);
        let p = CatalogPartition::plan(&tax, 4);
        assert!(!p.aligned());
        assert_covers(&p, 20);
        assert_eq!(p.len(), 4);
        for r in p.ranges() {
            assert_eq!(r.len(), 5);
        }
    }

    #[test]
    fn more_shards_than_subtrees_falls_back() {
        let tax = contiguous_tax(&[40, 40]);
        let p = CatalogPartition::plan(&tax, 4);
        assert!(!p.aligned(), "2 subtrees cannot align 4 shards");
        assert_covers(&p, 80);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn shard_count_clamped_to_catalog() {
        let tax = contiguous_tax(&[1, 1, 1]);
        let p = CatalogPartition::plan(&tax, 64);
        assert_covers(&p, 3);
        assert_eq!(p.len(), 3);
        let p = CatalogPartition::plan(&tax, 0);
        assert_covers(&p, 3);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn empty_catalog_yields_one_empty_range() {
        let tax = TaxonomyBuilder::new().freeze();
        let p = CatalogPartition::plan(&tax, 4);
        assert_eq!(p.ranges(), &[ShardRange { start: 0, end: 0 }]);
    }

    #[test]
    fn merge_matches_single_heap_and_breaks_ties_by_id() {
        use super::super::TopK;
        // Scores with duplicates straddling shard boundaries.
        let scores = [1.0f32, 3.0, 2.0, 3.0, 0.5, 2.0, 3.0, -1.0, 2.0];
        let k = 4;
        // Oracle: one heap over everything.
        let mut heap = TopK::new();
        heap.reset(k);
        for (i, &s) in scores.iter().enumerate() {
            heap.offer(ItemId(i as u32), s);
        }
        let mut want = Vec::new();
        heap.drain_sorted_into(&mut want);
        // Sharded: three ranges, per-shard heaps, merged.
        let mut partials = Vec::new();
        for range in [0..3usize, 3..6, 6..9] {
            let mut t = TopK::new();
            t.reset(k);
            for i in range {
                t.offer(ItemId(i as u32), scores[i]);
            }
            let mut v = Vec::new();
            t.drain_sorted_into(&mut v);
            partials.push(v);
        }
        let mut got = Vec::new();
        merge_topk(&mut partials, k, &mut got);
        assert_eq!(got, want);
        // Ties (three 3.0 scores) come out in ascending id order.
        assert_eq!(got[0].0, ItemId(1));
        assert_eq!(got[1].0, ItemId(3));
        assert_eq!(got[2].0, ItemId(6));
    }

    #[test]
    fn merge_truncates_and_drains() {
        let mut partials = vec![vec![(ItemId(0), 5.0f32)], vec![(ItemId(1), 7.0)]];
        let mut out = Vec::new();
        merge_topk(&mut partials, 1, &mut out);
        assert_eq!(out, vec![(ItemId(1), 7.0)]);
        assert!(
            partials.iter().all(|p| p.is_empty()),
            "partials not drained"
        );
        merge_topk(&mut partials, 0, &mut out);
        assert!(out.is_empty());
    }
}
