//! Property tests for catalog sharding: for arbitrary catalogs, shard
//! counts `S ∈ 1..=8`, `k`, and exclusion sets, the sharded top-K
//! equals the unsharded top-K bit-for-bit, and the partitioner covers
//! the catalog exactly once (no gap, no overlap), aligning to top-level
//! subtrees whenever the taxonomy permits it.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use taxrec_core::recommend::shards::CatalogPartition;
use taxrec_core::recommend::{Backend, RecommendEngine, RecommendRequest};
use taxrec_core::{ModelConfig, TfModel};
use taxrec_taxonomy::{
    ItemId, NodeId, Taxonomy, TaxonomyBuilder, TaxonomyGenerator, TaxonomyShape,
};

/// Shared randomly-initialised models (expensive to build; the cases
/// randomise the query side — user, k, S, exclusions).
fn models() -> &'static Vec<TfModel> {
    static MODELS: OnceLock<Vec<TfModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        [7u64, 501, 9004]
            .iter()
            .map(|&seed| {
                let tax = Arc::new(
                    TaxonomyGenerator::new(TaxonomyShape {
                        level_sizes: vec![4, 9, 18],
                        num_items: 120 + (seed as usize % 90),
                        item_skew: 0.7,
                    })
                    .generate(&mut StdRng::seed_from_u64(seed))
                    .taxonomy,
                );
                // Gaussian node offsets so untrained scores are
                // non-degenerate; equal scores still arise through
                // items sharing a leaf... which cannot happen, so ties
                // are exercised separately below via a shared-parent
                // zero-sigma model.
                TfModel::init(
                    ModelConfig::tf(4, 1)
                        .with_factors(6)
                        .with_node_init_sigma(0.2),
                    tax,
                    30,
                    seed ^ 0x5A5A,
                )
            })
            .collect()
    })
}

/// A model whose per-item scores are massively tied: zero node-offset
/// sigma puts every item's effective factor equal to its ancestors'
/// sum, so all siblings under one lowest-level category tie exactly —
/// the adversarial case for a merge that "silently reorders ties".
fn tied_model() -> &'static TfModel {
    static MODEL: OnceLock<TfModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let tax = Arc::new(
            TaxonomyGenerator::new(TaxonomyShape {
                level_sizes: vec![3, 6, 10],
                num_items: 140,
                item_skew: 0.9,
            })
            .generate(&mut StdRng::seed_from_u64(77))
            .taxonomy,
        );
        // node_init_sigma = 0 → leaf offsets are zero → items tie
        // within their category.
        TfModel::init(ModelConfig::tf(4, 0).with_factors(5), tax, 20, 3)
    })
}

fn partition_covers(tax: &Taxonomy, s: usize) {
    let p = CatalogPartition::plan(tax, s);
    let n = tax.num_items();
    let mut next = 0usize;
    for r in p.ranges() {
        assert_eq!(r.start, next, "S={s}: gap or overlap at {next}");
        assert!(!r.is_empty() || n == 0, "S={s}: empty shard");
        next = r.end;
    }
    assert_eq!(next, n, "S={s}: items dropped");
    assert!(p.len() <= s.max(1), "S={s}: more shards than requested");
}

proptest! {
    #[test]
    fn partitioner_covers_generated_catalogs_exactly_once(
        seed in any::<u64>(),
        top in 2usize..6,
        mid in 4usize..12,
        items in 30usize..220,
        s in 1usize..=8,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let tax = TaxonomyGenerator::new(TaxonomyShape {
            level_sizes: vec![top, mid],
            num_items: items,
            item_skew: 0.8,
        })
        .generate(&mut StdRng::seed_from_u64(seed))
        .taxonomy;
        partition_covers(&tax, s);
    }

    #[test]
    fn partitioner_aligns_to_subtrees_when_the_taxonomy_permits(
        counts in proptest::collection::vec(1usize..40, 2..10),
        s in 1usize..=8,
    ) {
        // Items laid out contiguously per top-level category: every
        // subtree owns one id run, so alignment is possible whenever
        // there are at least `s` subtrees.
        let mut b = TaxonomyBuilder::new();
        let cats: Vec<NodeId> = counts.iter().map(|_| b.add_child(NodeId::ROOT).unwrap()).collect();
        for (cat, &c) in cats.iter().zip(&counts) {
            for _ in 0..c {
                b.add_child(*cat).unwrap();
            }
        }
        let tax = b.freeze();
        partition_covers(&tax, s);
        let p = CatalogPartition::plan(&tax, s);
        if counts.len() >= s {
            prop_assert!(p.aligned(), "alignment possible but not taken");
            prop_assert_eq!(
                p.len(), s,
                "aligned packing collapsed below the requested shard count"
            );
            // Every boundary is a cumulative subtree boundary.
            let mut bounds = vec![0usize];
            let mut acc = 0usize;
            for &c in &counts {
                acc += c;
                bounds.push(acc);
            }
            for r in p.ranges() {
                prop_assert!(bounds.contains(&r.start), "{r:?} cuts inside a subtree");
                prop_assert!(bounds.contains(&r.end), "{r:?} cuts inside a subtree");
            }
        }
    }

    #[test]
    fn sharded_top_k_is_bit_identical_to_unsharded(
        model_pick in any::<proptest::sample::Index>(),
        user_pick in any::<proptest::sample::Index>(),
        s in 1usize..=8,
        k in 0usize..50,
        history_raw in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 1..4), 0..3),
        exclude_raw in proptest::collection::vec(any::<u32>(), 0..14),
    ) {
        let m = &models()[model_pick.index(models().len())];
        let n = m.num_items() as u32;
        let user = user_pick.index(m.num_users());
        let history: Vec<Vec<ItemId>> = history_raw
            .iter()
            .map(|b| b.iter().map(|&i| ItemId(i % n)).collect())
            .collect();
        let mut exclude: Vec<ItemId> = exclude_raw.iter().map(|&i| ItemId(i % n)).collect();
        exclude.sort_unstable();
        exclude.dedup();
        let req = RecommendRequest { user, history: &history, k, exclude: &exclude };

        let oracle = RecommendEngine::new(m);
        let sharded = RecommendEngine::with_backend_sharded(m, Backend::Exhaustive, s);
        let want = oracle.recommend(&req);
        let got = sharded.recommend(&req);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.0, w.0, "id order diverged (S={}, k={})", s, k);
            prop_assert_eq!(
                g.1.to_bits(), w.1.to_bits(),
                "score bits diverged (S={}, k={})", s, k
            );
        }
    }

    #[test]
    fn sharded_top_k_handles_massive_ties(
        user_pick in any::<proptest::sample::Index>(),
        s in 2usize..=8,
        k in 1usize..60,
    ) {
        // Tied scores straddling shard boundaries are where a sloppy
        // merge reorders silently; the tie-break (id ascending) must
        // make sharded == unsharded exactly.
        let m = tied_model();
        let user = user_pick.index(m.num_users());
        let req = RecommendRequest::simple(user, k);
        let oracle = RecommendEngine::new(m);
        let sharded = RecommendEngine::with_backend_sharded(m, Backend::Exhaustive, s);
        let want = oracle.recommend(&req);
        prop_assert_eq!(&sharded.recommend(&req), &want);
        // The ranking itself obeys the documented total order.
        for w in want.windows(2) {
            prop_assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "output violates (score desc, id asc): {:?}", w
            );
        }
    }
}
