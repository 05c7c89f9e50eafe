//! `Taxonomy::push_leaf` ≡ a rebuild from the extended parent array.
//!
//! The live add-item path grows the arena in place instead of
//! re-running the builder's freeze over every node. These properties pin
//! the two together: after any sequence of adds the in-place arena is
//! `==` (every derived index, field for field) to the taxonomy frozen
//! from `parents + [p]`, the returned ids are the appended ones, and a
//! rejected add leaves the arena untouched.

use proptest::prelude::*;
use taxrec_taxonomy::{ItemId, NodeId, Taxonomy, TaxonomyBuilder, TaxonomyError};

/// Freeze `parents[1..]` (node `i`'s parent is `parents[i]`) through
/// the builder — the rebuild `push_leaf` must agree with.
fn rebuilt(parents: &[u32]) -> Taxonomy {
    let mut b = TaxonomyBuilder::with_capacity(parents.len());
    for &p in &parents[1..] {
        b.add_child(NodeId(p)).expect("parent precedes child");
    }
    b.freeze()
}

/// Parent array of a random tree: node `i+1` attaches under
/// `seeds[i] % (i+1)`. An empty `seeds` is the root-only start.
fn parents_from_seeds(seeds: &[u32]) -> Vec<u32> {
    let mut parents = vec![0u32];
    for (i, &s) in seeds.iter().enumerate() {
        parents.push(s % (i as u32 + 1));
    }
    parents
}

/// Push under `parent` and check the outcome against the rebuild (on
/// success) or against the untouched arena (on error). Returns whether
/// the add was accepted.
fn push_and_check(tax: &mut Taxonomy, parents: &mut Vec<u32>, parent: NodeId) -> bool {
    let before = tax.clone();
    let expected = if parent.index() >= before.num_nodes() {
        Err(TaxonomyError::UnknownNode(parent))
    } else if before.is_leaf(parent) && parent != NodeId::ROOT {
        Err(TaxonomyError::FrozenNode(parent))
    } else {
        Ok((
            NodeId(before.num_nodes() as u32),
            ItemId(before.num_items() as u32),
        ))
    };
    assert_eq!(tax.check_push_leaf(parent), expected.clone().map(|_| ()));
    assert_eq!(tax.push_leaf(parent), expected);
    match expected {
        Ok((node, item)) => {
            parents.push(parent.0);
            assert_eq!(*tax, rebuilt(parents), "push_leaf({parent}) != rebuild");
            assert_eq!(tax.item_node(item), node);
            assert_eq!(tax.parent(node), Some(parent));
            // The copying variant is the same operation on a clone.
            let (copy, n, i) = before.with_added_leaf(parent).unwrap();
            assert_eq!((&copy, n, i), (&*tax, node, item));
            true
        }
        Err(e) => {
            assert_eq!(*tax, before, "rejected add must not modify the arena");
            assert_eq!(before.with_added_leaf(parent), Err(e));
            false
        }
    }
}

proptest! {
    #[test]
    fn push_leaf_matches_rebuild_over_random_add_sequences(
        seeds in proptest::collection::vec(any::<u32>(), 0..60),
        adds in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut parents = parents_from_seeds(&seeds);
        let mut tax = rebuilt(&parents);
        for a in adds {
            // Two ids past the arena, so unknown parents occur too;
            // leaves (frozen) are hit on their own.
            let parent = NodeId(a % (tax.num_nodes() as u32 + 2));
            push_and_check(&mut tax, &mut parents, parent);
        }
        prop_assert_eq!(tax.num_nodes(), parents.len());
    }
}

#[test]
fn root_only_start_deepens_then_widens() {
    let mut parents = vec![0u32];
    let mut tax = rebuilt(&parents);
    assert_eq!((tax.depth(), tax.num_items()), (0, 0));
    // The root is a childless leaf here and still takes children.
    assert!(push_and_check(&mut tax, &mut parents, NodeId::ROOT));
    assert_eq!((tax.depth(), tax.num_items()), (1, 1));
    assert!(push_and_check(&mut tax, &mut parents, NodeId::ROOT));
    assert_eq!(tax.level_sizes(), vec![1, 2]);
    // Both children are items now: frozen.
    assert!(!push_and_check(&mut tax, &mut parents, NodeId(1)));
}

#[test]
fn leaf_under_a_level_one_category_lands_mid_csr() {
    // root → {a, b}; a → {x}; b → {y}: a's run sits before b's.
    let mut parents = vec![0, 0, 0, 1, 2];
    let mut tax = rebuilt(&parents);
    assert!(push_and_check(&mut tax, &mut parents, NodeId(1)));
    assert_eq!(tax.children(NodeId(1)), &[3, 5]);
    assert_eq!(tax.children(NodeId(2)), &[4]);
    assert_eq!(tax.level(NodeId(5)), 2);
}

#[test]
fn last_node_and_last_interior_node_as_parent() {
    // root → {a}; a → {b}; b → {x}: b is the last interior node, x the
    // last node (an item, so frozen).
    let mut parents = vec![0, 0, 1, 2];
    let mut tax = rebuilt(&parents);
    assert!(!push_and_check(&mut tax, &mut parents, NodeId(3)));
    assert!(push_and_check(&mut tax, &mut parents, NodeId(2)));
    assert_eq!(tax.children(NodeId(2)), &[3, 4]);
    // One past the arena, and far past it.
    assert!(!push_and_check(&mut tax, &mut parents, NodeId(5)));
    assert!(!push_and_check(&mut tax, &mut parents, NodeId(u32::MAX)));
}
