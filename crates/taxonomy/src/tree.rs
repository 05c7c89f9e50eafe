//! The [`Taxonomy`] arena and its [`TaxonomyBuilder`].
//!
//! Construction is two-phase: a builder accumulates parent links in
//! insertion order (parents always precede children, so node ids are a
//! topological order), then [`TaxonomyBuilder::freeze`] computes the
//! derived structure once: CSR children, per-node levels, the dense
//! item-id space over leaves, and per-level node lists. After that the
//! only mutation is [`Taxonomy::push_leaf`], which appends one item and
//! keeps every derived index equal to what a rebuild would produce.

use crate::error::TaxonomyError;
use crate::node::{ItemId, NodeId};

/// Mutable construction phase of a [`Taxonomy`].
///
/// The builder starts with the root already present ([`NodeId::ROOT`]).
/// `add_child` appends a node under an existing parent; ids are assigned
/// densely in insertion order, which guarantees `parent.0 < child.0`.
#[derive(Debug, Clone)]
pub struct TaxonomyBuilder {
    /// `parent[i]` for every node except the root (index 0 stores `0`).
    parents: Vec<u32>,
}

impl Default for TaxonomyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TaxonomyBuilder {
    /// A builder holding only the root node.
    pub fn new() -> Self {
        TaxonomyBuilder { parents: vec![0] }
    }

    /// Pre-allocate for `n` total nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut parents = Vec::with_capacity(n.max(1));
        parents.push(0);
        TaxonomyBuilder { parents }
    }

    /// The root node id (always present).
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Number of nodes added so far (including the root).
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// `true` iff only the root exists.
    pub fn is_empty(&self) -> bool {
        self.parents.len() == 1
    }

    /// Append a new node under `parent` and return its id.
    ///
    /// Errors with [`TaxonomyError::UnknownNode`] if `parent` has not been
    /// added yet, and [`TaxonomyError::TooManyNodes`] past `u32::MAX` nodes.
    pub fn add_child(&mut self, parent: NodeId) -> Result<NodeId, TaxonomyError> {
        if parent.index() >= self.parents.len() {
            return Err(TaxonomyError::UnknownNode(parent));
        }
        let id = u32::try_from(self.parents.len()).map_err(|_| TaxonomyError::TooManyNodes)?;
        if id == u32::MAX {
            return Err(TaxonomyError::TooManyNodes);
        }
        self.parents.push(parent.0);
        Ok(NodeId(id))
    }

    /// Append `n` children under `parent`, returning their ids in order.
    pub fn add_children(&mut self, parent: NodeId, n: usize) -> Result<Vec<NodeId>, TaxonomyError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.add_child(parent)?);
        }
        Ok(out)
    }

    /// Freeze into an immutable [`Taxonomy`], computing all derived indexes.
    pub fn freeze(self) -> Taxonomy {
        Taxonomy::from_parents(self.parents)
    }
}

/// A rooted tree over product categories and items, append-only once
/// frozen (see [`push_leaf`](Taxonomy::push_leaf)).
///
/// Leaves are *items* and additionally carry a dense [`ItemId`] so that
/// per-item arrays (factor matrices, popularity tables) need no hashing.
/// All derived structure is precomputed at freeze time; every accessor is
/// O(1) except the explicitly iterator-returning ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Taxonomy {
    /// Parent of each node; `parents[0] == 0` (root points at itself).
    parents: Vec<u32>,
    /// CSR child ranges: children of `n` are `child_data[child_index[n]..child_index[n+1]]`.
    child_index: Vec<u32>,
    child_data: Vec<u32>,
    /// Depth of each node; root has level 0.
    levels: Vec<u8>,
    /// Leaf nodes in id order; `items[item_id] == node_id`.
    items: Vec<u32>,
    /// `item_of[node] == item id + 1`, or 0 for interior nodes.
    item_of: Vec<u32>,
    /// Nodes grouped by level: `by_level[l]` lists all nodes at depth `l`.
    by_level: Vec<Vec<u32>>,
}

impl Taxonomy {
    /// Build from a parent array where `parents[0] == 0` is the root and
    /// `parents[i] < i` for all `i > 0`.
    ///
    /// This is the single construction path used by the builder, the
    /// generator, and the decoder; it panics on malformed input (the
    /// builder API makes malformed input unrepresentable, and the decoder
    /// validates before calling).
    pub(crate) fn from_parents(parents: Vec<u32>) -> Taxonomy {
        let n = parents.len();
        assert!(n >= 1, "taxonomy must contain a root");
        assert_eq!(parents[0], 0, "root must be node 0 pointing at itself");
        for (i, &p) in parents.iter().enumerate().skip(1) {
            assert!(
                (p as usize) < i,
                "parent {} of node {} does not precede it",
                p,
                i
            );
        }

        // CSR children via counting sort over parents.
        let mut counts = vec![0u32; n + 1];
        for &p in parents.iter().skip(1) {
            counts[p as usize + 1] += 1;
        }
        let mut child_index = vec![0u32; n + 1];
        for i in 0..n {
            child_index[i + 1] = child_index[i] + counts[i + 1];
        }
        let mut cursor = child_index[..n].to_vec();
        let mut child_data = vec![0u32; n.saturating_sub(1)];
        for (i, &p) in parents.iter().enumerate().skip(1) {
            let slot = cursor[p as usize];
            child_data[slot as usize] = i as u32;
            cursor[p as usize] += 1;
        }

        // Levels: parents precede children, so one forward pass suffices.
        let mut levels = vec![0u8; n];
        for (i, &p) in parents.iter().enumerate().skip(1) {
            levels[i] = levels[p as usize]
                .checked_add(1)
                .expect("taxonomy deeper than 255 levels");
        }

        // Dense item-id space over leaves (in node-id order).
        let mut items = Vec::new();
        let mut item_of = vec![0u32; n];
        for i in 0..n {
            let is_leaf = child_index[i] == child_index[i + 1];
            // A root-only taxonomy has no items: the root is a tree, not a product.
            if is_leaf && i != 0 {
                item_of[i] = items.len() as u32 + 1;
                items.push(i as u32);
            }
        }

        let depth = levels.iter().copied().max().unwrap_or(0) as usize;
        let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); depth + 1];
        for (i, &l) in levels.iter().enumerate() {
            by_level[l as usize].push(i as u32);
        }

        Taxonomy {
            parents,
            child_index,
            child_data,
            levels,
            items,
            item_of,
            by_level,
        }
    }

    /// Total node count (interior + leaves + root).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.parents.len()
    }

    /// Number of leaf items.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Number of interior (category) nodes, root included.
    #[inline]
    pub fn num_interior(&self) -> usize {
        self.num_nodes() - self.num_items()
    }

    /// Maximum depth `D`; the root is at level 0, items typically at level `D`.
    #[inline]
    pub fn depth(&self) -> usize {
        self.by_level.len() - 1
    }

    /// Parent of `node`, or `None` for the root.
    ///
    /// This is `p(i)` in the paper's notation.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        if node == NodeId::ROOT {
            None
        } else {
            Some(NodeId(self.parents[node.index()]))
        }
    }

    /// The `m`-th ancestor `p^m(node)`; `p^0` is the node itself.
    /// Returns `None` if the path to the root is shorter than `m`.
    pub fn ancestor(&self, node: NodeId, m: usize) -> Option<NodeId> {
        let mut cur = node;
        for _ in 0..m {
            cur = self.parent(cur)?;
        }
        Some(cur)
    }

    /// Children of `node` (empty for leaves).
    #[inline]
    pub fn children(&self, node: NodeId) -> &[u32] {
        let i = node.index();
        &self.child_data[self.child_index[i] as usize..self.child_index[i + 1] as usize]
    }

    /// Children of `node` as `NodeId`s.
    pub fn children_ids(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(node).iter().map(|&c| NodeId(c))
    }

    /// Depth of `node` below the root.
    #[inline]
    pub fn level(&self, node: NodeId) -> usize {
        self.levels[node.index()] as usize
    }

    /// `true` iff `node` has no children. The root of a non-trivial
    /// taxonomy is never a leaf; a root-only taxonomy has a leaf root but
    /// zero items.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children(node).is_empty()
    }

    /// The dense item id of a leaf node, or `None` for interior nodes.
    #[inline]
    pub fn node_item(&self, node: NodeId) -> Option<ItemId> {
        match self.item_of[node.index()] {
            0 => None,
            v => Some(ItemId(v - 1)),
        }
    }

    /// The leaf node carrying `item`.
    ///
    /// # Panics
    /// If `item` is out of range.
    #[inline]
    pub fn item_node(&self, item: ItemId) -> NodeId {
        NodeId(self.items[item.index()])
    }

    /// All leaf nodes in item-id order.
    #[inline]
    pub fn item_nodes(&self) -> &[u32] {
        &self.items
    }

    /// Iterate the root path `node, p(node), p²(node), …, root`.
    pub fn root_path(&self, node: NodeId) -> RootPath<'_> {
        RootPath {
            tax: self,
            cur: Some(node),
        }
    }

    /// Siblings of `node` (children of its parent, *excluding* `node`).
    /// The root has no siblings.
    pub fn siblings(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let parent = self.parent(node);
        let slice: &[u32] = match parent {
            Some(p) => self.children(p),
            None => &[],
        };
        slice.iter().map(|&c| NodeId(c)).filter(move |&c| c != node)
    }

    /// Number of siblings of `node`.
    pub fn num_siblings(&self, node: NodeId) -> usize {
        match self.parent(node) {
            Some(p) => self.children(p).len() - 1,
            None => 0,
        }
    }

    /// All node ids at depth `level` (empty slice if deeper than the tree).
    pub fn nodes_at_level(&self, level: usize) -> &[u32] {
        self.by_level
            .get(level)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of nodes at each level, root first. Mirrors the paper's
    /// "23 / 270 / 1500 / 1.5M" shape description.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.by_level.iter().map(|v| v.len()).collect()
    }

    /// Internal parent table (used by the serializer).
    pub(crate) fn parents_raw(&self) -> &[u32] {
        &self.parents
    }

    /// Walk up from `node` until reaching a node at `level`, or the root.
    ///
    /// Used by category-level metrics: "the category of item i at level l".
    pub fn ancestor_at_level(&self, node: NodeId, level: usize) -> NodeId {
        let mut cur = node;
        while self.level(cur) > level {
            match self.parent(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        cur
    }

    /// Iterate every node id.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterate every item id.
    pub fn item_ids(&self) -> impl Iterator<Item = ItemId> {
        (0..self.num_items() as u32).map(ItemId)
    }

    /// Check that [`push_leaf`](Self::push_leaf) under `parent` would
    /// succeed, without touching anything — callers holding the arena
    /// behind an `Arc` run this on the shared reference so a rejected
    /// add never triggers the copy-on-write.
    ///
    /// `parent` must be an interior node: growing a leaf would turn an
    /// existing *item* into a category and shift the whole item-id space.
    pub fn check_push_leaf(&self, parent: NodeId) -> Result<(), TaxonomyError> {
        if parent.index() >= self.num_nodes() {
            return Err(TaxonomyError::UnknownNode(parent));
        }
        if self.is_leaf(parent) && parent != NodeId::ROOT {
            return Err(TaxonomyError::FrozenNode(parent));
        }
        if self.num_nodes() >= u32::MAX as usize {
            return Err(TaxonomyError::TooManyNodes);
        }
        Ok(())
    }

    /// Grow the arena **in place** by one leaf under `parent` — the "new
    /// item released today" operation behind the paper's cold-start
    /// story. Returns the ids of the added node/item.
    ///
    /// The new node is appended at the end of the arena, so **every
    /// existing `NodeId` and `ItemId` stays valid** and the new item
    /// receives the next dense `ItemId`. The result equals
    /// `from_parents(parents + [parent])` field for field, but costs one
    /// append per flat array plus one insert at the end of the parent's
    /// CSR run instead of a rebuild. On error nothing is modified.
    pub fn push_leaf(&mut self, parent: NodeId) -> Result<(NodeId, ItemId), TaxonomyError> {
        self.check_push_leaf(parent)?;
        let p = parent.index();
        let node = self.num_nodes() as u32;
        let level = self.levels[p]
            .checked_add(1)
            .expect("taxonomy deeper than 255 levels");

        // CSR: the new id is the largest, so it goes last in the
        // parent's run; every later run (the new node's empty one
        // included) starts one slot further right.
        self.child_data
            .insert(self.child_index[p + 1] as usize, node);
        for start in &mut self.child_index[p + 1..] {
            *start += 1;
        }
        self.child_index.push(self.child_data.len() as u32);

        self.parents.push(parent.0);
        self.levels.push(level);
        self.items.push(node);
        self.item_of.push(self.items.len() as u32);
        if level as usize == self.by_level.len() {
            // Only a leaf under a childless root deepens the tree.
            self.by_level.push(Vec::new());
        }
        self.by_level[level as usize].push(node);
        Ok((NodeId(node), ItemId(self.items.len() as u32 - 1)))
    }

    /// A new taxonomy with one extra leaf under `parent`: a copy of the
    /// arena grown by [`push_leaf`](Self::push_leaf).
    pub fn with_added_leaf(
        &self,
        parent: NodeId,
    ) -> Result<(Taxonomy, NodeId, ItemId), TaxonomyError> {
        self.check_push_leaf(parent)?;
        let mut tax = self.clone();
        let (node, item) = tax.push_leaf(parent)?;
        Ok((tax, node, item))
    }
}

/// Iterator over the root path of a node, starting at the node itself.
pub struct RootPath<'a> {
    tax: &'a Taxonomy,
    cur: Option<NodeId>,
}

impl Iterator for RootPath<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.cur?;
        self.cur = self.tax.parent(cur);
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.cur {
            None => (0, Some(0)),
            Some(n) => {
                let len = self.tax.level(n) + 1;
                (len, Some(len))
            }
        }
    }
}

impl ExactSizeIterator for RootPath<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Root → {a, b}; a → {x, y}; b → {z}.
    fn small() -> (Taxonomy, [NodeId; 5]) {
        let mut b = TaxonomyBuilder::new();
        let a = b.add_child(NodeId::ROOT).unwrap();
        let bb = b.add_child(NodeId::ROOT).unwrap();
        let x = b.add_child(a).unwrap();
        let y = b.add_child(a).unwrap();
        let z = b.add_child(bb).unwrap();
        (b.freeze(), [a, bb, x, y, z])
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let (_t, [a, bb, x, y, z]) = small();
        assert_eq!(
            [a, bb, x, y, z],
            [NodeId(1), NodeId(2), NodeId(3), NodeId(4), NodeId(5)]
        );
    }

    #[test]
    fn parents_and_children_agree() {
        let (t, [a, bb, x, y, z]) = small();
        assert_eq!(t.parent(x), Some(a));
        assert_eq!(t.parent(y), Some(a));
        assert_eq!(t.parent(z), Some(bb));
        assert_eq!(t.parent(a), Some(NodeId::ROOT));
        assert_eq!(t.parent(NodeId::ROOT), None);
        assert_eq!(t.children(a), &[x.0, y.0]);
        assert_eq!(t.children(bb), &[z.0]);
        assert!(t.children(z).is_empty());
    }

    #[test]
    fn levels_and_depth() {
        let (t, [a, _bb, x, ..]) = small();
        assert_eq!(t.level(NodeId::ROOT), 0);
        assert_eq!(t.level(a), 1);
        assert_eq!(t.level(x), 2);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.level_sizes(), vec![1, 2, 3]);
    }

    #[test]
    fn leaves_get_dense_item_ids() {
        let (t, [a, bb, x, y, z]) = small();
        assert_eq!(t.num_items(), 3);
        assert_eq!(t.node_item(x), Some(ItemId(0)));
        assert_eq!(t.node_item(y), Some(ItemId(1)));
        assert_eq!(t.node_item(z), Some(ItemId(2)));
        assert_eq!(t.node_item(a), None);
        assert_eq!(t.node_item(bb), None);
        for i in t.item_ids() {
            assert_eq!(t.node_item(t.item_node(i)), Some(i));
        }
    }

    #[test]
    fn root_path_walks_to_root() {
        let (t, [a, _, x, ..]) = small();
        let path: Vec<NodeId> = t.root_path(x).collect();
        assert_eq!(path, vec![x, a, NodeId::ROOT]);
        assert_eq!(t.root_path(x).len(), 3);
        assert_eq!(
            t.root_path(NodeId::ROOT).collect::<Vec<_>>(),
            vec![NodeId::ROOT]
        );
    }

    #[test]
    fn ancestor_m() {
        let (t, [a, _, x, ..]) = small();
        assert_eq!(t.ancestor(x, 0), Some(x));
        assert_eq!(t.ancestor(x, 1), Some(a));
        assert_eq!(t.ancestor(x, 2), Some(NodeId::ROOT));
        assert_eq!(t.ancestor(x, 3), None);
    }

    #[test]
    fn siblings_exclude_self() {
        let (t, [a, bb, x, y, z]) = small();
        let sx: Vec<NodeId> = t.siblings(x).collect();
        assert_eq!(sx, vec![y]);
        assert_eq!(t.num_siblings(x), 1);
        assert_eq!(t.siblings(z).count(), 0);
        let sa: Vec<NodeId> = t.siblings(a).collect();
        assert_eq!(sa, vec![bb]);
        assert_eq!(t.siblings(NodeId::ROOT).count(), 0);
    }

    #[test]
    fn nodes_at_level_partition_the_tree() {
        let (t, _) = small();
        let total: usize = (0..=t.depth()).map(|l| t.nodes_at_level(l).len()).sum();
        assert_eq!(total, t.num_nodes());
        assert_eq!(t.nodes_at_level(99), &[] as &[u32]);
    }

    #[test]
    fn ancestor_at_level_clamps_at_root() {
        let (t, [a, _, x, ..]) = small();
        assert_eq!(t.ancestor_at_level(x, 1), a);
        assert_eq!(t.ancestor_at_level(x, 0), NodeId::ROOT);
        assert_eq!(t.ancestor_at_level(x, 2), x);
        assert_eq!(t.ancestor_at_level(x, 7), x);
    }

    #[test]
    fn root_only_taxonomy_has_no_items() {
        let t = TaxonomyBuilder::new().freeze();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_items(), 0);
        assert_eq!(t.depth(), 0);
        assert!(t.is_leaf(NodeId::ROOT));
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut b = TaxonomyBuilder::new();
        assert_eq!(
            b.add_child(NodeId(5)),
            Err(TaxonomyError::UnknownNode(NodeId(5)))
        );
    }

    #[test]
    fn add_children_bulk() {
        let mut b = TaxonomyBuilder::with_capacity(10);
        let kids = b.add_children(NodeId::ROOT, 4).unwrap();
        assert_eq!(kids.len(), 4);
        let t = b.freeze();
        assert_eq!(t.children(NodeId::ROOT).len(), 4);
        assert_eq!(t.num_items(), 4);
    }

    #[test]
    fn with_added_leaf_preserves_existing_ids() {
        let (t, [a, bb, x, y, z]) = small();
        let (t2, node, item) = t.with_added_leaf(a).unwrap();
        // New node appended at the end; new item gets the next dense id.
        assert_eq!(node, NodeId(t.num_nodes() as u32));
        assert_eq!(item, ItemId(t.num_items() as u32));
        assert_eq!(t2.parent(node), Some(a));
        assert_eq!(t2.num_items(), t.num_items() + 1);
        // All prior item ids map to the same nodes.
        for i in t.item_ids() {
            assert_eq!(t.item_node(i), t2.item_node(i));
        }
        let _ = (bb, x, y, z);
    }

    #[test]
    fn with_added_leaf_rejects_leaf_parent() {
        let (t, [_, _, x, ..]) = small();
        assert_eq!(t.with_added_leaf(x), Err(TaxonomyError::FrozenNode(x)));
        assert_eq!(
            t.with_added_leaf(NodeId(99)),
            Err(TaxonomyError::UnknownNode(NodeId(99)))
        );
    }

    #[test]
    fn with_added_leaf_chains() {
        let (t, [a, ..]) = small();
        let (t2, n1, _) = t.with_added_leaf(a).unwrap();
        let (t3, n2, _) = t2.with_added_leaf(a).unwrap();
        assert_ne!(n1, n2);
        assert_eq!(t3.num_items(), t.num_items() + 2);
        assert_eq!(t3.children(a).len(), t.children(a).len() + 2);
    }

    #[test]
    fn interior_nodes_counted() {
        let (t, _) = small();
        assert_eq!(t.num_interior(), 3); // root, a, b
        assert_eq!(t.num_interior() + t.num_items(), t.num_nodes());
    }
}
