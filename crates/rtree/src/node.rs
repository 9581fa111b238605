//! R-tree nodes: the owned AoS representation, and how it relates to the
//! SoA decode arena.
//!
//! A [`Node`] is the *construction and storage* representation of one disk
//! page: an array-of-structures `Vec` of [`ChildEntry`]s (non-leaf) or data
//! objects (leaf). Bulk loading and the page codec operate on this form,
//! because those paths need owned, growable entry lists.
//!
//! The join hot loops do **not** scan this form. Leaf scans in
//! `cij-core` and `cij-voronoi` go through the structure-of-arrays
//! [`NodeArena`](crate::arena::NodeArena) instead: the decoded node is
//! visited by reference
//! ([`NodeReader::visit`](crate::reader::NodeReader::visit) →
//! `PageStore::try_read_with`) and its entries are transposed into contiguous
//! x/y coordinate arrays with a fixed stride derived from
//! [`node_byte_budget`](crate::tree::RTreeConfig::node_byte_budget). That
//! keeps per-node work allocation-free after warm-up and lets batch geometry
//! kernels run over plain `[f64]` slices.
//!
//! The index queries follow the same rule: [`RTree::range_query`] (hence
//! `scan_all`), `bounding_rect` and the best-first
//! [`NearestNeighbourIter`](crate::nn::NearestNeighbourIter) visit each node
//! **by reference** ([`RTree::try_visit_node`] →
//! `PageStore::try_read_with`) and copy out only the objects they return —
//! or, for the best-first walk, the entries it queues: all of a node's
//! under `nearest_iter`; under `k_nearest` only the children that order
//! before the current `k`-th answer, its objects going to the answer array
//! (each cloned only if it is among the `k` nearest met so far).
//! The owned [`RTree::try_read_node`] — which clones a buffered node on
//! every call — is for callers that keep the node's entries (the
//! paired-node joins), oracles and tests; both touch the buffer and count
//! hits, misses and bytes alike.
//!
//! [`RTree::range_query`]: crate::tree::RTree::range_query
//! [`RTree::try_visit_node`]: crate::tree::RTree::try_visit_node
//! [`RTree::try_read_node`]: crate::tree::RTree::try_read_node

use crate::object::RTreeObject;
use cij_geom::Rect;
use cij_pagestore::PageId;

/// An entry of a non-leaf node: the MBR of a child subtree and the page id of
/// the child node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildEntry {
    /// MBR covering everything in the child subtree.
    pub mbr: Rect,
    /// Page holding the child node.
    pub page: PageId,
}

impl ChildEntry {
    /// Approximate on-disk size of a child entry (four coordinates plus a
    /// page pointer), used to derive the non-leaf fanout from the page size.
    pub const BYTES: usize = 4 * std::mem::size_of::<f64>() + std::mem::size_of::<u32>();
}

/// An R-tree node, stored as one disk page.
///
/// `level == 0` means leaf; leaves hold data objects, non-leaf nodes hold
/// [`ChildEntry`]s. A node never holds both.
#[derive(Debug, Clone, PartialEq)]
pub struct Node<D> {
    /// Height of the node above the leaf level (0 = leaf).
    pub level: u32,
    /// Child entries (non-empty only for non-leaf nodes).
    pub children: Vec<ChildEntry>,
    /// Data objects (non-empty only for leaves).
    pub objects: Vec<D>,
}

impl<D: RTreeObject> Node<D> {
    /// Creates an empty leaf.
    pub fn new_leaf() -> Self {
        Node {
            level: 0,
            children: Vec::new(),
            objects: Vec::new(),
        }
    }

    /// Creates an empty non-leaf node at the given level (>= 1).
    pub fn new_inner(level: u32) -> Self {
        debug_assert!(level >= 1);
        Node {
            level,
            children: Vec::new(),
            objects: Vec::new(),
        }
    }

    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries (objects for leaves, children otherwise).
    pub fn len(&self) -> usize {
        if self.is_leaf() {
            self.objects.len()
        } else {
            self.children.len()
        }
    }

    /// Whether the node holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// MBR covering every entry of the node.
    pub fn mbr(&self) -> Rect {
        let mut mbr = Rect::empty();
        if self.is_leaf() {
            for o in &self.objects {
                mbr = mbr.union(&o.mbr());
            }
        } else {
            for c in &self.children {
                mbr = mbr.union(&c.mbr);
            }
        }
        mbr
    }

    /// Total payload bytes of the node's entries (excluding the node header).
    pub fn payload_bytes(&self) -> usize {
        if self.is_leaf() {
            self.objects.iter().map(|o| o.entry_bytes()).sum()
        } else {
            self.children.len() * ChildEntry::BYTES
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::PointObject;
    use cij_geom::Point;

    #[test]
    fn leaf_mbr_covers_all_points() {
        let mut leaf: Node<PointObject> = Node::new_leaf();
        leaf.objects.push(PointObject::new(0, Point::new(1.0, 1.0)));
        leaf.objects.push(PointObject::new(1, Point::new(5.0, 3.0)));
        leaf.objects.push(PointObject::new(2, Point::new(2.0, 9.0)));
        let mbr = leaf.mbr();
        assert_eq!(mbr, Rect::from_coords(1.0, 1.0, 5.0, 9.0));
        assert!(leaf.is_leaf());
        assert_eq!(leaf.len(), 3);
        assert_eq!(leaf.payload_bytes(), 3 * 24);
    }

    #[test]
    fn inner_node_mbr_covers_children() {
        let mut inner: Node<PointObject> = Node::new_inner(1);
        inner.children.push(ChildEntry {
            mbr: Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            page: cij_pagestore::PageId(0),
        });
        inner.children.push(ChildEntry {
            mbr: Rect::from_coords(4.0, 4.0, 6.0, 8.0),
            page: cij_pagestore::PageId(1),
        });
        assert!(!inner.is_leaf());
        assert_eq!(inner.mbr(), Rect::from_coords(0.0, 0.0, 6.0, 8.0));
        assert_eq!(inner.payload_bytes(), 2 * ChildEntry::BYTES);
    }

    #[test]
    fn empty_node_has_empty_mbr() {
        let leaf: Node<PointObject> = Node::new_leaf();
        assert!(leaf.is_empty());
        assert!(leaf.mbr().is_empty());
    }
}
