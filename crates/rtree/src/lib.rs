//! # cij-rtree
//!
//! A disk-based R-tree with page-level I/O accounting — the indexing
//! substrate of the CIJ reproduction (Yiu, Mamoulis & Karras, ICDE 2008).
//!
//! The paper assumes the joined pointsets `P` and `Q` are "indexed by
//! hierarchical spatial access methods, like the R-tree", stored in 1 KB
//! disk pages behind an LRU buffer, and measures algorithms by the number of
//! page accesses. This crate provides that index:
//!
//! * [`RTree`] — an R-tree built by Hilbert-packed bottom-up bulk loading
//!   (Section III-C of the paper), in memory or by external merge sort,
//!   generic over the leaf payload ([`PointObject`] for the input pointsets,
//!   [`CellObject`] for materialised Voronoi cells),
//! * best-first incremental nearest-neighbour browsing ([`RTree::nearest_iter`],
//!   Hjaltason & Samet \[11\]) — entries pop by squared `mindist`, then first
//!   met, a total order ([`NearestNeighbourIter`]); [`RTree::k_nearest`] walks
//!   that order over nodes only, its answers in a sorted `k`-slot array and a
//!   child queued only while it orders before the `k`-th answer, and answers,
//!   reads and counts exactly as `nearest_iter(q).take(k)` — and the
//!   [`TraversalQueue`] (integer-ranked keys, ties left to the heap) that
//!   BF-VOR, BatchVoronoi and the conditional filter all traverse with,
//! * range queries and Hilbert-ordered depth-first leaf traversal,
//! * the synchronous-traversal [`intersection_join`] of Brinkhoff et al. \[9\]
//!   and an ε-[`distance_join`] for comparison,
//! * page-access statistics via the shared
//!   [`IoStats`](cij_pagestore::IoStats) of `cij-pagestore`,
//! * node serialization ([`codec`]) implementing
//!   [`PagePayload`](cij_pagestore::PagePayload): every node encodes into
//!   one page frame, so trees run unchanged on the heap or the real-file
//!   [`PageBackend`](cij_pagestore::PageBackend) (pick one with
//!   [`RTree::with_stats_on`] / [`RTree::bulk_load_with_stats_on`]); decode
//!   takes each count-prefixed list's bytes in one piece before it
//!   allocates, so a count the frame cannot hold is a truncation panic.
//!
//! ## Reading nodes: two contracts, one rule
//!
//! A storage failure reaches a caller in one of two forms. **`Result`**:
//! [`RTree::try_read_node`], [`RTree::try_visit_node`] and
//! [`RTree::try_peek_node`] return it — no panicking twin; a read panics
//! only on a page id that does not exist. [`RTree::replay_read`] is no
//! read: it admits a page a traced read already pinned, and cannot fail.
//! **The latch**: traversal kernels (BatchVoronoi, the conditional filter,
//! the leaf-order walk) read through [`NodeReader`], whose failed read
//! serves an empty leaf and keeps its error until
//! [`NodeReader::take_error`]. The rule: **whoever hands a tree to a
//! latching kernel takes its error before it reports.**
//!
//! A storage failure becomes a *panic* only at a **blocking edge**, an
//! operation whose return type has no error channel: the standalone
//! operators here ([`RTree::range_query`] / `scan_all`,
//! [`RTree::nearest_iter`] / `k_nearest`,
//! [`RTree::leaf_pages_hilbert_order`], [`RTree::check_invariants`],
//! [`intersection_join`], [`distance_join`]), `cij-voronoi`'s
//! `single_voronoi` and `compute_diagram`, and `cij-core`'s collect-all
//! front doors (`QueryEngine::{run, join, multiway, grouped_nn}`, and
//! `QueryEngine::stream` of the eager FM-CIJ / PM-CIJ:
//! `"CIJ storage failure: …"`). Streams and the request
//! server fail-stop with the error in hand.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arena;
pub mod bulk;
pub mod codec;
pub mod join;
pub mod nn;
pub mod node;
pub mod object;
pub mod reader;
pub mod tree;

pub use arena::{LeafLayout, NodeArena};
pub use bulk::{DEFAULT_FILL, DEFAULT_RUN_CAPACITY};
pub use codec::NODE_HEADER_BYTES;
pub use join::{distance_join, intersection_join};
pub use nn::{NearestNeighbourIter, TraversalEntry, TraversalQueue};
pub use node::{ChildEntry, Node};
pub use object::{CellObject, ObjectId, PointObject, RTreeObject};
pub use reader::{probe, NodeReader, ReadLog, SnapshotReader};
pub use tree::{RTree, RTreeConfig};
