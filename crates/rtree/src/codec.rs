//! Node serialization: R-tree nodes as page frames.
//!
//! Implements [`PagePayload`] for [`Node`], which is what lets a whole tree
//! live on any [`PageBackend`](cij_pagestore::PageBackend) — the heap
//! simulation and the real-file backend store the exact same frames.
//!
//! ## Frame layout (little-endian)
//!
//! ```text
//! header  (12 B): level u32 | child_count u32 | object_count u32
//! children      : child_count × (mbr 4×f64 | page u32)      — non-leaf
//! objects       : object_count × RTreeObject::encode_entry  — leaf
//! padding       : zeros up to the page size
//! ```
//!
//! The header is part of the page-size budget: [`RTreeConfig`]'s fanout
//! rules subtract [`NODE_HEADER_BYTES`] before packing entries
//! ([`RTreeConfig::node_byte_budget`]), so every node the tree produces is
//! guaranteed to encode into one page frame — the store's
//! [`FrameOverflow`](cij_pagestore::FrameOverflow) rejection is a backstop,
//! not a code path.
//!
//! [`RTreeConfig`]: crate::tree::RTreeConfig
//! [`RTreeConfig::node_byte_budget`]: crate::tree::RTreeConfig::node_byte_budget

use crate::node::{ChildEntry, Node};
use crate::object::{f64_at, RTreeObject};
use cij_geom::{Point, Rect};
use cij_pagestore::{FrameReader, FrameWriter, PageId, PagePayload};

/// Serialized size of the node header (level + child count + object count).
pub const NODE_HEADER_BYTES: usize = 3 * std::mem::size_of::<u32>();

impl<D: RTreeObject> PagePayload for Node<D> {
    fn encoded_len(&self) -> usize {
        NODE_HEADER_BYTES + self.payload_bytes()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.encoded_len());
        let mut w = FrameWriter::over(std::mem::take(out));
        w.put_u32(self.level);
        w.put_u32(self.children.len() as u32);
        w.put_u32(self.objects.len() as u32);
        for c in &self.children {
            w.put_f64(c.mbr.lo.x);
            w.put_f64(c.mbr.lo.y);
            w.put_f64(c.mbr.hi.x);
            w.put_f64(c.mbr.hi.y);
            w.put_u32(c.page.0);
        }
        for o in &self.objects {
            o.encode_entry(&mut w);
        }
        *out = w.into_bytes();
        debug_assert_eq!(
            out.len() - start,
            self.encoded_len(),
            "entry_bytes() drifted from the serialized entry size"
        );
    }

    fn decode(bytes: &[u8]) -> Self {
        let mut r = FrameReader::new(bytes);
        let level = r.take_u32();
        let child_count = r.take_u32() as usize;
        let object_count = r.take_u32() as usize;
        // Both lists take their bytes before they allocate: a count the
        // frame cannot hold is the reader's truncation panic, not a
        // reservation sized by the count.
        let (children, _) = r
            .take_bytes(child_count.saturating_mul(ChildEntry::BYTES))
            .as_chunks::<{ ChildEntry::BYTES }>();
        let children = children.iter().map(decode_child).collect();
        let objects = D::decode_entries(&mut r, object_count);
        Node {
            level,
            children,
            objects,
        }
    }
}

fn decode_child(raw: &[u8; ChildEntry::BYTES]) -> ChildEntry {
    let mut page = [0u8; 4];
    page.copy_from_slice(&raw[32..]);
    ChildEntry {
        // Constructed field-by-field (not Rect::new) so the empty MBR of an
        // empty subtree round-trips bit-exactly.
        mbr: Rect {
            lo: Point::new(f64_at(raw, 0), f64_at(raw, 8)),
            hi: Point::new(f64_at(raw, 16), f64_at(raw, 24)),
        },
        page: PageId(u32::from_le_bytes(page)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{CellObject, PointObject};
    use cij_geom::ConvexPolygon;
    use proptest::prelude::*;
    use std::panic::catch_unwind;

    /// `Node::decode` as it was before the lists were taken in bulk: one
    /// cursor read per field, one `decode_entry` per object. Only for frames
    /// the encoder wrote — it trusts both counts with an allocation.
    fn decode_entrywise<D: RTreeObject>(bytes: &[u8]) -> Node<D> {
        let mut r = FrameReader::new(bytes);
        let level = r.take_u32();
        let child_count = r.take_u32() as usize;
        let object_count = r.take_u32() as usize;
        let mut children = Vec::with_capacity(child_count);
        for _ in 0..child_count {
            let lo = Point::new(r.take_f64(), r.take_f64());
            let hi = Point::new(r.take_f64(), r.take_f64());
            let page = PageId(r.take_u32());
            children.push(ChildEntry {
                mbr: Rect { lo, hi },
                page,
            });
        }
        let objects = (0..object_count).map(|_| D::decode_entry(&mut r)).collect();
        Node {
            level,
            children,
            objects,
        }
    }

    /// Both decoders read `node`'s frame — bare and padded to a page — back
    /// to `node`, and the bulk decode re-encodes to the same bytes.
    fn assert_decoders_agree<D>(node: &Node<D>)
    where
        D: RTreeObject + PartialEq + std::fmt::Debug,
    {
        let bytes = node.encode();
        let mut padded = bytes.clone();
        padded.resize(bytes.len().max(1024), 0);
        for frame in [&bytes, &padded] {
            let bulk: Node<D> = Node::decode(frame);
            assert_eq!(bulk, decode_entrywise(frame));
            assert_eq!(&bulk, node);
            assert_eq!(bulk.encode(), bytes);
        }
    }

    fn coordinate() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 6] = [0.0, -0.0, 1e-320, f64::MAX, f64::INFINITY, -1e300];
        (0usize..4 * SPECIAL.len(), -1e4f64..1e4)
            .prop_map(|(pick, drawn)| SPECIAL.get(pick).copied().unwrap_or(drawn))
    }

    proptest! {
        #[test]
        fn bulk_decode_equals_the_entry_by_entry_decode(
            points in proptest::collection::vec((0u64..u64::MAX, coordinate(), coordinate()), 0..60),
            cells in proptest::collection::vec(
                (0u64..u64::MAX, proptest::collection::vec((coordinate(), coordinate()), 0..12)),
                0..10,
            ),
            children in proptest::collection::vec(
                (0usize..5, coordinate(), coordinate(), coordinate(), coordinate(), 0u32..=u32::MAX),
                1..40,
            ),
            level in 1u32..9,
        ) {
            let mut leaf = Node::new_leaf();
            leaf.objects = points.iter()
                .map(|&(id, x, y)| PointObject::new(id, Point::new(x, y)))
                .collect();
            assert_decoders_agree(&leaf);

            let mut leaf = Node::new_leaf();
            leaf.objects = cells.iter()
                .map(|(id, ring)| {
                    let ring: Vec<Point> = ring.iter().map(|&(x, y)| Point::new(x, y)).collect();
                    let site = ring.first().copied().unwrap_or(Point::new(1.0, -1.0));
                    CellObject::new(*id, site, ConvexPolygon::new(ring))
                })
                .collect();
            assert_decoders_agree(&leaf);

            let mut inner: Node<PointObject> = Node::new_inner(level);
            inner.children = children.iter()
                .map(|&(kind, a, b, c, d, page)| ChildEntry {
                    // One in five is the empty MBR of an empty subtree.
                    mbr: if kind == 0 {
                        Rect::empty()
                    } else {
                        Rect { lo: Point::new(a, b), hi: Point::new(c, d) }
                    },
                    page: PageId(page),
                })
                .collect();
            assert_decoders_agree(&inner);
        }
    }

    /// The panic message of `decode` on `frame`, `None` if it returned.
    fn decode_panic<D: RTreeObject>(frame: &[u8]) -> Option<String> {
        catch_unwind(|| drop(Node::<D>::decode(frame)))
            .err()
            .map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .expect("a formatted panic message")
            })
    }

    /// A 1 KB frame with the given header and an otherwise valid body.
    fn frame_with_header(body: &[u8], child_count: u32, object_count: u32) -> Vec<u8> {
        let mut frame = body.to_vec();
        frame.resize(1024, 0);
        frame[4..8].copy_from_slice(&child_count.to_le_bytes());
        frame[8..12].copy_from_slice(&object_count.to_le_bytes());
        frame
    }

    #[test]
    fn a_lying_count_is_a_truncation_panic_not_an_allocation() {
        // Before the lists took their bytes first, `u32::MAX` here was a
        // 171 GB `Vec::with_capacity` — `handle_alloc_error`, SIGABRT, no
        // unwinding. Every list, every count that does not fit the page.
        let points = leaf_with_points(5).encode();
        for (list, entry_bytes) in [("objects", 24), ("children", ChildEntry::BYTES)] {
            let header = |count: u32| match list {
                "objects" => frame_with_header(&points, 0, count),
                _ => frame_with_header(&points, count, 0),
            };
            let capacity = ((1024 - NODE_HEADER_BYTES) / entry_bytes) as u32;
            for count in [u32::MAX, u32::MAX / 2, capacity + 1] {
                let message = decode_panic::<PointObject>(&header(count))
                    .unwrap_or_else(|| panic!("{count} {list} decoded"));
                assert!(
                    message.starts_with("truncated page frame: needed")
                        && message.ends_with("bytes at offset 12 of a 1024-byte frame"),
                    "{count} {list}: {message}"
                );
            }
            assert!(decode_panic::<PointObject>(&header(capacity)).is_none());
        }

        // A cell leaf: the object count (entry-by-entry default) and the
        // vertex count inside the first entry.
        let mut leaf: Node<CellObject> = Node::new_leaf();
        let square = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 2.0, 2.0));
        leaf.objects
            .push(CellObject::new(7, Point::new(1.0, 1.0), square));
        let cells = leaf.encode();
        for count in [1024, u32::MAX / 2, u32::MAX] {
            let message = decode_panic::<CellObject>(&frame_with_header(&cells, 0, count))
                .unwrap_or_else(|| panic!("cell object_count {count} decoded"));
            assert!(message.starts_with("truncated page frame"), "{message}");
            let mut frame = frame_with_header(&cells, 0, 1);
            let vertex_count = NODE_HEADER_BYTES + 24;
            frame[vertex_count..vertex_count + 4].copy_from_slice(&count.to_le_bytes());
            let message = decode_panic::<CellObject>(&frame)
                .unwrap_or_else(|| panic!("vertex count {count} decoded"));
            assert!(
                message.starts_with("truncated page frame: needed")
                    && message.ends_with("bytes at offset 40 of a 1024-byte frame"),
                "vertex count {count}: {message}"
            );
        }
    }

    #[test]
    fn every_truncation_of_a_frame_is_a_truncation_panic() {
        let mut inner: Node<PointObject> = Node::new_inner(2);
        for i in 0..3u32 {
            inner.children.push(ChildEntry {
                mbr: Rect::from_coords(0.0, 0.0, f64::from(i), 1.0),
                page: PageId(i),
            });
        }
        let mut cells: Node<CellObject> = Node::new_leaf();
        for i in 0..3u64 {
            let square = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 2.0, 2.0));
            cells
                .objects
                .push(CellObject::new(i, Point::new(1.0, 1.0), square));
        }
        let check = |name: &str, frame: Vec<u8>, decode: &dyn Fn(&[u8]) -> Option<String>| {
            assert!(decode(&frame).is_none(), "{name}: the whole frame decodes");
            for cut in 0..frame.len() {
                let message = decode(&frame[..cut])
                    .unwrap_or_else(|| panic!("{name}: {cut} of {} bytes decoded", frame.len()));
                assert!(
                    message.starts_with("truncated page frame"),
                    "{name}, {cut}: {message}"
                );
            }
        };
        check(
            "point leaf",
            leaf_with_points(4).encode(),
            &decode_panic::<PointObject>,
        );
        check("inner", inner.encode(), &decode_panic::<PointObject>);
        check("cell leaf", cells.encode(), &decode_panic::<CellObject>);
    }

    fn leaf_with_points(n: u64) -> Node<PointObject> {
        let mut node = Node::new_leaf();
        for i in 0..n {
            node.objects.push(PointObject::new(
                i,
                Point::new(i as f64 * 1.5 - 3.0, -(i as f64) / 7.0),
            ));
        }
        node
    }

    #[test]
    fn point_leaf_roundtrip_is_lossless() {
        let node = leaf_with_points(10);
        let bytes = node.encode();
        assert_eq!(bytes.len(), node.encoded_len());
        assert_eq!(bytes.len(), NODE_HEADER_BYTES + 10 * 24);
        let back: Node<PointObject> = Node::decode(&bytes);
        assert_eq!(back, node);
    }

    #[test]
    fn inner_node_roundtrip_is_lossless() {
        let mut node: Node<PointObject> = Node::new_inner(3);
        for i in 0..7u32 {
            node.children.push(ChildEntry {
                mbr: Rect::from_coords(
                    i as f64,
                    i as f64 * 2.0,
                    i as f64 + 0.5,
                    i as f64 * 2.0 + 0.25,
                ),
                page: PageId(100 + i),
            });
        }
        let bytes = node.encode();
        assert_eq!(bytes.len(), NODE_HEADER_BYTES + 7 * ChildEntry::BYTES);
        let back: Node<PointObject> = Node::decode(&bytes);
        assert_eq!(back, node);
        assert_eq!(back.level, 3);
    }

    #[test]
    fn cell_leaf_roundtrip_is_lossless() {
        let mut node: Node<CellObject> = Node::new_leaf();
        for i in 0..4u64 {
            let site = Point::new(10.0 * i as f64 + 1.0, 20.0 - i as f64);
            let mut cell = ConvexPolygon::from_rect(&Rect::from_coords(
                site.x - 5.0,
                site.y - 5.0,
                site.x + 5.0,
                site.y + 5.0,
            ));
            cell = cell.clip_bisector(&site, &Point::new(site.x + 3.0, site.y + 4.0));
            node.objects.push(CellObject::new(i, site, cell));
        }
        let bytes = node.encode();
        assert_eq!(bytes.len(), node.encoded_len());
        let back: Node<CellObject> = Node::decode(&bytes);
        assert_eq!(back, node);
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let node: Node<PointObject> = Node::new_leaf();
        let back: Node<PointObject> = Node::decode(&node.encode());
        assert_eq!(back, node);
        assert_eq!(node.encoded_len(), NODE_HEADER_BYTES);
    }

    #[test]
    fn decode_ignores_frame_padding() {
        let node = leaf_with_points(3);
        let mut frame = node.encode();
        frame.resize(1024, 0); // zero padding to a full page, as in the store
        let back: Node<PointObject> = Node::decode(&frame);
        assert_eq!(back, node);
    }

    #[test]
    fn special_float_values_survive_bit_exactly() {
        let mut node: Node<PointObject> = Node::new_inner(1);
        node.children.push(ChildEntry {
            mbr: Rect::empty(), // ±infinity corners of the union identity
            page: PageId(0),
        });
        let back: Node<PointObject> = Node::decode(&node.encode());
        assert!(back.children[0].mbr.is_empty());
        let mut leaf = Node::new_leaf();
        leaf.objects
            .push(PointObject::new(1, Point::new(-0.0, 1e-320)));
        let back: Node<PointObject> = Node::decode(&leaf.encode());
        assert_eq!(back.objects[0].point.x.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.objects[0].point.y, 1e-320);
    }
}
