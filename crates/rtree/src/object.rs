//! Objects stored in R-tree leaves: data points and Voronoi cells.

use cij_geom::{ConvexPolygon, Point, Rect};
use cij_pagestore::{FrameReader, FrameWriter};

/// Identifier of a data object (a point of `P`/`Q` or a Voronoi cell).
///
/// Object ids are assigned by the caller (typically the index of the point in
/// the original dataset) and are carried through joins so result pairs can be
/// reported as `(p_id, q_id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

/// A payload that can be stored in an R-tree leaf.
///
/// The trait exposes what the tree needs: the object's MBR (for tree
/// organisation and query pruning), its serialized size in bytes (so leaf
/// nodes respect the 1 KB page budget — Voronoi cells have variable size,
/// as Section III-C of the paper discusses), and the leaf-entry codec the
/// node serializer ([`PagePayload`](cij_pagestore::PagePayload) for
/// [`Node`](crate::node::Node)) builds on, so whole trees can live on any
/// [`PageBackend`](cij_pagestore::PageBackend).
///
/// Codec contract: [`RTreeObject::encode_entry`] must append **exactly**
/// [`RTreeObject::entry_bytes`] bytes, and [`RTreeObject::decode_entry`]
/// must consume exactly what `encode_entry` wrote and reconstruct an
/// observably identical object (floats transfer bit-exactly through the
/// frame cursors). The workspace round-trip property tests enforce this.
/// A count or length read from the frame is never trusted with an
/// allocation: a decoder takes a list's bytes before it reserves for it.
pub trait RTreeObject: Clone {
    /// Minimum bounding rectangle of the object.
    fn mbr(&self) -> Rect;
    /// Exact serialized size of one leaf entry holding this object.
    fn entry_bytes(&self) -> usize;
    /// Identifier of the object.
    fn id(&self) -> ObjectId;
    /// Serializes one leaf entry (exactly [`RTreeObject::entry_bytes`]
    /// bytes).
    fn encode_entry(&self, w: &mut FrameWriter);
    /// Deserializes one leaf entry, the inverse of
    /// [`RTreeObject::encode_entry`].
    fn decode_entry(r: &mut FrameReader<'_>) -> Self;
    /// Deserializes the `count` entries of one leaf, in order — what the
    /// node codec calls. The provided body decodes entry by entry and grows
    /// its vector as entries arrive, so a `count` the frame cannot hold
    /// ends in the reader's truncation panic having reserved nothing;
    /// fixed-width objects override it with one bulk take.
    fn decode_entries(r: &mut FrameReader<'_>, count: usize) -> Vec<Self> {
        let mut entries = Vec::new();
        for _ in 0..count {
            entries.push(Self::decode_entry(r));
        }
        entries
    }
}

/// A point object: a member of one of the joined pointsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointObject {
    /// Object identifier (index of the point in its dataset).
    pub id: ObjectId,
    /// The point itself.
    pub point: Point,
}

impl PointObject {
    /// Creates a point object.
    pub fn new(id: u64, point: Point) -> Self {
        PointObject {
            id: ObjectId(id),
            point,
        }
    }

    /// Wraps a full dataset, assigning ids `0..n`.
    pub fn from_points(points: &[Point]) -> Vec<PointObject> {
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| PointObject::new(i as u64, p))
            .collect()
    }
}

/// The little-endian `u64` at `raw[at..at + 8]` of a fixed-width entry.
fn u64_at(raw: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&raw[at..at + 8]);
    u64::from_le_bytes(word)
}

/// The `f64` there, bit for bit.
pub(crate) fn f64_at(raw: &[u8], at: usize) -> f64 {
    f64::from_bits(u64_at(raw, at))
}

impl PointObject {
    /// Serialized size of a point entry: the object id plus two coordinates.
    const ENTRY_BYTES: usize = std::mem::size_of::<u64>() + 2 * std::mem::size_of::<f64>();

    fn from_entry(raw: &[u8; Self::ENTRY_BYTES]) -> Self {
        PointObject::new(u64_at(raw, 0), Point::new(f64_at(raw, 8), f64_at(raw, 16)))
    }
}

impl RTreeObject for PointObject {
    fn mbr(&self) -> Rect {
        Rect::from_point(self.point)
    }

    fn entry_bytes(&self) -> usize {
        Self::ENTRY_BYTES
    }

    fn id(&self) -> ObjectId {
        self.id
    }

    fn encode_entry(&self, w: &mut FrameWriter) {
        w.put_u64(self.id.0);
        w.put_f64(self.point.x);
        w.put_f64(self.point.y);
    }

    fn decode_entry(r: &mut FrameReader<'_>) -> Self {
        let id = r.take_u64();
        let x = r.take_f64();
        let y = r.take_f64();
        PointObject::new(id, Point::new(x, y))
    }

    fn decode_entries(r: &mut FrameReader<'_>, count: usize) -> Vec<Self> {
        let (entries, _) = r
            .take_bytes(count.saturating_mul(Self::ENTRY_BYTES))
            .as_chunks::<{ Self::ENTRY_BYTES }>();
        entries.iter().map(Self::from_entry).collect()
    }
}

/// A Voronoi-cell object: the cell of a point, stored in the Voronoi R-trees
/// `R'P` / `R'Q` built by the FM-CIJ and PM-CIJ algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct CellObject {
    /// Identifier of the point whose cell this is.
    pub id: ObjectId,
    /// The point that generated the cell.
    pub site: Point,
    /// The Voronoi cell polygon (clipped to the space domain).
    pub cell: ConvexPolygon,
}

impl CellObject {
    /// Creates a cell object.
    pub fn new(id: u64, site: Point, cell: ConvexPolygon) -> Self {
        CellObject {
            id: ObjectId(id),
            site,
            cell,
        }
    }
}

impl RTreeObject for CellObject {
    /// The cell's bounding box widened by its tolerance
    /// ([`cij_geom::tolerance::widened`]), so that an index walk never
    /// discards a cell the join's tolerant intersection test would keep.
    fn mbr(&self) -> Rect {
        cij_geom::tolerance::widened(&self.cell.bbox())
    }

    fn entry_bytes(&self) -> usize {
        // Site + id + vertex list (two f64 per vertex) + vertex count.
        2 * std::mem::size_of::<f64>()
            + std::mem::size_of::<u64>()
            + std::mem::size_of::<u32>()
            + self.cell.len() * 2 * std::mem::size_of::<f64>()
    }

    fn id(&self) -> ObjectId {
        self.id
    }

    fn encode_entry(&self, w: &mut FrameWriter) {
        w.put_u64(self.id.0);
        w.put_f64(self.site.x);
        w.put_f64(self.site.y);
        let vertices = self.cell.vertices();
        w.put_u32(vertices.len() as u32);
        for v in vertices {
            w.put_f64(v.x);
            w.put_f64(v.y);
        }
    }

    fn decode_entry(r: &mut FrameReader<'_>) -> Self {
        let id = r.take_u64();
        let site = Point::new(r.take_f64(), r.take_f64());
        let n = r.take_u32() as usize;
        let (vertices, _) = r.take_bytes(n.saturating_mul(16)).as_chunks::<16>();
        let vertices = vertices
            .iter()
            .map(|raw| Point::new(f64_at(raw, 0), f64_at(raw, 8)))
            .collect();
        CellObject {
            id: ObjectId(id),
            site,
            cell: ConvexPolygon::new(vertices),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_object_mbr_is_degenerate() {
        let o = PointObject::new(3, Point::new(1.0, 2.0));
        let mbr = o.mbr();
        assert_eq!(mbr.lo, mbr.hi);
        assert_eq!(mbr.lo, Point::new(1.0, 2.0));
        assert_eq!(o.id(), ObjectId(3));
        assert_eq!(o.entry_bytes(), 24);
    }

    #[test]
    fn from_points_assigns_sequential_ids() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let objs = PointObject::from_points(&pts);
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0].id, ObjectId(0));
        assert_eq!(objs[1].id, ObjectId(1));
    }

    #[test]
    fn cell_object_size_grows_with_vertices() {
        let site = Point::new(5.0, 5.0);
        let square = ConvexPolygon::from_rect(&Rect::from_coords(0.0, 0.0, 10.0, 10.0));
        let cell = CellObject::new(0, site, square.clone());
        let clipped = CellObject::new(1, site, square.clip_bisector(&site, &Point::new(20.0, 7.0)));
        assert!(cell.entry_bytes() >= 4 * 16);
        assert!(clipped.entry_bytes() >= cell.entry_bytes());
        assert!(cell.mbr().contains_point(&site));
    }
}
